import math
import random
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from predsearch import (
    KeySet,
    ParameterError,
    UniverseSpec,
    WeightedDistribution,
    WorkloadSpec,
    XFastTrie,
    generate_distribution,
    oracle_predecessor,
)
from predsearch.xfast import _build_levels

KIND_CYCLE = ("uniform", "geometric", "zipf", "pointmass")


def random_keyset(rnd: random.Random, universe: UniverseSpec, n: int) -> KeySet:
    keys = rnd.sample(range(universe.size), n) if universe.bits <= 22 else None
    if keys is None:
        seen = set()
        while len(seen) < n:
            seen.add(rnd.randrange(universe.size))
        keys = list(seen)
    return KeySet(sorted(keys))


def reference_levels(keys, bits: int) -> list[dict[int, tuple[int, int]]]:
    """All bits + 1 dense x-fast prefix tables built top-down, rescanning every key at every
    level: every non-empty prefix, down to the leaves."""
    levels = []
    for level in range(bits + 1):
        shift = bits - level
        table: dict[int, tuple[int, int]] = {}
        for k in keys:
            p = k >> shift
            entry = table.get(p)
            # keys ascend, so the first writer is the min and the last the max
            table[p] = (k, k) if entry is None else (entry[0], k)
        levels.append(table)
    return levels


def rule_levels(keys, bits: int) -> list[dict[int, tuple[int, int]]]:
    """The dense reference tables filtered by the x-fast table rule, down to the last
    non-empty level: levels 0 and 1 keep every prefix, a deeper level only the prefixes whose
    parent in the dense table holds two or more keys (min != max).

    The reference for the trie's bottom-up build, computed without leaf levels.
    """
    dense = reference_levels(keys, bits)
    levels = dense[:2]
    for level in range(2, bits + 1):
        table = {}
        for p, e in dense[level].items():
            lo, hi = dense[level - 1][p >> 1]
            if lo != hi:
                table[p] = e
        if not table:
            break
        levels.append(table)
    return levels


def reference_search(trie: XFastTrie, levels, q: int) -> tuple[Optional[int], int]:
    """The x-fast level search run to full depth: (weak predecessor of q, probes).

    levels are reference_levels over trie's keys.  The reference for the
    trie's search, which stops at the first single-key prefix: this one always
    halves all bits + 1 dense levels down to q's longest stored prefix.
    """
    bits = trie.bits
    probes = 0
    lo, hi = 0, bits
    entry = levels[0][0]
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        e = levels[mid].get(q >> (bits - mid))
        probes += 1
        if e is not None:
            lo = mid
            entry = e
        else:
            hi = mid - 1
    if lo == bits:
        return q, probes
    if (q >> (bits - lo - 1)) & 1:
        return entry[1], probes
    return trie._prev[entry[0]], probes


def probe_bound(trie: XFastTrie) -> int:
    """Most level probes one search of trie may take: floor(log2(D + 1)) + 2 over its stored
    levels 0..D, the bound its probe order is built within."""
    return len(trie._levels).bit_length() + 1


def probes_saved(structure, trie: XFastTrie, keys: KeySet, queries) -> tuple[int, int]:
    """Check structure's answers against the oracle and its level probes against the probe
    bound, and count them against the full-depth reference on trie (the structure itself
    or its routing trie).

    Returns how many queries took strictly fewer probes than the reference, and
    how many probes they took in all below the reference's total.  A biased
    probe order may spend one probe more than halving on a query that ends on a
    light level, so only the total is held below the reference's, by callers.
    """
    routed = KeySet(trie)
    levels = reference_levels(routed.keys, trie.bits)
    bound = probe_bound(trie)
    fewer = saved = 0
    for q in queries:
        stats = structure.query_stats(q)
        assert stats.answer == oracle_predecessor(keys, q), q
        answer, full = reference_search(trie, levels, q)
        assert answer == oracle_predecessor(routed, q), q
        assert stats.level_probes <= bound, (q, stats.level_probes, bound)
        fewer += stats.level_probes < full
        saved += full - stats.level_probes
    return fewer, saved


def stored_depth(trie: XFastTrie, keys) -> int:
    """The depth of the deepest table trie stores, after checking that its tables are the
    reference's under the table rule, followed only by empty tables."""
    expected = rule_levels(keys, trie.bits)
    assert trie._levels[:len(expected)] == expected
    assert not any(trie._levels[len(expected):])
    return len(trie._levels) - 1


def distinct_entries(trie: XFastTrie) -> int:
    """The number of distinct (min, max) tuples the trie's table entries point at."""
    return len({id(entry) for table in trie._levels for entry in table.values()})


def assert_same_as_fresh_build(trie: XFastTrie, keys) -> None:
    """An updated trie holds a fresh build's tables level for level, plus any empty deeper
    tables (updates never make it shrink), a fresh build's tuple sharing (2n - 1 distinct
    tuples) and a fresh build's leaf links, over keys stored as ints.

    The fresh build is ``_build_levels`` over the keys, held to the table rule's reference,
    and the links a build writes; the probe tree is left to ``audit``."""
    keys = list(keys)
    fresh = _build_levels(keys, trie.bits)[0]
    assert fresh == rule_levels(keys, trie.bits)
    assert trie._levels[:len(fresh)] == fresh and not any(trie._levels[len(fresh):])
    assert distinct_entries(trie) == 2 * len(keys) - 1
    assert trie._prev == dict(zip(keys, [None] + keys[:-1]))
    assert trie._next == dict(zip(keys, keys[1:] + [None]))
    assert tuple(trie) == tuple(keys)
    assert all(type(k) is int for k in trie)


# the fields a layered cascade keeps its key tuple, layers, pointers, recency queues and access
# clock in; only the views below and the planted faults in test_integration.py touch them
# (test_boundary.py)
CASCADE_FIELDS = frozenset({"_keys", "layers", "_succ", "_recency", "_clock", "_front", "_last"})


def layer_keys(cascade) -> list[tuple[int, ...]]:
    """Each layer's keys of a layered cascade as an ascending tuple, front layer first.

    The paper defines a cascade by which keys sit in which layer: 4, 16, 256, ...
    keys (``layer_capacities``), the last layer holding the rest, ranked by
    answer mass (static) or by recency (working set).  Layer sizes, the merged
    key list, membership and the keys' identity all derive from this view, so
    it, ``front_pointers`` and ``traced_layers`` are the only test code that
    knows how a cascade stores its layers.
    """
    return [tuple(layer) for layer in cascade.layers]


def front_pointers(cascade) -> list[tuple[int, Optional[int]]]:
    """A cascade's successor pointers as stored, in stored order: (key, next stored key or
    None) for each key that keeps one, which is each front-layer key."""
    return list(cascade._succ.items())


def traced_layers(cascade) -> list:
    """A cascade's layer objects, front layer first, as the benchmark reads them.

    ``perfbench/run.py`` reads the attribute ``layers`` and tags each traced
    y-fast call with the layer whose object it ran on, so the per-layer
    metrics hold only while every probe and promotion update is a public call
    on one of these objects.
    """
    return list(cascade.layers)


def int_like(x: int) -> st.SearchStrategy:
    """x as an int, a numpy.uint64 or, for 0 and 1, a bool: an update key of each form that
    stands for the int x."""
    return st.sampled_from([x, np.uint64(x)] + ([bool(x)] if x < 2 else []))


def separators(trie) -> tuple[int, ...]:
    """A y-fast trie's bucket separators in ascending order; none in flat form."""
    return tuple(trie._rep_trie) if trie._rep_trie is not None else ()


def random_distribution(rnd: random.Random, universe: UniverseSpec,
                        keys: KeySet, kind: str) -> WeightedDistribution:
    """Distribution over a random support mixing stored and unrelated keys."""
    support = set(rnd.sample(keys.keys, min(len(keys), 1 + rnd.randrange(64))))
    extra = rnd.randrange(1, 65)
    while extra:
        support.add(rnd.randrange(universe.size))
        extra -= 1
    spec = WorkloadSpec(kind=kind, support=tuple(sorted(support)),
                        ratio=0.25 + 0.5 * rnd.random(), s=0.5 + rnd.random())
    return generate_distribution(spec)


def empirical_entropy(samples: Sequence[int]) -> float:
    """Entropy of the empirical frequency distribution of samples, in bits."""
    if not len(samples):
        raise ParameterError("no samples")
    _, counts = np.unique(np.asarray(samples, dtype=np.uint64), return_counts=True)
    total = float(len(samples))
    return math.fsum((c / total) * math.log2(total / c) for c in counts.tolist())


class WorkingSetTracker:
    """Reference bookkeeping for the working-set bound, which tests hold the cascade to.

    Keeps reported answers in most-recent-first order; the number of distinct
    predecessors reported since a key's previous report is its position in
    that order at the moment it is reported again.
    """

    def __init__(self) -> None:
        self._order: list[int] = []

    def observe(self, answer: Optional[int]) -> Optional[int]:
        """Record a report; returns distinct reports since its last one.

        Returns None for queries with no predecessor (they report nothing) and
        for first-time reports (working-set number "n / never reported").
        """
        if answer is None:
            return None
        try:
            i = self._order.index(answer)
        except ValueError:
            self._order.insert(0, answer)
            return None
        del self._order[i]
        self._order.insert(0, answer)
        return i


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0FFEE)
