import math
import random
from typing import Optional, Sequence

import numpy as np
import pytest

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
    """All bits + 1 x-fast prefix tables built top-down, rescanning every key at every level.

    The reference for the trie's bottom-up build, which stores the same tables
    down to its depth only.
    """
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


def reference_search(trie: XFastTrie, levels, q: int) -> tuple[Optional[int], int]:
    """The x-fast level search run to full depth: (weak predecessor of q, probes).

    levels are reference_levels over trie's keys.  The reference for the
    trie's search, which stops at the first single-key prefix above its
    depth: this one always binary-searches all bits + 1 levels down to q's
    longest stored prefix.
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


def probes_saved(structure, trie: XFastTrie, keys: KeySet, queries) -> int:
    """Check structure's answers against the oracle and its level probes against the
    full-depth reference on trie (the structure itself or its routing trie).

    Returns how many queries took strictly fewer probes than the reference.
    """
    routed = KeySet(trie)
    levels = reference_levels(routed.keys, trie.bits)
    fewer = 0
    for q in queries:
        stats = structure.query_stats(q)
        assert stats.answer == oracle_predecessor(keys, q), q
        answer, full = reference_search(trie, levels, q)
        assert answer == oracle_predecessor(routed, q), q
        assert stats.level_probes <= full, (q, stats.level_probes, full)
        fewer += stats.level_probes < full
    return fewer


def stored_depth(trie: XFastTrie, keys) -> int:
    """The depth of the deepest table trie stores, after checking that its tables 0..depth
    are the reference's and that every level-depth prefix holds one key."""
    depth = len(trie._levels) - 1
    reference = reference_levels(keys, trie.bits)
    assert trie._levels == reference[:depth + 1]
    assert len(reference[depth]) == len(keys)
    return depth


def assert_same_as_fresh_build(trie: XFastTrie, keys) -> None:
    """An updated trie holds the reference tables down to a depth no shallower than a fresh
    build's (updates never make it shrink), and a fresh build's leaf links."""
    fresh = XFastTrie(KeySet(keys), trie.universe)
    assert stored_depth(trie, keys) >= len(fresh._levels) - 1
    assert trie._prev == fresh._prev and trie._next == fresh._next
    assert tuple(trie) == tuple(keys)


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
