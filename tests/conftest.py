import random

import pytest

from predsearch import (
    KeySet,
    UniverseSpec,
    WeightedDistribution,
    WorkloadSpec,
    XFastTrie,
    generate_distribution,
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
    """The x-fast prefix tables built top-down, rescanning every key at every level.

    The reference for the trie's bottom-up build: same tables, loop by loop.
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


def assert_same_as_fresh_build(trie: XFastTrie, keys) -> None:
    """An updated trie holds exactly the tables and leaf links a fresh build would."""
    fresh = XFastTrie(KeySet(keys), trie.universe)
    assert trie._levels == fresh._levels
    assert trie._prev == fresh._prev and trie._next == fresh._next
    assert trie.leaves == tuple(keys)


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


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0FFEE)
