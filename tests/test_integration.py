"""Cross-structure checks on shared instances, including full-width universes."""

import random

import numpy as np
import pytest

from predsearch import (
    HashFront,
    KeyRangeError,
    KeySet,
    LayeredStructure,
    ParameterError,
    ThresholdMode,
    UniverseSpec,
    WorkingSetLayered,
    WorkloadSpec,
    XFastTrie,
    YFastTrie,
    generate_distribution,
    oracle_predecessor,
    sample_keys,
)


def all_structures(keys, dist, universe):
    return [
        XFastTrie(keys, universe),
        YFastTrie(keys, universe),
        HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5)),
        HashFront(keys, dist, universe, ThresholdMode.mode_b(0.5)),
        LayeredStructure(keys, dist, universe),
        WorkingSetLayered(keys, universe),
    ]


def test_sixty_four_bit_universe():
    universe = UniverseSpec(64)
    keys = sample_keys(universe, 500, seed=42)
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=keys.keys, s=1.2))
    rnd = random.Random(7)
    queries = ([rnd.randrange(2 ** 64) for _ in range(2000)]
               + list(keys.keys[:50]) + [0, 2 ** 64 - 1])
    for structure in all_structures(keys, dist, universe):
        for q in queries:
            assert structure.predecessor(q) == oracle_predecessor(keys, q), type(structure)


@pytest.mark.parametrize("bits,n", [(8, 1), (8, 40), (13, 700)])
def test_structures_agree_on_shared_instance(bits, n):
    universe = UniverseSpec(bits)
    rnd = random.Random(bits * 1000 + n)
    keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
    dist = generate_distribution(
        WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.7))
    structures = all_structures(keys, dist, universe)
    for _ in range(3000):
        q = rnd.randrange(universe.size)
        expected = oracle_predecessor(keys, q)
        for structure in structures:
            assert structure.predecessor(q) == expected, (type(structure), q)


@pytest.mark.parametrize("bits", [8, 64])
def test_query_type_and_range_errors(bits):
    """Every structure rejects a non-integer query with a typed error, not a stray TypeError."""
    universe = UniverseSpec(bits)
    keys = sample_keys(universe, 40, seed=bits)
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=keys.keys, s=1.0))
    for structure in all_structures(keys, dist, universe):
        with pytest.raises(ParameterError, match="key must be an int, got 3.5 of type float"):
            structure.predecessor(3.5)
        for q in (-1, 1 << bits):
            with pytest.raises(KeyRangeError):
                structure.predecessor(q)
        for k in keys.keys[::7]:
            assert structure.predecessor(np.uint64(k)) == k, type(structure)
