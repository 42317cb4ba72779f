"""The NumPy and C-level build passes against the per-key loops they replaced, compared exactly.

Each reference below is the earlier per-key build kept verbatim in spirit: the
merge that folded the query mass onto the stored keys, the ``(-p*, key)``
ranking sort, the successor loop and the front-table loop.  Masses are
compared by ``float.hex`` and tables by their item order, never with
``approx``: the fold's ``np.add.at`` must add the same probabilities in the
same order (a pairwise ``np.sum``, or ``sum()``, compensated from CPython 3.12
on, fails here), and the front table must keep its insertion order.  The
fold compares keys as ``uint64``, so a 64-bit case puts keys and support at
the top of that range, where an ``int64`` or float conversion goes wrong, and
the compact p* storage the benchmark's space figure counts is pinned too, as
is the inputs' stored form: a distribution's weights are one float64 array,
and no build checks a cut of its key set again.
"""

import math
import random

import numpy as np
import pytest
from conftest import front_pointers, layer_keys

from predsearch import (
    HashFront,
    KeyRangeError,
    KeySet,
    LayeredStructure,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    WorkloadSpec,
    expected_probe_bound,
    generate_distribution,
    layer_capacities,
    oracle_predecessor,
    output_distribution,
    sample_keys,
)
from predsearch import cli
from predsearch.core import REL_TOL, meets_threshold


def reference_masses(keys: KeySet, dist: WeightedDistribution) -> tuple[dict[int, float], float]:
    """One merge over the sorted support against the sorted keys, adding p in support order."""
    sks = keys.keys
    n = len(sks)
    masses = {s: 0.0 for s in sks}
    bottom = 0.0
    j = -1  # index of the greatest stored key <= current support key
    for x, w in dist.items():
        while j + 1 < n and sks[j + 1] <= x:
            j += 1
        p = w / dist.total
        if j < 0:
            bottom += p
        else:
            masses[sks[j]] += p
    return masses, bottom


def reference_layers(keys: KeySet, masses: dict[int, float]) -> list[tuple[int, ...]]:
    """Keys ranked by (-p*, key), cut into the 4/16/256/... capacities, each sorted."""
    ordered = sorted(keys.keys, key=lambda k: (-masses[k], k))
    layers, start = [], 0
    for c in layer_capacities(len(ordered)):
        layers.append(tuple(sorted(ordered[start:start + c])))
        start += c
    return layers


def reference_successors(keys: KeySet) -> dict:
    ks = keys.keys
    succ = {ks[i]: ks[i + 1] for i in range(len(ks) - 1)}
    succ[ks[-1]] = None
    return succ


def reference_table(keys: KeySet, dist: WeightedDistribution, universe: UniverseSpec,
                    mode: ThresholdMode) -> dict:
    """Every support key checked and tested against the threshold, in ascending order."""
    t = mode.threshold(universe.bits)
    table = {}
    for key, w in dist.items():
        universe.check_key(key)
        if meets_threshold(w / dist.total, t):
            table[key] = oracle_predecessor(keys, key)
    return table


def hexed(pairs) -> list[tuple[int, str]]:
    """(key, mass) pairs with each mass as ``float.hex``."""
    return [(k, m.hex()) for k, m in pairs]


def out_pairs(out) -> zip:
    return zip(out.keys, out.masses.tolist())


def assert_builds_match(keys: KeySet, dist: WeightedDistribution, universe: UniverseSpec,
                        modes=(ThresholdMode.mode_a(0.5), ThresholdMode.mode_b(0.5))) -> None:
    masses, bottom = reference_masses(keys, dist)
    out = output_distribution(keys, dist)
    assert hexed(out_pairs(out)) == hexed(masses.items())
    assert out.bottom_mass.hex() == bottom.hex()

    layered = LayeredStructure(keys, dist, universe)
    assert layer_keys(layered) == reference_layers(keys, masses)
    # only front-layer keys keep a pointer: the last layer's candidate needs no proof
    succ = reference_successors(keys)
    front = sorted(k for layer in layer_keys(layered)[:-1] for k in layer)
    assert front_pointers(layered) == [(k, succ[k]) for k in front]
    assert hexed(out_pairs(layered.output)) == hexed(masses.items())
    ws = WorkingSetLayered(keys, universe)
    ws_front = sorted(k for layer in layer_keys(ws)[:-1] for k in layer)
    assert front_pointers(ws) == [(k, succ[k]) for k in ws_front]

    for mode in modes:
        hf = HashFront(keys, dist, universe, mode)
        assert list(hf.table.items()) == list(reference_table(keys, dist, universe, mode).items())
        report = expected_probe_bound(dist, universe, mode)
        weights = dict(dist.items())
        assert report.hit_mass == math.fsum(weights[k] / dist.total for k in hf.table)


def test_zero_mass_ties():
    """Most keys answer no query: their masses tie at 0.0 and must rank by ascending key."""
    universe = UniverseSpec(16)
    keys = KeySet(range(0, 60_000, 97))
    dist = WeightedDistribution({5_000: 3.0, 5_001: 1.0, 30_000: 2.0, 59_000: 0.5})
    masses, _ = reference_masses(keys, dist)
    assert sum(m == 0.0 for m in masses.values()) > 600
    assert_builds_match(keys, dist, universe)


def test_equal_masses():
    """Uniform weights on the keys themselves: every mass is equal, so the key breaks every tie."""
    universe = UniverseSpec(12)
    keys = KeySet(range(3, 4096, 11))
    assert_builds_match(keys, WeightedDistribution({k: 1.0 for k in keys}), universe)


def test_support_below_smallest_and_above_largest_key():
    universe = UniverseSpec(16)
    keys = KeySet([1_000, 2_000, 3_000, 40_000])
    dist = WeightedDistribution({0: 1.0, 5: 2.0, 999: 0.25, 1_000: 1.0, 2_500: 0.5,
                                 40_000: 3.0, 50_000: 4.0, 65_535: 0.125})
    masses, bottom = reference_masses(keys, dist)
    assert bottom > 0.0 and masses[40_000] > dict(dist.items())[40_000] / dist.total
    assert_builds_match(keys, dist, universe)


def test_subnormal_weights():
    """The README's geometric example: ratio 0.5 per rank, tails down to the smallest double."""
    universe = UniverseSpec(16)
    keys = sample_keys(universe, 1024, seed=7)
    support = sample_keys(universe, 2048, seed=8)
    dist = generate_distribution(WorkloadSpec(kind="geometric", support=support.keys, ratio=0.5))
    assert min(w for _, w in dist.items()) < 2.0 ** -1022
    assert_builds_match(keys, dist, universe)


@pytest.mark.parametrize("seed", range(1, 11))
def test_seeded_zipf_over_gap_points(seed):
    """The benchmark's shape, scaled down: zipf ranks at random points of a 32-bit universe."""
    universe = UniverseSpec(32)
    keys = sample_keys(universe, 1 << 12, seed)
    points = list(sample_keys(universe, 1 << 12, seed, stream=2).keys)
    random.Random(seed).shuffle(points)
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=tuple(points), s=1.0))
    assert_builds_match(keys, dist, universe, modes=(ThresholdMode.mode_a(0.5),
                                                     ThresholdMode.mode_a(0.25),
                                                     ThresholdMode.mode_b(0.5)))


def test_top_of_64_bit_universe():
    """Keys and support in [2**63, 2**64), support on keys, and the points 0 and 2**64 - 1:
    an int64 conversion overflows or goes negative there, a float one merges neighbours."""
    universe = UniverseSpec(64)
    rnd = random.Random(64)
    top = (1 << 64) - 1
    keys = KeySet(sorted({1 << 63, top - 1, top} | {rnd.randrange(1 << 63, top) for _ in range(600)}))
    on_keys = rnd.sample(keys.keys, 200) + [keys[0], keys[-1]]
    beside = [k + d for k in rnd.sample(keys.keys[1:-2], 100) for d in (-1, 1)]
    points = set(on_keys + beside + [rnd.randrange(1 << 63, 1 << 64) for _ in range(300)])
    dist = WeightedDistribution({x: rnd.choice([1.0, 0.5, 3.0, rnd.random() + 1e-3])
                                 for x in points | {0, top, (1 << 63) - 1}})
    masses, bottom = reference_masses(keys, dist)
    assert bottom > 0.0 and masses[top] > 0.0
    assert_builds_match(keys, dist, universe)


@pytest.mark.parametrize("key_values, support", [
    ([5, 1 << 64, 1 << 70], [3]),
    ([5, (1 << 64) - 1], [3, 1 << 64, 1 << 70]),
])
def test_fold_rejects_values_of_2_to_64_and_above(key_values, support):
    """Nothing past the 64-bit universe fits a uint64: the fold names the smallest offender."""
    dist = WeightedDistribution({x: 1.0 for x in support})
    with pytest.raises(KeyRangeError, match=r"^key 18446744073709551616 outside 64-bit universe$"):
        output_distribution(KeySet(key_values), dist)


def test_compact_p_star_storage():
    """p* is one float64 array that owns its buffer (a view would hide it from a size count),
    beside the key set's own tuple, and every layer holds the tuple's own int objects."""
    universe = UniverseSpec(32)
    keys = sample_keys(universe, 1 << 12, 3)
    points = sample_keys(universe, 1 << 12, 3, stream=2).keys
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=points, s=1.0))
    layered = LayeredStructure(keys, dist, universe)
    out = layered.output
    assert type(out.masses) is np.ndarray and out.masses.dtype == np.float64
    assert out.masses.shape == (len(keys),) and out.masses.base is None
    assert not out.masses.flags.writeable
    assert out.keys is keys.keys
    assert type(out.p_star(keys[0])) is float and type(out.bottom_mass) is float
    own = {k: k for k in keys}
    for structure in (layered, WorkingSetLayered(keys, universe)):
        assert all(k is own[k] for layer in layer_keys(structure) for k in layer)


def test_builds_read_inputs_as_stored(monkeypatch):
    """The weights are one read-only float64 array that owns its buffer, and no build of any
    structure wraps a cut of the key set in a checked KeySet again: the layers, the bucket
    separators and the fallback trie all take their keys unchecked."""
    universe = UniverseSpec(16)
    keys = sample_keys(universe, 4096, 5)  # the y-fast tries here, and the last layer, bucket
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=keys.keys[::3], s=1.0))
    assert type(dist.weights) is np.ndarray and dist.weights.dtype == np.float64
    assert dist.weights.shape == (len(dist.support),) and dist.weights.base is None
    assert not dist.weights.flags.writeable
    assert all(type(k) is int and type(w) is float for k, w in dist.items())
    checked = []
    init = KeySet.__init__
    monkeypatch.setattr(KeySet, "__init__", lambda self, ks: checked.append(1) or init(self, ks))
    for name in cli.STRUCTURES:
        eps = 0.5 if name.startswith("hashfront") else None
        structure = cli.build_structure(name, keys, dist, universe, eps)
        assert checked == [], name
        structure.audit()
    assert len(layer_keys(structure)[-1]) > universe.bits ** 2  # the last layer is in bucket form


@pytest.mark.parametrize("factor, in_table", [
    (1.0, True),                  # exactly at the threshold
    (1 - REL_TOL / 2, True),      # within REL_TOL below it: the inclusive rule keeps it
    (1 - 2 * REL_TOL, False),     # 2 * REL_TOL below it
    (1 - 3.9 * REL_TOL, False),   # passes the NumPy prefilter mask, fails the rule
    (1 - 4.1 * REL_TOL, False),   # stopped by the prefilter
])
def test_threshold_edges(factor, in_table):
    """256 keys of weight 1 put each at exactly 2**-8, the 16-bit mode A (0.5) threshold;
    one edge key's weight is then scaled by factor."""
    universe = UniverseSpec(16)
    mode = ThresholdMode.mode_a(0.5)
    keys = KeySet(range(100, 60_000, 173))
    support = list(range(7, 65_536, 256))
    edge = support[100]
    dist = WeightedDistribution({k: factor if k == edge else 1.0 for k in support})
    t = mode.threshold(universe.bits)
    p = dict(dist.items())[edge] / dist.total
    if factor == 1.0:
        assert p == t
    assert meets_threshold(p, t) is in_table
    assert (p >= t * (1 - 4 * REL_TOL)) is (factor > 1 - 4 * REL_TOL)
    hf = HashFront(keys, dist, universe, mode)
    assert (edge in hf.table) is in_table
    assert_builds_match(keys, dist, universe, modes=(mode,))
    report = expected_probe_bound(dist, universe, mode)
    assert report.miss_mass == (0.0 if in_table else p)


def test_out_of_universe_support_names_smallest_offending_key():
    """The static cascade and the hash-front reject the same support with the same error."""
    universe = UniverseSpec(8)
    keys = KeySet([1, 50, 200])
    dist = WeightedDistribution({3: 1.0, 7_000: 1.0, 300: 2.0, 256: 0.5, 255: 1.0})
    with pytest.raises(KeyRangeError, match=r"^key 256 outside 8-bit universe$"):
        HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
    with pytest.raises(KeyRangeError, match=r"^key 256 outside 8-bit universe$"):
        LayeredStructure(keys, dist, universe)
    with pytest.raises(KeyRangeError, match=r"^key 256 outside 8-bit universe$"):
        reference_table(keys, dist, universe, ThresholdMode.mode_a(0.5))
