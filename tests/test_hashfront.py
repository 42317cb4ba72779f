import math
import random
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from predsearch import (
    HashFront,
    KeyRangeError,
    KeySet,
    ParameterError,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkloadSpec,
    expected_probe_bound,
    generate_distribution,
    oracle_predecessor,
    padded_log2,
    sample_keys,
)
from predsearch.core import meets_threshold


def geometric_64() -> WeightedDistribution:
    # p_i proportional to 2^-(i+1) over keys 0..63
    return WeightedDistribution({i: 2.0 ** -(i + 1) for i in range(64)})


def exact_members_above(weights: dict[int, Fraction], threshold: Fraction) -> set[int]:
    total = sum(weights.values())
    return {k for k, w in weights.items() if w / total >= threshold}


class TestThresholdMode:
    def test_mode_a_threshold_and_capacity(self):
        mode = ThresholdMode.mode_a(0.5)
        assert mode.threshold(16) == 2.0 ** -8
        assert mode.table_capacity(16) == 2.0 ** 8

    def test_mode_b_threshold_and_capacity(self):
        mode = ThresholdMode.mode_b(0.5)
        assert mode.threshold(16) == 2.0 ** -4 == 1 / 16
        assert mode.table_capacity(16) == 16.0

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
    def test_mode_a_epsilon_range(self, eps):
        with pytest.raises(ParameterError):
            ThresholdMode.mode_a(eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0])
    def test_mode_b_epsilon_range(self, eps):
        with pytest.raises(ParameterError):
            ThresholdMode.mode_b(eps)

    def test_mode_a_allows_one(self):
        assert ThresholdMode.mode_a(1.0).threshold(8) == 2.0 ** -8

    @pytest.mark.parametrize("eps", ["0.5", b"0.5", True, np.True_, None])
    @pytest.mark.parametrize("make", [ThresholdMode.mode_a, ThresholdMode.mode_b,
                                      partial(ThresholdMode, "a"), partial(ThresholdMode, "b")])
    def test_rejects_non_number_epsilon(self, make, eps):
        # float() would parse the string and read True as epsilon 1.0
        with pytest.raises(ParameterError,
                           match=rf"^epsilon must be a real number, got {re.escape(repr(eps))} of"):
            make(eps)

    @pytest.mark.parametrize("eps", [1, 0.5, np.float64(0.25), np.float32(0.5), np.float32(0.3)])
    @pytest.mark.parametrize("make", [ThresholdMode.mode_a, partial(ThresholdMode, "a")])
    def test_accepts_int_and_float_epsilon(self, make, eps):
        # either constructor stores the float, so modes that compare equal share one threshold
        mode = make(eps)
        assert type(mode.epsilon) is float and mode.epsilon == eps
        assert type(mode.threshold(16)) is float
        assert mode.threshold(16) == 2.0 ** (-16 * float(eps))


class TestBuild:
    def test_geometric_membership_mode_a(self):
        # Exact enumeration of normalized probabilities against 2^-8: ranks
        # 0..7 stay at or above the threshold once normalization scales every
        # p_i up by 1/(1 - 2^-64).
        universe = UniverseSpec(16)
        keys = KeySet([0, 10, 50])
        dist = geometric_64()
        expected = exact_members_above(
            {i: Fraction(1, 2 ** (i + 1)) for i in range(64)}, Fraction(1, 256))
        assert expected == set(range(8))
        hf = HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
        assert set(hf.table) == expected
        assert len(hf.table) <= 2 ** 8
        for key, stored in hf.table.items():
            assert stored == oracle_predecessor(keys, key)

    def test_mode_b_capacity(self):
        universe = UniverseSpec(16)
        keys = KeySet([0])
        hf = HashFront(keys, geometric_64(), universe, ThresholdMode.mode_b(0.5))
        assert hf.mode.threshold(universe.bits) == 1 / 16
        assert len(hf.table) <= 16

    def test_uniform_below_threshold_gives_empty_table(self, rnd):
        universe = UniverseSpec(16)
        support = sorted(rnd.sample(range(universe.size), 2 ** 12))
        dist = WeightedDistribution({k: 1.0 for k in support})
        keys = KeySet(sorted(rnd.sample(range(universe.size), 100)))
        hf = HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
        assert hf.table == {}
        for q in rnd.sample(support, 50):
            st = hf.query_stats(q)
            assert not st.table_hit
            assert st.answer == oracle_predecessor(keys, q)

    def test_table_stores_absent_marker_below_min_key(self):
        universe = UniverseSpec(8)
        keys = KeySet([200])
        dist = WeightedDistribution({3: 1.0})
        hf = HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
        assert hf.table == {3: None}
        assert hf.predecessor(3) is None

    def test_membership_rule_elementwise(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 64)))
        for kind_weights in ({k: rnd.random() + 1e-6 for k in rnd.sample(range(universe.size), 200)},
                             {k: 2.0 ** -i for i, k in enumerate(sorted(rnd.sample(range(universe.size), 40)))}):
            dist = WeightedDistribution(kind_weights)
            for mode in (ThresholdMode.mode_a(0.25), ThresholdMode.mode_a(0.9),
                         ThresholdMode.mode_b(0.25), ThresholdMode.mode_b(0.9)):
                hf = HashFront(keys, dist, universe, mode)
                t = mode.threshold(universe.bits)
                expected = {k for k, w in dist.items() if meets_threshold(w / dist.total, t)}
                assert set(hf.table) == expected
                assert len(hf.table) <= mode.table_capacity(universe.bits)


class TestPredecessor:
    def test_oracle_equivalence_sampled(self):
        universe = UniverseSpec(20)
        rnd = random.Random(5)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1000)))
        support = sorted(set(rnd.sample(keys.keys, 300))
                         | {rnd.randrange(universe.size) for _ in range(300)})
        dist = WeightedDistribution({k: 2.0 ** -(i % 40) for i, k in enumerate(support)})
        for mode in (ThresholdMode.mode_a(0.25), ThresholdMode.mode_a(0.5),
                     ThresholdMode.mode_a(0.9), ThresholdMode.mode_b(0.25),
                     ThresholdMode.mode_b(0.5), ThresholdMode.mode_b(0.9)):
            hf = HashFront(keys, dist, universe, mode)
            for _ in range(20_000):
                q = rnd.randrange(universe.size)
                assert hf.predecessor(q) == oracle_predecessor(keys, q)

    def test_probe_shape(self):
        universe = UniverseSpec(16)
        rnd = random.Random(11)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 256)))
        dist = geometric_64()
        hf = HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
        bound = math.ceil(math.log2(universe.bits + 1)) + 2
        t = hf.mode.threshold(universe.bits)
        for key, w in dist.items():
            st = hf.query_stats(key)
            if meets_threshold(w / dist.total, t):
                assert st.table_probes == 1 and st.table_hit and st.level_probes == 0
            else:
                assert st.table_probes == 1 and not st.table_hit
                assert st.level_probes <= bound


class TestExpectedProbeBound:
    def test_point_mass(self):
        universe = UniverseSpec(16)
        report = expected_probe_bound(WeightedDistribution({7: 1.0}), universe,
                                      ThresholdMode.mode_a(0.5))
        assert report.hit_mass == pytest.approx(1.0, abs=1e-12)
        assert report.miss_mass == 0.0

    def test_uniform_all_below(self, rnd):
        universe = UniverseSpec(16)
        support = rnd.sample(range(universe.size), 2 ** 12)
        report = expected_probe_bound(WeightedDistribution({k: 1.0 for k in support}),
                                      universe, ThresholdMode.mode_a(0.5))
        assert report.hit_mass == 0.0
        assert report.miss_mass == pytest.approx(1.0, abs=1e-9)

    def test_geometric_tail_mass_exact(self):
        universe = UniverseSpec(16)
        dist = geometric_64()
        report = expected_probe_bound(dist, universe, ThresholdMode.mode_a(0.5))
        total = sum(Fraction(1, 2 ** (i + 1)) for i in range(64))
        tail = sum(Fraction(1, 2 ** (i + 1)) for i in range(64)
                   if Fraction(1, 2 ** (i + 1)) / total < Fraction(1, 256))
        assert report.miss_mass == pytest.approx(float(tail / total), abs=1e-12)
        assert report.hit_mass + report.miss_mass == pytest.approx(1.0, abs=1e-12)

    def test_element_bounds_use_padded_log(self):
        universe = UniverseSpec(16)
        dist = WeightedDistribution({1: 3.0, 2: 1.0})
        report = expected_probe_bound(dist, universe, ThresholdMode.mode_b(0.5))
        assert report.element_bounds[1] == pytest.approx(padded_log2(padded_log2(4 / 3)))
        assert report.element_bounds[2] == pytest.approx(padded_log2(padded_log2(4.0)))

    def test_support_outside_the_universe_rejected_as_by_the_build(self):
        universe = UniverseSpec(8)
        dist = WeightedDistribution({3: 1.0, 1000: 5.0})
        for make in (partial(HashFront, KeySet([3])), expected_probe_bound):
            with pytest.raises(KeyRangeError, match=r"^key 1000 outside 8-bit universe$"):
                make(dist, universe, ThresholdMode.mode_a(0.5))

    def test_element_bounds_finite_for_subnormal_weights(self):
        """The README's geometric example reaches weights near 1e-308, where total / w overflows."""
        universe = UniverseSpec(16)
        keys = sample_keys(universe, 1024, seed=7)
        dist = generate_distribution(WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.5))
        report = expected_probe_bound(dist, universe, ThresholdMode.mode_a(0.5))
        assert len(report.element_bounds) == 1024
        assert all(map(math.isfinite, report.element_bounds.values()))
        key, w = min(dist.items(), key=lambda kw: kw[1])
        assert report.element_bounds[key] == pytest.approx(
            padded_log2(math.log2(dist.total) - math.log2(w)))

    def test_element_bounds_finite_for_weights_near_the_float_maximum(self):
        """total + 2w overflows here although total / w does not."""
        dist = WeightedDistribution({1: 1e308, 2: 7e307})
        report = expected_probe_bound(dist, UniverseSpec(8), ThresholdMode.mode_a(0.5))
        for key, w in dist.items():
            assert report.element_bounds[key] == pytest.approx(
                padded_log2(padded_log2(dist.total / w)), rel=1e-12)
        assert report.element_bounds[1] == pytest.approx(1.9589, abs=1e-4)
        assert report.element_bounds[2] == pytest.approx(2.0520, abs=1e-4)
