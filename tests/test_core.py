import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predsearch import (
    InvalidDistributionError,
    KeyRangeError,
    KeySet,
    ParameterError,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    WorkloadSpec,
    entropy,
    generate_distribution,
    oracle_predecessor,
    output_distribution,
    padded_log2,
    sample_keys,
)
from predsearch.core import meets_threshold


def hp_entropy(weights: dict[int, float]) -> float:
    """Independent arbitrary-precision entropy evaluation (50 digits)."""
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.mpf(w) for w in weights.values())
        h = mpmath.fsum(
            (mpmath.mpf(w) / total) * mpmath.log(total / mpmath.mpf(w), 2)
            for w in weights.values() if w > 0
        )
        return float(h)


class TestUniverseSpec:
    def test_size(self):
        assert UniverseSpec(3).size == 8
        assert UniverseSpec(64).size == 2 ** 64

    @pytest.mark.parametrize("bits", [0, -1, 65, True])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(ParameterError):
            UniverseSpec(bits)

    def test_check_key(self):
        u = UniverseSpec(4)
        assert u.check_key(15) == 15
        with pytest.raises(KeyRangeError):
            u.check_key(16)

    @pytest.mark.parametrize("bits", [1, 4, 63, 64])
    def test_check_key_range_edges(self, bits):
        u = UniverseSpec(bits)
        top = (1 << bits) - 1
        assert u.check_key(0) == 0 and u.check_key(top) == top
        assert u.check_key(np.uint64(top)) == top
        for bad in (-1, 1 << bits, -(1 << 70), 1 << 70, np.int64(-1)):
            with pytest.raises(KeyRangeError, match=f"outside {bits}-bit universe"):
                u.check_key(bad)

    @pytest.mark.parametrize("key", [3.5, 2.0, "7", None, np.float64(1.0)])
    def test_check_key_rejects_non_integers(self, key):
        with pytest.raises(ParameterError, match="key must be an int, got .* of type "):
            UniverseSpec(4).check_key(key)


class TestKeySet:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            KeySet([])

    def test_rejects_unsorted_and_duplicates(self):
        with pytest.raises(ParameterError):
            KeySet([3, 2])
        with pytest.raises(ParameterError):
            KeySet([2, 2])

    def test_rejects_bool_keys(self):
        with pytest.raises(ParameterError):
            KeySet([True, 2])

    def test_rejects_non_int_keys(self):
        for keys in ([1, 2.0], [1, "3"], [None, 4]):
            with pytest.raises(ParameterError):
                KeySet(keys)

    def test_contains(self):
        ks = KeySet([2, 5])
        assert 5 in ks and 2 in ks and 3 not in ks and 1 not in ks


class TestEntropy:
    def test_uniform_over_eight(self):
        d = WeightedDistribution({k: 1.0 for k in range(8)})
        assert entropy(d) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(WeightedDistribution({42: 1.0})) == 0.0

    def test_4_2_1_1(self):
        # 1/2*1 + 1/4*2 + 1/8*3 + 1/8*3 = 1.75, cross-checked at 50 digits
        weights = {0: 4.0, 1: 2.0, 2: 1.0, 3: 1.0}
        assert hp_entropy(weights) == pytest.approx(1.75, abs=1e-15)
        assert entropy(WeightedDistribution(weights)) == pytest.approx(1.75, abs=1e-12)

    def test_matches_high_precision_reference(self, rnd):
        for _ in range(20):
            weights = {rnd.randrange(1 << 20): rnd.random() + 1e-9
                       for _ in range(rnd.randrange(1, 40))}
            d = WeightedDistribution(weights)
            assert entropy(d) == pytest.approx(hp_entropy(weights), abs=1e-9)

    def test_subnormal_weight(self):
        # total / w overflows to inf for the smallest double; the term itself is about 5e-321
        weights = {1: 1.0, 2: 5e-324}
        h = entropy(WeightedDistribution(weights))
        assert h == pytest.approx(hp_entropy(weights), abs=1e-9)
        assert 0.0 < h < 1e-300
        out = output_distribution(KeySet([1, 2]), WeightedDistribution(weights))
        assert out.entropy_bits() == pytest.approx(hp_entropy(weights), abs=1e-9)
        assert output_distribution(KeySet([1]), WeightedDistribution({1: 3.0})).entropy_bits() == 0.0

    def test_readme_geometric_example(self):
        """The README's 1024-key geometric (ratio 0.5) weights: total / w overflows in the tail."""
        keys = sample_keys(UniverseSpec(16), 1024, seed=7)
        dist = generate_distribution(WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.5))
        assert dist.total / min(w for _, w in dist.items()) == math.inf
        h = entropy(dist)
        assert h == pytest.approx(hp_entropy(dict(dist.items())), abs=1e-9)
        assert h == pytest.approx(2.0, abs=1e-9)
        assert output_distribution(keys, dist).entropy_bits() == pytest.approx(2.0, abs=1e-9)

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistributionError):
            WeightedDistribution({1: 0.0})
        with pytest.raises(InvalidDistributionError):
            WeightedDistribution({1: -2.0})
        with pytest.raises(InvalidDistributionError):
            WeightedDistribution({1: float("inf")})
        with pytest.raises(InvalidDistributionError):
            WeightedDistribution({})
        # each weight is finite, but their sum is above the largest float
        with pytest.raises(InvalidDistributionError, match="total weight of 2 keys overflows a float"):
            WeightedDistribution({1: 1e308, 2: 1e308})
        assert WeightedDistribution({1: 1e308, 2: 7e307}).total == 1.7e308

    @pytest.mark.parametrize("key, type_name", [("a", "str"), (1.5, "float"), (True, "bool")])
    def test_rejects_non_int_keys(self, key, type_name):
        # KeySet's rule and message: bool is an int subclass but not a key
        with pytest.raises(ParameterError, match=f"keys must be ints, got {key!r} of type {type_name}"):
            WeightedDistribution({2: 1.0, key: 1.0})

    @pytest.mark.parametrize("weight, type_name", [("2", "str"), (b"3", "bytes"),
                                                   (bytearray(b"3"), "bytearray"),
                                                   (True, "bool")])
    def test_rejects_non_number_weights(self, weight, type_name):
        # float() would parse the strings and read True as 1.0
        with pytest.raises(InvalidDistributionError,
                           match=f"weight for key 1 must be a number, got .* of type {type_name}"):
            WeightedDistribution({2: 1.0, 1: weight})

    def test_accepts_numpy_numbers(self):
        d = WeightedDistribution({1: np.float64(0.5), 2: np.int64(3), 3: 2, 4: 0.5})
        assert list(d.items()) == [(1, 0.5), (2, 3.0), (3, 2.0), (4, 0.5)]

    @given(st.dictionaries(st.integers(min_value=0, max_value=2 ** 32 - 1),
                           st.floats(min_value=1e-12, max_value=1e12),
                           min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_bounds(self, weights):
        d = WeightedDistribution(weights)
        h = entropy(d)
        assert -1e-9 <= h <= math.log2(d.support_size) + 1e-9


def brute_force_output(universe: UniverseSpec, keys: KeySet,
                       dist: WeightedDistribution):
    """Accumulate p* by scanning every universe element (test oracle only)."""
    masses = {s: 0.0 for s in keys}
    bottom = 0.0
    weights = dict(dist.items())
    for q in range(universe.size):
        p = weights.get(q, 0.0) / dist.total
        if p == 0.0:
            continue
        pred = None
        for s in keys:  # linear scan on purpose
            if s <= q:
                pred = s
        if pred is None:
            bottom += p
        else:
            masses[pred] += p
    return masses, bottom


class TestOutputDistribution:
    def test_u8_two_keys_uniform(self):
        universe = UniverseSpec(3)
        keys = KeySet([2, 5])
        dist = WeightedDistribution({k: 1.0 for k in range(8)})
        expected, expected_bottom = brute_force_output(universe, keys, dist)
        out = output_distribution(keys, dist)
        assert out.p_star(2) == pytest.approx(3 / 8, abs=1e-12)
        assert out.p_star(5) == pytest.approx(3 / 8, abs=1e-12)
        assert out.bottom_mass == pytest.approx(2 / 8, abs=1e-12)
        for s in keys:
            assert out.p_star(s) == pytest.approx(expected[s], abs=1e-12)
        assert out.bottom_mass == pytest.approx(expected_bottom, abs=1e-12)

    def test_key_zero_absorbs_everything(self):
        keys = KeySet([0])
        dist = WeightedDistribution({3: 0.5, 900: 2.5})
        out = output_distribution(keys, dist)
        assert out.p_star(0) == pytest.approx(1.0, abs=1e-12)
        assert out.bottom_mass == 0.0

    def test_support_inside_keys(self):
        keys = KeySet([10, 20, 30])
        dist = WeightedDistribution({10: 1.0, 20: 3.0, 30: 4.0})
        out = output_distribution(keys, dist)
        weights = dict(dist.items())
        for s in keys:
            assert out.p_star(s) == pytest.approx(weights[s] / dist.total, abs=1e-12)
        assert out.bottom_mass == 0.0

    def test_mass_below_first_key(self):
        keys = KeySet([10, 20])
        dist = WeightedDistribution({5: 1.0, 10: 1.0})
        out = output_distribution(keys, dist)
        assert out.bottom_mass == pytest.approx(0.5, abs=1e-12)
        assert out.p_star(10) == pytest.approx(0.5, abs=1e-12)
        assert out.p_star(20) == 0.0

    def test_random_instances_match_brute_force(self, rnd):
        universe = UniverseSpec(10)
        for _ in range(10):
            n = rnd.randrange(1, 40)
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            support = rnd.sample(range(universe.size), rnd.randrange(1, 80))
            dist = WeightedDistribution({k: rnd.random() + 0.01 for k in support})
            out = output_distribution(keys, dist)
            assert math.fsum(out.masses.values()) + out.bottom_mass == pytest.approx(1.0, abs=1e-9)
            masses, bottom = brute_force_output(universe, keys, dist)
            assert out.bottom_mass == pytest.approx(bottom, abs=1e-9)
            for s in keys:
                assert out.p_star(s) == pytest.approx(masses[s], abs=1e-9)

    @given(st.data())
    @settings(max_examples=50)
    def test_mass_sums_to_one(self, data):
        keys = KeySet(sorted(data.draw(
            st.sets(st.integers(0, 2 ** 16 - 1), min_size=1, max_size=30))))
        weights = data.draw(st.dictionaries(
            st.integers(0, 2 ** 16 - 1), st.floats(1e-9, 1e9),
            min_size=1, max_size=30))
        out = output_distribution(keys, WeightedDistribution(weights))
        assert math.fsum(out.masses.values()) + out.bottom_mass == pytest.approx(1.0, abs=1e-9)


class TestOraclePredecessor:
    def test_member_is_its_own_predecessor(self):
        assert oracle_predecessor(KeySet([2, 5]), 5) == 5

    def test_between_keys(self):
        assert oracle_predecessor(KeySet([2, 5]), 4) == 2

    def test_below_minimum(self):
        assert oracle_predecessor(KeySet([2, 5]), 1) is None

    def test_exhaustive_matches_linear_scan(self, rnd):
        universe = UniverseSpec(12)
        for _ in range(5):
            n = rnd.randrange(1, 300)
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            for q in range(universe.size):
                expected = max((s for s in keys if s <= q), default=None)
                assert oracle_predecessor(keys, q) == expected


def test_padded_log2():
    assert padded_log2(0.0) == 1.0
    assert padded_log2(2.0) == 2.0
    assert padded_log2(14.0) == 4.0


def test_meets_threshold_tie_rule():
    t = 2.0 ** -8
    assert meets_threshold(t, t)
    assert meets_threshold(t * (1 - 1e-13), t)  # within relative tolerance
    assert not meets_threshold(t * (1 - 1e-9), t)
    assert meets_threshold(t * 2, t)
    assert not meets_threshold(t / 2, t)


class TestQueryStats:
    def test_defaults_and_fields(self):
        st = QueryStats(answer=9)
        assert (st.answer, st.level_probes, st.layers_probed, st.table_probes, st.table_hit) == \
            (9, 0, 0, 0, False)
        assert QueryStats(None, 3, 2, 1, True).layers_probed == 2

    def test_immutable(self):
        st = QueryStats(answer=1)
        with pytest.raises(AttributeError):
            st.answer = 2

    def test_equality_and_hash(self):
        a = QueryStats(answer=5, layers_probed=2)
        b = QueryStats(5, 0, 2)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != QueryStats(answer=5, layers_probed=3)
        assert len({a, b, QueryStats(answer=None)}) == 2

    def test_never_equal_to_a_bare_tuple(self):
        st = QueryStats(answer=5, table_probes=1, table_hit=True)
        same_fields = (5, 0, 0, 1, True)
        assert tuple(st) == same_fields
        assert st != same_fields and same_fields != st
        assert not st == same_fields and not same_fields == st
        assert same_fields not in {st} and st not in [same_fields]
