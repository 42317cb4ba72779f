import math
import re
from bisect import bisect_right
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from conftest import empirical_entropy

from predsearch import (
    KeyRangeError,
    KeySet,
    ParameterError,
    UniverseSpec,
    WeightedDistribution,
    WorkloadSpec,
    entropy,
    generate_distribution,
    sample_keys,
    sample_queries,
)
from predsearch.workload import STREAM_QUERIES, rng_for


def geometric_entropy_exact(ratio_num: int, ratio_den: int, n: int):
    """Entropy of a truncated geometric distribution at 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(ratio_num) / ratio_den
        weights = [r ** i for i in range(n)]
        total = mpmath.fsum(weights)
        return mpmath.fsum((w / total) * mpmath.log(total / w, 2) for w in weights)


class TestGenerateDistribution:
    def test_geometric_64_entropy(self):
        spec = WorkloadSpec(kind="geometric", support=tuple(range(64)), ratio=0.5)
        h = entropy(generate_distribution(spec))
        # exact value is 2 - 3.5e-18, strictly below 2 bits; float64 rounds it
        # to 2.0 exactly, so the strict comparison runs at 50 digits
        exact = geometric_entropy_exact(1, 2, 64)
        assert exact < 2
        assert h == pytest.approx(float(exact), abs=1e-12)
        assert h <= 2.0

    def test_uniform_entropy_is_log_support(self):
        for k in (0, 1, 5, 10):
            spec = WorkloadSpec(kind="uniform", support=tuple(range(2 ** k)))
            assert entropy(generate_distribution(spec)) == pytest.approx(k, abs=1e-9)

    def test_point_mass_entropy_zero(self):
        spec = WorkloadSpec(kind="pointmass", support=(5, 9, 100))
        dist = generate_distribution(spec)
        assert entropy(dist) == 0.0
        assert dist.support == (5,)

    def test_zipf_weights(self):
        spec = WorkloadSpec(kind="zipf", support=(10, 20, 30), s=2.0)
        dist = generate_distribution(spec)
        weights = dict(dist.items())
        assert weights[10] == 1.0
        assert weights[20] == 0.25
        assert weights[30] == pytest.approx(1 / 9)

    def test_geometric_deep_ranks_stay_positive(self):
        spec = WorkloadSpec(kind="geometric", support=tuple(range(4096)), ratio=0.5)
        dist = generate_distribution(spec)
        assert dist.support_size == 4096
        assert min(w for _, w in dist.items()) > 0.0

    def test_zipf_deep_ranks_stay_positive(self):
        # (rank + 1) ** -200 underflows to 0.0 from rank 41 on; clamped, every key stays
        dist = generate_distribution(WorkloadSpec(kind="zipf", support=tuple(range(1, 100)), s=200))
        assert dist.support == tuple(range(1, 100))
        assert min(w for _, w in dist.items()) == 5e-324

    def test_zipf_at_s_1_is_unclamped(self):
        dist = generate_distribution(WorkloadSpec(kind="zipf", support=tuple(range(1000)), s=1))
        assert [w for _, w in dist.items()] == [1.0 / (rank + 1) for rank in range(1000)]

    @pytest.mark.parametrize("field, name", [("ratio", "geometric ratio"), ("s", "zipf exponent")])
    @pytest.mark.parametrize("value", ["1", "0.5", b"0.5", True, False, np.True_, None])
    @pytest.mark.parametrize("kind", ["geometric", "zipf", "uniform"])
    def test_rejects_non_number_shape_parameters(self, kind, field, name, value):
        # float() would parse the strings and count the bools as 0 or 1
        with pytest.raises(ParameterError,
                           match=rf"^{name} must be a real number, got {re.escape(repr(value))} of"):
            WorkloadSpec(kind=kind, support=(1, 2), **{field: value})

    @pytest.mark.parametrize("ratio, s", [(0.5, 1), (0.25, 2), (np.float64(0.5), np.int64(3)),
                                          (np.float32(0.5), 1.5)])
    def test_accepts_int_and_float_shape_parameters(self, ratio, s):
        zipf = generate_distribution(WorkloadSpec(kind="zipf", support=(1, 2), ratio=ratio, s=s))
        assert dict(zipf.items()) == {1: 1.0, 2: 2.0 ** -float(s)}
        geometric = generate_distribution(WorkloadSpec(kind="geometric", support=(1, 2), ratio=ratio))
        assert dict(geometric.items()) == {1: 1.0, 2: float(ratio)}

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            WorkloadSpec(kind="nope", support=(1,))
        with pytest.raises(ParameterError):
            WorkloadSpec(kind="geometric", support=(1,), ratio=1.0)
        with pytest.raises(ParameterError):
            WorkloadSpec(kind="zipf", support=(1,), s=0.0)
        with pytest.raises(ParameterError):
            WorkloadSpec(kind="uniform", support=())

    @pytest.mark.parametrize("kind", ["uniform", "geometric", "zipf", "pointmass"])
    def test_repeated_support_key_rejected(self, kind):
        # a repeated key would silently take the weight of its last rank
        with pytest.raises(ParameterError, match=r"^workload support repeats key 5$"):
            WorkloadSpec(kind=kind, support=(5, 7, 5))

    @pytest.mark.parametrize("key, type_name", [([1], "list"), (True, "bool"), (2.0, "float"),
                                                (np.int64(3), "int64")])
    def test_non_int_support_key_rejected_as_by_keyset(self, key, type_name):
        message = f"keys must be ints, got {key!r} of type {type_name}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            KeySet((1, key))
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            WorkloadSpec(kind="zipf", support=(1, key))


class TestSampleQueries:
    def test_point_mass_samples_constant(self):
        dist = generate_distribution(WorkloadSpec(kind="pointmass", support=(77,)))
        assert sample_queries(dist, seed=3, count=100) == [77] * 100

    def test_zero_count(self):
        dist = generate_distribution(WorkloadSpec(kind="uniform", support=(1, 2)))
        assert sample_queries(dist, seed=3, count=0) == []

    @pytest.mark.parametrize("count", [1.5, True, "5"])
    def test_count_not_an_int(self, count):
        dist = generate_distribution(WorkloadSpec(kind="uniform", support=(1, 2)))
        with pytest.raises(ParameterError, match=f"query count must be an int, got {count!r}"):
            sample_queries(dist, seed=0, count=count)

    @pytest.mark.parametrize("count", [0, 5])
    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_bad_seed(self, seed, count):
        dist = generate_distribution(WorkloadSpec(kind="uniform", support=(1, 2)))
        with pytest.raises(ParameterError, match=f"seed must be an int >= 0, got {seed!r}"):
            sample_queries(dist, seed=seed, count=count)

    @pytest.mark.parametrize("count", [0, 3])
    def test_support_of_2_to_64_and_above(self, count):
        # the support is drawn from as uint64: the fold's check names the smallest offender
        dist = WeightedDistribution({5: 1.0, 1 << 64: 1.0, 1 << 70: 2.0})
        with pytest.raises(KeyRangeError, match=r"^key 18446744073709551616 outside 64-bit universe$"):
            sample_queries(dist, seed=0, count=count)

    def test_top_of_64_bit_support(self):
        top = (1 << 64) - 1
        dist = WeightedDistribution({top: 1.0, top - 1: 1.0})
        assert set(sample_queries(dist, seed=0, count=100)) == {top, top - 1}

    def test_stream_is_inverse_cdf_of_the_weights(self):
        # the draws against a running sum of the weights in key order, added one at a time:
        # a float32 sum, or a reordered one, moves some draws to a neighbouring key
        dist = generate_distribution(
            WorkloadSpec(kind="zipf", support=tuple(range(7, 70_000, 7)), s=1.3))
        cum = list(accumulate(w for _, w in dist.items()))
        u = rng_for(5, STREAM_QUERIES).random(20_000) * cum[-1]
        expected = [dist.support[min(bisect_right(cum, x), len(cum) - 1)] for x in u.tolist()]
        assert sample_queries(dist, seed=5, count=20_000) == expected

    def test_deterministic_under_seed(self):
        dist = generate_distribution(WorkloadSpec(kind="zipf", support=tuple(range(100)), s=1.1))
        a = sample_queries(dist, seed=42, count=5000)
        b = sample_queries(dist, seed=42, count=5000)
        assert a == b
        c = sample_queries(dist, seed=43, count=5000)
        assert a != c

    def test_empirical_frequencies_four_keys(self):
        dist = generate_distribution(
            WorkloadSpec(kind="geometric", support=(3, 5, 11, 200), ratio=0.5))
        samples = sample_queries(dist, seed=7, count=1_000_000)
        counts = {k: 0 for k in dist.support}
        for q in samples:
            counts[q] += 1
        for k, w in dist.items():
            assert abs(counts[k] / 1e6 - w / dist.total) < 0.005

    @pytest.mark.parametrize("spec", [
        WorkloadSpec(kind="uniform", support=tuple(range(256))),
        WorkloadSpec(kind="geometric", support=tuple(range(64)), ratio=0.5),
        WorkloadSpec(kind="zipf", support=tuple(range(200)), s=1.0),
    ])
    def test_empirical_entropy_converges(self, spec):
        dist = generate_distribution(spec)
        h = entropy(dist)
        assert h >= 1.0
        h_emp = empirical_entropy(sample_queries(dist, seed=1234, count=10_000))
        assert abs(h_emp - h) / h < 0.05


class TestSampleKeys:
    def test_sorted_distinct_in_range(self):
        universe = UniverseSpec(16)
        keys = sample_keys(universe, 2048, seed=9)
        assert isinstance(keys, KeySet)
        assert len(keys) == 2048
        assert keys.keys[-1] < universe.size

    def test_deterministic(self):
        universe = UniverseSpec(20)
        assert sample_keys(universe, 500, seed=1).keys == sample_keys(universe, 500, seed=1).keys
        assert sample_keys(universe, 500, seed=1).keys != sample_keys(universe, 500, seed=2).keys

    def test_full_universe(self):
        universe = UniverseSpec(4)
        assert sample_keys(universe, 16, seed=0).keys == tuple(range(16))

    def test_too_many_keys(self):
        with pytest.raises(ParameterError):
            sample_keys(UniverseSpec(4), 17, seed=0)

    def test_wide_universe(self):
        universe = UniverseSpec(64)
        keys = sample_keys(universe, 100, seed=5)
        assert len(keys) == 100
        assert keys.keys[-1] < 2 ** 64

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_count(self, n):
        with pytest.raises(ParameterError):
            sample_keys(UniverseSpec(8), n, seed=0)

    @pytest.mark.parametrize("n, type_name", [(1.5, "float"), (True, "bool"), (4.0, "float")])
    def test_count_not_an_int(self, n, type_name):
        with pytest.raises(ParameterError,
                           match=f"key count must be an int, got {n!r} of type {type_name}"):
            sample_keys(UniverseSpec(8), n, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed(self, seed):
        with pytest.raises(ParameterError, match=f"seed must be an int >= 0, got {seed!r}"):
            sample_keys(UniverseSpec(8), 4, seed=seed)


def test_empirical_entropy_rejects_empty():
    with pytest.raises(ParameterError):
        empirical_entropy([])


def test_empirical_entropy_of_constant_is_zero():
    assert empirical_entropy([4] * 100) == 0.0


def test_uniform_exact_math_check():
    # independent check that k * 2^-k terms accumulate exactly for k <= 12
    for k in (0, 6, 12):
        n = 2 ** k
        assert math.fsum((1.0 / n) * math.log2(n) for _ in range(n)) == float(k)
