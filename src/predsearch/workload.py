"""Seeded workload generation: key sets, weight maps, query streams.

All randomness comes from PCG64 generators derived from a single user seed by
fixed stream splitting, so key generation and query sampling are independently
reproducible.  Weight assignment itself is deterministic in the support order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    _UNIVERSE_64,
    KeySet,
    ParameterError,
    UniverseSpec,
    WeightedDistribution,
    check_real,
    check_sorted,
)

#: Generator recorded in benchmark reports for reproducibility.
RNG_NAME = "pcg64"

# stream tags for sub-seed derivation
STREAM_KEYS = 0
STREAM_QUERIES = 1

KIND_UNIFORM = "uniform"
KIND_GEOMETRIC = "geometric"
KIND_ZIPF = "zipf"
KIND_POINT_MASS = "pointmass"
KINDS = (KIND_UNIFORM, KIND_GEOMETRIC, KIND_ZIPF, KIND_POINT_MASS)

# smallest positive double; geometric and zipf tails below this are clamped rather than
# allowed to underflow to zero weight, which would drop their keys from the support
_TINY = 5e-324


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream); the seed must be an int >= 0."""
    if type(seed) is not int or seed < 0:  # bool is an int subclass, so isinstance would pass it
        raise ParameterError(f"seed must be an int >= 0, got {seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


@dataclass(frozen=True)
class WorkloadSpec:
    """How to weight a support of universe keys.

    Ranks follow the order of ``support``: geometric weight decays by
    ``ratio`` per rank, zipf weight is (rank+1)**-s, uniform weights
    everything equally and pointmass puts everything on the first key.
    Geometric and zipf weights are clamped to the smallest positive double,
    so a deep rank keeps its key in the support.  ``support`` holds distinct
    ints, as a ``KeySet`` does; a repeated key, or a bool or other non-int,
    raises ParameterError.  ``ratio`` and ``s`` must be real numbers, ints
    included; a string or a bool raises ParameterError.
    """

    kind: str
    support: tuple[int, ...]
    ratio: float = 0.5
    s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"unknown workload kind {self.kind!r}")
        if not self.support:
            raise ParameterError("workload support must be nonempty")
        # C-level passes: perfbench weights supports of 2^16 keys; only an error names a key
        if set(map(type, self.support)) != {int}:  # as KeySet: bool is an int subclass
            bad = next(k for k in self.support if type(k) is not int)
            raise ParameterError(f"keys must be ints, got {bad!r} of type {type(bad).__name__}")
        if len(set(self.support)) != len(self.support):
            repeated = next(k for k, c in Counter(self.support).items() if c > 1)
            raise ParameterError(f"workload support repeats key {repeated}")
        check_real("geometric ratio", self.ratio)
        check_real("zipf exponent", self.s)
        if self.kind == KIND_GEOMETRIC and not 0.0 < self.ratio < 1.0:
            raise ParameterError(f"geometric ratio must be in (0, 1), got {self.ratio}")
        if self.kind == KIND_ZIPF and not self.s > 0.0:
            raise ParameterError(f"zipf exponent must be > 0, got {self.s}")


def generate_distribution(spec: WorkloadSpec) -> WeightedDistribution:
    support = spec.support
    if spec.kind == KIND_UNIFORM:
        weights = {k: 1.0 for k in support}
    elif spec.kind == KIND_GEOMETRIC:
        weights = {k: max(spec.ratio ** rank, _TINY) for rank, k in enumerate(support)}
    elif spec.kind == KIND_ZIPF:
        weights = {k: max(float(rank + 1) ** -spec.s, _TINY) for rank, k in enumerate(support)}
    else:  # point mass
        weights = {support[0]: 1.0}
    return WeightedDistribution(weights)


def sample_keys(universe: UniverseSpec, n: int, seed: int,
                stream: int = STREAM_KEYS) -> KeySet:
    """n distinct keys sampled uniformly from the universe, sorted.

    Rejection sampling on batches; the universe is never materialized.
    """
    if type(n) is not int:
        raise ParameterError(f"key count must be an int, got {n!r} of type {type(n).__name__}")
    if n < 1:
        raise ParameterError(f"need at least one key, got n={n}")
    if n > (1 << universe.bits):
        raise ParameterError(f"cannot draw {n} distinct keys from a {universe.bits}-bit universe")
    rng = rng_for(seed, stream)
    chosen: dict[int, None] = {}
    high = 1 << universe.bits
    while len(chosen) < n:
        batch = rng.integers(0, high, size=max(16, 2 * (n - len(chosen))), dtype=np.uint64)
        for v in batch.tolist():
            chosen[v] = None
            if len(chosen) == n:
                break
    return KeySet(sorted(chosen))


def sample_queries(dist: WeightedDistribution, seed: int, count: int) -> list[int]:
    """count i.i.d. keys drawn from dist by inverse CDF over its support."""
    if type(count) is not int:
        raise ParameterError(f"query count must be an int, got {count!r} of type "
                             f"{type(count).__name__}")
    if count < 0:
        raise ParameterError(f"query count must be >= 0, got {count}")
    rng = rng_for(seed, STREAM_QUERIES)
    check_sorted(dist.support, _UNIVERSE_64)  # the support is drawn from as uint64
    if count == 0:
        return []
    support = np.array(dist.support, dtype=np.uint64)
    cum = np.cumsum(dist.weights)
    u = rng.random(count) * cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(support) - 1)
    return support[idx].tolist()
