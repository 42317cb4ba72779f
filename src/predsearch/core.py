"""Universe, key-set and query-distribution primitives, and the structure contract.

Keys are unsigned integers drawn from a bounded universe {0, ..., 2**bits - 1}.
Query distributions are sparse maps from keys to weights; nothing in this
package ever materializes or iterates the full universe, so 64-bit universes
are fine.  All value types here are immutable after construction and safe for
concurrent reads.  ``PredecessorStructure`` is what every structure offers:
``predecessor``, ``query_stats`` and ``audit``.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

#: Relative tolerance for probability-vs-threshold comparisons.  A value within
#: this tolerance of the threshold counts as meeting it (inclusive rule).
REL_TOL = 1e-12


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class KeyRangeError(ValueError):
    """A key falls outside the structure's universe."""


class InvalidDistributionError(ValueError):
    """A weight map cannot be normalized to probabilities."""


def check_real(name: str, value: object) -> float:
    """value as a float if it is a real number; raise ParameterError naming it if not.

    ``float()`` alone would parse a string and count a bool, NumPy's included,
    as 0 or 1, so this runs before it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy.bool_ is not Real
        raise ParameterError(f"{name} must be a real number, got {value!r} of type "
                             f"{type(value).__name__}")
    return float(value)


def padded_log2(x: float) -> float:
    """log2(x + 2): stays well-defined and positive for tiny arguments.

    Used only in probe-bound reports, never in entropy itself.
    """
    return math.log2(x + 2.0)


def meets_threshold(p: float, threshold: float) -> bool:
    """Inclusive comparison: ties within REL_TOL count as above the threshold."""
    return p > threshold or math.isclose(p, threshold, rel_tol=REL_TOL)


@dataclass(frozen=True)
class UniverseSpec:
    """The key domain {0, ..., 2**bits - 1}."""

    bits: int

    def __post_init__(self) -> None:
        if type(self.bits) is not int or not 1 <= self.bits <= 64:  # bool passes isinstance
            raise ParameterError(f"universe bits must be an integer in [1, 64], got {self.bits!r}")

    @property
    def size(self) -> int:
        """Number of possible keys; conceptual only, never materialized."""
        return 1 << self.bits

    def check_key(self, key: int) -> int:
        """Return key as the int it stands for if it lies in the universe; raise
        ParameterError or KeyRangeError if not.

        This is the one definition of both errors and their messages.  An
        int-like such as ``bool`` or ``numpy.uint64`` is accepted and returned
        as a plain int (``operator.index``), so a structure that stores the
        key stores an int.  The structures' public calls check their key
        inline, with ``if type(q) is not int or q >> bits: universe.check_key(q)``,
        so an in-range int never pays for this call; it runs only to raise, or
        to accept an int-like, and every ``insert`` and ``delete`` goes on with
        the int it returns.  How often a query runs the inline test is in
        ``PredecessorStructure``.
        """
        try:
            key = operator.index(key)
        except TypeError:
            raise ParameterError(
                f"key must be an int, got {key!r} of type {type(key).__name__}") from None
        # one shift answers both range tests: a negative key shifts to -1,
        # a key of 2**bits or more to a positive value
        if key >> self.bits:
            raise KeyRangeError(f"key {key} outside {self.bits}-bit universe")
        return key


class KeySet:
    """A static, strictly increasing sequence of stored keys."""

    __slots__ = ("keys",)

    def __init__(self, keys: Iterable[int]):
        ks = tuple(keys)
        if not ks:
            raise ParameterError("key set must be nonempty")
        if set(map(type, ks)) != {int}:  # bool is an int subclass, so isinstance would pass it
            bad = next(k for k in ks if type(k) is not int)
            raise ParameterError(f"keys must be ints, got {bad!r} of type {type(bad).__name__}")
        if ks[0] < 0:
            raise KeyRangeError(f"negative key {ks[0]}")
        if not all(map(operator.lt, ks, ks[1:])):  # C-level pass; the loop below only names the pair
            a, b = next((a, b) for a, b in zip(ks, ks[1:]) if a >= b)
            raise ParameterError(f"keys must be strictly increasing ({a} before {b})")
        self.keys = ks

    @classmethod
    def _unchecked(cls, keys: Sequence[int]) -> "KeySet":
        """A key set over keys, ascending ints >= 0 already known to be valid, such as a cut
        of another key set's keys: the checks of ``KeySet(...)`` are not run again."""
        ks = object.__new__(cls)
        ks.keys = tuple(keys)
        return ks

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys)

    def __getitem__(self, i: int) -> int:
        return self.keys[i]

    def __contains__(self, key: int) -> bool:
        i = bisect_right(self.keys, key) - 1
        return i >= 0 and self.keys[i] == key

    def __repr__(self) -> str:
        return f"KeySet(n={len(self.keys)}, min={self.keys[0]}, max={self.keys[-1]})"


class WeightedDistribution:
    """Sparse nonnegative weights over universe keys.

    The probability of a support key is its weight / total; keys without an
    entry have probability zero.  Zero-weight entries are dropped at
    construction since they are indistinguishable from absent keys.
    ``support`` is the ascending tuple of support keys and ``weights`` their
    weights in the same order, a read-only float64 array that owns its
    buffer: every build reads the weights as they are stored, with no
    conversion and no dict lookup per key.
    """

    __slots__ = ("support", "weights", "total")

    def __init__(self, weights: Mapping[int, float]):
        cleaned: dict[int, float] = {}
        for key, w in weights.items():
            if type(key) is not int:  # bool is an int subclass, so isinstance would pass it
                raise ParameterError(f"keys must be ints, got {key!r} of type {type(key).__name__}")
            try:
                # float() would parse a string and count a bool, NumPy's included
                if isinstance(w, (str, bytes, bytearray, bool, np.bool_)):
                    raise TypeError
                w = float(w)  # raises TypeError on a complex or None
            except TypeError:
                raise InvalidDistributionError(
                    f"weight for key {key} must be a number, got {w!r} of type {type(w).__name__}"
                ) from None
            except OverflowError:  # an int or Fraction beyond the largest float
                raise InvalidDistributionError(
                    f"weight for key {key} must be finite and >= 0, got a value of type "
                    f"{type(w).__name__} beyond the float range") from None
            if not math.isfinite(w) or w < 0.0:
                raise InvalidDistributionError(f"weight for key {key} must be finite and >= 0, got {w}")
            if key < 0:
                raise KeyRangeError(f"negative key {key}")
            if w > 0.0:
                cleaned[key] = w
        try:
            total = math.fsum(cleaned.values())
        except OverflowError:  # finite weights, so only a total above the largest float
            raise InvalidDistributionError(
                f"total weight of {len(cleaned)} keys overflows a float "
                f"(sum above {sys.float_info.max!r})") from None
        if total <= 0.0:
            raise InvalidDistributionError("total weight must be positive")
        self.support = tuple(sorted(cleaned))
        self.weights = np.fromiter(map(cleaned.__getitem__, self.support), np.float64)
        self.weights.flags.writeable = False
        self.total = total

    @property
    def support_size(self) -> int:
        return len(self.support)

    def items(self) -> Iterator[tuple[int, float]]:
        """(key, weight) pairs in ascending key order, the weights as Python floats."""
        return zip(self.support, self.weights.tolist())

    def __repr__(self) -> str:
        return f"WeightedDistribution(support={len(self.support)}, total={self.total!r})"


#: The largest universe; its keys are exactly those a ``uint64`` holds.
_UNIVERSE_64 = UniverseSpec(64)


def check_sorted(xs: Sequence[int], universe: UniverseSpec) -> None:
    """Raise KeyRangeError, naming the smallest one, if any of the ascending ints >= 0 in xs
    is outside the universe.

    The largest decides, and one bisect finds the smallest offender without a
    Python step per key.
    """
    if xs[-1] >> universe.bits:
        universe.check_key(xs[bisect_left(xs, 1 << universe.bits)])


def _shannon(weights: Iterable[float], total: float) -> float:
    """Shannon entropy in bits of positive weights over their given total.

    Each term takes log2(total) - log2(w) rather than log2(total / w), whose
    quotient overflows to inf for a subnormal weight.  ``math.fsum`` rounds
    the exact sum once, so the order of the weights does not change a bit.
    """
    log_total = math.log2(total)
    return math.fsum((w / total) * (log_total - math.log2(w)) for w in weights)


def entropy(dist: WeightedDistribution) -> float:
    """Entropy of the normalized distribution, in bits (standard log2).

    Terms with probability zero contribute nothing; a point mass has entropy
    exactly 0.  The padded-log convention is deliberately not applied here.
    """
    return _shannon(dist.weights.tolist(), dist.total)


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Probability that each stored key is the answer to a query.

    ``masses[i]`` is the query mass p* of ``keys[i]``: the mass of the
    half-open gap [keys[i], keys[i + 1]), with the last gap running to the top
    of the universe.  ``keys`` is the key set's own tuple and ``masses`` a
    read-only float64 array that owns its buffer, 8 bytes a key and no dict
    over the keys.  ``bottom_mass`` is the mass of queries below the smallest
    stored key, which have no predecessor at all.  Compared by identity: an
    array has no single truth value for ``==`` to return.
    """

    keys: tuple[int, ...]
    masses: np.ndarray
    bottom_mass: float

    def p_star(self, key: int) -> float:
        """The mass ``key`` answers, 0.0 if it is not stored."""
        keys = self.keys
        i = bisect_left(keys, key)
        return float(self.masses[i]) if i < len(keys) and keys[i] == key else 0.0

    def entropy_bits(self) -> float:
        """Entropy over the n+1 outcomes (each stored key, plus "no answer"), the masses
        taken as probabilities: their total goes in as 1.0."""
        return _shannon([p for p in (self.bottom_mass, *self.masses.tolist()) if p > 0.0], 1.0)


def output_distribution(keys: KeySet, dist: WeightedDistribution) -> OutputDistribution:
    """Fold the query distribution onto the stored keys that answer it.

    One ``searchsorted`` (side right) gives each support key the slot of its
    answer among n + 1 accumulators (slot 0 is "below every stored key"), and
    ``np.add.at`` adds each probability w / total into its slot, divided
    straight from the stored ``weights`` array (IEEE division rounds the same
    in NumPy as in Python, so each is the float ``w / total``).  ``add.at``
    is an unbuffered scatter-add that runs in element order, so each slot adds
    its probabilities one at a time in ascending support order, the order of
    a merge over the two sorted sequences: every mass is the same float that
    a plain Python loop of ``+=`` gives.  Do not replace it with a reduction:
    ``np.sum`` adds pairwise, ``sum()`` is compensated since CPython 3.12 and
    ``math.fsum`` rounds once, and each of those changes the bits.  Keys and
    support keys are compared as ``uint64``, so both must lie below 2**64,
    the largest universe there is; a larger one raises KeyRangeError naming
    the smallest offender.  The universe itself is never iterated.
    """
    sks, support = keys.keys, dist.support
    check_sorted(sks, _UNIVERSE_64)
    check_sorted(support, _UNIVERSE_64)
    slots = np.searchsorted(np.fromiter(sks, np.uint64, len(sks)),
                            np.fromiter(support, np.uint64, len(support)), side="right")
    acc = np.zeros(len(sks) + 1)
    np.add.at(acc, slots, dist.weights / dist.total)
    masses = acc[1:].copy()  # owns its buffer, so a size count sees all n floats
    masses.flags.writeable = False
    return OutputDistribution(keys=sks, masses=masses, bottom_mass=float(acc[0]))


def oracle_predecessor(keys: KeySet, q: int) -> Optional[int]:
    """Largest stored key <= q, or None if q is below the smallest key.

    Weak semantics: the predecessor of a stored key is itself.  This is the
    reference answer every structure in this package is tested against; query
    q - 1 for strict semantics.
    """
    i = bisect_right(keys.keys, q) - 1
    return keys.keys[i] if i >= 0 else None


class QueryStats(NamedTuple):
    """Per-query observables from an instrumented search.

    Plain value object returned per call; structures keep no shared counters.
    A named tuple builds in about half the time of a frozen dataclass.  It
    equals only another ``QueryStats``, never a bare tuple of the same fields,
    and hashes as that tuple.
    """

    answer: Optional[int]
    level_probes: int = 0   # prefix-table probes in trie searches, at most floor(log2(depth + 1)) + 2
                            # each for a trie storing levels 0..depth (depth <= bits); 0 on a flat
                            # y-fast trie; tests/mechanisms.json pins a seeded histogram
    layers_probed: int = 0  # layers visited (layer cascade structures only)
    table_probes: int = 0   # front-table lookups (hash-fronted structures only)
    table_hit: bool = False

    def __eq__(self, other: object) -> bool:
        return type(other) is QueryStats and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class PredecessorStructure:
    """The contract every structure keeps: two query calls and a structural audit.

    ``predecessor`` is the plain query path; ``query_stats`` answers the same
    query and also reports what finding the answer cost.  Every public call
    (these two, and ``insert`` and ``delete`` where a structure has them)
    checks its key before it reads or changes anything: an inline
    ``type(q) is int`` and shift test, with ``UniverseSpec.check_key`` called
    only to raise or to accept another int-like.  A structure that delegates
    the query leaves the check to the call it delegates to.  A cascade
    delegates to the public ``predecessor`` of every layer it probes, so its
    first layer's test is the check and each further layer repeats it: a
    cascade query runs the test ``layers_probed`` times, and a ``layered-ws``
    promotion once more in each y-fast ``insert`` and ``delete`` it makes.
    Those per-layer public calls stay until the benchmark stops counting
    them: ``perfbench/tracing.py`` reads each layer's probes and time from
    the traced ``YFastTrie.predecessor`` calls.

    ``audit(dist=None)`` is the one audit call, the same on every structure,
    so a caller never chooses an audit by structure: ``dist`` is the
    distribution the structure was built from, or None where the caller does
    not hold it.  A structure built from a distribution (the hash-fronts'
    table keys, the static cascade's p* masses) also checks, when given it,
    what it took from it; the tries and ``layered-ws`` take none and ignore it.
    """

    def predecessor(self, q: int) -> Optional[int]:
        raise NotImplementedError

    def query_stats(self, q: int) -> QueryStats:
        raise NotImplementedError

    def audit(self, dist: Optional[WeightedDistribution] = None) -> None:
        """Raise AssertionError unless the structure's invariants hold, those it took from
        dist, the distribution it was built from, included when dist is given.

        Checks are explicit raises, not ``assert`` statements, so they still
        run under ``python -O``.  The default has nothing to check.
        """
