"""Front hash table of high-probability keys, backed by a bucketed trie.

Universe keys whose query probability meets a threshold are stored in a flat
table together with their precomputed answer, so a query that hits the table
finishes in a single probe.  Everything else falls through to a trie over the
stored key set.  Two threshold shapes are supported:

* mode A: threshold (1/U)**epsilon, table of at most U**epsilon entries;
* mode B: threshold 2**(-(log2 U)**epsilon), a much smaller table of at most
  2**((log2 U)**epsilon) entries.

Only the distribution's support is scanned at build time; keys with zero
probability can never meet a positive threshold.  The build makes C-level
passes, not a Python call per support key: ``check_sorted`` checks the
support against the universe by its largest key, as the static cascade's
build does; ``ThresholdMode.front_keys`` divides the distribution's stored
float64 weights by their total, keeps the keys whose probability clears a
slightly lower bound with one NumPy mask and applies the inclusive
``meets_threshold`` rule only to those; and each table key's answer is a
``bisect_right`` into the stored keys.
``expected_probe_bound`` takes its hit mass from the same ``front_keys``, so
it is by construction the mass of the table's keys.

A hit checks only the query's type.  Every table key is an int inside the
universe (``WeightedDistribution`` accepts only ints >= 0 and the build checks
the largest support key), so an exact int that hits the table is a valid key.
Anything else, including ``bool``, ``float`` and NumPy integers, which can
hash equal to a table key, is never looked up: it goes to the fallback, whose
own check raises the typed error or accepts the int-like.  ``audit`` checks
the table keys this rests on and, given the distribution, that they are
exactly its front keys.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional

import numpy as np

from .core import (
    REL_TOL,
    KeySet,
    ParameterError,
    PredecessorStructure,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    check_real,
    check_sorted,
    meets_threshold,
    padded_log2,
)
from .yfast import YFastTrie

MODE_A = "a"
MODE_B = "b"

_MISSING = object()


@dataclass(frozen=True)
class ThresholdMode:
    """Which probability threshold the front table uses.

    ``epsilon`` is stored as the float ``check_real`` returns, however it was
    given, so modes that compare equal compute the same threshold.
    """

    kind: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.kind not in (MODE_A, MODE_B):
            raise ParameterError(f"unknown threshold mode {self.kind!r}")
        eps = check_real("epsilon", self.epsilon)
        if self.kind == MODE_A and not 0.0 < eps <= 1.0:
            raise ParameterError(f"mode A requires epsilon in (0, 1], got {eps}")
        if self.kind == MODE_B and not 0.0 < eps < 1.0:
            raise ParameterError(f"mode B requires epsilon in (0, 1), got {eps}")
        object.__setattr__(self, "epsilon", eps)  # the dataclass is frozen

    @classmethod
    def mode_a(cls, epsilon: float) -> "ThresholdMode":
        return cls(MODE_A, epsilon)

    @classmethod
    def mode_b(cls, epsilon: float) -> "ThresholdMode":
        return cls(MODE_B, epsilon)

    def _exponent(self, bits: int) -> float:
        """e with threshold 2**-e and table capacity 2**e: bits * epsilon (mode A) or
        bits ** epsilon (mode B)."""
        return bits * self.epsilon if self.kind == MODE_A else bits ** self.epsilon

    def threshold(self, bits: int) -> float:
        return 2.0 ** -self._exponent(bits)

    def table_capacity(self, bits: int) -> float:
        """Upper bound on the table size: 1 / threshold."""
        return 2.0 ** self._exponent(bits)

    def front_keys(self, dist: WeightedDistribution, bits: int) -> list[int]:
        """Support keys, ascending, whose probability meets the threshold (``meets_threshold``).

        Every probability that meets it is at least ``t * (1 - REL_TOL)``, so one
        NumPy mask against ``t * (1 - 4 * REL_TOL)`` drops only keys that
        cannot, and the inclusive rule runs on the few that remain.
        """
        t = self.threshold(bits)
        probs = dist.weights / dist.total
        near = np.flatnonzero(probs >= t * (1 - 4 * REL_TOL))
        support = dist.support
        return [support[i] for i, p in zip(near.tolist(), probs[near].tolist())
                if meets_threshold(p, t)]


class HashFront(PredecessorStructure):
    """Threshold table in front of a YFastTrie fallback over the key set."""

    __slots__ = ("universe", "mode", "table", "fallback")

    def __init__(self, keys: KeySet, dist: WeightedDistribution,
                 universe: UniverseSpec, mode: ThresholdMode):
        universe.check_key(keys.keys[-1])
        check_sorted(dist.support, universe)
        front = mode.front_keys(dist, universe.bits)
        ks = keys.keys
        answers = (None, *ks)  # answers[bisect_right(ks, q)] is the predecessor of q
        self.universe = universe
        self.mode = mode
        self.table = dict(zip(front, map(answers.__getitem__, map(partial(bisect_right, ks), front))))
        self.fallback = YFastTrie(keys, universe)

    @property
    def table_size(self) -> int:
        return len(self.table)

    def predecessor(self, q: int) -> Optional[int]:
        if type(q) is int:
            v = self.table.get(q, _MISSING)
            if v is not _MISSING:
                return v
        return self.fallback.predecessor(q)

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the table probe and, on a miss, the fallback's level probes.

        As in ``predecessor``, only an exact int is looked up; anything else
        goes to the fallback unprobed.  A miss delegates to the fallback's
        ``query_stats``, which checks the key.  Its answer and probes go into a
        positional ``QueryStats``, which builds in a third of ``_replace``'s time.
        """
        probed = type(q) is int
        if probed:
            v = self.table.get(q, _MISSING)
            if v is not _MISSING:
                return QueryStats(v, 0, 0, 1, True)
        answer, probes = self.fallback.query_stats(q)[:2]
        return QueryStats(answer, probes, 0, int(probed))

    def table_entries(self) -> int:
        return len(self.table) + self.fallback.table_entries()

    def audit(self, dist: Optional[WeightedDistribution] = None) -> None:
        """Raise AssertionError if the front table holds more entries than its capacity, a key
        that is not an int inside the universe (a hit checks nothing else) or an answer other
        than the fallback's, or if the fallback's own audit fails.  Given the distribution the
        table was built from, also raise unless the table keys are exactly its front keys:
        a key missing from the table answers right, from the fallback, but the paper's hit
        mass counts it as a one-probe hit."""
        bits = self.universe.bits
        capacity = self.mode.table_capacity(bits)
        if len(self.table) > capacity:
            raise AssertionError(f"front table holds {len(self.table)} entries, bound {capacity}")
        self.fallback.audit()
        for key, answer in self.table.items():
            if type(key) is not int or key >> bits:
                raise AssertionError(f"front table key {key!r} is not an int in the {bits}-bit universe")
            expected = self.fallback.predecessor(key)
            if answer != expected:
                raise AssertionError(f"front table maps {key} to {answer}, the fallback gives {expected}")
        if dist is not None:
            front = set(self.mode.front_keys(dist, bits))
            if self.table.keys() != front:
                key = min(self.table.keys() ^ front)
                if key in front:
                    raise AssertionError(f"front table lacks key {key}, whose probability meets "
                                         "the threshold")
                raise AssertionError(f"front table holds key {key}, whose probability does not "
                                     "meet the threshold")


@dataclass(frozen=True)
class ProbeBoundReport:
    """Analytic probe-cost summary for a (distribution, mode) pair.

    ``hit_mass`` is the probability a query lands in the front table and
    finishes in one probe; ``miss_mass`` falls through to the trie.  Each
    support element also gets its individual bound log log (W / w_i), taken
    with the padded log so tiny arguments stay meaningful.
    """

    threshold: float
    hit_mass: float
    miss_mass: float
    element_bounds: Mapping[int, float]


def expected_probe_bound(dist: WeightedDistribution, universe: UniverseSpec,
                         mode: ThresholdMode) -> ProbeBoundReport:
    """The probe-cost summary of a hash-front built from dist in universe under mode; raises
    KeyRangeError, as the build does, if a support key is outside the universe."""
    check_sorted(dist.support, universe)
    front = set(mode.front_keys(dist, universe.bits))
    total = dist.total
    hit = []
    miss = []
    bounds: dict[int, float] = {}
    for key, w in dist.items():
        (hit if key in front else miss).append(w / total)
        # padded_log2(total / w) without the division, which overflows for subnormal w; near
        # the float maximum total + 2w overflows instead, so its log2 is taken from a quarter
        padded = total + 2.0 * w
        log2_padded = (math.log2(padded) if padded != math.inf
                       else 2.0 + math.log2(0.25 * total + 0.5 * w))
        bounds[key] = padded_log2(log2_padded - math.log2(w))
    return ProbeBoundReport(
        threshold=mode.threshold(universe.bits),
        hit_mass=math.fsum(hit),
        miss_mass=math.fsum(miss),
        element_bounds=bounds,
    )
