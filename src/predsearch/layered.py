"""Doubly-exponential layer cascade with successor-pointer early stopping.

Layer j holds 2**(2**j) keys (4, 16, 256, 65536, ...), the last layer holding
whatever remains, and each layer is its own predecessor structure over the
full universe.  A query probes the layers in order, keeping the best (largest)
local predecessor seen so far; each stored key knows its successor in the full
key set, so as soon as the best candidate's successor exceeds the query the
candidate is provably the global answer and the search stops.  A query below
every stored key can only be recognized after all layers have answered empty.

Two ways of ranking keys into layers:

* the static variant sorts keys by how much query mass they answer for
  (descending, ties by ascending key), so frequent answers sit in the tiny
  front layers; it is one C-level sort keyed by the mass map, stable under
  ``reverse=True``, over the ascending key tuple;
* the self-adjusting variant ranks by recency: every reported answer moves to
  the front layer and, for each layer above the one it came from, the stalest
  key shifts down one layer to keep all occupancies at capacity.

Every layer is a bucketed trie, whose insert/delete the self-adjusting variant
relies on.  A bucketed trie of at most ``bits * bits`` keys is one sorted list
and carries no x-fast trie, so at 32 bits the 4-, 16- and 256-key layers each
cost one bisect a probe.  Promotion shifts stale keys from the deepest layer
up, so each layer loses a key before it gains one and never holds more than
its capacity: a layer of exactly ``bits * bits`` keys stays a list.

``predecessor`` and ``query_stats`` (which adds the layers probed) run one
scan; the self-adjusting variant promotes the answer as its last step.
``audit`` checks each layer's own audit and that the live layers partition
the key set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

from .core import (
    KeySet,
    PredecessorStructure,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    check_support,
    output_distribution,
)
from .yfast import YFastTrie


def layer_capacities(n: int) -> list[int]:
    """Layer sizes 4, 16, 256, ... clipped so they sum to exactly n."""
    caps: list[int] = []
    j = 1
    while n > 0:
        c = min(n, 1 << (1 << j))
        caps.append(c)
        n -= c
        j += 1
    return caps


def _successor_map(keys: KeySet) -> dict[int, Optional[int]]:
    ks = keys.keys
    return dict(zip(ks, ks[1:] + (None,)))  # top sentinel None: nothing in S is larger


class _LayeredBase(PredecessorStructure):
    """Shared query path and audit; subclasses decide ordering and what the scan does after."""

    universe: UniverseSpec
    layers: list[YFastTrie]
    _succ: dict[int, Optional[int]]

    def _build_layers(self, ordered: Sequence[int], universe: UniverseSpec) -> list[tuple[int, ...]]:
        caps = layer_capacities(len(ordered))
        slices: list[tuple[int, ...]] = []
        start = 0
        for c in caps:
            slices.append(tuple(sorted(ordered[start:start + c])))
            start += c
        self.layers = [YFastTrie(KeySet(s), universe) for s in slices]
        return slices

    def _scan(self, q: int) -> tuple[Optional[int], int]:
        """Probe layers in order; stop once the best candidate is proven global.

        The first layer's ``predecessor`` checks the key, so an invalid query
        raises before any layer answers and before the self-adjusting variant
        promotes anything.
        """
        succ = self._succ
        best: Optional[int] = None
        probed = 0
        for layer in self.layers:
            probed += 1
            local = layer.predecessor(q)
            if local is not None and (best is None or local > best):
                best = local
            if best is not None:
                s = succ[best]
                if s is None or s > q:
                    return best, probed
        return best, probed

    def predecessor(self, q: int) -> Optional[int]:
        return self._scan(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the number of layers probed."""
        answer, probed = self._scan(q)
        return QueryStats(answer=answer, layers_probed=probed)

    def table_entries(self) -> int:
        """Stored entries across all layers plus the successor pointers."""
        return len(self._succ) + sum(layer.table_entries() for layer in self.layers)

    def audit(self) -> None:
        """Raise AssertionError unless each layer audits clean and the layers partition the keys."""
        seen: set[int] = set()
        for layer in self.layers:
            layer.audit()
            keys = set(layer)
            if keys & seen:
                raise AssertionError("key present in two layers")
            seen |= keys
        if seen != self._succ.keys():
            raise AssertionError("layers do not partition the key set")


class LayeredStructure(_LayeredBase):
    """Static cascade ranked by output probability."""

    def __init__(self, keys: KeySet, dist: WeightedDistribution,
                 universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        check_support(dist, universe)
        self.universe = universe
        self.output = output_distribution(keys, dist)
        # descending mass; the sort is stable under reverse=True, so ties keep ascending key order
        ordered = sorted(keys.keys, key=self.output.masses.__getitem__, reverse=True)
        self._build_layers(ordered, universe)
        self._succ = _successor_map(keys)


class WorkingSetLayered(_LayeredBase):
    """Self-adjusting cascade ranked by recency of being reported.

    Every query that reports an answer mutates the structure, so access must
    be externally serialized.
    """

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        slices = self._build_layers(keys.keys, universe)
        self.capacities = [len(s) for s in slices]
        # Front of each queue is the stalest key in that layer.  Untouched keys
        # keep their build order (ascending), so they shift down smallest-first.
        self._recency: list[OrderedDict[int, None]] = [OrderedDict.fromkeys(s) for s in slices]
        self._succ = _successor_map(keys)

    def _scan(self, q: int) -> tuple[Optional[int], int]:
        """The cascade scan, then the answer's promotion to the front layer."""
        answer, probed = super()._scan(q)
        if answer is not None:
            self._promote(answer, probed - 1)
        return answer, probed

    def _promote(self, x: int, j: int) -> None:
        rec = self._recency
        if j == 0:
            rec[0].pop(x)
            rec[0][x] = None
            return
        layers = self.layers
        layers[j].delete(x)
        rec[j].pop(x)
        # deepest first: each layer loses its stalest key before it gains one,
        # so no layer ever holds more than its capacity
        for k in range(j - 1, -1, -1):
            stale, _ = rec[k].popitem(last=False)
            layers[k].delete(stale)
            layers[k + 1].insert(stale)
            rec[k + 1][stale] = None
        layers[0].insert(x)
        rec[0][x] = None

    def audit(self) -> None:
        """Raise AssertionError unless occupancies, recency queues and the partition are intact."""
        sizes = [len(r) for r in self._recency]
        if sizes != self.capacities:
            raise AssertionError(f"occupancy {sizes} != capacities {self.capacities}")
        for r, layer in zip(self._recency, self.layers):
            if r.keys() != set(layer):
                raise AssertionError("recency queue and layer structure disagree")
        super().audit()
