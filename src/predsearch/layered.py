"""Doubly-exponential layer cascade with successor-pointer early stopping.

Layer j holds 2**(2**j) keys (4, 16, 256, 65536, ...), the last layer holding
whatever remains, and each layer is its own predecessor structure over the
full universe.  A query probes the front layers (all but the last) in order,
keeping the best (largest) local predecessor seen so far.  A front-layer key
knows its successor in the full key set, so as soon as the best candidate's
successor exceeds the query the candidate is provably the global answer and
the search stops.  Otherwise that successor is a stored key at or below the
query that no front layer holds, so the last layer's local predecessor is at
least that key and is the answer: the last layer's keys need no successor
pointer.  A query below every stored key can only be recognized after all
layers have answered empty.

Two ways of ranking keys into layers:

* the static variant sorts keys by how much query mass they answer for
  (descending, ties by ascending key), so frequent answers sit in the tiny
  front layers; it is one C-level sort keyed by the mass map, stable under
  ``reverse=True``, over the ascending key tuple.  Only its front-layer keys
  keep a successor pointer;
* the self-adjusting variant ranks by recency: every reported answer moves to
  the front layer and, for each layer above the one it came from, the stalest
  key shifts down one layer to keep all occupancies at capacity.  Any key can
  be promoted into the front, so every key keeps a successor pointer.  Only
  the front layers keep a recency queue: no key ever leaves the last layer as
  the stalest, so its order is never read.

Every layer is a bucketed trie, whose insert/delete the self-adjusting variant
relies on.  A bucketed trie of at most ``bits * bits`` keys is one sorted list
and carries no x-fast trie, so at 32 bits the 4-, 16- and 256-key layers each
cost one bisect a probe.  Promotion shifts stale keys from the deepest layer
up, so each layer loses a key before it gains one and never holds more than
its capacity: a layer of exactly ``bits * bits`` keys stays a list.

``predecessor`` and ``query_stats`` (which adds the layers probed) run one
scan; the self-adjusting variant promotes the answer as its last step.
``audit`` checks each layer's own audit, that the layers partition the key
set, and that every successor pointer names the next key of that set.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from itertools import chain
from typing import Collection, Optional, Sequence

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
    _front: list[YFastTrie]
    _last: YFastTrie
    _succ: dict[int, Optional[int]]

    def _build_layers(self, ordered: Sequence[int], universe: UniverseSpec) -> list[tuple[int, ...]]:
        caps = layer_capacities(len(ordered))
        slices: list[tuple[int, ...]] = []
        start = 0
        for c in caps:
            slices.append(tuple(sorted(ordered[start:start + c])))
            start += c
        self.layers = [YFastTrie(KeySet(s), universe) for s in slices]
        *self._front, self._last = self.layers
        return slices

    def _scan(self, q: int) -> tuple[Optional[int], int]:
        """Probe the front layers in order, stopping once the best candidate is proven
        global, then the last layer, whose candidate is the answer.

        The first layer's ``predecessor`` checks the key, so an invalid query
        raises before any layer answers and before the self-adjusting variant
        promotes anything.
        """
        succ = self._succ
        best: Optional[int] = None
        probed = 0
        for layer in self._front:
            probed += 1
            local = layer.predecessor(q)
            if local is not None and (best is None or local > best):
                best = local
            if best is not None:
                s = succ[best]
                if s is None or s > q:
                    return best, probed
        # best is None, or its successor is a key at or below q held by the last layer,
        # so the last layer's candidate is larger than best
        return self._last.predecessor(q), probed + 1

    def predecessor(self, q: int) -> Optional[int]:
        return self._scan(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the number of layers probed."""
        answer, probed = self._scan(q)
        return QueryStats(answer=answer, layers_probed=probed)

    def table_entries(self) -> int:
        """Stored entries across all layers plus the successor pointers kept."""
        return len(self._succ) + sum(layer.table_entries() for layer in self.layers)

    def _audit_layers(self, keys: Collection[int]) -> None:
        """Raise AssertionError unless each layer audits clean, the layers partition keys
        and every successor pointer names the next key of the set (None for the largest)."""
        seen: set[int] = set()
        for layer in self.layers:
            layer.audit()
            layer_keys = set(layer)
            if layer_keys & seen:
                raise AssertionError("key present in two layers")
            seen |= layer_keys
        if seen != keys:
            raise AssertionError("layers do not partition the key set")
        ks = sorted(seen)
        following = dict(zip(ks, ks[1:] + [None]))
        if self._succ.items() <= following.items():  # one C-level pass; name the bad one below
            return
        for k, s in self._succ.items():
            if k not in following or following[k] != s:
                raise AssertionError(f"successor pointer {k} -> {s}, next key is "
                                     f"{following.get(k, 'absent')}")


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
        slices = self._build_layers(ordered, universe)
        ks = keys.keys
        self._succ = {k: ks[i] if (i := bisect_right(ks, k)) < len(ks) else None
                      for k in sorted(chain.from_iterable(slices[:-1]))}

    def audit(self) -> None:
        """Raise AssertionError unless the layers and successor pointers are intact and
        exactly the front-layer keys keep a pointer."""
        self._audit_layers(self.output.masses.keys())
        front = set(chain.from_iterable(self._front))
        if self._succ.keys() != front:
            raise AssertionError(f"{len(self._succ)} successor pointers, not one per "
                                 f"front-layer key ({len(front)})")


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
        # Front of each queue is the stalest key in that front layer.  Untouched keys
        # keep their build order (ascending), so they shift down smallest-first.
        self._recency: list[OrderedDict[int, None]] = [OrderedDict.fromkeys(s)
                                                       for s in slices[:-1]]
        self._succ = _successor_map(keys)

    def _scan(self, q: int) -> tuple[Optional[int], int]:
        """The cascade scan, then the answer's promotion to the front layer."""
        answer, probed = super()._scan(q)
        if answer is not None:
            self._promote(answer, probed - 1)
        return answer, probed

    def _promote(self, x: int, j: int) -> None:
        """Move x from layer j to the front; the last layer, len(rec), keeps no queue."""
        rec = self._recency
        last = len(rec)
        if j == 0:
            if last:  # a single-layer cascade has no order to keep
                rec[0].move_to_end(x)
            return
        layers = self.layers
        layers[j].delete(x)
        if j != last:
            del rec[j][x]
        # deepest first: each layer loses its stalest key before it gains one,
        # so no layer ever holds more than its capacity
        for k in range(j - 1, -1, -1):
            stale, _ = rec[k].popitem(last=False)
            layers[k].delete(stale)
            layers[k + 1].insert(stale)
            if k + 1 != last:
                rec[k + 1][stale] = None
        layers[0].insert(x)
        rec[0][x] = None

    def audit(self) -> None:
        """Raise AssertionError unless occupancies, front recency queues, the partition and
        the successor pointers are intact."""
        sizes = [len(r) for r in self._recency] + [len(self._last)]
        if sizes != self.capacities:
            raise AssertionError(f"occupancy {sizes} != capacities {self.capacities}")
        for r, layer in zip(self._recency, self._front):
            if r.keys() != set(layer):
                raise AssertionError("recency queue and layer structure disagree")
        self._audit_layers(self._succ.keys())
