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
pointer.  So in both variants exactly the front-layer keys keep one.  A query
below every stored key can only be recognized after all layers have answered
empty.

A pointer is computed when its key enters the front, as the smallest key
above it in any layer: each layer gives its own next key (one bisect in a
flat layer), and a promotion out of the last layer takes that layer's part
from its ``delete``, which has just edited the bucket holding the next key.  A bisect
over all n keys gives the same pointer, but on a promotion it misses cache at
almost every step.

Two ways of ranking keys into layers:

* the static variant ranks keys by how much query mass they answer for
  (descending, ties by ascending key), so frequent answers sit in the tiny
  front layers; the rank is one stable NumPy ``argsort`` of the negated p*
  array, whose indices into the ascending key tuple keep ties in key order,
  and each layer gathers the keys at its sorted slice of indices, so the
  layers hold the key set's own int objects;
* the self-adjusting variant ranks by recency: every reported answer moves to
  the front layer and, for each layer above the one it came from, the stalest
  key shifts down one layer to keep all occupancies at capacity.  A promotion
  out of the last layer writes the promoted key's successor pointer and drops
  the pointer of the stale key it pushes into the last layer.  Only the front
  layers keep a recency queue: no key ever leaves the last layer as the
  stalest, so its order is never read.

Either way a layer's keys are a cut of the key set's own ascending tuple:
the static variant's gather by sorted index, the self-adjusting variant's
plain slice.  So each layer takes its cut as a ``KeySet`` as it is, through
``KeySet._unchecked``, and the checks on the keys run once, on the key set
the cascade is built from.

Every layer is a bucketed trie, whose insert/delete the self-adjusting variant
relies on.  A bucketed trie of at most ``bits * bits`` keys is one sorted list
and carries no x-fast trie, so at 32 bits the 4-, 16- and 256-key layers each
cost one bisect a probe.  Promotion shifts stale keys from the deepest layer
up, so each layer loses a key before it gains one and never holds more than
its capacity: a layer of exactly ``bits * bits`` keys stays a list.

``predecessor`` and ``query_stats`` (which adds the layers probed) run one
scan; the self-adjusting variant promotes the answer as its last step.
``audit`` checks each layer's own audit, that the layers partition the key
set, and that exactly the front-layer keys keep a successor pointer, each
naming the next key of that set, which it recomputes from the layers once
they are known to partition it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .core import (
    KeySet,
    ParameterError,
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
    if type(n) is not int or n < 0:  # bool is an int subclass, so isinstance would pass it
        raise ParameterError(f"key count must be an int >= 0, got {n!r}")
    caps: list[int] = []
    j = 1
    while n > 0:
        c = min(n, 1 << (1 << j))
        caps.append(c)
        n -= c
        j += 1
    return caps


def _cut(ranked: Sequence) -> list[Sequence]:
    """ranked cut into consecutive pieces of the layer capacities, the first piece the front."""
    pieces = []
    start = 0
    for c in layer_capacities(len(ranked)):
        pieces.append(ranked[start:start + c])
        start += c
    return pieces


def _next_key(layers: Iterable[YFastTrie], k: int, after: Optional[int] = None) -> Optional[int]:
    """The smallest key above k in any of layers, or after if that is smaller (None if neither).

    Over all layers this is the successor pointer of a stored key k.
    """
    for layer in layers:
        a = layer._after(k)
        if a is not None and (after is None or a < after):
            after = a
    return after


class _LayeredBase(PredecessorStructure):
    """Shared query path and audit; subclasses decide ordering and what the scan does after."""

    universe: UniverseSpec
    layers: list[YFastTrie]
    _front: list[YFastTrie]
    _last: YFastTrie
    _succ: dict[int, Optional[int]]

    def _build_layers(self, slices: list[Sequence[int]]) -> None:
        """Make each ascending cut of the key set a layer; each front key points at its next key."""
        self.layers = [YFastTrie(KeySet._unchecked(s), self.universe) for s in slices]
        *self._front, self._last = self.layers
        self._succ = {k: _next_key(self.layers, k) for k in sorted(chain.from_iterable(slices[:-1]))}

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
        """Raise AssertionError unless each layer audits clean, the layers partition keys,
        and exactly the front-layer keys keep a successor pointer, each naming the next
        key of the set (None for the largest)."""
        for layer in self.layers:
            layer.audit()
        seen = set(chain.from_iterable(self.layers))
        # no key in two layers, and the distinct keys are exactly the set
        if not sum(map(len, self.layers)) == len(seen) == len(keys) or not seen.issuperset(keys):
            raise AssertionError("layers do not partition the key set")
        front = set(chain.from_iterable(self._front))
        if self._succ.keys() != front:
            raise AssertionError(f"{len(self._succ)} successor pointers, not one per "
                                 f"front-layer key ({len(front)})")
        for k, s in self._succ.items():
            if s != (following := _next_key(self.layers, k)):
                raise AssertionError(f"successor pointer {k} -> {s}, next key is {following}")


class LayeredStructure(_LayeredBase):
    """Static cascade ranked by output probability."""

    def __init__(self, keys: KeySet, dist: WeightedDistribution,
                 universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        check_support(dist, universe)
        self.universe = universe
        self.output = output_distribution(keys, dist)
        # indices into the ascending keys by descending mass; the sort is stable, so ties
        # keep ascending key order, and each layer's sorted indices give its keys in order
        order = np.argsort(-self.output.masses, kind="stable")
        as_objects = np.array(keys.keys, dtype=object)  # the tuple's own ints, gathered in C
        self._build_layers([as_objects[np.sort(part)].tolist() for part in _cut(order)])

    def audit(self) -> None:
        """Raise AssertionError unless the layers and successor pointers are intact."""
        self._audit_layers(self.output.keys)


class WorkingSetLayered(_LayeredBase):
    """Self-adjusting cascade ranked by recency of being reported.

    Every query that reports an answer mutates the structure, so access must
    be externally serialized.
    """

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        self._keys = keys.keys  # the key set, for the audit
        slices = _cut(keys.keys)
        self._build_layers(slices)
        self.capacities = [len(s) for s in slices]
        # Front of each queue is the stalest key in that front layer.  Untouched keys
        # keep their build order (ascending), so they shift down smallest-first.
        self._recency: list[OrderedDict[int, None]] = [OrderedDict.fromkeys(s)
                                                       for s in slices[:-1]]

    def _scan(self, q: int) -> tuple[Optional[int], int]:
        """The cascade scan, then the answer's promotion to the front layer."""
        answer, probed = super()._scan(q)
        if answer is not None:
            self._promote(answer, probed - 1)
        return answer, probed

    def _promote(self, x: int, j: int) -> None:
        """Move x from layer j to the front; the last layer, len(rec), keeps no queue and
        its keys no successor pointer."""
        rec = self._recency
        last = len(rec)
        if j == 0:
            if last:  # a single-layer cascade has no order to keep
                rec[0].move_to_end(x)
            return
        layers = self.layers
        after = layers[j].delete(x)
        if j != last:
            del rec[j][x]
        else:  # the key after x is the last layer's next key or a front key below that
            self._succ[x] = _next_key(self._front, x, after)
        # deepest first: each layer loses its stalest key before it gains one,
        # so no layer ever holds more than its capacity
        for k in range(j - 1, -1, -1):
            stale, _ = rec[k].popitem(last=False)
            layers[k].delete(stale)
            layers[k + 1].insert(stale)
            if k + 1 != last:
                rec[k + 1][stale] = None
            else:
                del self._succ[stale]
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
        self._audit_layers(self._keys)
