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

Both variants keep the key set's ascending tuple as ``_keys`` (in the static
variant the same object as ``output.keys``).  The build points each front key
at the next key of that tuple, one bisect per front key (276 at n = 2**16).
A promotion out of the last layer takes the promoted key's pointer from the
layers instead: the last layer's part from its ``delete``, which has just
edited the bucket holding the next key, and each front layer's own next key
(one bisect of a flat list).  A bisect over all n keys gives the same
pointer, but on a promotion it misses cache at almost every step.

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
``audit`` is one check for both variants, and its truth is the key tuple,
never the layer code under audit.  In order: each layer's own audit; the
layers, merged and sorted, are the key tuple; exactly the front-layer keys
keep a successor pointer, each naming the key after it in the tuple (a
bisect); the variant's order (static: each key sits in the layer its rank
puts it in; self-adjusting: each front layer's recency queue holds exactly
that layer's keys); and the layer sizes are ``layer_capacities(n)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .core import (
    KeySet,
    ParameterError,
    PredecessorStructure,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    check_sorted,
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


class _LayeredBase(PredecessorStructure):
    """Shared query path and audit; subclasses decide ordering and what the scan does after."""

    universe: UniverseSpec
    layers: list[YFastTrie]
    _front: list[YFastTrie]
    _last: YFastTrie
    _succ: dict[int, Optional[int]]
    _keys: tuple[int, ...]

    def _build_layers(self, slices: list[Sequence[int]]) -> None:
        """Make each ascending cut of _keys a layer; each front key points at the next key."""
        keys = self._keys
        self.layers = [YFastTrie(KeySet._unchecked(s), self.universe) for s in slices]
        *self._front, self._last = self.layers
        self._succ = {k: keys[i] if (i := bisect_right(keys, k)) < len(keys) else None
                      for k in sorted(chain.from_iterable(slices[:-1]))}

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
        return QueryStats(answer, 0, probed)

    def table_entries(self) -> int:
        """Stored entries across all layers plus the successor pointers kept."""
        return len(self._succ) + sum(layer.table_entries() for layer in self.layers)

    def audit(self) -> None:
        """Raise AssertionError unless each layer audits clean, the layers partition the key
        set, exactly the front-layer keys keep a successor pointer, each naming the next key
        of the set (None for the largest), the keys sit in layers by the variant's order, and
        the layer sizes are ``layer_capacities(n)``.

        The truth is the key tuple ``_keys``, not the layers under audit: a
        pointer is checked by a bisect of that tuple.
        """
        for layer in self.layers:
            layer.audit()
        keys = self._keys
        if sorted(chain.from_iterable(self.layers)) != list(keys):
            raise AssertionError("layers do not partition the key set")
        front = set(chain.from_iterable(self._front))
        if self._succ.keys() != front:
            raise AssertionError(f"{len(self._succ)} successor pointers, not one per "
                                 f"front-layer key ({len(front)})")
        for k, s in self._succ.items():
            i = bisect_right(keys, k)
            if s != (following := keys[i] if i < len(keys) else None):
                raise AssertionError(f"successor pointer {k} -> {s}, next key is {following}")
        self._audit_order()
        sizes = [len(layer) for layer in self.layers]
        caps = layer_capacities(len(keys))
        if sizes != caps:
            raise AssertionError(f"layer sizes {sizes} != capacities {caps}")

    def _audit_order(self) -> None:
        """Raise AssertionError unless the keys sit in the layers the variant's order gives
        them; called once the layers and pointers are known intact."""
        raise NotImplementedError


class LayeredStructure(_LayeredBase):
    """Static cascade ranked by output probability."""

    def __init__(self, keys: KeySet, dist: WeightedDistribution,
                 universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        check_sorted(dist.support, universe)
        self.universe = universe
        self._keys = keys.keys
        self.output = output_distribution(keys, dist)
        # indices into the ascending keys by descending mass; the sort is stable, so ties
        # keep ascending key order, and each layer's sorted indices give its keys in order
        order = np.argsort(-self.output.masses, kind="stable")
        as_objects = np.array(keys.keys, dtype=object)  # the tuple's own ints, gathered in C
        self._build_layers([as_objects[np.sort(part)].tolist() for part in _cut(order)])

    def _audit_order(self) -> None:
        """Raise AssertionError unless the layers hold the keys the build's rank gives them.

        The rank orders the keys by p* descending, ties by ascending key, and
        layer j takes the next ``layer_capacities(n)[j]`` of them.  So no key in
        layer j + 1 outranks a key in layer j; the base audit checks the sizes
        after this.  The paper's bound p* <= 2**-2**j on an answer found in
        layer j >= 1 rests on that, yet a key out of place changes no answer.
        A key out of rank is named with the key it outranks.
        """
        keys, masses = self._keys, self.output.masses
        # the layer each key sits in, by its index in the ascending key tuple: the layers
        # partition the keys, so a key no front layer holds is in the last one
        held = np.full(len(keys), len(self._front), np.intp)
        for j, layer in enumerate(self._front):
            held[[bisect_left(keys, k) for k in layer]] = j
        # adjacent layers in rank order put every layer in rank order, so compare the
        # lowest-ranked key of each layer, w (least mass, the larger index of a tie), with
        # the highest-ranked of the next, b; an index stands for its key, so b outranks w
        # if (masses[b], w) > (masses[w], b)
        for j in range(len(self._front)):
            here, after = np.flatnonzero(held == j), np.flatnonzero(held == j + 1)
            if here.size and after.size:
                w = int(here[np.flatnonzero(masses[here] == masses[here].min())[-1]])
                b = int(after[np.argmax(masses[after])])  # argmax takes the first of a tie
                if (masses[b], w) > (masses[w], b):
                    raise AssertionError(f"key {keys[b]} in layer {j + 1} outranks "
                                         f"key {keys[w]} in layer {j}")


class WorkingSetLayered(_LayeredBase):
    """Self-adjusting cascade ranked by recency of being reported.

    Every query that reports an answer mutates the structure, so access must
    be externally serialized.
    """

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        self._keys = keys.keys
        slices = _cut(keys.keys)
        self._build_layers(slices)
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
            for layer in self._front:
                a = layer._after(x)
                if a is not None and (after is None or a < after):
                    after = a
            self._succ[x] = after
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

    def _audit_order(self) -> None:
        """Raise AssertionError unless each front layer's recency queue holds exactly its keys."""
        for j, (r, layer) in enumerate(zip(self._recency, self._front)):
            if r.keys() != set(layer):
                raise AssertionError(f"layer {j}'s recency queue does not hold exactly its keys")
