"""Doubly-exponential layer cascade with successor-pointer early stopping.

Layer j holds 2**(2**j) keys (4, 16, 256, 65536, ...), the last layer holding
whatever remains, and each layer is its own predecessor structure over the
full universe.  A query probes the front layers (all but the last) in order.
A front-layer key knows its successor in the full key set, so as soon as a
layer's own candidate (its local predecessor) has a successor above the query,
that candidate is provably the global answer and the search stops.  If no
front layer stops it, the answer is a key no front layer holds, and the last
layer's candidate is it: the last layer's keys need no successor pointer.  So
in both variants exactly the front-layer keys keep one.  A query below every
stored key can only be recognized after all layers have answered empty.

Both variants keep the key set's ascending tuple as ``_keys`` (in the static
variant the same object as ``output.keys``).  The build points each front key
at the next key of that tuple, one bisect per front key (276 at n = 2**16).
A promotion out of the last layer takes the promoted key's pointer from the
layers instead: the last layer's part from its ``delete``, which has just
edited the bucket holding the next key, and each front layer's own next key
(one bisect of a flat list).  A bisect of ``_keys`` gives the same pointer
and costs no query time, but it costs the benchmark, and so it stays out:

* on ``drift-ws`` (seed 11, 2-vCPU VM, CPython 3.11) ``tools/ab.py`` reads
  0.995-0.997 for it, with 681-765 of 1,280 blocks won;
* yet it warms the key tuple that perfbench's floor bisects next: the
  floor's median ``floor_ns_mean`` fell from 626 to 541 ns over 4 alternated
  15 s pairs while raw ``query_ns_p50`` stayed at 5404 vs 5379 ns, so
  ``query_p50_floor_ratio`` read +15% and ``throughput_floor_ratio`` -11%
  for a structure no slower;
* taking the last layer's part from an ``_after`` call instead of the key
  ``delete`` returns costs query time: ``tools/ab.py`` read 1.016-1.019, 0 of
  10 rounds won, with the floor unmoved.

A fair floor, one that no structure's batch warms (ROADMAP item 6), would
let the key-tuple bisect land, and with it ``YFastTrie._after``,
``_first_above`` and ``delete``'s return value could go.

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
  stalest, so its order is never read.  Each queue maps its keys, stalest
  first, to their access stamps from one per-cascade counter: an answer
  promoted to the front layer takes a fresh stamp, and a stale key shifted
  down keeps its own.  So stamps ascend within each queue and every key of
  front layer j is fresher than every key of front layer j + 1, which is
  the order the working-set bound rests on.

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
``audit(dist=None)`` is one check for both variants, and its truth is the
key tuple, never the layer code under audit.  In order: each layer's own
audit; the layers, merged and sorted, are the key tuple; exactly the
front-layer keys keep a successor pointer, each naming the key after it in
the tuple (a bisect); the variant's order (static: given dist, the
distribution the cascade was built from, its p* masses and bottom mass are
bit for bit ``output_distribution(keys, dist)``'s, then each key sits in the
layer its rank puts it in; self-adjusting: each front layer's recency queue
holds exactly that layer's keys, its stamps ascend, and they all lie above
the next front layer's, and dist is ignored, since recency takes nothing
from a distribution); and the layer sizes are ``layer_capacities(n)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import chain, count
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
    """Shared query path and audit; subclasses decide ordering and what the scan does after.

    Each subclass audits its ordering in ``_audit_order(dist)``, which raises
    AssertionError unless the keys sit in the layers the variant's order gives
    them; ``audit`` calls it, with its own dist, once the layers and pointers
    are known intact.
    """

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
        """Probe the front layers in order, stopping at the first whose own candidate's
        successor is None or above q, then the last layer, whose candidate is the answer.

        Why this is the answer, and why no running best is needed: if the
        global answer p sits in front layer j, layer j's candidate is p and
        ``succ[p]`` is None or above q, so the scan stops at layer j.  Every
        candidate c of an earlier layer is a key below p, so ``succ[c] <= p
        <= q`` and the scan cannot stop earlier.  If p sits in the last layer,
        or q has no predecessor, every front candidate is below p or None, so
        no front layer stops the scan.  So the answer, and the layers probed,
        are those of a scan that keeps the largest candidate seen so far.

        The first layer's ``predecessor`` checks the key, so an invalid query
        raises before any layer answers and before the self-adjusting variant
        promotes anything.
        """
        succ = self._succ
        probed = 0
        for layer in self._front:
            probed += 1
            local = layer.predecessor(q)
            if local is not None:
                s = succ[local]
                if s is None or s > q:
                    return local, probed
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

    def audit(self, dist: Optional[WeightedDistribution] = None) -> None:
        """Raise AssertionError unless each layer audits clean, the layers partition the key
        set, exactly the front-layer keys keep a successor pointer, each naming the next key
        of the set (None for the largest), the keys sit in layers by the variant's order
        (checked against dist where the variant took its order from it), and the layer
        sizes are ``layer_capacities(n)``.

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
        self._audit_order(dist)
        sizes = [len(layer) for layer in self.layers]
        caps = layer_capacities(len(keys))
        if sizes != caps:
            raise AssertionError(f"layer sizes {sizes} != capacities {caps}")


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

    def _audit_order(self, dist: Optional[WeightedDistribution]) -> None:
        """Raise AssertionError unless the stored p* are dist's and the layers hold the keys
        the build's rank gives them.

        Given dist, the masses are checked first, as their bits: every p* and
        the bottom mass must be the float ``output_distribution(keys, dist)``
        folds, and the first key whose mass differs is named.  Without this a
        rank over wrong masses (every p* halved, say) would pass.  The rank
        orders the keys by p* descending, ties by ascending key, and layer j
        takes the next ``layer_capacities(n)[j]`` of them.  So no key in layer
        j + 1 outranks a key in layer j; the base audit checks the sizes after
        this.  The paper's bound p* <= 2**-2**j on an answer found in layer
        j >= 1 rests on that, yet a key out of place changes no answer.  A key
        out of rank is named with the key it outranks.
        """
        keys, masses = self._keys, self.output.masses
        if dist is not None:  # p* in key order, then the bottom mass, compared as their bits
            got, want = (np.append(o.masses, o.bottom_mass) for o in
                         (self.output, output_distribution(KeySet._unchecked(keys), dist)))
            differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            if differ.size:
                i = differ[0]
                what = f"key {keys[i]} answers p*" if i < len(keys) else f"mass below key {keys[0]} is"
                raise AssertionError(f"{what} {got[i]}, the distribution gives {want[i]}")
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

    mutates = True

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        self._keys = keys.keys
        slices = _cut(keys.keys)
        self._build_layers(slices)
        # Front of each queue is the stalest key in that front layer.  Untouched keys
        # keep their build order (ascending), so they shift down smallest-first.  Build
        # stamps are negative, the deepest front layer's lowest, so every access is fresher.
        self._recency: list[OrderedDict[int, int]] = []
        end = 0
        for s in slices[:-1]:
            self._recency.append(OrderedDict(zip(s, range(end - len(s), end))))
            end -= len(s)
        self._clock = count()

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
                rec[0][x] = next(self._clock)
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
            stale, stamp = rec[k].popitem(last=False)
            layers[k].delete(stale)
            layers[k + 1].insert(stale)
            if k + 1 != last:
                rec[k + 1][stale] = stamp
            else:
                del self._succ[stale]
        layers[0].insert(x)
        rec[0][x] = next(self._clock)

    def _audit_order(self, dist: Optional[WeightedDistribution]) -> None:
        """Raise AssertionError unless each front layer's recency queue holds exactly its keys
        and the stamps ascend from the deepest front layer's stalest key to layer 0's freshest;
        dist is ignored, since recency takes nothing from a distribution.

        That one walk checks both halves of the order: stamps ascend within each
        queue, and every stamp of front layer j + 1 lies below every stamp of
        layer j.  A queue out of order answers every query right, but the next
        promotions shift its freshest keys down, which can break the working-set
        bound.
        """
        for j, (r, layer) in enumerate(zip(self._recency, self._front)):
            if r.keys() != set(layer):
                raise AssertionError(f"layer {j}'s recency queue does not hold exactly its keys")
        before = None  # (layer, key, stamp) of the key walked just before
        for j in range(len(self._recency) - 1, -1, -1):
            for k, stamp in self._recency[j].items():
                if before is not None and stamp <= before[2]:
                    raise AssertionError(f"key {k} in layer {j} (stamp {stamp}) is not fresher "
                                         f"than key {before[1]} in layer {before[0]} "
                                         f"(stamp {before[2]})")
                before = (j, k, stamp)
