"""Bucketed trie: bucket minima route a query, O(n) total space.

The key set is partitioned into consecutive sorted buckets whose sizes stay
inside [ceil(bits/4), 2*bits] (a single undersized bucket is allowed when the
whole set is small).  Each bucket is keyed by its minimum.  A route over those
minima finds the one bucket that can hold a query's predecessor, and a binary
search inside the bucket finishes.

The route takes one of two forms, and exactly one is set at any time:

* ``_reps``, a sorted list of the minima, searched with ``bisect``, while
  there are at most ``bits`` buckets; ``_rep_buckets`` holds the buckets in
  the same order.  At most ``bits`` minima take ceil(log2(bits + 1))
  comparisons, the same O(log bits) as the x-fast level search and far
  cheaper in CPython.  One bucket is a one-element list and an empty set an
  empty one.
* ``_rep_trie``, an x-fast trie over the minima, from ``bits + 1`` buckets up.
  Its O(bits) ``insert`` and ``delete`` keep it current in place, and its leaf
  links give the buckets in key order.

Updates mostly touch bucket contents.  A split, a merge, an emptied bucket or
a replaced minimum changes the route.  The trie is built when the bucket
count first goes above ``bits``, and dropped back to a list only when the
count falls to ``max(1, bits // 2)`` or fewer.  These are constants derived
from ``bits``.  The gap keeps the O(bits**2) build amortised O(1) per update:

* Let Phi be the sum over buckets of ``abs(len(bucket) - bits)``.  A key
  update moves Phi by at most 1.
* A split takes a bucket of 2*bits + 1 keys to two halves near bits, so it
  lowers Phi by about bits.  A merge folds a bucket below bits/4 into a
  neighbour, and an emptied bucket goes away; each lowers Phi by about bits/4
  or more.
* Between one build and the next the count falls from bits + 1 to bits // 2
  and climbs back, about bits splits and merges.  So about bits**2 / 4
  updates pass between builds.

Without the gap, a split and the next merge of the same buckets are only
Theta(bits) updates apart, and a set that hovers at the threshold would pay
an O(bits**2) build every Theta(bits) updates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import is_not
from typing import Iterator, Optional

from .core import KeySet, PredecessorStructure, QueryStats, UniverseSpec
from .xfast import XFastTrie


class YFastTrie(PredecessorStructure):
    __slots__ = ("universe", "bits", "_min_size", "_max_size", "_buckets", "_reps", "_rep_buckets",
                 "_rep_trie", "_size")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        self.bits = universe.bits
        self._min_size = max(1, -(-self.bits // 4))
        self._max_size = 2 * self.bits
        ks = keys.keys
        reps: list[int] = []
        buckets: dict[int, list[int]] = {}
        chunk = self.bits
        for i in range(0, len(ks), chunk):
            part = list(ks[i:i + chunk])
            if reps and len(part) < self._min_size:
                buckets[reps[-1]].extend(part)
            else:
                reps.append(part[0])
                buckets[part[0]] = part
        self._buckets = buckets
        self._size = len(ks)
        # invariant: exactly one route is set, the list with at most bits buckets;
        # _rep_buckets, set with _reps, holds the buckets in the same order
        self._reps: Optional[list[int]] = None
        self._rep_buckets: Optional[list[list[int]]] = None
        self._rep_trie: Optional[XFastTrie] = None
        if len(reps) > self.bits:
            self._rep_trie = XFastTrie(KeySet(reps), universe)
        else:
            self._reps = reps
            self._rep_buckets = [buckets[r] for r in reps]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        for rep in self.representatives():
            yield from self._buckets[rep]

    def __contains__(self, key: int) -> bool:
        if type(key) is not int or key >> self.bits:
            self.universe.check_key(key)
        return self._search(key)[0] == key

    def predecessor(self, q: int) -> Optional[int]:
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the prefix-table probes spent routing to its bucket (0 on the list route)."""
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        answer, probes = self._search(q)
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        reps = self._reps
        if reps is not None:
            i = bisect_right(reps, q)
            if not i:
                return None, 0
            b = self._rep_buckets[i - 1]
            return b[bisect_right(b, q) - 1], 0
        rep, probes = self._rep_trie._search(q)
        if rep is None:
            return None, probes
        b = self._buckets[rep]
        return b[bisect_right(b, q) - 1], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        if type(x) is not int or x >> self.bits:
            self.universe.check_key(x)
        reps = self._reps
        if reps is not None:
            r = bisect_right(reps, x)
            b = self._rep_buckets[r - 1] if r else None
        else:
            rep = self._rep_trie._search(x)[0]
            b = self._buckets[rep] if rep is not None else None
        if b is not None:
            i = bisect_right(b, x)
            if b[i - 1] == x:
                return
            b.insert(i, x)
        else:
            # below every bucket minimum: x leads the first bucket, or the only one
            buckets = self._buckets
            if reps is None:
                trie = self._rep_trie
                old = next(iter(trie))
                b = buckets.pop(old)
                trie.insert(x)
                trie.delete(old)
            elif reps:
                b = buckets.pop(reps[0])
                reps[0] = x
            else:
                b = []
                reps.append(x)
                self._rep_buckets.append(b)
            b.insert(0, x)
            buckets[x] = b
        self._size += 1
        if len(b) > self._max_size:
            self._split(b[0])

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent."""
        if type(x) is not int or x >> self.bits:
            self.universe.check_key(x)
        reps = self._reps
        if reps is not None:
            r = bisect_right(reps, x)
            b = self._rep_buckets[r - 1] if r else None
        else:
            rep = self._rep_trie._search(x)[0]
            b = self._buckets[rep] if rep is not None else None
        if b is None:
            raise KeyError(x)
        i = bisect_right(b, x) - 1  # at least 0, since b[0] <= x
        if b[i] != x:
            raise KeyError(x)
        del b[i]
        self._size -= 1
        if not i:
            # x was the bucket minimum: re-key the bucket under its new one, or forget it
            buckets = self._buckets
            del buckets[x]
            if not b:
                self._remove_rep(x)
                return
            buckets[b[0]] = b
            if reps is not None:
                reps[r - 1] = b[0]
            else:
                self._rep_trie.insert(b[0])
                self._rep_trie.delete(x)
        if len(self._buckets) > 1 and len(b) < self._min_size:
            self._merge(b[0])

    def _remove_rep(self, rep: int) -> None:
        """Stop routing to rep, whose bucket is gone; few enough buckets go back to a list."""
        trie = self._rep_trie
        if trie is None:
            i = bisect_left(self._reps, rep)
            del self._reps[i], self._rep_buckets[i]
        elif len(self._buckets) <= max(1, self.bits // 2):
            self._rep_trie = None
            self._reps = sorted(self._buckets)
            self._rep_buckets = [self._buckets[r] for r in self._reps]
        else:
            trie.delete(rep)

    def _split(self, rep: int) -> None:
        """Move the upper half of rep's bucket to a new bucket; above bits buckets, build the trie."""
        b = self._buckets[rep]
        mid = len(b) // 2
        upper = b[mid:]
        del b[mid:]
        self._buckets[upper[0]] = upper
        reps = self._reps
        if reps is None:
            self._rep_trie.insert(upper[0])
            return
        i = bisect_right(reps, upper[0])
        reps.insert(i, upper[0])
        self._rep_buckets.insert(i, upper)
        if len(self._buckets) > self.bits:
            self._rep_trie = XFastTrie(KeySet(reps), self.universe)
            self._reps = self._rep_buckets = None

    def _merge(self, rep: int) -> None:
        """Fold the undersized bucket under rep into a neighbour, splitting if overfull."""
        reps = self._reps
        if reps is None:
            below, above = self._rep_trie.neighbours(rep)
        else:
            i = bisect_left(reps, rep)
            below = reps[i - 1] if i else None
            above = reps[i + 1] if i + 1 < len(reps) else None
        keep, gone = (below, rep) if below is not None else (rep, above)
        kept = self._buckets[keep]
        kept.extend(self._buckets.pop(gone))
        if len(kept) > self._max_size:
            self._split(keep)  # before the removal, so the bucket count never crosses a threshold
        self._remove_rep(gone)

    # audit helpers

    def representatives(self) -> tuple[int, ...]:
        reps = self._reps
        return tuple(reps) if reps is not None else self._rep_trie.leaves

    def bucket_sizes(self) -> list[int]:
        return [len(self._buckets[r]) for r in self.representatives()]

    def size_band(self) -> tuple[int, int]:
        return self._min_size, self._max_size

    def audit(self) -> None:
        """Raise AssertionError unless the route matches the buckets and every bucket is in band.

        Exactly one route is set, the list only with at most bits buckets and
        the trie only with more than max(1, bits // 2); its representatives
        ascend, are the buckets' keys and lead their buckets, and the list's
        buckets are theirs in the same order.  The routing trie, if any, runs
        its own audit first.  A sole bucket may be small.
        """
        trie, buckets = self._rep_trie, self._buckets
        if (self._reps is None) == (trie is None):
            raise AssertionError("exactly one of the list and the trie must route")
        if trie is None and len(buckets) > self.bits:
            raise AssertionError(f"list route over {len(buckets)} buckets, above {self.bits}")
        if trie is not None:
            if len(buckets) <= max(1, self.bits // 2):
                raise AssertionError(f"routing trie over only {len(buckets)} buckets")
            trie.audit()
        reps = self.representatives()
        for a, b in zip(reps, reps[1:]):
            if a >= b:
                raise AssertionError(f"representatives do not ascend: {a} before {b}")
        if set(reps) != buckets.keys():
            raise AssertionError("representatives are not the bucket keys")
        if trie is None and (self._rep_buckets is None or len(self._rep_buckets) != len(reps)
                             or any(map(is_not, self._rep_buckets, map(buckets.get, reps)))):
            raise AssertionError("list route buckets are not the representatives' buckets")
        for r in reps:
            if buckets[r][:1] != [r]:
                raise AssertionError(f"representative {r} does not lead its bucket "
                                     f"{buckets[r][:1]}")
        sizes = self.bucket_sizes()
        lo, hi = self._min_size, self._max_size
        if sizes and (max(sizes) > hi or (len(sizes) > 1 and min(sizes) < lo)):
            raise AssertionError(f"bucket sizes {min(sizes)}..{max(sizes)} outside [{lo}, {hi}]")

    def table_entries(self) -> int:
        """Prefix-table entries of the routing trie, if any, plus bucket slots."""
        trie = self._rep_trie.table_entries() if self._rep_trie is not None else 0
        return trie + self._size
