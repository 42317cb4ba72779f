"""Bucketed trie: prefix-level search over bucket minima, O(n) total space.

The key set is partitioned into consecutive sorted buckets whose sizes stay
inside [ceil(bits/4), 2*bits] (a single undersized bucket is allowed when the
whole set is small).  Each bucket is keyed by its minimum.  With two or more
buckets an x-fast trie over those minima routes a query to the one bucket that
can contain its predecessor, and a binary search inside the bucket finishes.
With at most one bucket there is nothing to route between, so there is no
trie: queries and updates bisect the sole bucket directly.

Updates mostly touch bucket contents.  When the set of bucket minima changes
(split, merge, removal or replacement of a minimum) the prefix trie is updated
in place with its O(bits) insert and delete; the trie's leaf links give the
buckets in key order.  A split out of the sole bucket builds the trie over the
two new minima, and a removal or merge that leaves one bucket drops it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional

from .core import KeySet, PredecessorStructure, QueryStats, UniverseSpec
from .xfast import XFastTrie


class YFastTrie(PredecessorStructure):
    __slots__ = ("universe", "bits", "_min_size", "_max_size", "_buckets", "_rep_trie", "_sole",
                 "_size")

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
        # invariant: exactly one of _rep_trie and _sole is set, the trie when
        # there are two or more buckets; _sole is the empty list for an empty set
        self._rep_trie: Optional[XFastTrie] = None
        self._sole: Optional[list[int]] = None
        if len(reps) > 1:
            self._rep_trie = XFastTrie(KeySet(reps), universe)
        else:
            self._sole = buckets[reps[0]]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        for rep in self.representatives():
            yield from self._buckets[rep]

    def __contains__(self, key: int) -> bool:
        return self._search(self.universe.check_key(key))[0] == key

    def predecessor(self, q: int) -> Optional[int]:
        self.universe.check_key(q)
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the prefix-table probes spent routing to its bucket."""
        answer, probes = self._search(self.universe.check_key(q))
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        trie = self._rep_trie
        if trie is None:
            b = self._sole
            i = bisect_right(b, q)
            return (b[i - 1] if i else None), 0
        rep, probes = trie._search(q)
        if rep is None:
            return None, probes
        b = self._buckets[rep]
        return b[bisect_right(b, q) - 1], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        self.universe.check_key(x)
        trie = self._rep_trie
        if trie is None:
            b = self._sole
            i = bisect_right(b, x)
            if i and b[i - 1] == x:
                return
            b.insert(i, x)
            self._size += 1
            if i == 0:
                self._buckets = {x: b}
            if len(b) > self._max_size:
                self._split(b[0])
            return
        rep = trie._search(x)[0]
        if rep is None:
            # below every bucket minimum: x leads the first bucket
            old = next(iter(trie))
            b = self._buckets.pop(old)
            b.insert(0, x)
            self._buckets[x] = b
            self._size += 1
            trie.insert(x)
            trie.delete(old)
            if len(b) > self._max_size:
                self._split(x)
            return
        b = self._buckets[rep]
        i = bisect_right(b, x)
        if b[i - 1] == x:
            return
        b.insert(i, x)
        self._size += 1
        if len(b) > self._max_size:
            self._split(rep)

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent."""
        self.universe.check_key(x)
        trie = self._rep_trie
        if trie is None:
            b = self._sole
            i = bisect_right(b, x) - 1
            if i < 0 or b[i] != x:
                raise KeyError(x)
            del b[i]
            self._size -= 1
            if i == 0:
                self._buckets = {b[0]: b} if b else {}
            return
        rep = trie._search(x)[0]
        if rep is None:
            raise KeyError(x)
        b = self._buckets[rep]
        i = bisect_right(b, x) - 1
        if i < 0 or b[i] != x:
            raise KeyError(x)
        del b[i]
        self._size -= 1
        if not b:
            del self._buckets[rep]
            self._drop(rep)
            return
        if i == 0:
            # removed the bucket minimum; re-key under the new minimum
            del self._buckets[rep]
            trie.insert(b[0])
            trie.delete(rep)
            rep = b[0]
            self._buckets[rep] = b
        if len(b) < self._min_size:
            self._merge(rep)

    def _split(self, rep: int) -> None:
        b = self._buckets[rep]
        mid = len(b) // 2
        upper = b[mid:]
        del b[mid:]
        self._buckets[upper[0]] = upper
        if self._rep_trie is None:
            self._rep_trie = XFastTrie(KeySet([rep, upper[0]]), self.universe)
            self._sole = None
        else:
            self._rep_trie.insert(upper[0])

    def _drop(self, rep: int) -> None:
        """Forget the minimum of a bucket already removed; one bucket left needs no trie."""
        if len(self._buckets) == 1:
            self._rep_trie = None
            self._sole = next(iter(self._buckets.values()))
        else:
            self._rep_trie.delete(rep)

    def _merge(self, rep: int) -> None:
        """Fold the undersized bucket under rep into a neighbour, splitting if overfull."""
        below, above = self._rep_trie.neighbours(rep)
        keep, gone = (below, rep) if below is not None else (rep, above)
        kept = self._buckets[keep]
        kept.extend(self._buckets.pop(gone))
        if len(kept) > self._max_size:
            self._split(keep)  # before the drop, so a two-bucket trie is kept, not rebuilt
        self._drop(gone)

    # audit helpers

    def representatives(self) -> tuple[int, ...]:
        trie = self._rep_trie
        return trie.leaves if trie is not None else tuple(self._buckets)

    def bucket_sizes(self) -> list[int]:
        return [len(self._buckets[r]) for r in self.representatives()]

    def size_band(self) -> tuple[int, int]:
        return self._min_size, self._max_size

    def audit(self) -> None:
        """Raise AssertionError unless every bucket (a sole one may be small) is inside the band.

        The routing trie, if any, runs its own audit first.
        """
        if self._rep_trie is not None:
            self._rep_trie.audit()
        sizes = self.bucket_sizes()
        lo, hi = self._min_size, self._max_size
        if sizes and (max(sizes) > hi or (len(sizes) > 1 and min(sizes) < lo)):
            raise AssertionError(f"bucket sizes {min(sizes)}..{max(sizes)} outside [{lo}, {hi}]")

    def table_entries(self) -> int:
        """Prefix-table entries of the representative trie plus bucket slots."""
        trie = self._rep_trie.table_entries() if self._rep_trie is not None else 0
        return trie + self._size
