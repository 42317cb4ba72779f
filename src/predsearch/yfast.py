"""Bucketed trie: prefix-level search over bucket minima, O(n) total space.

The key set is partitioned into consecutive sorted buckets whose sizes stay
inside [ceil(bits/4), 2*bits] (a single undersized bucket is allowed when the
whole set is small).  Each bucket is keyed by its minimum, and an x-fast trie
over those minima routes a query to the one bucket that can contain its
predecessor; a binary search inside the bucket finishes.

Updates mostly touch bucket contents.  When the set of bucket minima changes
(split, merge, removal or replacement of a minimum) the prefix trie is updated
in place with its O(bits) insert and delete; the trie's leaf links give the
buckets in key order.  Only an empty set that receives its first key builds a
new trie.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Optional

from .core import KeySet, PredecessorStructure, QueryStats, UniverseSpec
from .xfast import XFastTrie


class YFastTrie(PredecessorStructure):
    __slots__ = ("universe", "bits", "_min_size", "_max_size", "_buckets", "_rep_trie", "_size")

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
        self._rep_trie: Optional[XFastTrie] = XFastTrie(KeySet(reps), universe)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        if self._size:
            for rep in self._rep_trie:
                yield from self._buckets[rep]

    def __contains__(self, key: int) -> bool:
        if self._size == 0:
            return False
        rep = self._rep_trie.predecessor(key)
        if rep is None:
            return False
        b = self._buckets[rep]
        i = bisect_right(b, key) - 1
        return i >= 0 and b[i] == key

    def predecessor(self, q: int) -> Optional[int]:
        self.universe.check_key(q)
        return self._search(q)[0]

    def predecessor_with_probes(self, q: int) -> tuple[Optional[int], int]:
        self.universe.check_key(q)
        return self._search(q)

    def query_stats(self, q: int) -> QueryStats:
        answer, probes = self.predecessor_with_probes(q)
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        if self._size == 0:
            return None, 0
        rep, probes = self._rep_trie._search(q)
        if rep is None:
            return None, probes
        b = self._buckets[rep]
        return b[bisect_right(b, q) - 1], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        self.universe.check_key(x)
        if self._size == 0:
            self._buckets = {x: [x]}
            self._size = 1
            self._rep_trie = XFastTrie(KeySet([x]), self.universe)
            return
        trie = self._rep_trie
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
        rep = self._rep_trie._search(x)[0] if self._size else None
        if rep is None:
            raise KeyError(x)
        b = self._buckets[rep]
        i = bisect_right(b, x) - 1
        if i < 0 or b[i] != x:
            raise KeyError(x)
        del b[i]
        self._size -= 1
        trie = self._rep_trie
        if not b:
            del self._buckets[rep]
            if self._size == 0:
                self._rep_trie = None
            else:
                trie.delete(rep)
            return
        if i == 0:
            # removed the bucket minimum; re-key under the new minimum
            del self._buckets[rep]
            trie.insert(b[0])
            trie.delete(rep)
            rep = b[0]
            self._buckets[rep] = b
        if len(b) < self._min_size and len(self._buckets) > 1:
            self._merge(rep)

    def _split(self, rep: int) -> None:
        b = self._buckets[rep]
        mid = len(b) // 2
        upper = b[mid:]
        del b[mid:]
        self._buckets[upper[0]] = upper
        self._rep_trie.insert(upper[0])

    def _merge(self, rep: int) -> None:
        """Fold the undersized bucket under rep into a neighbour, splitting if overfull."""
        below, above = self._rep_trie.neighbours(rep)
        keep, gone = (below, rep) if below is not None else (rep, above)
        kept = self._buckets[keep]
        kept.extend(self._buckets.pop(gone))
        self._rep_trie.delete(gone)
        if len(kept) > self._max_size:
            self._split(keep)

    # audit helpers

    def representatives(self) -> tuple[int, ...]:
        return self._rep_trie.leaves if self._size else ()

    def bucket_sizes(self) -> list[int]:
        return [len(self._buckets[r]) for r in self.representatives()]

    def size_band(self) -> tuple[int, int]:
        return self._min_size, self._max_size

    def table_entries(self) -> int:
        """Prefix-table entries of the representative trie plus bucket slots."""
        trie = self._rep_trie.table_entries() if self._rep_trie is not None else 0
        return trie + self._size
