"""Bucketed trie: one sorted list while small, routed buckets above that, O(n) space.

A trie holds its keys in exactly one of two forms, chosen by their count:

* ``_flat``, one sorted list, while there are at most ``bits * bits`` keys.
  A query is one ``bisect_right``, an insert one bisect and one
  ``list.insert``, a delete one bisect and one ``del``.  At most ``bits**2``
  keys take at most 2 * log2(bits) + 1 comparisons, the same O(log bits) as
  the x-fast level search (at most floor(log2(bits + 1)) + 2 hashed probes)
  and far cheaper in CPython.  An empty trie is an empty list.
* ``_buckets`` routed by ``_rep_trie``, above that count.  The keys are
  partitioned into consecutive sorted buckets whose sizes stay inside
  [ceil(bits/4), 2*bits].  Each bucket is keyed by a separator fixed when the
  bucket is made: the first bucket's is 0, and a bucket cut off by a split
  takes its first key.  A bucket's keys lie in [its separator, the next
  separator), and none of them needs to equal the separator.  An x-fast trie
  over the separators finds the one bucket whose range holds a query, and a
  binary search inside the bucket finishes; a query below that bucket's first
  key takes the last key of the bucket before it, found by the trie's leaf
  links, which also give the buckets in key order.  Inserts and deletes edit
  a bucket in place, so the route changes only when a bucket splits or
  merges, by one O(bits) trie ``insert`` or ``delete``.

An insert that takes the count above ``bits * bits`` cuts the list into
buckets of ``bits`` keys and builds the x-fast trie over their separators.  A
delete that takes the count down to ``max(1, bits * bits // 2)`` joins the
buckets back into one list.  These are constants derived from ``bits``.  Each
switch costs O(bits**2), and the gap between the two thresholds keeps that
amortised O(1) per update:

* a switch to buckets leaves bits**2 + 1 keys, so at least about bits**2 / 2
  deletes pass before the next switch back;
* a switch back leaves at most bits**2 / 2 keys, so at least about
  bits**2 / 2 inserts pass before the next build.

Without the gap, a set that hovers at the threshold would pay an O(bits**2)
switch on every other update.  In bucket form the count stays above
bits**2 / 2, so there are always at least two buckets, and every bucket stays
in band.  No bucket ever empties: bucket form exists only at 1 bit, where any
delete flattens, and from 5 bits up, where the band's floor of at least two
keys merges a bucket before it can empty (from 2 to 4 bits the universe holds
at most bits**2 keys).

A flat update moves up to ``bits**2`` list pointers.  Measured in-process
against buckets of the same keys routed by a bisect over their minima (CPython 3.11,
2-vCPU VM): at 32 bits flat probes and updates were faster on 4 to 256 keys,
and at 1024 keys probes were faster and updates about 4% slower; at 64 bits a
flat list of 4096 keys took about 1.5 us per update against 0.87 us, while its
probes were no slower.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import lt
from typing import Iterator, Optional, Sequence

from .core import KeySet, PredecessorStructure, QueryStats, UniverseSpec, WeightedDistribution
from .xfast import XFastTrie


class YFastTrie(PredecessorStructure):
    __slots__ = ("universe", "bits", "_min_size", "_max_size", "_flat_cap", "_flat_floor",
                 "_flat", "_buckets", "_rep_trie", "_size")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        bits = self.bits = universe.bits
        self._min_size = -(-bits // 4)
        self._max_size = 2 * bits
        self._flat_cap = bits * bits
        self._flat_floor = max(1, self._flat_cap // 2)
        # invariant: exactly one form is set, the flat list with at most _flat_cap
        # keys or the buckets and their routing trie with more than _flat_floor;
        # _size counts the keys of the bucket form only
        self._flat: Optional[list[int]] = None
        self._buckets: Optional[dict[int, list[int]]] = None
        self._rep_trie: Optional[XFastTrie] = None
        self._size = 0
        if len(keys) > self._flat_cap:
            self._to_buckets(keys.keys)
        else:
            self._flat = list(keys.keys)

    def _to_buckets(self, ks: Sequence[int]) -> None:
        """Cut the ascending keys into buckets of bits keys (a short tail joins the last one)
        and route them by an x-fast trie over their separators: 0, then each bucket's first key."""
        seps: list[int] = []
        buckets: dict[int, list[int]] = {}
        chunk = self.bits
        for i in range(0, len(ks), chunk):
            part = list(ks[i:i + chunk])
            if seps and len(part) < self._min_size:
                buckets[seps[-1]].extend(part)
            else:
                sep = part[0] if seps else 0
                seps.append(sep)
                buckets[sep] = part
        self._flat = None
        self._buckets = buckets
        self._size = len(ks)
        self._rep_trie = XFastTrie(KeySet._unchecked(seps), self.universe)

    def _to_flat(self) -> None:
        """Join the buckets, in key order, into one sorted list and drop the routing trie."""
        self._flat = list(chain.from_iterable(map(self._buckets.__getitem__, self._rep_trie)))
        self._buckets = self._rep_trie = None
        self._size = 0

    # `x in trie` would fall back to a linear walk of __iter__ with no key check
    __contains__ = None

    def __len__(self) -> int:
        flat = self._flat
        return len(flat) if flat is not None else self._size

    def __iter__(self) -> Iterator[int]:
        flat = self._flat
        if flat is not None:
            return iter(flat)
        return chain.from_iterable(map(self._buckets.__getitem__, self._rep_trie))

    def predecessor(self, q: int) -> Optional[int]:
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        flat = self._flat
        if flat is not None:  # _search's flat branch, inline: a cascade probe skips a call
            i = bisect_right(flat, q)
            return flat[i - 1] if i else None
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the prefix-table probes spent routing to its bucket (0 in flat form)."""
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        answer, probes = self._search(q)
        return QueryStats(answer, probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        flat = self._flat
        if flat is not None:
            i = bisect_right(flat, q)
            return (flat[i - 1] if i else None), 0
        trie = self._rep_trie
        sep, probes = trie._search(q)  # never None: the first separator is 0
        b = self._buckets[sep]
        i = bisect_right(b, q)
        if i:
            return b[i - 1], probes
        # q lies between the separator and the bucket's first key: the bucket before answers
        below = trie._prev[sep]
        return (self._buckets[below][-1] if below is not None else None), probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        if type(x) is not int or x >> self.bits:
            x = self.universe.check_key(x)
        flat = self._flat
        if flat is not None:
            i = bisect_right(flat, x)
            if i and flat[i - 1] == x:
                return
            flat.insert(i, x)
            if len(flat) > self._flat_cap:
                self._to_buckets(flat)
            return
        sep = self._rep_trie._search(x)[0]
        b = self._buckets[sep]
        i = bisect_right(b, x)
        if i and b[i - 1] == x:
            return
        b.insert(i, x)
        self._size += 1
        if len(b) > self._max_size:
            self._split(sep)

    def delete(self, x: int) -> Optional[int]:
        """Remove key x and return the smallest key left above it (None if there is none);
        raises KeyError if x is absent.

        The return value costs one index into the list just edited, where a
        later search for it would route again.
        """
        if type(x) is not int or x >> self.bits:
            x = self.universe.check_key(x)
        flat = self._flat
        if flat is not None:
            i = bisect_left(flat, x)
            if i == len(flat) or flat[i] != x:
                raise KeyError(x)
            del flat[i]
            return flat[i] if i < len(flat) else None
        sep = self._rep_trie._search(x)[0]
        b = self._buckets[sep]
        i = bisect_left(b, x)
        if i == len(b) or b[i] != x:
            raise KeyError(x)
        del b[i]
        after = b[i] if i < len(b) else self._first_above(sep)
        self._size -= 1
        if self._size <= self._flat_floor:
            self._to_flat()
        elif len(b) < self._min_size:
            self._merge(sep)
        return after

    def _after(self, x: int) -> Optional[int]:
        """The smallest stored key above x, or None; x is a valid key, not checked again."""
        flat = self._flat
        if flat is not None:
            i = bisect_right(flat, x)
            return flat[i] if i < len(flat) else None
        sep = self._rep_trie._search(x)[0]
        b = self._buckets[sep]
        i = bisect_right(b, x)
        return b[i] if i < len(b) else self._first_above(sep)

    def _first_above(self, sep: int) -> Optional[int]:
        """The first key of the bucket after sep's, or None if sep's bucket is the last."""
        above = self._rep_trie._next[sep]
        return self._buckets[above][0] if above is not None else None

    def _split(self, sep: int) -> None:
        """Move the upper half of sep's bucket to a new bucket, keyed by its first key."""
        b = self._buckets[sep]
        mid = len(b) // 2
        upper = b[mid:]
        del b[mid:]
        self._buckets[upper[0]] = upper
        self._rep_trie.insert(upper[0])

    def _merge(self, sep: int) -> None:
        """Fold the undersized bucket under sep into a neighbour, splitting if overfull.

        The lower of the two buckets keeps its separator, so the first stays 0.
        """
        trie = self._rep_trie
        below, above = trie._prev[sep], trie._next[sep]
        keep, gone = (below, sep) if below is not None else (sep, above)
        kept = self._buckets[keep]
        kept.extend(self._buckets.pop(gone))
        trie.delete(gone)
        if len(kept) > self._max_size:
            self._split(keep)

    def audit(self, dist: Optional[WeightedDistribution] = None) -> None:
        """Raise AssertionError unless exactly one form is set and it is intact.

        The flat list ascends and holds at most bits * bits keys.  The bucket
        form holds more than max(1, bits * bits // 2); its routing trie runs
        its own audit first, its separators are the buckets' keys and the
        first is 0, every bucket is in band, the buckets hold the counted number
        of keys, the keys ascend bucket by bucket, and every bucket lies within
        [its separator, the next separator).  dist is ignored: a trie takes
        nothing from a distribution.
        """
        flat, trie, buckets = self._flat, self._rep_trie, self._buckets
        if (flat is None) == (trie is None) or (trie is None) != (buckets is None):
            raise AssertionError("exactly one of the flat list and the routed buckets must be set")
        if flat is not None:
            if len(flat) > self._flat_cap:
                raise AssertionError(f"flat list of {len(flat)} keys, above bits * bits = "
                                     f"{self._flat_cap}")
            for a, b in zip(flat, flat[1:]):
                if a >= b:
                    raise AssertionError(f"flat keys do not ascend: {a} before {b}")
            return
        if self._size <= self._flat_floor:
            raise AssertionError(f"bucket form over only {self._size} keys, at or below the "
                                 f"flatten floor {self._flat_floor}")
        trie.audit()
        seps = tuple(trie)
        if set(seps) != buckets.keys():
            raise AssertionError("separators are not the bucket keys")
        if seps[0]:
            raise AssertionError(f"first separator is {seps[0]}, not 0")
        sizes = list(map(len, buckets.values()))
        lo, hi = self._min_size, self._max_size
        if max(sizes) > hi or min(sizes) < lo:
            raise AssertionError(f"bucket sizes {min(sizes)}..{max(sizes)} outside [{lo}, {hi}]")
        if sum(sizes) != self._size:
            raise AssertionError(f"buckets hold {sum(sizes)} keys, counted {self._size}")
        keys = list(self)
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise AssertionError("bucket keys do not ascend in separator order")
        for sep, end in zip(seps, seps[1:] + (self.universe.size,)):
            b = buckets[sep]
            if b[0] < sep or b[-1] >= end:
                raise AssertionError(f"bucket {sep} holds keys {b[0]}..{b[-1]} outside "
                                     f"[{sep}, {end})")

    def table_entries(self) -> int:
        """Prefix-table entries of the routing trie, if any, plus key slots."""
        if self._flat is not None:
            return len(self._flat)
        return self._rep_trie.table_entries() + self._size
