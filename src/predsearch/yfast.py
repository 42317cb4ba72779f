"""Bucketed trie: one sorted list while small, routed buckets above that, O(n) space.

A trie holds its keys in exactly one of two forms, chosen by their count:

* ``_flat``, one sorted list, while there are at most ``bits * bits`` keys.
  A query is one ``bisect_right``, an insert one bisect and one
  ``list.insert``, a delete one bisect and one ``del``.  At most ``bits**2``
  keys take at most 2 * log2(bits) + 1 comparisons, the same O(log bits) as
  the x-fast level search and far cheaper in CPython.  An empty trie is an
  empty list.
* ``_buckets`` routed by ``_rep_trie``, above that count.  The keys are
  partitioned into consecutive sorted buckets whose sizes stay inside
  [ceil(bits/4), 2*bits], each keyed by its minimum.  An x-fast trie over the
  minima finds the one bucket that can hold a query's predecessor, and a
  binary search inside the bucket finishes.  The trie's O(bits) ``insert``
  and ``delete`` keep it current through splits, merges and replaced minima,
  and its leaf links give the buckets in key order.

An insert that takes the count above ``bits * bits`` cuts the list into
buckets of ``bits`` keys and builds the x-fast trie over their minima.  A
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
bits**2 / 2, so from 4 bits up there are always at least two buckets, and
every bucket stays in band: below 4 bits the band's floor is one key, and an
emptied bucket goes away.

A flat update moves up to ``bits**2`` list pointers.  Measured in-process
against buckets of the same keys routed by a bisect over their minima (CPython 3.11,
2-vCPU VM): at 32 bits flat probes and updates were faster on 4 to 256 keys,
and at 1024 keys probes were faster and updates about 4% slower; at 64 bits a
flat list of 4096 keys took about 1.5 us per update against 0.87 us, while its
probes were no slower.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator, Optional, Sequence

from .core import KeySet, PredecessorStructure, QueryStats, UniverseSpec
from .xfast import XFastTrie


class YFastTrie(PredecessorStructure):
    __slots__ = ("universe", "bits", "_min_size", "_max_size", "_flat_cap", "_flat_floor",
                 "_flat", "_buckets", "_rep_trie", "_size")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        self.universe = universe
        bits = self.bits = universe.bits
        self._min_size = max(1, -(-bits // 4))
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
        and route them by an x-fast trie over their minima."""
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
        self._flat = None
        self._buckets = buckets
        self._size = len(ks)
        self._rep_trie = XFastTrie(KeySet(reps), self.universe)

    def _to_flat(self) -> None:
        """Join the buckets, in key order, into one sorted list and drop the routing trie."""
        self._flat = list(chain.from_iterable(map(self._buckets.__getitem__, self._rep_trie)))
        self._buckets = self._rep_trie = None
        self._size = 0

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
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        flat = self._flat
        if flat is not None:
            i = bisect_right(flat, q)
            return (flat[i - 1] if i else None), 0
        rep, probes = self._rep_trie._search(q)
        if rep is None:
            return None, probes
        b = self._buckets[rep]
        return b[bisect_right(b, q) - 1], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        if type(x) is not int or x >> self.bits:
            self.universe.check_key(x)
        flat = self._flat
        if flat is not None:
            i = bisect_right(flat, x)
            if i and flat[i - 1] == x:
                return
            flat.insert(i, x)
            if len(flat) > self._flat_cap:
                self._to_buckets(flat)
            return
        trie, buckets = self._rep_trie, self._buckets
        rep = trie._search(x)[0]
        if rep is not None:
            b = buckets[rep]
            i = bisect_right(b, x)
            if b[i - 1] == x:
                return
            b.insert(i, x)
        else:
            # below every bucket minimum: x leads the first bucket
            old = next(iter(trie))
            b = buckets.pop(old)
            trie.insert(x)
            trie.delete(old)
            b.insert(0, x)
            buckets[x] = b
        self._size += 1
        if len(b) > self._max_size:
            self._split(b[0])

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent."""
        if type(x) is not int or x >> self.bits:
            self.universe.check_key(x)
        flat = self._flat
        if flat is not None:
            i = bisect_left(flat, x)
            if i == len(flat) or flat[i] != x:
                raise KeyError(x)
            del flat[i]
            return
        trie, buckets = self._rep_trie, self._buckets
        rep = trie._search(x)[0]
        if rep is None:
            raise KeyError(x)
        b = buckets[rep]
        i = bisect_right(b, x) - 1  # at least 0, since b[0] <= x
        if b[i] != x:
            raise KeyError(x)
        del b[i]
        self._size -= 1
        if self._size <= self._flat_floor:
            self._to_flat()  # before the trie loses a minimum: it must keep at least one
            return
        if not i:
            # x was the bucket minimum: re-key the bucket under its new one, or forget it
            del buckets[x]
            if not b:
                trie.delete(x)
                return
            buckets[b[0]] = b
            trie.insert(b[0])
            trie.delete(x)
        if len(b) < self._min_size:
            self._merge(b[0])

    def _split(self, rep: int) -> None:
        """Move the upper half of rep's bucket to a new bucket."""
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

    # the bucket form's shape, which audit() checks

    def representatives(self) -> tuple[int, ...]:
        """The bucket minima in ascending order; none in flat form."""
        return tuple(self._rep_trie) if self._rep_trie is not None else ()

    def bucket_sizes(self) -> list[int]:
        return [len(self._buckets[r]) for r in self.representatives()]

    def audit(self) -> None:
        """Raise AssertionError unless exactly one form is set and it is intact.

        The flat list ascends and holds at most bits * bits keys.  The bucket
        form holds more than max(1, bits * bits // 2); its routing trie runs
        its own audit first, its representatives are the buckets' keys and
        lead their buckets, every bucket is in band, and the buckets hold the
        counted number of keys.
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
        reps = tuple(trie)
        if set(reps) != buckets.keys():
            raise AssertionError("representatives are not the bucket keys")
        for r in reps:
            if buckets[r][:1] != [r]:
                raise AssertionError(f"representative {r} does not lead its bucket "
                                     f"{buckets[r][:1]}")
        sizes = self.bucket_sizes()
        lo, hi = self._min_size, self._max_size
        if max(sizes) > hi or min(sizes) < lo:
            raise AssertionError(f"bucket sizes {min(sizes)}..{max(sizes)} outside [{lo}, {hi}]")
        if sum(sizes) != self._size:
            raise AssertionError(f"buckets hold {sum(sizes)} keys, counted {self._size}")

    def table_entries(self) -> int:
        """Prefix-table entries of the routing trie, if any, plus key slots."""
        if self._flat is not None:
            return len(self._flat)
        return self._rep_trie.table_entries() + self._size
