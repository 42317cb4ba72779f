"""Hashed prefix-level trie: predecessor search in O(log bits) table probes.

For a universe of ``w`` bits the trie keeps ``w + 1`` hash tables.  Table L is
keyed by the top-L bits of every stored key and maps each present prefix to
the smallest and largest stored key beneath it.  A binary search over the
levels locates the longest stored prefix of the query; the (min, max)
descendant pointers plus the doubly linked leaf list then resolve the
predecessor with O(1) additional work:

* if the query diverges from the trie by a 1-bit, every stored key under the
  found prefix sits in its 0-subtree, so the prefix's max leaf is the answer;
* if it diverges by a 0-bit, every stored key under the prefix is larger than
  the query, so the answer is the leaf linked before the prefix's min.

``insert`` and ``delete`` touch only the ``w + 1`` prefix entries on the key's
path plus its two leaf neighbours, so an update costs O(w) table operations.
The trie always holds at least one key, like the key set it is built from.
Plain dicts provide the expected-O(1) tables; a perfect-hash construction
would also satisfy the contract but is unnecessary here.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import KeySet, ParameterError, PredecessorStructure, QueryStats, UniverseSpec


class XFastTrie(PredecessorStructure):
    __slots__ = ("bits", "universe", "_prev", "_next", "_levels", "_root")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        bits = universe.bits
        leaves = keys.keys
        levels: list[dict[int, list[int]]] = []
        for level in range(bits + 1):
            shift = bits - level
            table: dict[int, list[int]] = {}
            for k in leaves:
                p = k >> shift
                entry = table.get(p)
                if entry is None:
                    table[p] = [k, k]
                else:
                    entry[1] = k  # leaves ascend, so the last writer is the max
            levels.append(table)
        self.bits = bits
        self.universe = universe
        self._prev: dict[int, Optional[int]] = dict(zip(leaves, (None,) + leaves[:-1]))
        self._next: dict[int, Optional[int]] = dict(zip(leaves, leaves[1:] + (None,)))
        self._levels = levels
        self._root = levels[0][0]  # never dropped: the trie is never empty

    def __len__(self) -> int:
        return len(self._next)

    def __iter__(self) -> Iterator[int]:
        """Stored keys in ascending order, following the leaf links."""
        nxt = self._next
        k: Optional[int] = self._root[0]
        while k is not None:
            yield k
            k = nxt[k]

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(self)

    def neighbours(self, x: int) -> tuple[Optional[int], Optional[int]]:
        """The stored keys just below and just above stored key x (None at the ends)."""
        return self._prev[x], self._next[x]

    def predecessor(self, q: int) -> Optional[int]:
        self.universe.check_key(q)
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the number of prefix-table probes spent finding it."""
        answer, probes = self._search(self.universe.check_key(q))
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        bits = self.bits
        levels = self._levels
        probes = 0
        lo, hi = 0, bits
        entry = self._root
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            e = levels[mid].get(q >> (bits - mid))
            probes += 1
            if e is not None:
                lo = mid
                entry = e
            else:
                hi = mid - 1
        if lo == bits:
            return q, probes  # q itself is stored; weak predecessor
        if (q >> (bits - lo - 1)) & 1:
            return entry[1], probes
        return self._prev[entry[0]], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        self.universe.check_key(x)
        p = self._search(x)[0]
        if p == x:
            return
        s = self._root[0] if p is None else self._next[p]
        self._prev[x] = p
        self._next[x] = s
        if p is not None:
            self._next[p] = x
        if s is not None:
            self._prev[s] = x
        bits = self.bits
        for level, table in enumerate(self._levels):
            prefix = x >> (bits - level)
            entry = table.get(prefix)
            if entry is None:
                table[prefix] = [x, x]
            elif x < entry[0]:
                entry[0] = x
            elif x > entry[1]:
                entry[1] = x

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent and ParameterError if it is the last key."""
        self.universe.check_key(x)
        p, s = self._prev[x], self._next[x]
        if p is None and s is None:
            raise ParameterError("an x-fast trie keeps at least one key")
        del self._prev[x], self._next[x]
        if p is not None:
            self._next[p] = s
        if s is not None:
            self._prev[s] = p
        bits = self.bits
        for level, table in enumerate(self._levels):
            prefix = x >> (bits - level)
            entry = table[prefix]
            if entry[0] == x:
                if entry[1] == x:
                    del table[prefix]
                else:
                    entry[0] = s  # the subtree still holds a key above x: its min is x's successor
            elif entry[1] == x:
                entry[1] = p

    def level_sizes(self) -> list[int]:
        return [len(t) for t in self._levels]

    def table_entries(self) -> int:
        """Total prefix-table entries across all levels (space audit)."""
        return sum(len(t) for t in self._levels)
