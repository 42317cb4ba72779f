"""Hashed prefix-level trie: predecessor search in O(log bits) table probes.

For a universe of ``w`` bits, table L is keyed by the top-L bits of every
stored key and maps each present prefix to the smallest and largest stored
key beneath it.  The trie keeps tables 0..D only, where every level-D prefix
holds one key; a build takes the shallowest such level D >= 1.  Below D every
prefix would hold the same single key as its level-D ancestor, so the deeper
tables could only repeat level D's answer.  A binary search over the stored
levels looks for the longest stored prefix of the query, making at most
ceil(log2(D + 1)) probes; the (min, max) descendant pointers plus the doubly
linked leaf list then resolve the predecessor with O(1) additional work:

* the search stops at the first probed prefix with a single key k beneath it
  (min == max), since every other stored key lies wholly below or wholly
  above that prefix: the answer is k if k <= query, else the leaf linked
  before k;
* otherwise the longest stored prefix branches.  If the query diverges from
  it by a 1-bit, every stored key under the prefix sits in its 0-subtree, so
  the prefix's max leaf is the answer;
* if it diverges by a 0-bit, every stored key under the prefix is larger than
  the query, so the answer is the leaf linked before the prefix's min.

The tables are built bottom-up from level D: each level is derived from the
one below it with C-level ``map``/``zip`` passes, no Python work per
(level, key).  The (min, max) entries are immutable tuples, and a prefix with
a single child shares its child's tuple, so after a build the O(n * D) table
slots point at only 2n - 1 distinct entries (one per key and one per
branching prefix).  On a 64-bit universe with 2^16 uniform keys D is about 32,
so the trie stores about half of the ``w + 1`` tables.

``insert`` and ``delete`` touch only the D + 1 prefix entries on the key's
path plus its two leaf neighbours, so an update costs O(D) table operations.
They replace entries rather than mutate them, which keeps the sharing safe,
and levels that shared the replaced entry share its replacement.  An insert
that would leave two keys under one level-D prefix first appends the levels
down to the one that separates them, at O(n) per level, built from the
stored (k, k) leaf tuples so no key gets a second one.  The depth never
shrinks until the next build, so over a trie's life this stays within what a
full-depth build (``w + 1`` tables) would pay up front.
The trie always holds at least one key, like the key set it is built from.
Plain dicts provide the expected-O(1) tables; a perfect-hash construction
would also satisfy the contract but is unnecessary here.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import eq, itemgetter, rshift, xor
from typing import Iterator, Optional, Sequence

from .core import KeySet, ParameterError, PredecessorStructure, QueryStats, UniverseSpec

Entry = tuple[int, int]  # (min, max) stored key beneath a prefix


def _depth(leaves: Sequence[int], bits: int) -> int:
    """The shallowest level, at least 1, at which every prefix of the ascending leaves holds one key.

    Adjacent keys a < b share their level-L prefix iff (a ^ b) >> (bits - L) == 0,
    so they first part at level bits + 1 - (a ^ b).bit_length(); a single key gives 1.
    """
    split = min(map(int.bit_length, map(xor, leaves, islice(leaves, 1, None))), default=bits)
    return max(1, bits + 1 - split)


def _build_levels(entries: list[Entry], bits: int, depth: int, top: int = 0) -> list[dict[int, Entry]]:
    """Prefix tables top..depth over ascending (k, k) leaf tuples, shallowest level first.

    Every level-depth prefix must hold one key (depth >= _depth(keys, bits)):
    the pass starts there with the given tuple per key and works upwards.
    Sorted order puts the two children of a branching prefix next to each
    other, so only those adjacent pairs get a new (left min, right max) tuple;
    every other parent takes its only child's tuple.  A level with no
    branching prefix keeps the entry list of the level below.
    """
    table = dict(zip(map(rshift, map(itemgetter(0), entries), repeat(bits - depth)), entries))
    levels = [table]
    for _ in range(depth - top):
        parents = list(map(rshift, table, repeat(1)))
        table = dict(zip(parents, entries))
        if len(table) < len(parents):
            siblings = list(map(eq, parents, islice(parents, 1, None)))  # i and i + 1 share a parent
            table.update(zip(compress(parents, siblings),
                             zip(map(itemgetter(0), compress(entries, siblings)),
                                 map(itemgetter(1), compress(islice(entries, 1, None), siblings)))))
            entries = list(table.values())
        levels.append(table)
    levels.reverse()
    return levels


class XFastTrie(PredecessorStructure):
    __slots__ = ("bits", "universe", "_prev", "_next", "_levels", "_root")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        leaves = keys.keys
        self.bits = universe.bits
        self.universe = universe
        self._prev: dict[int, Optional[int]] = dict(zip(leaves, (None,) + leaves[:-1]))
        self._next: dict[int, Optional[int]] = dict(zip(leaves, leaves[1:] + (None,)))
        self._levels = _build_levels(list(zip(leaves, leaves)), self.bits, _depth(leaves, self.bits))
        self._root = self._levels[0][0]  # refreshed by every update: entries are replaced

    # `x in trie` would fall back to a linear walk of __iter__ with no key check
    __contains__ = None

    def __len__(self) -> int:
        return len(self._next)

    def __iter__(self) -> Iterator[int]:
        """Stored keys in ascending order, following the leaf links."""
        nxt = self._next
        k: Optional[int] = self._root[0]
        while k is not None:
            yield k
            k = nxt[k]

    def neighbours(self, x: int) -> tuple[Optional[int], Optional[int]]:
        """The stored keys just below and just above stored key x (None at the ends)."""
        return self._prev[x], self._next[x]

    def predecessor(self, q: int) -> Optional[int]:
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the number of prefix-table probes spent finding it."""
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        answer, probes = self._search(q)
        return QueryStats(answer=answer, level_probes=probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        """Weak predecessor of q and the prefix-table probes spent on it.

        The level search binary-searches the stored levels 0..D and returns at
        the first probed prefix with a single key beneath it (see the module
        docstring).  Every level-D prefix is such a prefix, so a search that
        gets past the loop ends at a branching prefix or the root above level
        D, and that prefix's (min, max) entry decides.
        """
        bits = self.bits
        levels = self._levels
        probes = 0
        lo, hi = 0, len(levels) - 1
        entry = self._root
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            e = levels[mid].get(q >> (bits - mid))
            probes += 1
            if e is not None:
                k, m = e
                if k == m:
                    return (k if k <= q else self._prev[k]), probes
                lo = mid
                entry = e
            else:
                hi = mid - 1
        if (q >> (bits - lo - 1)) & 1:
            return entry[1], probes
        return self._prev[entry[0]], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        if type(x) is not int or x >> self.bits:
            self.universe.check_key(x)
        p = self._search(x)[0]
        if p == x:
            return
        s = self._root[0] if p is None else self._next[p]
        bits, levels = self.bits, self._levels
        deepest = len(levels) - 1
        if x >> (bits - deepest) in levels[deepest]:
            # x would share its deepest stored prefix with a neighbour: store the levels that part
            # them first, built from the stored leaf tuples, and let the loop below add x to all
            leaves = map(levels[deepest].__getitem__, map(rshift, self, repeat(bits - deepest)))
            depth = _depth([k for k in (p, x, s) if k is not None], bits)
            levels += _build_levels(list(leaves), bits, depth, deepest + 1)
        self._prev[x] = p
        self._next[x] = s
        if p is not None:
            self._next[p] = x
        if s is not None:
            self._prev[s] = x
        leaf = (x, x)  # shared by every prefix x is now alone beneath
        old: Optional[Entry] = None
        new: Optional[Entry] = None
        for level, table in enumerate(levels):
            prefix = x >> (bits - level)
            entry = table.get(prefix)
            if entry is None:
                table[prefix] = leaf
            elif entry is old:  # shared with the level above: share its replacement too
                table[prefix] = new
            elif x < entry[0]:
                old, new = entry, (x, entry[1])
                table[prefix] = new
            elif x > entry[1]:
                old, new = entry, (entry[0], x)
                table[prefix] = new
        self._root = levels[0][0]

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent and ParameterError if it is the last key."""
        if type(x) is not int or x >> self.bits:
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
        old: Optional[Entry] = None
        new: Optional[Entry] = None
        for level, table in enumerate(self._levels):
            prefix = x >> (bits - level)
            entry = table[prefix]
            if entry is old:
                table[prefix] = new
            elif entry[0] == x:
                if entry[1] == x:
                    del table[prefix]
                else:
                    # the subtree still holds a key above x: its min is x's successor
                    old, new = entry, (s, entry[1])
                    table[prefix] = new
            elif entry[1] == x:
                old, new = entry, (entry[0], p)
                table[prefix] = new
        self._root = self._levels[0][0]

    def audit(self) -> None:
        """Raise AssertionError unless the root, the leaf links and every prefix table agree,
        and the deepest stored level holds one prefix per key."""
        levels, nxt, prev = self._levels, self._next, self._prev
        if self._root is not levels[0].get(0):
            raise AssertionError(f"stale root {self._root}: level 0 holds {levels[0].get(0)}")
        walk: list[int] = []
        k: Optional[int] = self._root[0]
        while k is not None and len(walk) <= len(nxt):  # a cycle cannot hang the audit
            walk.append(k)
            k = nxt.get(k)
        if (walk != sorted(nxt) or prev.keys() != nxt.keys()
                or list(map(prev.get, walk)) != [None] + walk[:-1]):
            raise AssertionError("leaf links do not walk the stored keys in ascending order")
        depth = len(levels) - 1
        if depth < 1 or len(levels[depth]) != len(walk):
            raise AssertionError(f"deepest stored level {depth} holds {len(levels[depth])} prefixes "
                                 f"for {len(walk)} keys; it must be at least 1 with one prefix per key")
        rebuilt = _build_levels(list(zip(walk, walk)), self.bits, depth)
        for level, (got, want) in enumerate(zip(levels, rebuilt)):
            if got != want:
                prefix = min(p for p in got.keys() | want.keys() if got.get(p) != want.get(p))
                raise AssertionError(f"level {level}: prefix {prefix} maps to {got.get(prefix)}, "
                                     f"the leaf walk gives {want.get(prefix)}")

    def table_entries(self) -> int:
        """Total prefix-table entries across the stored levels (space audit)."""
        return sum(len(t) for t in self._levels)
