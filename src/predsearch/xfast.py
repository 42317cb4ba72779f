"""Hashed prefix-level trie: predecessor search in O(log bits) table probes.

For a universe of ``w`` bits, table L is keyed by the top-L bits of stored
keys and maps each stored prefix to the smallest and largest stored key
beneath it.  Tables 0 and 1 store every non-empty prefix; a deeper prefix is
stored only if its parent holds two or more keys.  So each key's path stops
at its *leaf level*: the shallowest level >= 1 at which it is alone, which is
the deeper of the levels where it parts from its two neighbours.  Below that
every prefix would hold the same single key.  The trie keeps tables 0..D,
where D is the deepest leaf level.  A stored prefix's parent is stored too,
so along any query's path the stored prefixes run from level 0 down to the
longest one, and a search over the levels finds that longest stored prefix.
The (min, max) descendant pointers plus the doubly linked leaf list then
resolve the predecessor with O(1) additional work:

* the search stops at the first probed prefix with a single key k beneath it
  (min == max), since every other stored key lies wholly below or wholly
  above that prefix: the answer is k if k <= query, else the leaf linked
  before k;
* otherwise the longest stored prefix holds two or more keys, so its child
  towards the query holds none (a child with a key would be stored).  If the
  query diverges from it by a 1-bit, every stored key under the prefix sits
  in its 0-subtree, so the prefix's max leaf is the answer;
* if it diverges by a 0-bit, every stored key under the prefix is larger than
  the query, so the answer is the leaf linked before the prefix's min.

The search walks a binary probe tree over levels 0..D, stored as nested
tuples.  A node (mid, hit, miss) holds the searches whose longest stored
prefix lies in a range [lo, hi]: it probes level mid and goes on in hit,
over [mid, hi], if the query's prefix there is stored, and in miss, over
[lo, mid - 1], if not.  A leaf is the level lo = hi the search has narrowed
to, so the D nodes probe levels 1..D and the leaves are 0..D in order.  The
tree is weighted by where uniform queries end:
a single-key prefix at level L ends the searches of its 2^-L of the
universe (at the probe of L), and a prefix with two or more keys and one
stored child ends those of its empty half, 2^-(L + 1) (once the range
shrinks to L).  Both shares come from the build's per-level counts.  Among
the trees that take at most floor(log2(D + 1)) + 2 probes, at most 2 more
than halving the levels would, the trie stores the one with the least
expected 2^probes (``_probe_order``): that cost weighs a long search more
than the mean probe count does, so few queries take the deepest probes.
How many a search takes below that bound depends on the keys and queries;
``tests/mechanisms.json`` pins the histogram of one seeded 64-bit case.  The
tree is built with the tables and rebuilt only when an insert deepens the
trie, from the build's weights with a zero for each new level, a dynamic
program of O(D^3 log D) int operations (about 3 ms at D = 34).  So the
weights go stale under updates, which changes neither the answers nor the
bound: the bound holds for any weights.

The build is one bottom-up pass over the stored entries only: each level is
derived from the one below it with C-level ``map``/``zip`` passes.  The
(min, max) entries are immutable tuples, and a prefix with a single child
shares its child's tuple, so a build stores n leaf entries plus one per
prefix with two or more keys (about 2.4n for uniform keys, at most n * (D +
1)), pointing at only 2n - 1 distinct tuples (one per key and one per
branching prefix).

``insert`` and ``delete`` link or unlink the key and add or drop its (k, k)
leaf entry; an insert also stores its nearer neighbour's (k, k) tuple at that
level if the neighbour was alone above it.  Then one rewrite applies the
build's rule to the key's prefixes above its leaf level, deepest first: two
stored children give a new (left min, right max) tuple, one stored child
gives its own tuple, and a single-key child below level 1 with no stored
sibling is dropped, its parent becoming that key's leaf.  The rewrite stops
at the first entry that comes out unchanged.  So an update costs O(D) table
operations and leaves exactly a fresh build's tables and 2n - 1 shared
tuples; entries are replaced, never mutated, which keeps the sharing safe.
An insert that deepens the trie appends empty tables; the depth never
shrinks until the next build.
The trie always holds at least one key, like the key set it is built from.
Plain dicts provide the expected-O(1) tables; a perfect-hash construction
would also satisfy the contract but is unnecessary here.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, islice, repeat
from operator import add, eq, itemgetter, rshift, sub, xor
from typing import Iterator, Optional, Sequence, Union

from .core import (KeySet, ParameterError, PredecessorStructure, QueryStats, UniverseSpec,
                   WeightedDistribution)

Entry = tuple[int, int]  # (min, max) stored key beneath a prefix
# a leaf is the level a search ends at; a node is (level probed, subtree if the query's
# prefix there is stored, subtree if not)
ProbeTree = Union[int, tuple[int, "ProbeTree", "ProbeTree"]]


def _build_levels(leaves: Sequence[int], bits: int) -> tuple[list[dict[int, Entry]], list[int]]:
    """Prefix tables 0..D over the ascending keys, shallowest level first, and the number
    of keys whose leaf level is L, for L = 0..D.

    Adjacent keys a < b first part at level bits + 1 - (a ^ b).bit_length(),
    so a key's leaf level is the deeper of its two parting levels (1 for a
    lone key), and D is the deepest.  The pass starts at level D and works
    upwards.  Level L holds the parents of the level-(L + 1) prefixes, taken
    in key order, so the two children of a branching prefix sit next to each
    other: only those adjacent pairs get a new (left min, right max) tuple,
    and every other parent takes its only child's tuple.  The keys whose leaf
    level is L join with their (k, k) tuples, and one sort of the level's
    prefixes restores key order for the level above.
    """
    parts = list(map(sub, repeat(bits + 1), map(int.bit_length, map(xor, leaves, islice(leaves, 1, None)))))
    alone: list[list[Entry]] = [[] for _ in range(max(parts, default=1) + 1)]
    for k, level in zip(leaves, map(max, chain((1,), parts), chain(parts, (1,)))):
        alone[level].append((k, k))
    prefixes: list[int] = []
    entries: list[Entry] = []
    levels = []
    for level in range(len(alone) - 1, -1, -1):
        parents = list(map(rshift, prefixes, repeat(1)))
        table = dict(zip(parents, entries))
        branching = len(table) < len(parents)
        if branching:
            siblings = list(map(eq, parents, islice(parents, 1, None)))  # i and i + 1 share a parent
            table.update(zip(compress(parents, siblings),
                             zip(map(itemgetter(0), compress(entries, siblings)),
                                 map(itemgetter(1), compress(islice(entries, 1, None), siblings)))))
        new = alone[level]
        if new:
            table.update(zip(map(rshift, map(itemgetter(0), new), repeat(bits - level)), new))
            prefixes = sorted(table)
            entries = list(map(table.__getitem__, prefixes))
        elif branching:
            prefixes = list(table)
            entries = list(table.values())
        else:
            prefixes = parents
        levels.append(table)
    levels.reverse()
    return levels, list(map(len, alone))


def _end_weights(levels: Sequence[dict[int, Entry]],
                 alone: Sequence[int]) -> tuple[list[int], list[int]]:
    """How much of the universe ends a search at each level, in units of 2^-(D + 1).

    A search ends at the query's longest stored prefix.  single[L] weighs the
    single-key prefixes at level L, 2^-L each (alone[L] << (D + 1 - L)).
    multi[L] weighs the prefixes at level L with two or more keys and one stored
    child, 2^-(L + 1) each, their empty half: there are 2 * m - c of them, with m
    the level's prefixes of two or more keys and c the stored prefixes at level
    L + 1, whose parents those are.  Over all levels the two sum to 2^(D + 1).
    """
    depth = len(levels) - 1
    single = [c << (depth + 1 - level) for level, c in enumerate(alone)]
    multi = [(2 * (len(levels[level]) - alone[level]) - len(levels[level + 1])) << (depth - level)
             for level in range(depth)]
    multi.append(0)  # a prefix at the deepest level holds a single key
    return single, multi


def _probe_order(single: Sequence[int], multi: Sequence[int]) -> ProbeTree:
    """The probe tree over levels 0..D within H = floor(log2(D + 1)) + 2 probes that
    minimises the weighted sum of 2^probes over the search ends single and multi (see
    ``_end_weights``), as the nested (level, hit, miss) tuples ``XFastTrie`` stores.

    A search state [lo, hi] is reached by the ends weighing W = multi[lo..hi] +
    single[lo + 1..hi] (the single-key prefix at lo would have ended the search
    there).  Each probe made in that state adds 2^d to the 2^probes - 1 of every
    query in it, d being the probes made before, so with h probes left

        cost_h(lo, hi) = W + 2 * min over mid in (lo, hi] of
                         cost_(h-1)(lo, mid - 1) + cost_(h-1)(mid, hi),

    which minimises the tree's weighted 2^probes at every height (Garey's
    depth-limited optimal search tree, under this cost).  Ties go to the
    shallowest mid.  Heights 1..H - 1 are filled bottom-up, each from the one
    below, over the ranges of at most 2^h - 1 levels that h probes can search; a
    range of fewer than h levels keeps its tree from height h - 1, which no cap
    binds, and a range that no query reaches (W = 0) probes its shallowest
    feasible level.  Height H is needed for [0, D] alone.  The tree is then one
    walk from [0, D] down the ranges a search reaches, each taking the root of the
    height it is reached with, so only those D roots are kept and every node
    probes inside its range.  That is O(H * D^3) int operations, but most ranges
    are short: about 3 ms at D = 34 and 0.2 ms at D = 12 on a 2-vCPU VM.  The
    costs are exact ints, so ties cannot differ between platforms.
    """
    depth = len(single) - 1
    height = (depth + 1).bit_length() + 1
    size = depth + 1
    # W(lo, hi) = ends[hi + 1] - ends[lo] - single[lo]
    ends = list(accumulate(map(add, single, multi), initial=0))
    rows = [[0] * size for _ in range(size)]  # rows[lo][hi] = cols[hi][lo] = cost at height h - 1
    cols = [[0] * size for _ in range(size)]
    roots = [[[0] * size for _ in range(size)]]  # roots[h][lo][hi]; height 0 probes nothing
    for h in range(1, height):
        cap = (1 << (h - 1)) - 1  # most levels h - 1 probes can search
        prev_rows, prev_cols = rows, cols
        rows = [row[:] for row in prev_rows]
        cols = [col[:] for col in prev_cols]
        root = [row[:] for row in roots[-1]]
        for lo in range(depth + 1 - h):
            left, row, root_row = prev_rows[lo], rows[lo], root[lo]
            base = ends[lo] + single[lo]
            for hi in range(lo + h, min(depth, lo + 2 * cap + 1) + 1):
                first = hi - cap if hi - cap > lo + 1 else lo + 1  # feasible mids: first..last
                weight = ends[hi + 1] - base
                if not weight:
                    root_row[hi] = first
                    continue
                last = lo + 1 + cap if lo + 1 + cap < hi else hi
                costs = [*map(add, left[first - 1:last], prev_cols[hi][first:last + 1])]
                best = min(costs)
                root_row[hi] = first + costs.index(best)
                row[hi] = cols[hi][lo] = weight + 2 * best
        roots.append(root)

    def tree(lo: int, hi: int, h: int) -> ProbeTree:
        mid = roots[h][lo][hi]
        return (mid, tree(mid, hi, h - 1), tree(lo, mid - 1, h - 1)) if lo < hi else lo

    # the root range [0, D]: at height H - 1 every range fits, so every level is feasible
    costs = [*map(add, rows[0][:depth], cols[depth][1:])]
    mid = 1 + costs.index(min(costs))
    return mid, tree(mid, depth, height - 1), tree(0, mid - 1, height - 1)


class XFastTrie(PredecessorStructure):
    __slots__ = ("bits", "universe", "_prev", "_next", "_levels", "_weights", "_tree")

    def __init__(self, keys: KeySet, universe: UniverseSpec):
        universe.check_key(keys.keys[-1])
        leaves = keys.keys
        self.bits = universe.bits
        self.universe = universe
        # leaf links: each stored key to the stored key below / above it (None at the ends);
        # the y-fast reads them to step from a bucket's separator to the next bucket
        self._prev: dict[int, Optional[int]] = dict(zip(leaves, (None,) + leaves[:-1]))
        self._next: dict[int, Optional[int]] = dict(zip(leaves, leaves[1:] + (None,)))
        self._levels, alone = _build_levels(leaves, self.bits)
        self._weights = _end_weights(self._levels, alone)
        self._tree = _probe_order(*self._weights)

    # `x in trie` would fall back to a linear walk of __iter__ with no key check
    __contains__ = None

    def __len__(self) -> int:
        return len(self._next)

    def __iter__(self) -> Iterator[int]:
        """Stored keys in ascending order: the leaf links' keys, sorted."""
        return iter(sorted(self._next))

    def predecessor(self, q: int) -> Optional[int]:
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        return self._search(q)[0]

    def query_stats(self, q: int) -> QueryStats:
        """Answer plus the number of prefix-table probes spent finding it."""
        if type(q) is not int or q >> self.bits:
            self.universe.check_key(q)
        answer, probes = self._search(q)
        return QueryStats(answer, probes)

    def _search(self, q: int) -> tuple[Optional[int], int]:
        """Weak predecessor of q and the prefix-table probes spent on it.

        The level search descends the probe tree over the stored levels 0..D,
        reading only each node's level and its two subtrees, so it ends within
        the tree's height, and returns at the first probed prefix with a single
        key beneath it (see the module docstring).  A search that reaches a leaf
        ends at the longest stored prefix of q, at the leaf's level, which holds
        two or more keys or, when no probe hit, is the root, and that prefix's
        (min, max) entry decides.
        """
        bits = self.bits
        levels = self._levels
        node = self._tree
        probes = 0
        entry = None
        while type(node) is tuple:
            mid, hit, miss = node
            e = levels[mid].get(q >> (bits - mid))
            probes += 1
            if e is not None:
                k, m = e
                if k == m:
                    return (k if k <= q else self._prev[k]), probes
                node = hit
                entry = e
            else:
                node = miss
        entry = entry or levels[0][0]
        if (q >> (bits - node - 1)) & 1:
            return entry[1], probes
        return self._prev[entry[0]], probes

    def insert(self, x: int) -> None:
        """Add key x; inserting a present key is a no-op."""
        if type(x) is not int or x >> self.bits:
            x = self.universe.check_key(x)
        p = self._search(x)[0]
        if p == x:
            return
        s = self._levels[0][0][0] if p is None else self._next[p]
        bits, levels = self.bits, self._levels
        # x's leaf level is where it parts from its nearer neighbour y, whose prefix there is
        # stored already unless y was alone above it
        y = min((k for k in (p, s) if k is not None), key=x.__xor__)
        leaf = bits + 1 - (x ^ y).bit_length()
        if leaf >= len(levels):
            for weights in self._weights:
                weights += [0] * (leaf + 1 - len(levels))
            levels += [{} for _ in range(leaf + 1 - len(levels))]
            self._tree = _probe_order(*self._weights)
        self._prev[x] = p
        self._next[x] = s
        if p is not None:
            self._next[p] = x
        if s is not None:
            self._prev[s] = x
        table = levels[leaf]
        table[x >> (bits - leaf)] = (x, x)
        table.setdefault(y >> (bits - leaf), (y, y))
        self._repath(x, leaf)

    def delete(self, x: int) -> None:
        """Remove key x; raises KeyError if absent and ParameterError if it is the last key."""
        if type(x) is not int or x >> self.bits:
            x = self.universe.check_key(x)
        p, s = self._prev[x], self._next[x]
        if p is None and s is None:
            raise ParameterError("an x-fast trie keeps at least one key")
        del self._prev[x], self._next[x]
        if p is not None:
            self._next[p] = s
        if s is not None:
            self._prev[s] = p
        bits = self.bits
        leaf = bits + 1 - min((x ^ k).bit_length() for k in (p, s) if k is not None)
        del self._levels[leaf][x >> (bits - leaf)]
        self._repath(x, leaf)

    def _repath(self, x: int, leaf: int) -> None:
        """Rewrite x's prefixes above level leaf, deepest first, by the build's rule, once
        the entries at level leaf and below are right.

        A prefix with two stored children gets a new (left min, right max) tuple
        and one with a single stored child shares that child's tuple.  If that
        child holds a single key and lies below level 1, the prefix now holds the
        key alone: it becomes the key's leaf and the child's entry is dropped.
        Every entry the rewrite replaces changes value, so it stops at the first
        entry that comes out equal to the one stored, and every entry above that
        stays as it is.
        """
        bits, levels = self.bits, self._levels
        below = levels[leaf]
        for level in range(leaf - 1, -1, -1):
            table = levels[level]
            prefix = x >> (bits - level)
            left, right = below.get(prefix << 1), below.get(prefix << 1 | 1)
            new = (left[0], right[1]) if left and right else left or right
            if new == table.get(prefix):
                break
            if level and new[0] == new[1]:  # a single key: the prefix has one child
                del below[prefix << 1 | (left is None)]
            table[prefix] = new
            below = table

    def audit(self, dist: Optional[WeightedDistribution] = None) -> None:
        """Raise AssertionError unless the leaf links, every prefix table and the probe tree
        agree.  The links must walk the stored keys in ascending order, an order the audit
        takes from the links' own keys, so no table entry decides it.  The tables, level 0's
        root entry among them, must be a fresh build's over that walk, plus any empty deeper
        tables, and their entries must share a build's 2n - 1 tuples.  The stored probe tree
        must be, node for node, the one the stored level weights give; a difference names
        the first range, root first and hit before miss, whose node differs.  The weights
        themselves may be stale after updates, which changes no answer, so the audit
        recomputes the tree from them.  dist is ignored: a trie takes nothing from a
        distribution."""
        levels, nxt, prev = self._levels, self._next, self._prev
        keys = sorted(nxt)
        if nxt != dict(zip(keys, keys[1:] + [None])) or prev != dict(zip(keys, [None] + keys[:-1])):
            raise AssertionError("leaf links do not walk the stored keys in ascending order")
        rebuilt = _build_levels(keys, self.bits)[0]
        depth = len(levels) - 1
        if depth < len(rebuilt) - 1:
            raise AssertionError(f"levels 0..{depth} stored, the leaf walk needs "
                                 f"0..{len(rebuilt) - 1}")
        rebuilt += [{} for _ in range(depth + 1 - len(rebuilt))]
        for level, (got, want) in enumerate(zip(levels, rebuilt)):
            if got != want:
                prefix = min(p for p in got.keys() | want.keys() if got.get(p) != want.get(p))
                raise AssertionError(f"level {level}: prefix {prefix} maps to {got.get(prefix)}, "
                                     f"the leaf walk gives {want.get(prefix)}")
        shared = len({id(e) for table in levels for e in table.values()})
        if shared != 2 * len(keys) - 1:
            raise AssertionError(f"entries point at {shared} distinct tuples, a build shares "
                                 f"2 * {len(keys)} - 1 = {2 * len(keys) - 1}")
        single, multi = self._weights
        if len(single) != depth + 1 or len(multi) != depth + 1:
            raise AssertionError(f"level weights for {len(single)} and {len(multi)} levels, "
                                 f"{depth + 1} stored")
        got, want = self._tree, _probe_order(single, multi)
        lo, hi = 0, depth
        while got != want and type(got) is type(want) is tuple and got[0] == want[0]:
            lo, hi, side = (want[0], hi, 1) if got[1] != want[1] else (lo, want[0] - 1, 2)
            got, want = got[side], want[side]
        if got != want:
            first = f"probe level {got[0]} first" if type(got) is tuple else f"end at level {got}"
            raise AssertionError(f"probe tree: levels {lo}..{hi} {first}, the level weights give "
                                 f"{want[0] if type(want) is tuple else want}")

    def table_entries(self) -> int:
        """Total prefix-table entries across the stored levels (space audit)."""
        return sum(len(t) for t in self._levels)
