import math
import random
from bisect import insort

import numpy as np
import pytest
from conftest import (
    assert_same_as_fresh_build,
    distinct_entries,
    int_like,
    probe_bound,
    probes_saved,
    random_keyset,
    reference_levels,
    reference_search,
    stored_depth,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_integration import _root_probes_level_0

from predsearch import (
    KeyRangeError,
    KeySet,
    ParameterError,
    UniverseSpec,
    XFastTrie,
    oracle_predecessor,
)
from predsearch.xfast import _probe_order


class TestBuild:
    def test_two_keys_three_bits(self):
        # 2 = 0b010 and 5 = 0b101 part at their top bit, so level 1 already holds one
        # key per prefix: the depth is 1, and levels 2 and 3 are not stored.
        trie = XFastTrie(KeySet([2, 5]), UniverseSpec(3))
        assert tuple(trie) == (2, 5)
        assert trie._levels == [{0: (2, 5)}, {0b0: (2, 2), 0b1: (5, 5)}]

    def test_single_key_one_bit(self):
        trie = XFastTrie(KeySet([0]), UniverseSpec(1))
        assert tuple(trie) == (0,)
        assert [len(table) for table in trie._levels] == [1, 1]

    def test_complete_universe(self):
        trie = XFastTrie(KeySet(range(16)), UniverseSpec(4))
        assert [len(table) for table in trie._levels] == [2 ** level for level in range(5)]

    def test_key_outside_universe(self):
        with pytest.raises(KeyRangeError):
            XFastTrie(KeySet([5]), UniverseSpec(2))

    def test_descendant_pointers_reference_real_leaves(self):
        trie = XFastTrie(KeySet([3, 9, 17, 40]), UniverseSpec(6))
        assert tuple(trie) == (3, 9, 17, 40)
        leaves = set(trie)
        for level, table in enumerate(trie._levels):
            shift = trie.bits - level
            for prefix, (mn, mx) in table.items():
                assert mn in leaves and mx in leaves
                assert mn >> shift == prefix and mx >> shift == prefix
                assert mn <= mx


class TestBottomUpBuild:
    """The bottom-up build gives the top-down reference's tables filtered by the table rule,
    down to the deepest leaf level, with one tuple per key and per branching prefix."""

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_edge_key_sets(self, bits):
        top = (1 << bits) - 1
        # (keys, depth): keys parting at the top bit need level 1 only, neighbours all levels
        key_sets = [([0], 1), ([top], 1), ([0, top], 1), ([top - 1, top], bits)]
        if bits <= 4:
            key_sets.append((list(range(top + 1)), bits))  # every key of a tiny universe
        for keys, depth in key_sets:
            trie = XFastTrie(KeySet(keys), UniverseSpec(bits))
            assert stored_depth(trie, keys) == depth
            assert distinct_entries(trie) == 2 * len(keys) - 1
            trie.audit()

    @given(bits=st.integers(1, 64), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, bits, data):
        keys = sorted(data.draw(st.sets(st.integers(0, (1 << bits) - 1), min_size=1,
                                        max_size=min(1 << bits, 64))))
        trie = XFastTrie(KeySet(keys), UniverseSpec(bits))
        depth = stored_depth(trie, keys)
        # the deepest level is some key's leaf level: the level above holds it with a neighbour
        assert depth == 1 or any(lo != hi for lo, hi in trie._levels[depth - 1].values())
        assert distinct_entries(trie) == 2 * len(keys) - 1


class TestPredecessor:
    def test_two_key_instance(self):
        trie = XFastTrie(KeySet([2, 5]), UniverseSpec(3))
        assert trie.predecessor(7) == 5
        assert trie.predecessor(2) == 2
        assert trie.predecessor(1) is None

    def test_exhaustive_against_oracle(self):
        universe = UniverseSpec(16)
        rnd = random.Random(7)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 256)))
        trie = XFastTrie(keys, universe)
        bound = probe_bound(trie)
        for q in range(universe.size):
            stats = trie.query_stats(q)
            answer, probes = stats.answer, stats.level_probes
            assert answer == oracle_predecessor(keys, q)
            assert probes <= bound

    def test_small_sets_various_widths(self, rnd):
        for bits in (1, 2, 3, 5, 8):
            universe = UniverseSpec(bits)
            for _ in range(20):
                n = rnd.randrange(1, universe.size + 1)
                keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
                trie = XFastTrie(keys, universe)
                for q in range(universe.size):
                    assert trie.predecessor(q) == oracle_predecessor(keys, q)

    def test_query_outside_universe(self):
        trie = XFastTrie(KeySet([1]), UniverseSpec(2))
        with pytest.raises(KeyRangeError):
            trie.predecessor(4)


class TestEarlyExit:
    """The level search stops at the first prefix with a single key beneath it: the
    oracle's answers, no query above the probe bound, fewer probes in all than the
    full-depth reference, and fewer on some queries."""

    def test_two_keys_64_bits(self):
        # level 32 holds 5's prefix, and only key 0 lies beneath it
        trie = XFastTrie(KeySet([0, 2 ** 63]), UniverseSpec(64))
        stats = trie.query_stats(5)
        assert stats.answer == 0 and stats.level_probes == 1
        assert reference_search(trie, reference_levels(tuple(trie), 64), 5) == (0, 6)

    def test_single_key_above_the_query(self):
        # the single-key prefix holds a key above q: the answer is the leaf linked before it
        trie = XFastTrie(KeySet([3, 2 ** 40 + 7]), UniverseSpec(64))
        stats = trie.query_stats(2 ** 40)
        # the keys part at bit 40, so both are alone from level 24, the depth.  Their two
        # prefixes there own 2 * 2^-24 of the universe, while levels 0..22 each end a search
        # on a two-key prefix's empty half, half of the universe at level 0.  So the probe
        # tree meets a level-24 prefix last, at the bound floor(log2(25)) + 2 = 6 probes, and
        # a query with its top bit set (level 0's empty half) ends in 2.
        assert len(trie._levels) == 25
        assert stats.answer == 3 and stats.level_probes == 6
        stats = trie.query_stats(2)  # 3 alone at level 24 is above the query: nothing below
        assert stats.answer is None and stats.level_probes == 6
        stats = trie.query_stats(2 ** 63)
        assert stats.answer == 2 ** 40 + 7 and stats.level_probes == 2

    @pytest.mark.parametrize("n", [1, 2, 256, 4096])
    def test_exhaustive_16_bits(self, n):
        universe = UniverseSpec(16)
        keys = KeySet(sorted(random.Random(n).sample(range(universe.size), n)))
        trie = XFastTrie(keys, universe)
        fewer, saved = probes_saved(trie, trie, keys, range(universe.size))
        assert fewer > 0 and saved > 0

    def test_churn_64_bits(self):
        universe = UniverseSpec(64)
        rnd = random.Random(64)
        ref = sorted({rnd.randrange(universe.size) for _ in range(64)})
        trie = XFastTrie(KeySet(ref), universe)
        fewer = saved = 0
        for _ in range(300):
            if rnd.random() < 0.5 and len(ref) > 1:
                x = rnd.choice(ref)
                ref.remove(x)
                trie.delete(x)
            else:
                x = rnd.randrange(universe.size)
                trie.insert(x)
                if x not in ref:
                    insort(ref, x)
            near = [k + d for k in rnd.sample(ref, min(8, len(ref))) for d in (-1, 0, 1)]
            queries = [q for q in near if 0 <= q < universe.size]
            queries += [0, universe.size - 1] + [rnd.randrange(universe.size) for _ in range(8)]
            step_fewer, step_saved = probes_saved(trie, trie, KeySet(ref), queries)
            fewer += step_fewer
            saved += step_saved
        assert_same_as_fresh_build(trie, ref)
        assert fewer > 0 and saved > 0


class TestUpdates:
    @pytest.mark.parametrize("bits", [1, 2, 3, 8, 32, 64])
    def test_random_updates_match_fresh_build(self, bits):
        universe = UniverseSpec(bits)
        rnd = random.Random(bits)
        ref = sorted({rnd.randrange(universe.size) for _ in range(8)})
        trie = XFastTrie(KeySet(ref), universe)
        for _ in range(400):
            if rnd.random() < 0.5 and len(ref) > 1:
                x = rnd.choice(ref)
                ref.remove(x)
                trie.delete(x)
            else:
                x = rnd.randrange(universe.size)
                trie.insert(x)
                if x not in ref:
                    insort(ref, x)
            assert_same_as_fresh_build(trie, ref)
            keys = KeySet(ref)
            if bits <= 8:
                queries = range(universe.size)
            else:
                near = [k + d for k in ref for d in (-1, 0, 1)]
                queries = [q for q in near if 0 <= q < universe.size]
                queries += [0, universe.size - 1, rnd.randrange(universe.size)]
            for q in queries:
                assert trie.predecessor(q) == oracle_predecessor(keys, q)

    @pytest.mark.parametrize("bits", [1, 8, 64])
    def test_minimum_churn_refreshes_root(self, bits):
        """Inserting below the minimum and deleting it replace the root entry, never mutate it."""
        universe = UniverseSpec(bits)
        rnd = random.Random(bits)
        ref = [universe.size - 1]
        trie = XFastTrie(KeySet(ref), universe)
        for _ in range(200):
            if ref[0] > 0 and (len(ref) == 1 or rnd.random() < 0.6):
                x = rnd.randrange(ref[0])
                trie.insert(x)
                ref.insert(0, x)
            else:
                trie.delete(ref.pop(0))
            assert next(iter(trie)) == ref[0]
            assert_same_as_fresh_build(trie, ref)
            trie.audit()

    def test_insert_present_is_noop(self):
        trie = XFastTrie(KeySet([2, 5]), UniverseSpec(3))
        trie.insert(5)
        assert_same_as_fresh_build(trie, [2, 5])

    def test_delete_absent_raises(self):
        trie = XFastTrie(KeySet([2, 5]), UniverseSpec(3))
        with pytest.raises(KeyError):
            trie.delete(4)
        assert_same_as_fresh_build(trie, [2, 5])

    def test_last_key_stays(self):
        trie = XFastTrie(KeySet([2, 5]), UniverseSpec(3))
        trie.delete(2)
        with pytest.raises(ParameterError):
            trie.delete(5)
        assert_same_as_fresh_build(trie, [5])

    def test_int_like_updates_store_the_int(self):
        """A numpy.uint64 or bool key is the int it stands for: a delete unlinks it from every
        table, and an insert stores the int."""
        trie = XFastTrie(KeySet([1, 5, 9]), UniverseSpec(8))
        trie.delete(np.uint64(5))
        assert_same_as_fresh_build(trie, [1, 9])
        trie.audit()
        assert trie.predecessor(6) == 1
        trie.delete(True)
        trie.insert(True)
        trie.insert(np.uint64(5))
        assert_same_as_fresh_build(trie, [1, 5, 9])
        trie.audit()

    def test_update_outside_universe(self):
        trie = XFastTrie(KeySet([1]), UniverseSpec(2))
        with pytest.raises(KeyRangeError):
            trie.insert(4)
        with pytest.raises(KeyRangeError):
            trie.delete(4)


class TestDepth:
    """The trie stores levels 0..D.  An insert that leaves two keys under one level-D
    prefix deepens it to the level that parts them; nothing makes it shallower."""

    def test_insert_next_to_a_key_deepens_to_the_leaves(self):
        universe = UniverseSpec(64)
        rnd = random.Random(8)
        ref = sorted({rnd.randrange(universe.size) for _ in range(256)})
        trie = XFastTrie(KeySet(ref), universe)
        assert len(trie._levels) - 1 < 64
        k = ref[len(ref) // 2]
        assert k + 1 < ref[len(ref) // 2 + 1]

        def check_around():
            keys = KeySet(ref)
            for q in [k + d for d in range(-2, 4)] + [0, universe.size - 1]:
                assert trie.predecessor(q) == oracle_predecessor(keys, q), q
            trie.audit()
            assert_same_as_fresh_build(trie, ref)

        trie.insert(k + 1)  # k and k + 1 part only at the leaf level
        insort(ref, k + 1)
        assert len(trie._levels) - 1 == 64
        check_around()
        trie.delete(k + 1)
        ref.remove(k + 1)
        assert len(trie._levels) - 1 == 64  # a fresh build would be shallower
        assert len(XFastTrie(KeySet(ref), universe)._levels) - 1 < 64
        check_around()

    def test_deepening_insert_shares_leaf_tuples(self):
        """A deepening insert moves its neighbour's (k, k) tuple down to the new leaf level and
        shares one tuple along the path the two share, as a fresh build does."""
        universe = UniverseSpec(64)
        rnd = random.Random(9)
        ref = sorted({rnd.randrange(universe.size) for _ in range(4096)})
        trie = XFastTrie(KeySet(ref), universe)
        depth = len(trie._levels) - 1
        x = ref[100] + 1
        trie.insert(x)
        insort(ref, x)
        assert len(trie._levels) - 1 > depth
        trie.audit()

        assert distinct_entries(trie) == distinct_entries(XFastTrie(KeySet(ref), universe))
        assert distinct_entries(trie) == 2 * len(ref) - 1

    @pytest.mark.parametrize("bits", [8, 32, 64])
    def test_churn_never_shrinks_the_depth(self, bits):
        universe = UniverseSpec(bits)
        rnd = random.Random(bits)
        ref = sorted({rnd.randrange(universe.size) for _ in range(16)})
        trie = XFastTrie(KeySet(ref), universe)
        depths = [len(trie._levels) - 1]
        for _ in range(400):
            if rnd.random() < 0.5 and len(ref) > 1:
                x = rnd.choice(ref)
                ref.remove(x)
                trie.delete(x)
            else:
                # half the inserts land next to a stored key, which may deepen the trie
                x = rnd.choice(ref) + rnd.choice((-1, 1)) if rnd.random() < 0.5 else -1
                if not 0 <= x < universe.size:
                    x = rnd.randrange(universe.size)
                trie.insert(x)
                if x not in ref:
                    insort(ref, x)
            depths.append(len(trie._levels) - 1)
            assert depths[-1] >= depths[-2]
        assert depths[-1] > depths[0]
        trie.audit()
        assert_same_as_fresh_build(trie, ref)


class TestSpace:
    def test_entry_budget(self, rnd):
        universe = UniverseSpec(20)
        for n in (1, 17, 400):
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            trie = XFastTrie(keys, universe)
            assert trie.table_entries() <= n * (universe.bits + 1)

    def test_uniform_64_bit_keys_store_at_most_three_entries_each(self):
        """n leaf entries plus one per prefix with two or more keys: about 2.4n for uniform keys."""
        universe = UniverseSpec(64)
        keys = random_keyset(random.Random(12), universe, 1 << 12)
        trie = XFastTrie(keys, universe)
        assert trie.table_entries() <= 3 * len(keys)


def probe_height(tree) -> int:
    """Most probes a search takes through the probe tree."""
    if type(tree) is int:
        return 0
    return 1 + max(probe_height(tree[1]), probe_height(tree[2]))


class TestProbeOrder:
    """The probe tree probes inside the level range of every node, stays within
    floor(log2(D + 1)) + 2 probes however the search ends weigh, and is the tree within
    that bound with the least weighted 2^probes."""

    @pytest.mark.parametrize("depth", range(1, 65))
    def test_every_range_and_the_height_bound(self, depth):
        rnd = random.Random(depth)
        zeros = [0] * (depth + 1)
        patterns = {
            "all at level 1": ([0, 1000] + zeros[2:], zeros),
            "all at level D": (zeros[:-1] + [1000], zeros),
            "spread evenly": ([0] + [7] * depth, [7] * depth + [0]),
            "at random": ([0] + [rnd.randrange(50) for _ in range(depth)],
                          [rnd.randrange(50) for _ in range(depth)] + [0]),
            "universe shares": ([0] + [1 << (depth + 1 - level) for level in range(1, depth + 1)],
                                [1 << (depth - level) for level in range(depth)] + [0]),
            "deepest first": ([0] + [1 << (2 * level) for level in range(1, depth + 1)], zeros),
            "stale levels only": (zeros, zeros),
        }
        for name, (single, multi) in patterns.items():
            tree = _probe_order(single, multi)
            # probe_tree holds every node to its range and every leaf to the level it ends at,
            # so D nodes over levels 0..D leave the leaves 0..D in order
            assert len(probe_tree(tree, 0, depth)) == depth, name
            assert probe_height(tree) <= math.floor(math.log2(depth + 1)) + 2, name

    def test_heavy_leaf_level_is_probed_first(self):
        # the single-key prefixes at level 10 own 3/4 of the universe and two-key prefixes at
        # levels 0..3 the rest, so one probe of level 10 ends most searches
        single = [0] * 10 + [3 << 20] + [0] * 10
        multi = [1 << 18] * 4 + [0] * 17
        assert _probe_order(single, multi)[0] == 10

    def test_a_wrong_root_still_ends_every_search(self):
        """The search reads nothing but the tree's nodes, so it ends within the tree's height
        whatever they hold: here the root probes level 0, where every query's prefix is stored
        (a planted fault, whose audit message test_integration.py pins)."""
        universe = UniverseSpec(8)
        trie = XFastTrie(random_keyset(random.Random(8), universe, 100), universe)
        _root_probes_level_0(trie)
        height = probe_height(trie._tree)
        assert all(trie.query_stats(q).level_probes <= height for q in range(universe.size))

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_reachable_tree_is_optimal_within_the_bound(self, depth):
        """Against every probe tree within the bound, enumerated: the tree a search from
        [0, D] walks has the least weighted 2^probes.  The bound binds from D = 5: there the
        deepest-first weights would cost less with a taller tree."""
        bound = math.floor(math.log2(depth + 1)) + 2
        cases = [([0] + [16 ** level for level in range(1, depth + 1)], [0] * (depth + 1))]
        for seed in range(12):
            rnd = random.Random(depth * 100 + seed)
            scale = [rnd.choice((1, 2, 4, 16)) ** level for level in range(depth + 1)]
            cases.append(([0] + [rnd.randrange(4) * scale[level] for level in range(1, depth + 1)],
                          [rnd.randrange(4) * scale[level] for level in range(depth)] + [0]))
        for single, multi in cases:
            cost = ends_cost(single, multi)
            best = min(map(cost, probe_trees(0, depth, bound)))
            assert cost(probe_tree(_probe_order(single, multi), 0, depth)) == best, (single, multi)
        taller = min(map(ends_cost(*cases[0]), probe_trees(0, depth, depth)))
        assert (taller < ends_cost(*cases[0])(probe_tree(_probe_order(*cases[0]), 0, depth))) \
            == (depth >= 5)

    @pytest.mark.parametrize("bits, n", [(1, 1), (4, 3), (8, 5), (8, 100), (12, 40)])
    def test_end_weights_are_the_universe_shares(self, bits, n):
        """single[L] and multi[L] are the shares of the universe, in units of 2^-(D + 1), whose
        longest stored prefix lies at level L, with one key or more beneath it."""
        universe = UniverseSpec(bits)
        keys = KeySet(sorted(random.Random(bits * n).sample(range(universe.size), n)))
        trie = XFastTrie(keys, universe)
        depth = len(trie._levels) - 1
        single, multi = [0] * (depth + 1), [0] * (depth + 1)
        for q in range(universe.size):
            level = max(level for level, table in enumerate(trie._levels)
                        if q >> (bits - level) in table)
            lo, hi = trie._levels[level][q >> (bits - level)]
            (single if level and lo == hi else multi)[level] += 1
        # count / 2^bits of the universe is weight / 2^(D + 1)
        assert [[w << bits for w in weights] for weights in trie._weights] == \
            [[c << (depth + 1) for c in counts] for counts in (single, multi)]


def probe_tree(tree, lo: int, hi: int) -> dict:
    """The probe tree over [lo, hi] as a {(lo, hi): level} map of the ranges its nodes search,
    after checking that each node probes inside its range and each leaf is its range's level."""
    if type(tree) is int:
        assert tree == lo == hi, (lo, hi, tree)
        return {}
    mid, hit, miss = tree
    assert lo < mid <= hi, (lo, hi, mid)
    return {(lo, hi): mid, **probe_tree(miss, lo, mid - 1), **probe_tree(hit, mid, hi)}


def probe_trees(lo: int, hi: int, height: int):
    """Every probe tree over [lo, hi] of at most height probes, as probe_tree maps."""
    if lo == hi:
        yield {}
        return
    if height == 0:
        return
    for mid in range(lo + 1, hi + 1):
        for left in probe_trees(lo, mid - 1, height - 1):
            for right in probe_trees(mid, hi, height - 1):
                yield {(lo, hi): mid, **left, **right}


def ends_cost(single, multi):
    """The weighted sum of 2^probes of a probe tree: each search end walked through the tree
    as the x-fast search walks it, stopping on a probe of its own single-key prefix."""
    depth = len(single) - 1

    def cost(tree: dict) -> int:
        total = 0
        for level in range(depth + 1):
            for weight, alone in ((single[level], True), (multi[level], False)):
                lo, hi, probes = 0, depth, 0
                while lo < hi:
                    mid = tree[lo, hi]
                    probes += 1
                    if mid == level and alone:
                        break
                    lo, hi = (mid, hi) if mid <= level else (lo, mid - 1)
                total += weight << probes
        return total

    return cost


class TestChurnAgainstFreshBuild:
    @given(bits=st.integers(1, 64), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tables_audit_and_answers_after_every_step(self, bits, data):
        """After every insert or delete the tables are a fresh build's level for level (plus
        empty deeper ones, since the depth never shrinks), audit passes and the answers
        match the oracle.  Half the inserts land next to a stored key, where leaf levels
        move and the trie may deepen."""
        size = 1 << bits
        ref = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 16))))
        trie = XFastTrie(KeySet(ref), UniverseSpec(bits))
        for _ in range(data.draw(st.integers(1, 40))):
            if len(ref) > 1 and data.draw(st.booleans()):
                x = data.draw(st.sampled_from(ref))
                trie.delete(data.draw(int_like(x)))
                ref.remove(x)
            else:
                if data.draw(st.booleans()):
                    x = min(max(data.draw(st.sampled_from(ref)) + data.draw(st.sampled_from((-1, 1))), 0),
                            size - 1)
                else:
                    x = data.draw(st.integers(0, size - 1))
                trie.insert(data.draw(int_like(x)))
                if x not in ref:
                    insort(ref, x)
            assert_same_as_fresh_build(trie, ref)
            trie.audit()
            keys = KeySet(ref)
            near = [k + d for k in ref for d in (-1, 0, 1)]
            for q in [q for q in near if 0 <= q < size] + [0, size - 1]:
                stats = trie.query_stats(q)
                assert stats.answer == oracle_predecessor(keys, q), q
                assert stats.level_probes <= probe_bound(trie), q
