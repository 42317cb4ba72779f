import math
import random
from bisect import insort

import pytest
from conftest import (
    assert_same_as_fresh_build,
    probes_saved,
    reference_levels,
    reference_search,
    stored_depth,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from predsearch import (
    KeyRangeError,
    KeySet,
    ParameterError,
    UniverseSpec,
    XFastTrie,
    oracle_predecessor,
)


def probe_bound(bits: int) -> int:
    return math.ceil(math.log2(bits + 1)) + 2


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


def distinct_entries(trie: XFastTrie) -> int:
    return len({id(entry) for table in trie._levels for entry in table.values()})


class TestBottomUpBuild:
    """The bottom-up build gives the top-down reference's tables down to the minimal depth,
    with one tuple per key and per branching prefix."""

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
        assert depth == 1 or len(trie._levels[depth - 1]) < len(keys)  # the level above branches
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
        bound = probe_bound(universe.bits)
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
    oracle's answers, never more probes than the full-depth reference, fewer on some."""

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
        # the keys part at bit 40, so the depth is 24 and the search starts at level 12:
        # levels 12, 18, 21 and 23 hold both keys, and level 24 holds 2 ** 40 + 7 alone.
        # A search over all 65 levels would have met that single key at level 32 first.
        assert len(trie._levels) == 25
        assert stats.answer == 3 and stats.level_probes == 5
        assert trie.query_stats(2).answer is None

    @pytest.mark.parametrize("n", [1, 2, 256, 4096])
    def test_exhaustive_16_bits(self, n):
        universe = UniverseSpec(16)
        keys = KeySet(sorted(random.Random(n).sample(range(universe.size), n)))
        trie = XFastTrie(keys, universe)
        assert probes_saved(trie, trie, keys, range(universe.size)) > 0

    def test_churn_64_bits(self):
        universe = UniverseSpec(64)
        rnd = random.Random(64)
        ref = sorted({rnd.randrange(universe.size) for _ in range(64)})
        trie = XFastTrie(KeySet(ref), universe)
        fewer = 0
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
            fewer += probes_saved(trie, trie, KeySet(ref), queries)
        assert_same_as_fresh_build(trie, ref)
        assert fewer > 0


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
        """The appended levels reuse each stored key's (k, k) tuple, as a fresh build shares it."""
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

        def distinct_entries(t):
            return len({id(e) for table in t._levels for e in table.values()})

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
