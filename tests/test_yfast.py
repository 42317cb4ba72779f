import random
from bisect import bisect_right, insort

import numpy as np
import pytest
from conftest import assert_same_as_fresh_build, int_like, probes_saved, separators
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from predsearch import KeySet, QueryStats, UniverseSpec, XFastTrie, YFastTrie, oracle_predecessor


def bucket_sizes(trie: YFastTrie) -> list[int]:
    """Key count of each bucket, in key order; none in flat form."""
    return [len(trie._buckets[s]) for s in separators(trie)]


def audit_band(trie: YFastTrie) -> None:
    sizes = bucket_sizes(trie)
    lo, hi = trie._min_size, trie._max_size
    assert all(lo <= s <= hi for s in sizes), sizes
    # buckets partition the key set in order, each within [its separator, the next)
    seps = separators(trie)
    assert list(seps) == sorted(seps)
    for sep, end in zip(seps, seps[1:] + (trie.universe.size,)):
        assert all(sep <= k < end for k in trie._buckets[sep])
    flattened = list(trie)
    assert flattened == sorted(set(flattened))
    assert len(flattened) == len(trie)


class TestBuild:
    def test_single_key(self):
        trie = YFastTrie(KeySet([9]), UniverseSpec(8))
        assert trie._flat == [9] and trie._rep_trie is None
        assert bucket_sizes(trie) == [] and separators(trie) == ()
        assert trie.query_stats(200) == QueryStats(answer=9, level_probes=0)

    def test_representative_count_band(self, rnd):
        universe = UniverseSpec(16)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 4096)))
        trie = YFastTrie(keys, universe)
        seps = separators(trie)
        assert 128 <= len(seps) <= 1025 and seps[0] == 0
        assert all(4 <= s <= 32 for s in bucket_sizes(trie))

    def test_buckets_partition_keys(self, rnd):
        universe = UniverseSpec(14)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 777)))
        trie = YFastTrie(keys, universe)
        assert tuple(trie) == keys.keys
        audit_band(trie)


class TestPredecessor:
    def test_below_and_above_everything(self):
        trie = YFastTrie(KeySet([100, 200]), UniverseSpec(10))
        assert trie.predecessor(99) is None
        assert trie.predecessor(1023) == 200

    def test_random_large_universe(self):
        universe = UniverseSpec(20)
        rnd = random.Random(13)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1000)))
        trie = YFastTrie(keys, universe)
        for _ in range(100_000):
            q = rnd.randrange(universe.size)
            assert trie.predecessor(q) == oracle_predecessor(keys, q)

    def test_exhaustive_small_universe(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 333)))
        trie = YFastTrie(keys, universe)
        for q in range(universe.size):
            assert trie.predecessor(q) == oracle_predecessor(keys, q)



class TestEarlyExit:
    """Routing through an x-fast trie (more than bits * bits keys) stops at the first prefix
    with a single separator beneath it: the oracle's answers, no query above the probe
    bound, fewer probes in all than the full-depth reference on the routing trie, and
    fewer on some queries."""

    def test_exhaustive_16_bits(self):
        universe = UniverseSpec(16)
        keys = KeySet(sorted(random.Random(16).sample(range(universe.size), 2000)))
        trie = YFastTrie(keys, universe)
        assert trie._rep_trie is not None
        fewer, saved = probes_saved(trie, trie._rep_trie, keys, range(universe.size))
        assert fewer > 0 and saved > 0

    def test_churn_64_bits(self):
        universe = UniverseSpec(64)
        rnd = random.Random(64)
        ref = sorted({rnd.randrange(universe.size) for _ in range(5000)})
        trie = YFastTrie(KeySet(ref), universe)
        fewer = saved = 0
        for _ in range(300):
            if rnd.random() < 0.5:
                x = rnd.choice(ref)
                ref.remove(x)
                trie.delete(x)
            else:
                x = rnd.randrange(universe.size)
                trie.insert(x)
                if x not in ref:
                    insort(ref, x)
            assert trie._rep_trie is not None
            near = [k + d for k in rnd.sample(ref, 8) for d in (-1, 0, 1)]
            queries = [q for q in near if 0 <= q < universe.size]
            queries += [0, universe.size - 1] + [rnd.randrange(universe.size) for _ in range(8)]
            step_fewer, step_saved = probes_saved(trie, trie._rep_trie, KeySet(ref), queries)
            fewer += step_fewer
            saved += step_saved
        trie.audit()
        assert fewer > 0 and saved > 0


class TestUpdates:
    def test_insert_then_delete_restores_answers(self, rnd):
        universe = UniverseSpec(10)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 60)))
        trie = YFastTrie(keys, universe)
        x = next(k for k in range(universe.size) if k not in keys)
        trie.insert(x)
        trie.delete(x)
        for q in range(universe.size):
            assert trie.predecessor(q) == oracle_predecessor(keys, q)
        audit_band(trie)

    def test_insert_below_all_representatives(self):
        trie = YFastTrie(KeySet([500, 600, 700]), UniverseSpec(10))
        trie.insert(3)
        assert trie.predecessor(3) == 3
        assert trie.predecessor(2) is None
        audit_band(trie)

    def test_minimum_churn_with_routing_trie(self):
        """Inserts below every key and deletes of the smallest edit the first bucket, whose
        separator stays 0, and the route changes only when that bucket splits or merges."""
        universe = UniverseSpec(16)
        ref = list(range(40_000, 40_960, 3))  # 320 keys in 20 buckets of 16: above 16 * 16, so a trie
        trie = YFastTrie(KeySet(ref), universe)
        assert len(separators(trie)) == 20
        x = ref[0]
        for step in range(300):
            before = separators(trie)
            if step % 3 == 2:
                trie.delete(ref.pop(0))
            else:
                x -= 1 + step % 7
                trie.insert(x)
                ref.insert(0, x)
            assert trie._rep_trie is not None
            after = separators(trie)
            assert next(iter(trie)) == trie._buckets[0][0] == ref[0] and after[0] == 0
            assert after == before or len(after) == len(before) + 1  # unchanged, or a split
            trie.audit()
        assert list(trie) == ref
        keys = KeySet(ref)
        for q in range(ref[0] - 2, ref[-1] + 2):
            assert trie.predecessor(q) == oracle_predecessor(keys, q)

    def test_delete_absent_raises(self):
        trie = YFastTrie(KeySet([5]), UniverseSpec(4))
        with pytest.raises(KeyError):
            trie.delete(6)
        with pytest.raises(KeyError):
            trie.delete(4)

    def test_int_like_updates_store_the_int(self):
        """A numpy.uint64 or bool key is the int it stands for, also in the insert that turns a
        full flat list into buckets."""
        trie = YFastTrie(KeySet([k for k in range(26) if k != 5]), UniverseSpec(5))  # 5 * 5 keys
        trie.insert(np.uint64(5))
        assert separators(trie) and list(trie) == list(range(26))
        trie.audit()
        trie = YFastTrie(KeySet([7]), UniverseSpec(4))
        trie.insert(np.uint64(3))
        trie.insert(True)
        assert list(trie) == [1, 3, 7] and all(type(k) is int for k in trie)
        assert trie.delete(np.uint64(3)) == 7 and trie.delete(True) == 7

    def test_delete_to_empty_and_refill(self):
        trie = YFastTrie(KeySet([5]), UniverseSpec(4))
        trie.delete(5)
        assert len(trie) == 0
        assert trie.predecessor(9) is None
        trie.insert(7)
        assert trie.predecessor(9) == 7

    def test_randomized_interleaving_against_sorted_oracle(self):
        universe = UniverseSpec(14)
        rnd = random.Random(99)
        ref = sorted(rnd.sample(range(universe.size), 500))
        trie = YFastTrie(KeySet(ref), universe)
        for _ in range(10_000):
            if rnd.random() < 0.5 and len(ref) > 1:
                x = ref[rnd.randrange(len(ref))]
                ref.remove(x)
                trie.delete(x)
            else:
                x = rnd.randrange(universe.size)
                i = bisect_right(ref, x)
                if not (i and ref[i - 1] == x):
                    insort(ref, x)
                    trie.insert(x)
            q = rnd.randrange(universe.size)
            i = bisect_right(ref, q) - 1
            assert trie.predecessor(q) == (ref[i] if i >= 0 else None)
        audit_band(trie)

    def test_churn_at_tiny_bit_widths(self):
        for bits in (1, 2, 3):
            universe = UniverseSpec(bits)
            rnd = random.Random(bits)
            for _ in range(60):
                ref = sorted(rnd.sample(range(universe.size),
                                        rnd.randrange(1, universe.size + 1)))
                trie = YFastTrie(KeySet(ref), universe)
                for _ in range(40):
                    if rnd.random() < 0.5 and ref:
                        x = rnd.choice(ref)
                        ref.remove(x)
                        trie.delete(x)
                    else:
                        x = rnd.randrange(universe.size)
                        if x not in ref:
                            insort(ref, x)
                            trie.insert(x)
                    for q in range(universe.size):
                        i = bisect_right(ref, q) - 1
                        assert trie.predecessor(q) == (ref[i] if i >= 0 else None)

    @pytest.mark.parametrize("bits", [1, 4, 8, 16, 32])
    def test_walk_across_routing_threshold(self, bits, monkeypatch):
        """Going above bits * bits keys builds the routing trie once; only max(1, bits * bits // 2)
        or fewer keys make the trie flat again.

        The walk climbs past the cap and falls to the floor twice, then drains
        the set.  A universe of at most bits * bits keys never leaves the flat
        form, so at 4 bits the list holds the whole walk.
        """
        builds = []
        build = XFastTrie.__init__

        def counting_build(trie, keys, universe):
            builds.append(keys.keys)  # the separators a trie was built over
            build(trie, keys, universe)

        monkeypatch.setattr(XFastTrie, "__init__", counting_build)
        universe = UniverseSpec(bits)
        size, cap, floor = universe.size, bits * bits, max(1, bits * bits // 2)
        rnd = random.Random(bits)
        model = [rnd.randrange(size)]
        trie = YFastTrie(KeySet(model), universe)
        bucketed, crossings = False, 0

        def step(x, is_insert):
            nonlocal bucketed, crossings
            built = len(builds)
            if is_insert:
                trie.insert(x)
                insort(model, x)
            else:
                trie.delete(x)
                model.remove(x)
            n, was = len(model), bucketed
            bucketed = n > cap or (was and n > floor)
            if bucketed and not was:
                crossings += 1
                assert n == cap + 1
                assert builds[built:] == [separators(trie)]
                assert len(builds[-1]) in (bits, bits + 1)  # buckets of bits keys, the tail joined
            else:
                assert builds[built:] == []
            assert (trie._flat is None) == (trie._rep_trie is not None) == bucketed
            if not bucketed:
                assert trie._flat == model
            for q in {min(max(x + d, 0), size - 1) for d in (-1, 0, 1)} | {0, size - 1}:
                i = bisect_right(model, q)
                expected = model[i - 1] if i else None
                assert trie.predecessor(q) == expected
                stats = trie.query_stats(q)
                assert stats.answer == expected and (bucketed or stats.level_probes == 0)
            trie.audit()

        for _ in range(2):
            while len(model) <= cap and len(model) < size:
                x = rnd.randrange(size)
                while x in model:
                    x = rnd.randrange(size)
                step(x, True)
            while len(model) > floor:
                step(rnd.choice(model), False)
        while model:
            step(rnd.choice(model), False)
        assert trie._flat == [] and separators(trie) == ()
        assert crossings == len(builds) == (2 if size > cap else 0)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 255)), max_size=60),
           st.sets(st.integers(0, 255), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_interleaving_property(self, ops, initial):
        universe = UniverseSpec(8)
        ref = sorted(initial)
        trie = YFastTrie(KeySet(ref), universe)
        for is_insert, x in ops:
            if is_insert:
                trie.insert(x)
                if x not in ref:
                    insort(ref, x)
            else:
                if x in ref:
                    ref.remove(x)
                    trie.delete(x)
                else:
                    with pytest.raises(KeyError):
                        trie.delete(x)
        for q in range(universe.size):
            i = bisect_right(ref, q) - 1
            assert trie.predecessor(q) == (ref[i] if i >= 0 else None)
        if ref:
            audit_band(trie)


class TestFixedSeparators:
    """A bucket keeps the separator it was made with, so the routing trie is updated only by
    a split (one insert) or a merge (one delete), never by a key that leads its bucket."""

    def test_route_changes_only_on_split_and_merge(self, monkeypatch):
        calls = {"insert": 0, "delete": 0, "_split": 0, "_merge": 0}

        def counted(cls, name):
            fn = getattr(cls, name)

            def wrapper(self, x):
                calls[name] += 1
                fn(self, x)

            monkeypatch.setattr(cls, name, wrapper)

        universe = UniverseSpec(32)
        rnd = random.Random(32)
        ref = sorted({rnd.randrange(universe.size) for _ in range(1 << 16)})
        trie = YFastTrie(KeySet(ref), universe)
        for cls, name in ((XFastTrie, "insert"), (XFastTrie, "delete"),
                          (YFastTrie, "_split"), (YFastTrie, "_merge")):
            counted(cls, name)
        for x in ref[:20_000]:
            trie.delete(x)
        # buckets of 32 keys: each merge folds 7 keys into the next bucket, leaving 39, no split
        assert calls == {"insert": 0, "delete": 625, "_split": 0, "_merge": 625}
        del ref[:20_000]
        low = range(ref[0] - 20_000, ref[0])
        for x in reversed(low):
            trie.insert(x)
        assert calls["insert"] == calls["_split"] > 0
        assert calls["delete"] == calls["_merge"] == 625
        ref[:0] = low
        trie.audit()
        assert list(trie) == ref
        keys = KeySet(ref)
        for q in [0, universe.size - 1] + [k + d for k in rnd.sample(ref, 500) for d in (-1, 0)]:
            assert trie.predecessor(q) == oracle_predecessor(keys, q)

    def test_minimum_churn_keeps_build_depth(self, rnd):
        """Deleting and re-inserting every bucket's first key, with no split or merge, leaves the
        routing trie as built: its separators and its stored levels."""
        universe = UniverseSpec(32)
        trie = YFastTrie(KeySet(sorted(rnd.sample(range(universe.size), 1 << 12))), universe)
        seps, depth = separators(trie), len(trie._rep_trie._levels)
        firsts = [trie._buckets[sep][0] for sep in seps]
        for _ in range(3):
            for first in firsts:
                trie.delete(first)
                trie.insert(first)
        assert len(trie._rep_trie._levels) == depth
        assert separators(trie) == seps
        trie.audit()


class YFastMachine(RuleBasedStateMachine):
    """YFastTrie against a sorted-list model under any insert/delete sequence."""

    # narrow widths have buckets of a few keys, so short runs split and merge them
    @initialize(bits=st.one_of(st.integers(3, 8), st.integers(1, 64)), data=st.data())
    def build(self, bits, data):
        self.universe = UniverseSpec(bits)
        size = self.universe.size
        self.key = st.integers(0, size - 1)
        # up to 8 bits the set may start above bits * bits keys, in bucket form,
        # and short runs cross both form thresholds
        most = (bits + 2) * bits if bits <= 8 else 4 * bits
        n = data.draw(st.integers(min(size, 2 * bits), min(size, most)))
        self.model = sorted(data.draw(st.sets(self.key, min_size=n, max_size=n)))
        self.trie = YFastTrie(KeySet(self.model), self.universe)
        self.bucketed = n > bits * bits

    def _track_form(self):
        """The form the count's history calls for: buckets above bits * bits keys, flat again at
        max(1, bits * bits // 2) or fewer."""
        n, cap = len(self.model), self.universe.bits ** 2
        self.bucketed = n > cap or (self.bucketed and n > max(1, cap // 2))

    @rule(data=st.data())
    def insert(self, data):
        x = data.draw(self.key)
        self.trie.insert(data.draw(int_like(x)))
        if x not in self.model:
            insort(self.model, x)
        self._track_form()

    def _delete(self, data, x):
        """Delete x from both, passing x to the trie in one of its int-like forms; the trie
        returns the smallest key left above x."""
        after = self.trie.delete(data.draw(int_like(x)))
        self.model.remove(x)
        i = bisect_right(self.model, x)
        assert after == (self.model[i] if i < len(self.model) else None)
        self._track_form()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_present(self, data):
        self._delete(data, data.draw(st.sampled_from(self.model)))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_run(self, data):
        """Delete consecutive keys: shrinks one bucket to a merge, flattens, or drains the set."""
        i = data.draw(st.integers(0, len(self.model) - 1))
        j = data.draw(st.integers(i + 1, len(self.model)))
        for x in self.model[i:j]:
            self._delete(data, x)

    @precondition(lambda self: len(self.model) < self.universe.size)
    @rule(data=st.data())
    def delete_absent(self, data):
        x = data.draw(self.key)
        present = set(self.model)
        while x in present:
            x = (x + 1) % self.universe.size
        with pytest.raises(KeyError):
            self.trie.delete(data.draw(int_like(x)))

    @invariant()
    def answers_match_model(self):
        size = self.universe.size
        if size <= 256:
            queries = range(size)
        else:
            near = [k + d for k in self.model for d in (-1, 0, 1)]
            queries = [q for q in near if 0 <= q < size] + [0, size - 1]
        for q in queries:
            i = bisect_right(self.model, q)
            assert self.trie.predecessor(q) == (self.model[i - 1] if i else None)
            assert self.trie._after(q) == (self.model[i] if i < len(self.model) else None)

    @invariant()
    def contents_match_model(self):
        assert list(self.trie) == self.model
        assert all(type(k) is int for k in self.trie)
        assert len(self.trie) == len(self.model)

    @invariant()
    def buckets_in_band(self):
        audit_band(self.trie)

    @invariant()
    def form_follows_count(self):
        """Flat until the count first goes above bits * bits, buckets from then until it falls
        to max(1, bits * bits // 2); a routing trie equals a fresh build over the bucket
        separators, the first of which is 0."""
        trie = self.trie
        if not self.bucketed:
            assert trie._flat == self.model
            assert trie._buckets is None and trie._rep_trie is None
        else:
            assert trie._flat is None
            seps = sorted(trie._buckets)
            assert seps[0] == 0
            assert list(separators(trie)) == seps
            assert_same_as_fresh_build(trie._rep_trie, seps)
        trie.audit()


TestYFastMachine = YFastMachine.TestCase
TestYFastMachine.settings = settings(max_examples=100, stateful_step_count=60, deadline=None)


class TestSpace:
    def test_linear_space_flat_constant(self, rnd):
        universe = UniverseSpec(16)
        # 16 * 16 keys: one flat list, so only the key slots count
        keys = KeySet(sorted(rnd.sample(range(universe.size), 2 ** 8)))
        trie = YFastTrie(keys, universe)
        assert trie._flat is not None and trie.table_entries() == 2 ** 8
        ratios = []
        for n in (2 ** 10, 2 ** 12, 2 ** 14):
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            trie = YFastTrie(keys, universe)
            assert trie._rep_trie is not None
            ratios.append(trie.table_entries() / n)
        for a, b in zip(ratios, ratios[1:]):
            assert max(a, b) / min(a, b) < 1.5, ratios
