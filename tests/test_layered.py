import random
from bisect import bisect_right
from typing import Optional

import pytest
from conftest import WorkingSetTracker, front_pointers, layer_keys, random_keyset, traced_layers
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from predsearch import (
    KeySet,
    LayeredStructure,
    ParameterError,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    YFastTrie,
    layer_capacities,
    oracle_predecessor,
    output_distribution,
)


def uniform_over(keys: KeySet) -> WeightedDistribution:
    return WeightedDistribution({k: 1.0 for k in keys})


class TestLayerCapacities:
    def test_known_splits(self):
        assert layer_capacities(25) == [4, 16, 5]
        assert layer_capacities(4) == [4]
        assert layer_capacities(1) == [1]
        assert layer_capacities(4096) == [4, 16, 256, 3820]
        assert layer_capacities(0) == []

    def test_sums_and_shape(self):
        for n in (1, 2, 3, 4, 5, 20, 21, 276, 277, 10_000):
            caps = layer_capacities(n)
            assert sum(caps) == n
            full = [4, 16, 256, 65536]
            for i, c in enumerate(caps[:-1]):
                assert c == full[i]
            assert caps[-1] <= full[len(caps) - 1]

    @pytest.mark.parametrize("n", [1.5, True, -1, "4"])
    def test_rejects_a_count_that_is_not_an_int_at_least_zero(self, n):
        with pytest.raises(ParameterError, match=f"key count must be an int >= 0, got {n!r}"):
            layer_capacities(n)


class TestStaticBuild:
    def test_front_layer_has_highest_output_mass(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 20)))
        # descending weights on the keys themselves, gaps empty
        dist = WeightedDistribution({k: 2.0 ** -i for i, k in enumerate(keys)})
        structure = LayeredStructure(keys, dist, universe)
        out = output_distribution(keys, dist)
        expected_order = sorted(keys, key=lambda k: (-out.p_star(k), k))
        assert set(layer_keys(structure)[0]) == set(expected_order[:4])
        assert [len(layer) for layer in layer_keys(structure)] == [4, 16]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_layer_is_its_cut_of_the_rank_with_ties_by_key(self, seed):
        """The build and the audit take the layers from one rank, so the rule is held here to
        a reference written apart from it: p* descending, ties by ascending key, cut into
        the layer capacities.  Most gap points get no weight and weights repeat, so most p*
        tie, many of them at 0.0."""
        rnd = random.Random(seed)
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 300)))
        points = rnd.sample(range(universe.size), 60)
        dist = WeightedDistribution({q: float(rnd.randrange(1, 4)) for q in points})
        structure = LayeredStructure(keys, dist, universe)
        out = output_distribution(keys, dist)
        ranked = sorted(keys, key=lambda k: (-out.p_star(k), k))
        caps = layer_capacities(len(keys))
        starts = [sum(caps[:j]) for j in range(len(caps))]
        assert layer_keys(structure) == [tuple(sorted(ranked[s:s + c]))
                                         for s, c in zip(starts, caps)]
        structure.audit(dist)

    def test_partition(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 300)))
        structure = LayeredStructure(keys, uniform_over(keys), universe)
        assert [len(layer) for layer in layer_keys(structure)] == [4, 16, 256, 24]
        merged = sorted(k for layer in layer_keys(structure) for k in layer)
        assert merged == list(keys)


class TestStaticQuery:
    def test_front_layer_hit_probes_one(self):
        universe = UniverseSpec(8)
        keys = KeySet([10, 20, 30, 40, 50])
        dist = WeightedDistribution({20: 100.0, 10: 1.0, 30: 1.0, 40: 1.0, 50: 1.0})
        structure = LayeredStructure(keys, dist, universe)
        stats = structure.query_stats(25)
        answer, probed = stats.answer, stats.layers_probed
        assert answer == 20 and probed == 1

    def test_below_everything_probes_all_layers(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(100, universe.size), 25)))
        structure = LayeredStructure(keys, uniform_over(keys), universe)
        stats = structure.query_stats(5)
        answer, probed = stats.answer, stats.layers_probed
        assert answer is None
        assert probed == len(layer_keys(structure)) == 3

    def test_oracle_equivalence_and_probe_bound(self):
        universe = UniverseSpec(16)
        rnd = random.Random(3)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1000)))
        support = sorted(set(rnd.sample(keys.keys, 200))
                         | {rnd.randrange(universe.size) for _ in range(200)})
        dist = WeightedDistribution({k: rnd.random() + 1e-6 for k in support})
        structure = LayeredStructure(keys, dist, universe)
        p_star = structure.output.p_star
        for _ in range(20_000):
            q = rnd.randrange(universe.size)
            stats = structure.query_stats(q)
            answer, probed = stats.answer, stats.layers_probed
            assert answer == oracle_predecessor(keys, q)
            if answer is not None and probed >= 2:
                assert p_star(answer) <= 2.0 ** -(2 ** (probed - 1))

    def test_single_key(self):
        universe = UniverseSpec(6)
        structure = LayeredStructure(KeySet([30]), WeightedDistribution({30: 1.0}), universe)
        assert structure.query_stats(29) == QueryStats(answer=None, layers_probed=1)
        assert structure.query_stats(30) == QueryStats(answer=30, layers_probed=1)
        assert structure.query_stats(63) == QueryStats(answer=30, layers_probed=1)

    def test_all_mass_below_smallest_key(self):
        universe = UniverseSpec(12)
        keys = KeySet([3000, 3500, 4000])
        dist = WeightedDistribution({10: 1.0, 20: 2.0})
        structure = LayeredStructure(keys, dist, universe)
        assert structure.output.bottom_mass == 1.0
        for q in range(universe.size):
            assert structure.predecessor(q) == oracle_predecessor(keys, q)


class TestWorkingSetBuild:
    def test_initial_capacities(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 25)))
        ws = WorkingSetLayered(keys, universe)
        assert layer_capacities(len(keys)) == [4, 16, 5]
        assert [len(layer) for layer in layer_keys(ws)] == [4, 16, 5]
        # initial assignment is by ascending key
        assert layer_keys(ws)[0] == keys.keys[:4]

    def test_reported_answer_lands_in_front_layer(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 25)))
        ws = WorkingSetLayered(keys, universe)
        x = keys.keys[20]
        answer = ws.query_stats(x).answer
        assert answer == x
        assert x in layer_keys(ws)[0]
        ws.audit()

    def test_occupancies_survive_deep_promotion(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 300)))
        ws = WorkingSetLayered(keys, universe)
        stats = ws.query_stats(keys.keys[299])
        answer, probed = stats.answer, stats.layers_probed
        assert probed == 4
        assert [len(layer) for layer in layer_keys(ws)] == [4, 16, 256, 24]
        ws.audit()


class TestWorkingSetQuery:
    def test_second_access_probes_one_layer(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 100)))
        ws = WorkingSetLayered(keys, universe)
        q = keys.keys[77]
        ws.query_stats(q)
        stats = ws.query_stats(q)
        answer, probed = stats.answer, stats.layers_probed
        assert answer == q and probed == 1

    def test_twenty_distinct_reports_keep_key_shallow(self):
        universe = UniverseSpec(10)
        keys = KeySet([10 * i for i in range(1, 31)])  # 30 keys, layers 4/16/10
        ws = WorkingSetLayered(keys, universe)
        x = keys.keys[5]
        ws.query_stats(x)
        for other in keys.keys[6:26]:  # 20 distinct predecessors, none equal to x
            answer = ws.query_stats(other).answer
            assert answer == other
        stats = ws.query_stats(x)
        answer, probed = stats.answer, stats.layers_probed
        assert answer == x
        # 16 = 2^(2^2) <= 20 < 2^(2^3) = 256 distinct reports intervened
        assert probed <= 3

    def test_absent_answer_reports_nothing(self, rnd):
        universe = UniverseSpec(12)
        keys = KeySet(sorted(rnd.sample(range(50, universe.size), 30)))
        ws = WorkingSetLayered(keys, universe)
        before = layer_keys(ws)
        stats = ws.query_stats(5)
        answer, probed = stats.answer, stats.layers_probed
        assert answer is None and probed == len(layer_keys(ws))
        assert layer_keys(ws) == before

    def test_partial_layer_promotions(self):
        # small key sets leave the last layer partial; promotion must keep
        # refilling it through the shift chain
        for n in (1, 2, 3, 5, 20, 21):
            universe = UniverseSpec(10)
            rnd = random.Random(n)
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            ws = WorkingSetLayered(keys, universe)
            for _ in range(800):
                q = rnd.randrange(universe.size)
                answer = ws.query_stats(q).answer
                assert answer == oracle_predecessor(keys, q)
                assert [len(layer) for layer in layer_keys(ws)] == layer_capacities(n)
            ws.audit()

    def test_random_sequence_oracle_audit_and_bound(self):
        universe = UniverseSpec(12)
        rnd = random.Random(21)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 120)))
        ws = WorkingSetLayered(keys, universe)
        tracker = WorkingSetTracker()
        for step in range(2000):
            q = rnd.choice(keys.keys) if rnd.random() < 0.5 else rnd.randrange(universe.size)
            stats = ws.query_stats(q)
            answer, probed = stats.answer, stats.layers_probed
            assert answer == oracle_predecessor(keys, q)
            distinct = tracker.observe(answer)
            if answer is not None and probed >= 2 and distinct is not None:
                assert distinct >= 2 ** (2 ** (probed - 1))
            assert [len(layer) for layer in layer_keys(ws)] == layer_capacities(len(keys))
            if step % 200 == 0:
                ws.audit()
        ws.audit()


class TestFrontLayers:
    def test_front_layers_hold_no_routing_trie(self, rnd):
        """At 32 bits only a layer of over 32 * 32 keys has buckets, also after promotion.

        The 4-, 16- and 256-key layers are one sorted list each, searched by one
        bisect; the last layer of 1224 keys routes its buckets by trie.
        """
        universe = UniverseSpec(32)
        keys = random_keyset(rnd, universe, 1500)
        static = LayeredStructure(keys, uniform_over(keys), universe)
        ws = WorkingSetLayered(keys, universe)
        for q in rnd.sample(keys.keys, 150):
            ws.query_stats(q)
        for structure in (static, ws):
            assert [len(layer) for layer in layer_keys(structure)] == [4, 16, 256, 1224]
            *front, last = structure.layers
            assert all(layer._flat is not None and layer._rep_trie is None for layer in front)
            assert last._flat is None and last._rep_trie is not None
            structure.audit()

    def test_promotion_never_overfills_a_layer(self, monkeypatch):
        """Promotion shifts stale keys from the deepest layer up, so after every y-fast update
        no layer holds more than its capacity, and the 256-key layer at 16 bits (16 * 16
        keys, the flat cap) never switches to buckets."""
        universe = UniverseSpec(16)
        rnd = random.Random(16)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 2000)))
        ws = WorkingSetLayered(keys, universe)
        caps = layer_capacities(len(keys))
        assert caps == [4, 16, 256, 1724]
        position = {id(layer): j for j, layer in enumerate(ws.layers)}

        def checked(update):
            def call(layer, x):
                result = update(layer, x)  # a promotion reads the key delete returns
                j = position[id(layer)]
                assert len(layer) <= caps[j], (j, len(layer))
                assert ws.layers[2]._flat is not None
                return result
            return call

        monkeypatch.setattr(YFastTrie, "insert", checked(YFastTrie.insert))
        monkeypatch.setattr(YFastTrie, "delete", checked(YFastTrie.delete))
        promotions = 0
        while promotions < 300:
            q = rnd.randrange(universe.size)
            stats = ws.query_stats(q)
            assert stats.answer == oracle_predecessor(keys, q)
            promotions += stats.answer is not None and stats.layers_probed > 1
        assert [len(layer) for layer in layer_keys(ws)] == caps
        ws.audit()


def reference_scan(layers: list[tuple[int, ...]], keys: KeySet, q: int):
    """(answer, layers probed) of the scan that looks up the best candidate's successor in
    the full key set after every layer, the last one included."""
    ks = keys.keys
    best, probed = None, 0
    for layer in layers:
        probed += 1
        i = bisect_right(layer, q)
        if i and (best is None or layer[i - 1] > best):
            best = layer[i - 1]
        if best is not None:
            j = bisect_right(ks, best)
            if j == len(ks) or ks[j] > q:
                break
    return best, probed


SHAPES = [1, 4, 5, 20, 21, 276, 277]  # one layer; exactly full front layers; one key past them


class TestCascadeShapes:
    """Cascades whose last layer is their only one, exactly fills the front, or holds one key."""

    @pytest.mark.parametrize("n", SHAPES)
    def test_static(self, n):
        universe = UniverseSpec(12)
        rnd = random.Random(n)
        keys = KeySet(sorted(rnd.sample(range(50, universe.size), n)))
        dist = WeightedDistribution({k: rnd.random() + 1e-6 for k in keys})
        structure = LayeredStructure(keys, dist, universe)
        caps = layer_capacities(n)
        layers = layer_keys(structure)
        assert [len(layer) for layer in layers] == caps
        assert len(front_pointers(structure)) == n - caps[-1]
        structure.audit()
        for _ in range(3000):
            q = rnd.choice(keys.keys) if rnd.random() < 0.3 else rnd.randrange(universe.size)
            answer, probed = reference_scan(layers, keys, q)
            assert answer == oracle_predecessor(keys, q)
            assert structure.predecessor(q) == answer
            assert structure.query_stats(q) == QueryStats(answer=answer, layers_probed=probed)

    @pytest.mark.parametrize("n", SHAPES)
    def test_working_set_promotion_stream(self, n):
        universe = UniverseSpec(12)
        rnd = random.Random(100 + n)
        keys = KeySet(sorted(rnd.sample(range(50, universe.size), n)))
        hot = rnd.sample(keys.keys, min(n, 40))  # more than the 4 + 16 front keys: deep promotions
        ws = WorkingSetLayered(keys, universe)
        for _ in range(3000):
            q = rnd.choice(hot) if rnd.random() < 0.6 else rnd.randrange(universe.size)
            expected = reference_scan(layer_keys(ws), keys, q)
            stats = ws.query_stats(q)
            assert (stats.answer, stats.layers_probed) == expected
            assert stats.answer == oracle_predecessor(keys, q)
            # promotion keeps pointers for exactly the front keys, however deep it reached
            front = {k for layer in layer_keys(ws)[:-1] for k in layer}
            assert {k for k, _ in front_pointers(ws)} == front
            ws.audit()


def spy_on_layers(monkeypatch, cascade) -> list[tuple[str, Optional[int]]]:
    """Record (method, layer index) for every public y-fast predecessor, insert and delete
    call from now on, the index into ``traced_layers(cascade)`` (None for another trie)."""
    index = {id(layer): j for j, layer in enumerate(traced_layers(cascade))}
    calls: list[tuple[str, Optional[int]]] = []

    def spy(name):
        method = getattr(YFastTrie, name)

        def call(trie, x):
            calls.append((name, index.get(id(trie))))
            return method(trie, x)
        return call

    for name in ("predecessor", "insert", "delete"):
        monkeypatch.setattr(YFastTrie, name, spy(name))
    return calls


def promotion_calls(j: int) -> list[tuple[str, int]]:
    """The y-fast updates that move a key from layer j to the front: its delete from layer j,
    then for each layer k above j the delete of its stalest key and that key's insert into
    layer k + 1, deepest first, then the key's insert into layer 0."""
    if not j:
        return []
    shifts = [call for k in range(j - 1, -1, -1) for call in (("delete", k), ("insert", k + 1))]
    return [("delete", j)] + shifts + [("insert", 0)]


class TestBenchmarkView:
    """The benchmark tags each traced y-fast call with the layer object it ran on
    (``traced_layers``), so its per-layer metrics are right only while a query's probes and a
    promotion's updates are public calls on those objects, in scan order."""

    @pytest.mark.parametrize("variant", ["static", "working-set"])
    def test_probes_and_promotions_are_public_calls_on_the_traced_layers(self, monkeypatch,
                                                                        variant):
        universe = UniverseSpec(12)
        rnd = random.Random(23)
        keys = KeySet(sorted(rnd.sample(range(50, universe.size), 300)))  # layers 4, 16, 256, 24
        if variant == "static":
            cascade = LayeredStructure(keys, WeightedDistribution(
                {k: rnd.random() ** 4 for k in keys}), universe)
        else:
            cascade = WorkingSetLayered(keys, universe)
        layers = traced_layers(cascade)
        hot = rnd.sample(keys.keys, 40)  # more than the 20 front keys: promotions from every layer
        calls = spy_on_layers(monkeypatch, cascade)
        depths = set()
        for step in range(3000):
            q = rnd.choice(hot) if rnd.random() < 0.6 else rnd.randrange(universe.size)
            before = layer_keys(cascade)
            calls.clear()
            stats = cascade.query_stats(q)
            probed = stats.layers_probed
            assert stats.answer == oracle_predecessor(keys, q), step
            expected = [("predecessor", j) for j in range(probed)]
            if variant == "working-set" and stats.answer is not None:
                assert stats.answer in before[probed - 1], step  # its layer was probed last
                expected += promotion_calls(probed - 1)
                depths.add(probed - 1)
            assert calls == expected, (step, q)
        # the benchmark tags the layer objects once, after the build
        assert all(a is b for a, b in zip(traced_layers(cascade), layers, strict=True))
        assert variant == "static" or depths == {0, 1, 2, 3}
        cascade.audit()


def test_audit_checks_pointers_against_the_key_set_not_the_layers(monkeypatch):
    """With the layers' own next-key search broken, a promotion out of the last layer writes a
    pointer that skips a front key; the audit, which takes the next key from the key set,
    must catch it rather than recompute the same wrong pointer from the layers."""
    universe = UniverseSpec(12)
    rnd = random.Random(29)
    keys = KeySet(sorted(rnd.sample(range(universe.size), 100)))
    monkeypatch.setattr(YFastTrie, "_after", lambda trie, x: None)
    ws = WorkingSetLayered(keys, universe)
    with pytest.raises(AssertionError, match=r"successor pointer \d+ -> \d+, next key is \d+"):
        for _ in range(500):
            ws.predecessor(rnd.choice(keys.keys))
            ws.audit()


class WorkingSetMachine(RuleBasedStateMachine):
    """WorkingSetLayered answers and layer partition under any query sequence."""

    @initialize(bits=st.integers(1, 64), data=st.data())
    def build(self, bits, data):
        self.universe = UniverseSpec(bits)
        size = self.universe.size
        keys = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                        max_size=min(size, 48))))
        self.keys = KeySet(keys)
        self.ws = WorkingSetLayered(self.keys, self.universe)
        # (first, last) of each run of absent keys above the minimum
        self.gaps = [(a + 1, b - 1) for a, b in zip(keys, keys[1:] + [size]) if b - a > 1]

    def _check(self, q):
        stats = self.ws.query_stats(q)
        answer, probed = stats.answer, stats.layers_probed
        assert answer == oracle_predecessor(self.keys, q)
        assert 1 <= probed <= len(layer_keys(self.ws))

    @rule(data=st.data())
    def query_stored(self, data):
        self._check(data.draw(st.sampled_from(self.keys.keys)))

    @precondition(lambda self: self.gaps)
    @rule(data=st.data())
    def query_gap(self, data):
        lo, hi = data.draw(st.sampled_from(self.gaps))
        self._check(data.draw(st.integers(lo, hi)))

    @precondition(lambda self: self.keys[0] > 0)
    @rule(data=st.data())
    def query_below_minimum(self, data):
        before = layer_keys(self.ws)
        self._check(data.draw(st.integers(0, self.keys[0] - 1)))
        assert layer_keys(self.ws) == before  # no answer, nothing promoted

    @invariant()
    def audited(self):
        self.ws.audit()


TestWorkingSetMachine = WorkingSetMachine.TestCase
TestWorkingSetMachine.settings = settings(max_examples=100, stateful_step_count=60, deadline=None)


class TestTracker:
    def test_counts_distinct_reports_between_repeats(self):
        t = WorkingSetTracker()
        assert t.observe(1) is None
        assert t.observe(2) is None
        assert t.observe(3) is None
        assert t.observe(2) == 1      # only 3 reported since
        assert t.observe(1) == 2      # 3 and 2 reported since
        assert t.observe(1) == 0
        assert t.observe(None) is None


class TestSpace:
    def test_entries_linear_in_n(self, rnd):
        universe = UniverseSpec(16)
        ratios = []
        for n in (256, 1024, 4096):
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            structure = LayeredStructure(keys, uniform_over(keys), universe)
            assert sum(map(len, layer_keys(structure))) == n
            ratios.append(structure.table_entries() / n)
        for a, b in zip(ratios, ratios[1:]):
            assert max(a, b) / min(a, b) < 1.5, ratios
