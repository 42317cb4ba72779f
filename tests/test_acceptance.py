"""Acceptance gates, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
assertions carry the stated tolerances, so a red test is a failed gate.
"""

import json
import math
import random
from contextlib import contextmanager

import pytest

from conftest import KIND_CYCLE, WorkingSetTracker, layer_keys, random_distribution

from predsearch import (
    HashFront,
    KeySet,
    LayeredStructure,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    WorkloadSpec,
    XFastTrie,
    YFastTrie,
    entropy,
    generate_distribution,
    layer_capacities,
    oracle_predecessor,
    sample_queries,
)
from predsearch.cli import EXIT_OK, main
from predsearch.core import meets_threshold

EPSILONS = (0.25, 0.5, 0.9)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def build_every_structure(keys, dist, universe):
    structures = {
        "xfast": XFastTrie(keys, universe),
        "yfast": YFastTrie(keys, universe),
        "layered": LayeredStructure(keys, dist, universe),
        "layered-ws": WorkingSetLayered(keys, universe),
    }
    for eps in EPSILONS:
        structures[f"hashfront-a eps={eps}"] = HashFront(
            keys, dist, universe, ThresholdMode.mode_a(eps))
        structures[f"hashfront-b eps={eps}"] = HashFront(
            keys, dist, universe, ThresholdMode.mode_b(eps))
    return structures


def test_criterion_1_exhaustive_oracle_correctness():
    with criterion(1, "exhaustive oracle correctness, 50 instances"):
        universe = UniverseSpec(12)
        rnd = random.Random(101)
        sizes = (1, 2, 17, 256, 1000)
        for i in range(50):
            n = sizes[i % len(sizes)]
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            dist = random_distribution(rnd, universe, keys, KIND_CYCLE[i % 4])
            expected = [oracle_predecessor(keys, q) for q in range(universe.size)]
            for name, structure in build_every_structure(keys, dist, universe).items():
                pred = structure.predecessor
                for q in range(universe.size):
                    assert pred(q) == expected[q], (name, n, i, q)


def test_criterion_2_hashfront_space_bounds():
    with criterion(2, "hash-front size bounds and membership, zero tolerance"):
        rnd = random.Random(202)
        for bits in (10, 12, 16):
            universe = UniverseSpec(bits)
            for trial in range(4):
                keys = KeySet(sorted(rnd.sample(range(universe.size), 64)))
                dist = random_distribution(rnd, universe, keys, KIND_CYCLE[trial])
                for eps in EPSILONS:
                    for mode in (ThresholdMode.mode_a(eps), ThresholdMode.mode_b(eps)):
                        hf = HashFront(keys, dist, universe, mode)
                        assert len(hf.table) <= mode.table_capacity(bits)
                        t = mode.threshold(bits)
                        expected = {k for k, w in dist.items()
                                    if meets_threshold(w / dist.total, t)}
                        assert set(hf.table) == expected


def test_criterion_3_individual_probe_shape():
    with criterion(3, "one-probe hits, bounded fallback misses"):
        universe = UniverseSpec(16)
        rnd = random.Random(303)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1024)))
        support = sorted(set(rnd.sample(keys.keys, 800))
                         | {rnd.randrange(universe.size) for _ in range(2000)})
        dist = WeightedDistribution(
            {k: max(0.5 ** i, 5e-324) for i, k in enumerate(support)})
        bound = math.ceil(math.log2(universe.bits + 1)) + 2
        weights = dict(dist.items())
        for mode in (ThresholdMode.mode_a(0.5), ThresholdMode.mode_b(0.5)):
            hf = HashFront(keys, dist, universe, mode)
            t = mode.threshold(universe.bits)

            def check(q):
                st = hf.query_stats(q)
                assert st.table_probes == 1
                if meets_threshold(weights[q] / dist.total, t):
                    assert st.table_hit and st.level_probes == 0
                else:
                    assert not st.table_hit and st.level_probes <= bound

            for key, _ in dist.items():
                check(key)
            for q in sample_queries(dist, seed=33, count=10_000):
                check(q)


def test_criterion_4_layered_probe_bound():
    with criterion(4, "layer bound p* <= 2^-2^(j-1), zero violations"):
        universe = UniverseSpec(16)
        rnd = random.Random(404)
        for i in range(20):
            n = rnd.choice((17, 256, 1000, 2500, 4096))
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            dist = random_distribution(rnd, universe, keys, KIND_CYCLE[i % 4])
            structure = LayeredStructure(keys, dist, universe)
            p_star = structure.output.p_star
            for q in sample_queries(dist, seed=1000 + i, count=5_000):
                st = structure.query_stats(q)
                answer, probed = st.answer, st.layers_probed
                assert answer == oracle_predecessor(keys, q)
                if answer is not None and probed >= 2:
                    assert p_star(answer) <= 2.0 ** -(2 ** (probed - 1)), (i, q, probed)

        # corollary: geometric output distribution keeps the mean at most 2
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1024)))
        dist = generate_distribution(
            WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.5))
        structure = LayeredStructure(keys, dist, universe)
        queries = sample_queries(dist, seed=77, count=20_000)
        probes = []
        for q in queries:
            st = structure.query_stats(q)
            answer, probed = st.answer, st.layers_probed
            assert answer == oracle_predecessor(keys, q)
            probes.append(probed)
        assert sum(probes) / len(probes) <= 2.0


def test_criterion_5_working_set_bound():
    with criterion(5, "recency bound with per-access capacity audit"):
        universe = UniverseSpec(16)
        rnd = random.Random(505)
        keys = KeySet(sorted(rnd.sample(range(universe.size), 1024)))
        ws = WorkingSetLayered(keys, universe)
        tracker = WorkingSetTracker()

        hot = rnd.sample(keys.keys, 40)
        script = []
        for i in range(10_000):
            r = rnd.random()
            if r < 0.5:
                script.append(rnd.choice(hot))          # heavy reuse
            elif r < 0.85:
                script.append(rnd.choice(keys.keys))    # scattered members
            else:
                script.append(rnd.randrange(universe.size))  # arbitrary keys

        for step, q in enumerate(script):
            st = ws.query_stats(q)
            answer, probed = st.answer, st.layers_probed
            assert answer == oracle_predecessor(keys, q)
            distinct = tracker.observe(answer)
            if answer is not None and probed >= 2 and distinct is not None:
                assert distinct >= 2 ** (2 ** (probed - 1)), (step, q, probed, distinct)
            assert [len(layer) for layer in layer_keys(ws)] == layer_capacities(len(keys)), step
            if step % 500 == 0:
                ws.audit()
        ws.audit()


def test_criterion_6_entropy_units():
    with criterion(6, "entropy unit checks"):
        for k in range(13):
            dist = WeightedDistribution({i: 1.0 for i in range(2 ** k)})
            assert entropy(dist) == pytest.approx(k, abs=1e-9)
        assert entropy(WeightedDistribution({9: 1.0})) == 0.0
        dist = WeightedDistribution({0: 4.0, 1: 2.0, 2: 1.0, 3: 1.0})
        assert entropy(dist) == pytest.approx(1.75, abs=1e-12)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "seeded runs are byte-identical"):
        outs = []
        for name in ("k1.txt", "k2.txt"):
            path = tmp_path / name
            assert main(["gen", "--universe-bits", "16", "--n", "512",
                         "--seed", "9", "--out", str(path)]) == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

        douts = []
        for name in ("d1.tsv", "d2.tsv"):
            path = tmp_path / name
            assert main(["gen", "--dist-kind", "zipf", "--s", "1.3",
                         "--support", str(tmp_path / "k1.txt"),
                         "--out", str(path)]) == EXIT_OK
            douts.append(path.read_bytes())
        assert douts[0] == douts[1]

        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(["bench", "--universe-bits", "16", "--n", "512",
                         "--seed", "9", "--structure", "layered",
                         "--dist-kind", "geometric", "--ratio", "0.5",
                         "--queries", "3000", "--out", str(path)]) == EXIT_OK
            reports.append(json.loads(path.read_text()))
        for r in reports:
            r.pop("wall_ns_per_query")
        assert reports[0] == reports[1]


def test_criterion_8_layered_space_flat():
    with criterion(8, "layered space linear with flat constant"):
        universe = UniverseSpec(16)
        rnd = random.Random(808)
        ratios = []
        for n in (2 ** 8, 2 ** 10, 2 ** 12):
            keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
            dist = WeightedDistribution({k: 1.0 for k in keys})
            structure = LayeredStructure(keys, dist, universe)
            assert sum(map(len, layer_keys(structure))) == n  # one membership per key across layers
            merged = sorted(k for layer in layer_keys(structure) for k in layer)
            assert merged == list(keys)
            ratios.append(structure.table_entries() / n)
        for a, b in zip(ratios, ratios[1:]):
            assert max(a, b) / min(a, b) <= 1.5, ratios
