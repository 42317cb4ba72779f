"""Exact mechanism figures of all six structures, pinned against ``mechanisms.json``.

Wall-clock figures cannot tell a 10% change from host noise, but how many
layers a cascade probes, how many levels a trie search probes, how often a
front table hits and how many y-fast inserts and deletes a working-set
promotion makes are exact: they change only when code changes them.  So a
change that claims the same mechanism shows it here as an unchanged file, and
a change that alters one shows the diff.  Regenerate the file with

    PYTHONPATH=src python tests/test_mechanisms.py

Every input is drawn from ``random.Random(seed).random()``, the one draw whose
sequence CPython promises to keep across versions, and weights are plain
Python floats, so neither the Python nor the NumPy version can move a figure.
Inputs stay at 2**12 keys or fewer, to keep the run short.  Cascades are read
through public calls only (``test_boundary.py``).
"""

import json
import random
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import pytest

from predsearch import (
    HashFront,
    KeySet,
    LayeredStructure,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    XFastTrie,
    YFastTrie,
    oracle_predecessor,
)

PINNED = Path(__file__).with_name("mechanisms.json")

N_KEYS = 1 << 12            # 4 + 16 + 256 + 3820 keys in a cascade
N_QUERIES = 1 << 13
BITS = 20                   # above bits * bits = 400 keys, so every y-fast last layer has buckets
HOT_POINTS = 64             # the drifting hot set: 90% of queries, one point replaced every 50
HOT_SHARE = 0.9
DRIFT_EVERY = 50


def draw(rnd: random.Random, bits: int) -> int:
    """A uniform bits-bit int from 32-bit pieces; random() * 2**32 is exact."""
    x = 0
    for _ in range(0, bits, 32):
        x = (x << 32) | int(rnd.random() * (1 << 32))
    return x >> (-bits % 32)


def distinct(rnd: random.Random, bits: int, n: int, avoid=()) -> list[int]:
    """n distinct bits-bit ints outside avoid, in draw order."""
    seen = dict.fromkeys(avoid)
    drawn: dict[int, None] = {}
    while len(drawn) < n:
        x = draw(rnd, bits)
        if x not in seen:
            drawn[x] = None
    return list(drawn)


def histogram(values) -> dict[str, int]:
    return {str(k): c for k, c in sorted(Counter(values).items())}


def replay(structure, keys: KeySet, queries, field: str) -> list[int]:
    """structure's query_stats field for each query, each answer checked by the oracle."""
    figures = []
    for q in queries:
        stats = structure.query_stats(q)
        assert stats.answer == oracle_predecessor(keys, q), q
        figures.append(getattr(stats, field))
    return figures


@contextmanager
def counted_updates(counts: Counter):
    """Count every YFastTrie insert and delete call into counts while the block runs."""
    insert, delete = YFastTrie.insert, YFastTrie.delete

    def counted_insert(trie, x):
        counts["inserts"] += 1
        return insert(trie, x)

    def counted_delete(trie, x):
        counts["deletes"] += 1
        return delete(trie, x)

    YFastTrie.insert, YFastTrie.delete = counted_insert, counted_delete
    try:
        yield
    finally:
        YFastTrie.insert, YFastTrie.delete = insert, delete


def replay_promotions(ws, keys: KeySet, queries) -> tuple[list[int], dict]:
    """The layers each query probed, and the y-fast inserts and deletes its promotion made,
    summed by the depth the answer was promoted from (layers probed - 1); each answer is
    checked by the oracle."""
    counts: Counter = Counter()
    by_depth: dict = defaultdict(lambda: Counter(promotions=0, inserts=0, deletes=0))
    probed = []
    with counted_updates(counts):
        for q in queries:
            before = counts.copy()
            stats = ws.query_stats(q)
            assert stats.answer == oracle_predecessor(keys, q), q
            probed.append(stats.layers_probed)
            if stats.answer is not None:
                by_depth[stats.layers_probed - 1].update(counts - before)
                by_depth[stats.layers_probed - 1]["promotions"] += 1
    return probed, {str(depth): dict(c) for depth, c in sorted(by_depth.items())}


def drift_stream(rnd: random.Random, keys: KeySet, bits: int) -> list[int]:
    """90% of queries on a hot set of gap points that drifts one point every 50 queries,
    10% uniform over the universe."""
    hot = distinct(rnd, bits, HOT_POINTS, keys.keys)
    stream = []
    for i in range(N_QUERIES):
        if i and i % DRIFT_EVERY == 0:
            hot[int(rnd.random() * HOT_POINTS)] = distinct(rnd, bits, 1, keys.keys)[0]
        stream.append(hot[int(rnd.random() * HOT_POINTS)] if rnd.random() < HOT_SHARE
                      else draw(rnd, bits))
    return stream


@lru_cache(maxsize=None)
def figures() -> dict:
    """Every pinned figure, computed from seeded inputs."""
    rnd = random.Random(26)
    universe = UniverseSpec(BITS)
    keys = KeySet(sorted(distinct(rnd, BITS, N_KEYS)))
    # zipf(1) over gap points in a random order, so hot ranks land across the universe
    points = distinct(rnd, BITS, N_KEYS, keys.keys)
    weights = [1.0 / (rank + 1) for rank in range(len(points))]
    dist = WeightedDistribution(dict(zip(points, weights)))
    cumulative = list(accumulate(weights))
    zipf = [points[bisect_right(cumulative, rnd.random() * cumulative[-1])]
            for _ in range(N_QUERIES)]
    uniform = [draw(rnd, BITS) for _ in range(N_QUERIES)]
    drift = drift_stream(rnd, keys, BITS)
    universe64 = UniverseSpec(64)
    keys64 = KeySet(sorted(distinct(rnd, 64, N_KEYS)))
    uniform64 = [draw(rnd, 64) for _ in range(N_QUERIES)]

    layered = LayeredStructure(keys, dist, universe)
    ws = WorkingSetLayered(keys, universe)
    xfast = XFastTrie(keys64, universe64)
    yfast = YFastTrie(keys, universe)
    front_a = HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5))
    front_b = HashFront(keys, dist, universe, ThresholdMode.mode_b(0.5))
    built = {"xfast": xfast, "yfast": yfast, "hashfront-a": front_a, "hashfront-b": front_b,
             "layered": layered, "layered-ws": ws}
    table_entries = {name: s.table_entries() for name, s in built.items()}
    hits = replay(front_a, keys, zipf, "table_hit")
    ws_probed, ws_updates = replay_promotions(ws, keys, drift)
    return {
        "layered.layers_probed": histogram(replay(layered, keys, zipf, "layers_probed")),
        "layered-ws.layers_probed": histogram(ws_probed),
        "xfast.level_probes": histogram(replay(xfast, keys64, uniform64, "level_probes")),
        "yfast.level_probes": histogram(replay(yfast, keys, uniform, "level_probes")),
        "hashfront-a.hits": sum(hits),
        "hashfront-a.table_size": front_a.table_size,
        "table_entries": table_entries,
        "layered-ws.table_entries_after_stream": ws.table_entries(),
        "layered-ws.updates_by_promotion_depth": ws_updates,
    }


NAMES = ("layered.layers_probed", "layered-ws.layers_probed", "xfast.level_probes",
         "yfast.level_probes", "hashfront-a.hits", "hashfront-a.table_size", "table_entries",
         "layered-ws.table_entries_after_stream", "layered-ws.updates_by_promotion_depth")


def pinned() -> dict:
    with PINNED.open(encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", NAMES)
def test_figure_is_pinned(name):
    assert figures()[name] == pinned()[name]


def test_every_figure_is_pinned():
    assert list(figures()) == list(pinned()) == list(NAMES)


if __name__ == "__main__":
    PINNED.write_text(json.dumps(figures(), indent=1) + "\n", encoding="utf-8")
