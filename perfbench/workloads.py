"""Seeded inputs and structure factories for the four benchmark workloads.

Every input is a pure function of the seed: keys and zipf/uniform query
distributions come from ``predsearch.workload``, the drifting hot-set stream
from this module's own generator.  The benchmark generates them before any
timed pass starts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from predsearch import (
    HashFront,
    KeySet,
    LayeredStructure,
    PredecessorStructure,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    WorkloadSpec,
    XFastTrie,
    generate_distribution,
    oracle_predecessor,
    output_distribution,
    sample_keys,
    sample_queries,
)
from predsearch.workload import rng_for

N_KEYS = 1 << 16
N_POINTS = 1 << 16          # support size of the zipf and uniform query distributions
STREAM_LEN = 1 << 17        # queries generated per run; timed passes cycle over them

# sub-streams of the seed; 0 and 1 are taken by predsearch.workload (keys, queries)
STREAM_POINTS = 2
STREAM_ORDER = 3
STREAM_DRIFT = 4

HOT_POINTS = 64             # larger than layers 0-1 (4 + 16 keys), smaller than layer 2 (256)
HOT_SHARE = 0.9
DRIFT_EVERY = 50            # one hot point is replaced every this many queries

HASHFRONT_EPSILON = 0.5


@dataclass
class Inputs:
    universe: UniverseSpec
    keys: KeySet
    dist: WeightedDistribution   # query distribution (empirical for the drift stream)
    stream: list[int]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Inputs]
    build: Callable[[Inputs], PredecessorStructure]
    mutates: bool        # queries change the structure, so each pass needs a fresh build
    check: Callable[[PredecessorStructure, Inputs], list[str]]  # the paper's bounds


def _points(universe: UniverseSpec, seed: int) -> tuple[int, ...]:
    """Query support drawn independently of the keys, so queries fall in gaps."""
    return sample_keys(universe, N_POINTS, seed, stream=STREAM_POINTS).keys


def zipf_inputs(seed: int) -> Inputs:
    universe = UniverseSpec(32)
    keys = sample_keys(universe, N_KEYS, seed)
    points = _points(universe, seed)
    order = rng_for(seed, STREAM_ORDER).permutation(len(points)).tolist()
    # hot ranks land at seeded random places across the universe
    spec = WorkloadSpec(kind="zipf", support=tuple(points[i] for i in order), s=1.0)
    dist = generate_distribution(spec)
    return Inputs(universe, keys, dist, sample_queries(dist, seed, STREAM_LEN))


def uniform64_inputs(seed: int) -> Inputs:
    universe = UniverseSpec(64)
    keys = sample_keys(universe, N_KEYS, seed)
    dist = generate_distribution(WorkloadSpec(kind="uniform", support=_points(universe, seed)))
    return Inputs(universe, keys, dist, sample_queries(dist, seed, STREAM_LEN))


def drift_inputs(seed: int) -> Inputs:
    """90% of queries hit a 64-point hot set of gap points that drifts; 10% are uniform."""
    universe = UniverseSpec(32)
    keys = sample_keys(universe, N_KEYS, seed)
    rng = rng_for(seed, STREAM_DRIFT)
    high = universe.size

    def gap_point() -> int:
        while True:
            x = int(rng.integers(keys[0] + 1, high))
            if x not in keys:
                return x

    hot = [gap_point() for _ in range(HOT_POINTS)]
    pick_hot = (rng.random(STREAM_LEN) < HOT_SHARE).tolist()
    slot = rng.integers(0, HOT_POINTS, size=STREAM_LEN).tolist()
    uniform = rng.integers(0, high, size=STREAM_LEN, dtype="uint64").tolist()
    stream = []
    for i in range(STREAM_LEN):
        if i and i % DRIFT_EVERY == 0:
            hot[int(rng.integers(0, HOT_POINTS))] = gap_point()
        stream.append(hot[slot[i]] if pick_hot[i] else uniform[i])
    dist = WeightedDistribution(Counter(stream))
    return Inputs(universe, keys, dist, stream)


def check_layer_bound(structure: LayeredStructure, inputs: Inputs) -> list[str]:
    """An answer found at layer j >= 2 has output probability at most 2^-2^(j-1)."""
    p_star = structure.output.p_star
    problems = []
    for q in sorted(set(inputs.stream)):
        st = structure.query_stats(q)
        j = st.layers_probed
        if st.answer is not None and j >= 2 and p_star(st.answer) > 2.0 ** -(2 ** (j - 1)):
            problems.append(f"q={q}: answer {st.answer} at layer {j} has p*={p_star(st.answer)}")
    return problems


def check_table_capacity(structure: HashFront, inputs: Inputs) -> list[str]:
    capacity = structure.mode.table_capacity(inputs.universe.bits)
    if structure.table_size > capacity:
        return [f"front table holds {structure.table_size} entries, capacity {capacity}"]
    return []


def check_audit(structure: WorkingSetLayered, inputs: Inputs) -> list[str]:
    try:
        structure.audit()
    except AssertionError as exc:
        return [f"audit: {exc}"]
    return []


WORKLOADS: dict[str, Workload] = {
    "zipf-layered": Workload(
        zipf_inputs, lambda i: LayeredStructure(i.keys, i.dist, i.universe),
        mutates=False, check=check_layer_bound),
    "zipf-hashfront": Workload(
        zipf_inputs,
        lambda i: HashFront(i.keys, i.dist, i.universe, ThresholdMode.mode_a(HASHFRONT_EPSILON)),
        mutates=False, check=check_table_capacity),
    "drift-ws": Workload(
        drift_inputs, lambda i: WorkingSetLayered(i.keys, i.universe),
        mutates=True, check=check_audit),
    "uniform-xfast": Workload(
        uniform64_inputs, lambda i: XFastTrie(i.keys, i.universe),
        mutates=False, check=lambda s, i: []),
}


def expected_answers(inputs: Inputs) -> list[Optional[int]]:
    keys = inputs.keys
    return [oracle_predecessor(keys, q) for q in inputs.stream]


def input_properties(inputs: Inputs) -> dict[str, float]:
    """Properties of the stream a later change may be sensitive to; fixed per seed."""
    keys, stream = inputs.keys, inputs.stream
    stored = set(keys.keys)
    lowest = keys[0]
    answers = {oracle_predecessor(keys, q) for q in set(stream)}
    return {
        "workload.stored_share": sum(q in stored for q in stream) / len(stream),
        "workload.below_min_share": sum(q < lowest for q in stream) / len(stream),
        "workload.output_entropy_bits": output_distribution(keys, inputs.dist).entropy_bits(),
        "workload.distinct_answers": len(answers - {None}),
    }
