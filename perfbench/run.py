"""Seeded benchmark of the predsearch query path.

One process, one thread, one closed-loop client: each ``predecessor(q)`` is
issued when the previous one returns, straight through the public API.
Inputs are generated from ``--seed`` before any timing starts, and every
answer is checked against ``core.oracle_predecessor`` once timing ends.

    python3 perfbench/run.py --workload zipf-layered --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; the names and units are those listed in
BENCHMARK.json.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The traced run
also writes its spans and per-layer table under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from array import array
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "predsearch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no predsearch sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from predsearch import (  # noqa: E402
    HashFront,
    WorkingSetLayered,
    expected_probe_bound,
    oracle_predecessor,
    output_distribution,
)
from tracing import Recorder, build_metrics, p50, query_metrics  # noqa: E402
from workloads import WORKLOADS, expected_answers, input_properties  # noqa: E402

CHUNK = 256                 # queries between deadline checks; divides the stream length
TRACE_QUERIES = 1 << 16     # most queries the traced run replays (spans stay in memory)
REPEATS = 3                 # repeats of short one-off timings, reported as the median
SETUP_S = 3.0               # least time spent on timed builds; setup_s is their median
BLOCK_S = 0.1               # length of each latency block and each throughput block

pc = time.perf_counter_ns


def deep_size(root) -> int:
    """Bytes of every object reachable from root, each counted once; classes excluded.

    Only objects with more than one referrer can be reached twice, so only
    those are remembered; this keeps the walk over a 64-bit x-fast trie to
    seconds and its memory small.
    """
    holder = [object()]
    stack = gc.get_referents(holder)
    o = stack.pop()
    single = sys.getrefcount(o)  # what the loop below sees for an object with one referrer
    getrefcount, getsizeof, referents = sys.getrefcount, sys.getsizeof, gc.get_referents
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        o = stack.pop()
        if getrefcount(o) > single:
            if id(o) in seen:
                continue
            seen.add(id(o))
        if isinstance(o, type):
            continue
        total += getsizeof(o)
        stack.extend(referents(o))
    return total


class Passes:
    """Timed loops over the pre-generated stream, cut into CHUNK-sized pieces.

    Each throughput batch of the structure is followed by a batch of the
    floor, ``core.oracle_predecessor`` (bisect on the key tuple), on the same
    queries.  On a shared virtual machine the host's speed can change by up
    to 2x within seconds; the pair sees the same speed, so a figure set
    against the floor stays comparable between runs.  Each loop keeps (chunk
    index, answers) so every answer can be checked against the oracle after
    timing ends.  The collector is off while timing, as in ``timeit``.
    """

    def __init__(self, keys, stream: list[int], expected: list):
        self.floor = partial(oracle_predecessor, keys)
        self.chunks = [stream[i:i + CHUNK] for i in range(0, len(stream), CHUNK)]
        self.expected = [expected[i:i + CHUNK] for i in range(0, len(expected), CHUNK)]
        self.answered: list[tuple[int, list]] = []

    def _timed_chunk(self, fn, ci: int, lat: array) -> list:
        got = []
        for q in self.chunks[ci]:
            t0 = pc()
            a = fn(q)
            t1 = pc()
            lat.append(t1 - t0)
            got.append(a)
        return got

    def latency(self, fn, budget_s: float, max_queries: int, answer=None) -> array:
        """Per-call ns of fn(q) from the stream's start, until the budget or max_queries is spent.

        ``answer`` maps what fn returned to the answer, after timing.
        """
        lat = array("q")
        deadline = pc() + int(budget_s * 1e9)
        ci = 0
        gc.disable()
        try:
            while pc() < deadline and len(lat) < max_queries:
                got = self._timed_chunk(fn, ci, lat)
                self.answered.append((ci, list(map(answer, got)) if answer else got))
                ci = (ci + 1) % len(self.chunks)
        finally:
            gc.enable()
        return lat

    def alternate(self, timed_fn, batch_fn, seconds: float) -> dict[str, array]:
        """Alternate blocks of per-call timing of timed_fn with untimed-per-call batches of batch_fn.

        Each function follows the stream from its start on its own.  Both
        sample the whole run, so a change of machine speed during the run
        reaches the latency and the throughput figure alike.  Returns per-call
        ns ("lat") and ns per CHUNK-query batch of batch_fn ("batch") and of
        the floor on the same chunk ("floor_batch").
        """
        out = {name: array("q") for name in ("lat", "batch", "floor_batch")}
        lat, batch_ns, floor_batch_ns = out["lat"], out["batch"], out["floor_batch"]
        chunks, answered, nchunks, floor = self.chunks, self.answered, len(self.chunks), self.floor
        block = int(BLOCK_S * 1e9)
        li = bi = 0
        gc.disable()
        try:
            deadline = pc() + int(seconds * 1e9)
            while pc() < deadline:
                block_end = pc() + block
                while pc() < block_end:
                    answered.append((li, self._timed_chunk(timed_fn, li, lat)))
                    li = (li + 1) % nchunks
                block_end = pc() + block
                while pc() < block_end:
                    t0 = pc()
                    got = list(map(batch_fn, chunks[bi]))
                    t1 = pc()
                    list(map(floor, chunks[bi]))
                    t2 = pc()
                    batch_ns.append(t1 - t0)
                    floor_batch_ns.append(t2 - t1)
                    answered.append((bi, got))
                    bi = (bi + 1) % nchunks
        finally:
            gc.enable()
        return out

    def floor_ns_p50(self, count: int) -> float:
        """Median ns of one floor call over the first count queries of the stream."""
        lat = array("q")
        gc.disable()
        try:
            for ci in range(count // CHUNK):
                self._timed_chunk(self.floor, ci, lat)
        finally:
            gc.enable()
        return p50(lat)

    def mismatches(self) -> tuple[int, int]:
        """(answers checked, answers that differ from the oracle)."""
        checked = bad = 0
        for ci, got in self.answered:
            want = self.expected[ci]
            checked += len(got)
            if got != want:
                bad += sum(g != w for g, w in zip(got, want))
        return checked, bad


def timed_call(fn, *args) -> tuple[object, float]:
    t0 = pc()
    out = fn(*args)
    return out, (pc() - t0) / 1e9


def timer_ns_p50(count: int = 1 << 16) -> float:
    """Median ns of one timed empty call, measured the way queries are timed."""
    noop = lambda q: None  # noqa: E731
    lat = array("q")
    for q in range(count):
        t0 = pc()
        noop(q)
        t1 = pc()
        lat.append(t1 - t0)
    return p50(lat)


def level_probes_mean(structure, queries: list[int]) -> float:
    """Prefix-table probes per query, summed over every trie the query searched.

    Uses only the public ``query_stats``: for a cascade, each layer's probes
    are taken before the query (a self-adjusting cascade changes on query) and
    summed over the layers the query reached.
    """
    layers = getattr(structure, "layers", None)
    total = 0
    for q in queries:
        if layers is None:
            total += structure.query_stats(q).level_probes
        else:
            per_layer = [layer.query_stats(q).level_probes for layer in layers]
            total += sum(per_layer[:structure.query_stats(q).layers_probed])
    return total / len(queries)


def hashfront_metrics(structure, inputs) -> dict[str, float]:
    if not isinstance(structure, HashFront):
        return {"hashfront.table_size": 0.0, "hashfront.table_capacity": 0.0,
                "hashfront.hit_mass": 0.0}
    bits = inputs.universe.bits
    return {
        "hashfront.table_size": float(structure.table_size),
        "hashfront.table_capacity": structure.mode.table_capacity(bits),
        "hashfront.hit_mass": expected_probe_bound(inputs.dist, inputs.universe, structure.mode).hit_mass,
    }


def set_up(workload, inputs) -> tuple[object, float]:
    """Build until SETUP_S has passed (at least three times); the last build and the median time."""
    times: list[float] = []
    structure = None
    while len(times) < 3 or sum(times) < SETUP_S:
        structure = None
        gc.collect()
        structure, t = timed_call(workload.build, inputs)
        times.append(t)
    return structure, statistics.median(times)


def run_end_to_end(workload, inputs, passes: Passes, seconds: float, report: dict) -> list[str]:
    structure, report["setup_s"] = set_up(workload, inputs)
    report["mem_bytes_per_key"] = deep_size(structure) / len(inputs.keys)
    # a self-adjusting structure gets a second fresh build for the throughput batches
    batch_structure = workload.build(inputs) if workload.mutates else structure
    t = passes.alternate(structure.predecessor, batch_structure.predecessor, seconds)
    floor_ns = sum(t["floor_batch"]) / (CHUNK * len(t["floor_batch"]))  # mean ns per floor query
    lat_p50, lat_p99 = p50(t["lat"]), float(np.percentile(t["lat"], 99))
    report.update({
        "query_ns_p50": lat_p50,
        "query_ns_p99": lat_p99,
        "throughput_qps": CHUNK * len(t["batch"]) / (sum(t["batch"]) / 1e9),
        "floor_ns_mean": floor_ns,
        "query_p50_floor_ratio": lat_p50 / floor_ns,
        "query_p99_floor_ratio": lat_p99 / floor_ns,
        "throughput_floor_ratio": sum(t["floor_batch"]) / sum(t["batch"]),
        "samples": len(t["lat"]),
    })
    problems = workload.check(structure, inputs)
    if workload.mutates:
        problems += workload.check(batch_structure, inputs)
    return problems


def run_traced(workload, inputs, passes: Passes, seconds: float, report: dict) -> list[str]:
    report.update(input_properties(inputs))
    report["core.output_distribution_s"] = statistics.median(
        timed_call(output_distribution, inputs.keys, inputs.dist)[1] for _ in range(REPEATS))
    report["bench.timer_ns"] = timer_ns_p50()
    built = []

    def build_for_pass():
        """The shared build, or a fresh one per pass when queries change the structure."""
        if workload.mutates or not built:
            built.clear()
            gc.collect()
            built.append(workload.build(inputs))
        return built[0]

    # untraced reference pass; the instrumented and traced passes replay its queries,
    # so this one gets a quarter of the run
    lat = passes.latency(build_for_pass().predecessor, seconds / 4, TRACE_QUERIES)
    count = len(lat)
    queries = inputs.stream[:count]
    untraced_p50 = p50(lat)
    report["core.query_ns_p50"] = untraced_p50
    report["core.oracle_ns_p50"] = passes.floor_ns_p50(count)
    stats_lat = passes.latency(build_for_pass().query_stats, seconds, count,
                               answer=lambda st: st.answer)
    report["core.query_stats_overhead_ns"] = p50(stats_lat) - untraced_p50
    report["xfast.level_probes_mean"] = level_probes_mean(build_for_pass(), queries)
    built.clear()
    gc.collect()

    rec = Recorder()
    with rec.installed():
        rec.built_xfast = []
        structure = rec.call("build", workload.build, inputs)
        entries = sum(t.table_entries() for t in rec.built_xfast)
        rec.built_xfast = None
        layers = getattr(structure, "layers", [])
        rec.layer_of.update((id(layer), f"L{j}") for j, layer in enumerate(layers))
        first = len(rec.spans)
        pred = structure.predecessor
        gc.disable()
        try:
            answers = [rec.call("query", pred, q) for q in queries]
        finally:
            gc.enable()
    for ci in range(count // CHUNK):
        passes.answered.append((ci, answers[ci * CHUNK:(ci + 1) * CHUNK]))

    split = build_metrics(rec.spans[:first])
    report["xfast.entries_per_key"] = entries / len(inputs.keys)
    report.update({k: split[k] for k in ("xfast.build_calls", "xfast.build_s", "yfast.build_s")})
    report["hashfront.table_build_s"] = split["build.self_s"] if isinstance(structure, HashFront) else 0.0
    m = query_metrics(rec.spans, first, len(layers), isinstance(structure, WorkingSetLayered))
    report["trace.overhead_share"] = m.pop("traced_query_ns_p50") / untraced_p50 - 1.0
    report.update(m)
    report.update(hashfront_metrics(structure, inputs))
    report["samples"] = count
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(str(OUT_DIR / f"{report['workload']}.spans.jsonl"))
    return workload.check(structure, inputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    inputs, gen_s = timed_call(workload.make_inputs, args.seed)
    passes = Passes(inputs.keys, inputs.stream, expected_answers(inputs))
    report: dict = {"workload": args.workload, "workload.gen_s": gen_s}

    run = run_traced if args.trace else run_end_to_end
    problems = run(workload, inputs, passes, args.seconds, report)
    attempted, bad = passes.mismatches()
    failed = bad + len(problems)

    print(f"workload {args.workload}, seed {args.seed}: {len(inputs.keys)} keys, "
          f"{inputs.universe.bits}-bit universe, {len(inputs.stream)}-query stream, "
          f"{report['samples']} timed samples")
    for problem in problems[:10]:
        print(f"bound violated: {problem}")
    print(f"failed_share {failed / attempted!r} share ({failed} of {attempted} failed)")
    if not args.trace:
        for name, unit in (("floor_ns_mean", "ns"), ("query_ns_p50", "ns"),
                           ("query_ns_p99", "ns"), ("throughput_qps", "1/s")):
            print(f"{name} {report[name]!r} {unit} (raw, moves with the host's speed)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": report[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {report[m['name']]!r} {m['unit']}")
    if args.trace:
        table = "".join(f"{k}\t{v['value']!r}\t{v['unit']}\n" for k, v in metrics.items())
        (OUT_DIR / f"{args.workload}.layers.tsv").write_text(table, encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
