"""Paired A/B of a base revision's predsearch against the working tree's, in one process.

    python3 tools/ab.py --base HEAD~1 --rounds 10 --builds 10

``git archive REV src/predsearch`` is unpacked into a temporary directory.
Each tree's package is imported under the name ``predsearch`` with that tree
first on ``sys.path``, and ``perfbench/workloads.py`` is loaded once per tree
while it is, so each copy of the workloads builds its own tree's classes; the
package's imports are relative, so each copy keeps its own modules once the
names are released again.  Both sides then run in one process, see the same
host speed and build from one set of inputs, each through its own tree's
classes (see ``compare``):

* queries: each round builds both sides fresh, in alternating order, and
  walks the workload's whole stream in blocks of BLOCK queries, timing base
  and change on each block in alternating order (a self-adjusting structure
  so runs the stream in lockstep on both sides); every answer is checked
  against the oracle.  Each side's block is followed by a block of the floor,
  ``core.oracle_predecessor`` (bisect on the key tuple) over the same
  queries, as ``perfbench/run.py`` follows each batch with a floor batch, so
  each side also reads a floor ratio, its block time over its floor block's,
  and its median floor block time in ns: a change that warms the key tuple
  the floor bisects (by reading it itself, say) shows up as a moved floor,
  not as a slower structure;
* builds: single builds, base and change alternating in order, each after a
  ``gc.collect()`` as ``perfbench/run.py`` times ``setup_s``.

A ratio is change / base, so below 1 means the change is faster.  Prints one
JSON object: per workload the median ratio, how many blocks (or builds) the
change won, the quartiles of the ratios, and each round's ratio; for
queries also each side's median floor ratio, a batch time over the floor's
as perfbench's ``throughput_floor_ratio`` takes it, inverted so that lower
is faster like its two query ratios, next to each side's median floor block
ns (``base_floor_ns``, ``change_floor_ns``).  Next to the settings it
records both revisions (``base``; ``change``, the working tree's ``HEAD``,
with ``dirty`` true when its ``src/predsearch`` or ``perfbench`` differs from
that commit) and the Python and NumPy versions.  Run it with
``--base HEAD`` on a clean tree first: an A/A run reads about 1.0 with about
half of the blocks won.  Exits 1 if an answer differs from the oracle (after
printing) or if the run cannot start, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
BLOCK = 1024

pc = time.perf_counter_ns


def is_package_module(name: str) -> bool:
    return name == "predsearch" or name.startswith("predsearch.")


def load_workloads(src: Path, tag: str):
    """perfbench/workloads.py bound to the predsearch package under src."""
    saved = {k: sys.modules.pop(k) for k in [k for k in sys.modules if is_package_module(k)]}
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("predsearch")
        spec = importlib.util.spec_from_file_location(f"_ab_workloads_{tag}", WORKLOADS_PY)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        for k in [k for k in sys.modules if is_package_module(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    return module


def git(*argv: str) -> str:
    """The stripped stdout of a git command run in the repository."""
    return subprocess.run(["git", "-C", str(ROOT), *argv],
                          capture_output=True, text=True, check=True).stdout.strip()


def unpack(rev: str, into: Path) -> Path:
    """The src directory of rev's predsearch package, unpacked under into."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/predsearch"],
                          capture_output=True)
    if proc.returncode:
        sys.exit(f"ab: git archive {rev}: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout), mode="r:") as archive:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **kwargs)
    return into / "src"


def summary(ratios: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {"median_ratio": median, "won": sum(r < 1 for r in ratios), "of": len(ratios),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def order(i: int) -> tuple[int, int]:
    """Which side runs first in the i-th pair: base (0) on even i, change (1) on odd."""
    return (0, 1) if i % 2 == 0 else (1, 0)


def query_rounds(builds, stream: list, expected: list, floor, rounds: int
                 ) -> tuple[list[float], list[list[float]], list[list[int]], list[float], int]:
    """(per-block ratios, [base, change] per-block floor ratios, [base, change] per-block
    floor ns, per-round ratios, wrong answers) over rounds passes of the stream; floor runs
    a block after each side's."""
    blocks = [(i, stream[i:i + BLOCK]) for i in range(0, len(stream), BLOCK)]
    block_ratios, round_ratios, wrong = [], [], 0
    floor_ratios: list[list[float]] = [[], []]
    floor_ns: list[list[int]] = [[], []]
    calls: list = [None, None]
    for r in range(rounds):
        calls[:] = [None, None]  # the last round's builds are freed before these are made
        for s in order(r):
            gc.collect()
            calls[s] = builds[s]().predecessor
        totals = [0, 0]
        gc.disable()
        try:
            for b, (start, block) in enumerate(blocks):
                ns = [0, 0]
                for s in order(r + b):
                    t0 = pc()
                    got = list(map(calls[s], block))
                    t1 = pc()
                    list(map(floor, block))
                    ns[s] = t1 - t0
                    floor_ns[s].append(pc() - t1)
                    floor_ratios[s].append(ns[s] / floor_ns[s][-1])
                    want = expected[start:start + BLOCK]
                    if got != want:
                        wrong += sum(g != w for g, w in zip(got, want))
                block_ratios.append(ns[1] / ns[0])
                totals[0] += ns[0]
                totals[1] += ns[1]
        finally:
            gc.enable()
        round_ratios.append(totals[1] / totals[0])
    return block_ratios, floor_ratios, floor_ns, round_ratios, wrong


def build_pairs(builds, pairs: int) -> tuple[list[float], list[list[float]]]:
    """(per-pair ratios, [base seconds, change seconds]) of alternating single builds."""
    seconds: list[list[float]] = [[], []]
    for p in range(pairs):
        for s in order(p):
            gc.collect()
            t0 = pc()
            built = builds[s]()
            t1 = pc()
            seconds[s].append((t1 - t0) / 1e9)
            del built  # freed outside the timed span
    return [c / b for b, c in zip(*seconds)], seconds


def own_inputs(module, inputs):
    """inputs rebuilt from module's own classes: its tree's universe, a key set over the
    same key tuple, a distribution over the same (key, weight) pairs, and the same stream
    list, so that no tree's code reads another tree's objects."""
    return module.Inputs(module.UniverseSpec(inputs.universe.bits), module.KeySet(inputs.keys.keys),
                         module.WeightedDistribution(dict(inputs.dist.items())), inputs.stream)


def compare(name: str, modules, seed: int, rounds: int, pairs: int) -> tuple[dict, int]:
    """One workload's report and its count of wrong answers.

    The working tree generates the inputs once, and each side builds from
    ``own_inputs`` over them.  Both sides share the key ints and the stream,
    since in an A/A run two equal but separate input sets read 1-2% apart
    from where their objects sit in memory alone; each side's code meets only
    its own tree's objects, so a base needs no more than the constructors
    ``UniverseSpec(bits)``, ``KeySet(keys)`` and ``WeightedDistribution(weights)``
    and the workload's ``build``, which every revision with a perfbench has.
    """
    inputs = modules[1].WORKLOADS[name].make_inputs(seed)
    builds = [partial(m.WORKLOADS[name].build, own_inputs(m, inputs)) for m in modules]
    expected = modules[1].expected_answers(inputs)
    report: dict = {}
    wrong = 0
    if rounds:
        floor = partial(modules[1].oracle_predecessor, inputs.keys)
        block_ratios, floor_ratios, floor_ns, round_ratios, wrong = query_rounds(
            builds, inputs.stream, expected, floor, rounds)
        report["query"] = {**summary(block_ratios),
                           "base_floor_ratio": statistics.median(floor_ratios[0]),
                           "change_floor_ratio": statistics.median(floor_ratios[1]),
                           "base_floor_ns": statistics.median(floor_ns[0]),
                           "change_floor_ns": statistics.median(floor_ns[1]),
                           "rounds_won": sum(r < 1 for r in round_ratios),
                           "round_ratios": round_ratios, "wrong_answers": wrong}
    if pairs:
        ratios, seconds = build_pairs(builds, pairs)
        report["build"] = {**summary(ratios), "base_s": statistics.median(seconds[0]),
                           "change_s": statistics.median(seconds[1])}
    return report, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", action="append",
                        help="a perfbench workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=10, help="passes over each query stream")
    parser.add_argument("--builds", type=int, default=10, help="alternating build pairs")
    args = parser.parse_args(argv)
    if args.rounds < 0 or args.builds < 0:
        parser.error("--rounds and --builds must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        modules = (load_workloads(unpack(args.base, Path(tmp)), "base"),
                   load_workloads(ROOT / "src", "change"))
        names = args.workload or sorted(modules[1].WORKLOADS)
        unknown = sorted(set(names) - set(modules[1].WORKLOADS))
        if unknown:
            parser.error(f"unknown workload {unknown[0]!r}; "
                         f"choose from {sorted(modules[1].WORKLOADS)}")
        results, wrong = {}, 0
        for name in names:
            print(f"ab: {name}", file=sys.stderr, flush=True)
            results[name], w = compare(name, modules, args.seed, args.rounds, args.builds)
            wrong += w
    print(json.dumps({"base": git("rev-parse", "--short", args.base),
                      "change": git("rev-parse", "--short", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--", "src/predsearch", "perfbench")),
                      "seed": args.seed, "block": BLOCK, "rounds": args.rounds,
                      "builds": args.builds, "python": sys.version.split()[0],
                      "numpy": numpy.__version__, "workloads": results}, indent=1))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
