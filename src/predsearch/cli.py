"""Command-line harness: generate workloads, benchmark structures, verify answers.

Subcommands:

* ``gen``     writes a keys file (sorted decimal, one per line) or a weights
              file (``key<TAB>weight`` per line) for a chosen workload kind;
* ``bench``   builds a structure, times a plain ``predecessor`` pass over a
              query stream, collects per-query stats in a second, untimed
              pass, checks every answer against the brute-force oracle,
              audits the structure and emits a report (JSON or CSV);
* ``verify``  sweeps every universe key (16-bit universes at most) or replays
              a query file, exiting nonzero on the first mismatch, then
              audits the structure.

``bench`` and ``verify`` take what differs between structures from the
structure, never from its name.  Where a structure declares ``mutates`` (its
queries change it), ``bench`` takes the stats on a fresh build and ``verify``
also audits after each scripted access.  The report's ``table_size`` is the
one the structure declares, and its hit rate and layer figures come from the
queries that probed a front table or counted layers.

Exit codes: 0 success, 1 usage or parameter problem, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from typing import Iterator, Optional, Sequence

from .core import (
    KeySet,
    ParameterError,
    UniverseSpec,
    WeightedDistribution,
    check_sorted,
    entropy,
    oracle_predecessor,
    output_distribution,
)
from .hashfront import HashFront, ThresholdMode
from .layered import LayeredStructure, WorkingSetLayered
from .workload import (
    KINDS,
    RNG_NAME,
    WorkloadSpec,
    generate_distribution,
    sample_keys,
    sample_queries,
)
from .xfast import XFastTrie
from .yfast import YFastTrie

STRUCTURES = ("xfast", "yfast", "hashfront-a", "hashfront-b", "layered", "layered-ws")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; the contract wants 1."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# file formats


def _is_decimal(text: str) -> bool:
    """ASCII digits only: str.isdigit() also accepts characters such as '²' that int() rejects."""
    return text.isascii() and text.isdigit()


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for each non-blank line of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def _decimal_lines(path: str) -> Iterator[tuple[int, int]]:
    """(line number, key) for each non-blank line of a file of unsigned decimal keys."""
    for lineno, line in _lines(path):
        text = line.strip()
        if not _is_decimal(text):
            raise ParameterError(f"{path}:{lineno}: not an unsigned decimal key: {text!r}")
        yield lineno, int(text)


def read_keys(path: str) -> KeySet:
    keys: list[int] = []
    for lineno, k in _decimal_lines(path):
        if keys and k <= keys[-1]:
            raise ParameterError(f"{path}:{lineno}: keys must be sorted ascending without duplicates")
        keys.append(k)
    if not keys:
        raise ParameterError(f"{path}: no keys")
    return KeySet(keys)


def write_keys(path: str, keys: KeySet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in keys:
            fh.write(f"{k}\n")


def read_weights(path: str) -> WeightedDistribution:
    weights: dict[int, float] = {}
    for lineno, text in _lines(path):
        parts = text.split("\t")
        if len(parts) != 2 or not _is_decimal(parts[0]):
            raise ParameterError(f"{path}:{lineno}: expected 'key<TAB>weight', got {text!r}")
        key = int(parts[0])
        try:
            w = float(parts[1])
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: bad weight {parts[1]!r}") from None
        if not math.isfinite(w) or w < 0.0:
            raise ParameterError(f"{path}:{lineno}: weight must be finite and >= 0")
        if key in weights:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key}")
        weights[key] = w
    if not weights:
        raise ParameterError(f"{path}: no weights")
    return WeightedDistribution(weights)


def write_weights(path: str, dist: WeightedDistribution) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, w in dist.items():
            fh.write(f"{key}\t{w!r}\n")


def read_queries(path: str, universe: UniverseSpec) -> list[int]:
    """The file's queries, each checked against the universe as it is read."""
    return [universe.check_key(q) for _, q in _decimal_lines(path)]


# instance assembly


def _shape_params(source: str, ratio: Optional[float], s: Optional[float]) -> tuple[float, float]:
    """--ratio and --s with their defaults applied, once each is known to shape the weights
    that source (a distribution kind, or a description of the file read) gives."""
    if ratio is not None and source != "geometric":
        raise ParameterError(f"--ratio applies only to --dist-kind geometric, not {source}")
    if s is not None and source != "zipf":
        raise ParameterError(f"--s applies only to --dist-kind zipf, not {source}")
    return (0.5 if ratio is None else ratio), (1.0 if s is None else s)


def _resolve_seed(args, queries: Optional[str]) -> None:
    """Default --seed to 0 when keys or queries are drawn from it; reject it when neither is.

    queries names where the queries come from when they are not drawn, or is
    None when they are sampled from the seed.
    """
    drawn = not args.keys or queries is None  # without --keys, --n draws them (or a later error)
    if args.seed is None:
        if drawn:
            args.seed = 0
    elif not drawn:
        raise ParameterError(f"--seed applies only to drawn keys or queries, not --keys FILE "
                             f"with {queries}")


def _load_instance(args) -> tuple[UniverseSpec, KeySet, WeightedDistribution, str, Optional[float]]:
    universe = UniverseSpec(args.universe_bits)
    if args.keys and args.n is not None:
        raise ParameterError("give either --keys FILE or --n COUNT, not both")
    if args.keys:
        keys = read_keys(args.keys)
    elif args.n is not None:
        keys = sample_keys(universe, args.n, args.seed)
    else:
        raise ParameterError("provide --keys FILE or --n COUNT")
    universe.check_key(keys.keys[-1])
    if args.dist and args.dist_kind:
        raise ParameterError("give either --dist FILE or --dist-kind KIND, not both")
    if args.dist:
        _shape_params("--dist FILE", args.ratio, args.s)
        dist = read_weights(args.dist)
        dist_kind: str = "file"
        dist_param: Optional[float] = None
    else:
        kind = args.dist_kind or "uniform"
        ratio, s = _shape_params(kind, args.ratio, args.s)
        dist = generate_distribution(WorkloadSpec(kind=kind, support=keys.keys, ratio=ratio, s=s))
        dist_kind = kind
        dist_param = {"geometric": ratio, "zipf": s}.get(kind)
    check_sorted(dist.support, universe)
    return universe, keys, dist, dist_kind, dist_param


def build_structure(name: str, keys: KeySet, dist: WeightedDistribution,
                    universe: UniverseSpec, epsilon: Optional[float]):
    if name in ("hashfront-a", "hashfront-b"):
        if epsilon is None:
            raise ParameterError("--epsilon is required for hash-front structures")
        mode = ThresholdMode.mode_a(epsilon) if name.endswith("a") else ThresholdMode.mode_b(epsilon)
        return HashFront(keys, dist, universe, mode)
    if epsilon is not None:
        raise ParameterError(f"--epsilon applies only to hash-front structures, not {name}")
    if name == "xfast":
        return XFastTrie(keys, universe)
    if name == "yfast":
        return YFastTrie(keys, universe)
    if name == "layered":
        return LayeredStructure(keys, dist, universe)
    if name == "layered-ws":
        return WorkingSetLayered(keys, universe)
    raise ParameterError(f"unknown structure {name!r}")


# subcommands


def cmd_gen(args) -> int:
    if args.dist_kind:
        for flag, value in (("--n", args.n), ("--universe-bits", args.universe_bits),
                            ("--seed", args.seed)):
            if value is not None:
                raise ParameterError(f"{flag} applies only to a keys file, not --dist-kind "
                                     f"{args.dist_kind}")
        ratio, s = _shape_params(args.dist_kind, args.ratio, args.s)
        if not args.support:
            raise ParameterError("gen --dist-kind needs --support KEYS_FILE")
        support = read_keys(args.support)
        spec = WorkloadSpec(kind=args.dist_kind, support=support.keys, ratio=ratio, s=s)
        write_weights(args.out, generate_distribution(spec))
    else:
        if args.support:
            raise ParameterError("--support applies only to --dist-kind, not a keys file")
        _shape_params("a keys file", args.ratio, args.s)
        if args.universe_bits is None or args.n is None:
            raise ParameterError("gen needs either --dist-kind or both --universe-bits and --n")
        universe = UniverseSpec(args.universe_bits)
        write_keys(args.out, sample_keys(universe, args.n, args.seed or 0))
    return EXIT_OK


def _emit_report(report: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report)
        writer.writerow(report.values())  # None writes as an empty field
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _audit_after(structure, dist: WeightedDistribution, after: str = "run") -> bool:
    """Audit the structure after the run, or after one access (q=...); print the failure, if any.

    Every structure takes the same call, ``audit(dist)``, with dist the distribution
    it was built from: the structures built from it (the hash-fronts, the static
    cascade) check what they took from it, the others ignore it.  So no audit is
    chosen here by structure name.
    """
    try:
        structure.audit(dist)
    except AssertionError as exc:
        print(f"structural invariant failed after {after}: {exc}", file=sys.stderr)
        return False
    return True


def _report_mismatch(prefix: str, args, n: int, q: int, expected, got, note: str = "") -> int:
    """Print the reproducer of a wrong answer; return the mismatch exit code."""
    print(f"{prefix}: structure={args.structure} universe_bits={args.universe_bits} n={n} "
          f"seed={args.seed} q={q} expected={expected} got={got}{note}", file=sys.stderr)
    return EXIT_MISMATCH


def cmd_bench(args) -> int:
    if args.query_file and args.queries is not None:
        raise ParameterError("give either --query-file FILE or --queries COUNT, not both")
    _resolve_seed(args, "--query-file FILE" if args.query_file else None)
    universe, keys, dist, dist_kind, dist_param = _load_instance(args)
    structure = build_structure(args.structure, keys, dist, universe, args.epsilon)
    queries = (read_queries(args.query_file, universe) if args.query_file else
               sample_queries(dist, args.seed, 10000 if args.queries is None else args.queries))

    # the timed pass is the plain query path; the per-query stats come from a second,
    # untimed pass, on a fresh build when queries mutate the structure
    t0 = time.perf_counter_ns()
    answers = list(map(structure.predecessor, queries))
    elapsed = time.perf_counter_ns() - t0
    counted = (build_structure(args.structure, keys, dist, universe, args.epsilon)
               if structure.mutates else structure)
    stats = [counted.query_stats(q) for q in queries]

    mismatches = 0
    first_bad = None
    for q, got, st in zip(queries, answers, stats):
        expected = oracle_predecessor(keys, q)
        if got != expected or st.answer != expected:
            mismatches += 1
            if first_bad is None:
                first_bad = (q, expected, got if got != expected else st.answer)
    if mismatches:
        return _report_mismatch("verification failed", args, len(keys), *first_bad,
                                f" ({mismatches} mismatches total)")
    if (not _audit_after(structure, dist)
            or (counted is not structure and not _audit_after(counted, dist))):
        return EXIT_MISMATCH

    nq = len(queries)
    hits = [s.table_hit for s in stats if s.table_probes]
    layers = [s.layers_probed for s in stats if s.layers_probed]
    report = {  # the report schema: field names and order are stable across releases
        "structure": args.structure,
        "epsilon": args.epsilon,  # build_structure rejects it for all but the hash-fronts
        "universe_bits": universe.bits,
        "n": len(keys),
        "support_size": dist.support_size,
        "dist_kind": dist_kind,
        "dist_param": dist_param,
        "keys_file": args.keys,
        "dist_file": args.dist,
        "query_file": args.query_file,
        "seed": args.seed,
        "rng": RNG_NAME,
        "query_count": nq,
        "input_entropy": entropy(dist),
        "output_entropy": output_distribution(keys, dist).entropy_bits(),
        "table_size": structure.table_size,
        "hashfront_hit_rate": sum(hits) / nq if hits else None,
        "mean_layers_probed": sum(layers) / nq if layers else None,
        "max_layers_probed": max(layers, default=None),
        "oracle_mismatches": 0,
        "wall_ns_per_query": (elapsed / nq) if nq else None,
    }
    _emit_report(report, args.out, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if UniverseSpec(args.universe_bits).bits > 16 and not args.query_file:
        raise ParameterError("exhaustive verify limited to 16 bits")
    _resolve_seed(args, "--query-file FILE" if args.query_file else "the exhaustive sweep")
    universe, keys, dist, _, _ = _load_instance(args)
    structure = build_structure(args.structure, keys, dist, universe, args.epsilon)
    queries = read_queries(args.query_file, universe) if args.query_file else range(universe.size)
    audited = args.query_file is not None and structure.mutates
    for q in queries:
        got = structure.predecessor(q)
        expected = oracle_predecessor(keys, q)
        if got != expected:
            return _report_mismatch("mismatch", args, len(keys), q, expected, got)
        if audited and not _audit_after(structure, dist, f"q={q}"):
            return EXIT_MISMATCH
    if not _audit_after(structure, dist):
        return EXIT_MISMATCH
    if not args.query_file:
        print(f"verified all {universe.size} queries: ok")
    elif audited:
        print(f"verified {len(queries)} scripted accesses with per-access audits: ok")
    else:
        print(f"verified {len(queries)} scripted queries: ok")
    return EXIT_OK


# argument plumbing


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--universe-bits", type=int, required=True, help="universe is {0..2^bits-1}")
    sub.add_argument("--n", type=int, help="generate this many random keys from --seed")
    sub.add_argument("--keys", metavar="FILE", help="read keys from file instead of generating")
    sub.add_argument("--dist", metavar="FILE", help="read weights from a key<TAB>weight file")
    sub.add_argument("--dist-kind", choices=KINDS, help="synthesize weights over the key set")
    sub.add_argument("--ratio", type=float, help="geometric decay per rank (default 0.5)")
    sub.add_argument("--s", type=float, help="zipf exponent (default 1.0)")
    sub.add_argument("--structure", choices=STRUCTURES, required=True)
    sub.add_argument("--epsilon", type=float, help="threshold exponent for hash-front structures")
    sub.add_argument("--seed", type=int,
                     help="single seed for drawn keys and queries (default 0); sub-streams derive from it")


def build_parser() -> _Parser:
    parser = _Parser(prog="predsearch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("gen", help="write a keys or weights file")
    gen.add_argument("--universe-bits", type=int, help="universe is {0..2^bits-1}")
    gen.add_argument("--n", type=int, help="number of distinct keys to draw")
    gen.add_argument("--seed", type=int, help="keys-file seed (default 0)")
    gen.add_argument("--dist-kind", choices=KINDS, help="write weights instead of keys")
    gen.add_argument("--ratio", type=float, help="geometric decay per rank (default 0.5)")
    gen.add_argument("--s", type=float, help="zipf exponent (default 1.0)")
    gen.add_argument("--support", metavar="FILE", help="keys file the weights are assigned over")
    gen.add_argument("--out", required=True, metavar="FILE")
    gen.set_defaults(func=cmd_gen)

    bench = subs.add_parser("bench", help="run a verified query workload and report")
    _add_instance_flags(bench)
    bench.add_argument("--queries", type=int, help="number of sampled queries (default 10000)")
    bench.add_argument("--query-file", metavar="FILE", help="replay queries from file instead")
    bench.add_argument("--out", metavar="FILE", help="write the report here (default stdout)")
    bench.add_argument("--format", choices=("json", "csv"), default="json")
    bench.set_defaults(func=cmd_bench)

    verify = subs.add_parser("verify", help="exhaustive or scripted oracle check")
    _add_instance_flags(verify)
    verify.add_argument("--query-file", metavar="FILE",
                        help="replay these queries instead of the sweep (mutating structures: audit each)")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParameterError / KeyRangeError / InvalidDistributionError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
