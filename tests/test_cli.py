import json
import re
import time

import pytest
from conftest import layer_keys
from test_integration import _drop_a_threshold_key, _halve_every_p_star

from predsearch import QueryStats
from predsearch.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_FIELDS,
    build_structure,
    main,
    read_keys,
    read_weights,
)


def run(*argv):
    return main([str(a) for a in argv])


def gen_keys(tmp_path, name="keys.txt", bits=12, n=64, seed=7):
    path = tmp_path / name
    assert run("gen", "--universe-bits", bits, "--n", n, "--seed", seed, "--out", path) == EXIT_OK
    return path


class TestGen:
    def test_keys_file_format(self, tmp_path):
        path = gen_keys(tmp_path, n=1024, bits=16)
        lines = path.read_text().splitlines()
        assert len(lines) == 1024
        values = [int(x) for x in lines]
        assert values == sorted(set(values))
        assert values[-1] < 2 ** 16

    def test_keys_deterministic(self, tmp_path):
        a = gen_keys(tmp_path, "a.txt", seed=5)
        b = gen_keys(tmp_path, "b.txt", seed=5)
        assert a.read_bytes() == b.read_bytes()
        c = gen_keys(tmp_path, "c.txt", seed=6)
        assert a.read_bytes() != c.read_bytes()

    def test_weights_file_format(self, tmp_path):
        keys = gen_keys(tmp_path)
        out = tmp_path / "dist.tsv"
        assert run("gen", "--dist-kind", "geometric", "--ratio", 0.5,
                   "--support", keys, "--out", out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 64
        first_key, first_w = lines[0].split("\t")
        assert first_key == read_keys(keys).keys[0].__str__()
        assert float(first_w) == 1.0
        dist = read_weights(out)
        assert dist.support_size == 64

    def test_weights_deterministic(self, tmp_path):
        keys = gen_keys(tmp_path)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert run("gen", "--dist-kind", "zipf", "--s", 1.2,
                       "--support", keys, "--out", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_gen_requires_mode(self, tmp_path, capsys):
        assert run("gen", "--out", tmp_path / "x.txt") == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_gen_dist_requires_support(self, tmp_path):
        assert run("gen", "--dist-kind", "uniform", "--out", tmp_path / "x.tsv") == EXIT_USAGE


class TestParsing:
    def test_keys_file_rejects_garbage_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n2\nxyz\n")
        assert run("bench", "--universe-bits", 12, "--keys", bad,
                   "--structure", "yfast") == EXIT_USAGE
        assert "bad.txt:3" in capsys.readouterr().err

    def test_keys_file_rejects_unsorted(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("5\n3\n")
        assert run("bench", "--universe-bits", 12, "--keys", bad,
                   "--structure", "yfast") == EXIT_USAGE
        assert "bad.txt:2" in capsys.readouterr().err

    def test_weights_file_rejects_bad_weight(self, tmp_path, capsys):
        keys = gen_keys(tmp_path)
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\tnot-a-number\n")
        assert run("bench", "--universe-bits", 12, "--keys", keys, "--dist", bad,
                   "--structure", "yfast") == EXIT_USAGE
        assert "bad.tsv:1" in capsys.readouterr().err

    def test_keys_file_rejects_non_ascii_digit(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n\u00b2\n")
        assert run("bench", "--universe-bits", 12, "--keys", bad,
                   "--structure", "yfast") == EXIT_USAGE
        assert "bad.txt:2" in capsys.readouterr().err

    def test_query_file_rejects_non_ascii_digit(self, tmp_path, capsys):
        bad = tmp_path / "queries.txt"
        bad.write_text("0\n\u00b2\n")
        assert run("bench", "--universe-bits", 12, "--n", 64, "--structure", "yfast",
                   "--query-file", bad) == EXIT_USAGE
        assert "queries.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize("structure", ["xfast", "layered-ws"])
    @pytest.mark.parametrize("command", ["bench", "verify"])
    def test_query_file_key_outside_universe_rejected(self, command, structure, tmp_path, capsys,
                                                      monkeypatch):
        """A query outside the universe fails the whole file before the first access, so no
        timed pass and no layered-ws promotion runs."""
        calls = []
        real = build_structure

        class Recording:
            def __init__(self, structure):
                self.structure = structure

            def predecessor(self, q):
                calls.append(q)
                return self.structure.predecessor(q)

            def __getattr__(self, name):
                return getattr(self.structure, name)

        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: Recording(real(*a, **k)))
        qfile = tmp_path / "queries.txt"
        qfile.write_text("17\n4096\n")
        assert run(command, "--universe-bits", 12, "--n", 64, "--seed", 3, "--structure", structure,
                   "--query-file", qfile) == EXIT_USAGE
        assert capsys.readouterr().err == "error: key 4096 outside 12-bit universe\n"
        assert calls == []

    def test_weights_file_rejects_non_ascii_digit_key(self, tmp_path, capsys):
        keys = gen_keys(tmp_path)
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t1.0\n\u00b2\t1.0\n")
        assert run("bench", "--universe-bits", 12, "--keys", keys, "--dist", bad,
                   "--structure", "yfast") == EXIT_USAGE
        assert "bad.tsv:2" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert run("bench", "--universe-bits", 12, "--n", 8,
                   "--structure", "yfast", "--frobnicate") == EXIT_USAGE

    def test_unknown_structure_rejected(self):
        assert run("bench", "--universe-bits", 12, "--n", 8,
                   "--structure", "btree") == EXIT_USAGE

    def test_weights_file_with_overflowing_total(self, tmp_path, capsys):
        keys = gen_keys(tmp_path)
        dist = tmp_path / "w.tsv"
        dist.write_text("1\t1e308\n2\t1e308\n")
        assert run("bench", "--universe-bits", 12, "--keys", keys, "--dist", dist,
                   "--structure", "yfast") == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: total weight of 2 keys overflows a float")

    @pytest.mark.parametrize("command", [("gen", "--out", "keys.txt"),
                                         ("bench", "--structure", "yfast"),
                                         ("bench", "--structure", "layered-ws", "--keys", "k.txt")])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        gen_keys(tmp_path, "k.txt", bits=8, n=4)
        instance = () if "--keys" in command else ("--n", 4)
        assert run(*command, "--universe-bits", 8, *instance, "--seed", -1) == EXIT_USAGE
        assert "error: seed must be an int >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "keys.txt").exists()

    def test_keys_beyond_universe_rejected(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_text("1\n5000\n")
        assert run("bench", "--universe-bits", 8, "--keys", keys,
                   "--structure", "yfast") == EXIT_USAGE

    @pytest.mark.parametrize("command", ["bench", "verify"])
    @pytest.mark.parametrize("structure", ["xfast", "yfast", "layered", "layered-ws"])
    def test_epsilon_rejected_outside_hashfronts(self, command, structure, capsys):
        assert run(command, "--universe-bits", 8, "--n", 10, "--structure", structure,
                   "--epsilon", 0.5) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: --epsilon applies only to hash-front structures, not {structure}" in err

    @pytest.mark.parametrize("command", ["bench", "verify"])
    def test_keys_with_n_rejected(self, command, tmp_path, capsys):
        keys = gen_keys(tmp_path, bits=8, n=20)
        assert run(command, "--universe-bits", 8, "--keys", keys, "--n", 10,
                   "--structure", "yfast") == EXIT_USAGE
        assert "error: give either --keys FILE or --n COUNT, not both" in capsys.readouterr().err


class TestDroppedFlags:
    """A flag the command would not use is rejected, never silently dropped."""

    def test_dist_file_with_dist_kind(self, tmp_path, capsys):
        keys = gen_keys(tmp_path, bits=8, n=20)
        dist = tmp_path / "dist.tsv"
        assert run("gen", "--dist-kind", "uniform", "--support", keys, "--out", dist) == EXIT_OK
        for command in ("bench", "verify"):
            assert run(command, "--universe-bits", 8, "--keys", keys, "--dist", dist,
                       "--dist-kind", "geometric", "--structure", "yfast") == EXIT_USAGE
            assert ("error: give either --dist FILE or --dist-kind KIND, not both"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["bench", "verify"])
    @pytest.mark.parametrize("kind", [None, "uniform", "zipf", "pointmass"])
    def test_ratio_outside_geometric(self, command, kind, capsys):
        flags = ("--dist-kind", kind) if kind else ()
        assert run(command, "--universe-bits", 8, "--n", 20, "--structure", "yfast",
                   *flags, "--ratio", 0.9) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: --ratio applies only to --dist-kind geometric, not {kind or 'uniform'}" in err

    @pytest.mark.parametrize("command", ["bench", "verify"])
    @pytest.mark.parametrize("kind", [None, "uniform", "geometric", "pointmass"])
    def test_s_outside_zipf(self, command, kind, capsys):
        flags = ("--dist-kind", kind) if kind else ()
        assert run(command, "--universe-bits", 8, "--n", 20, "--structure", "yfast",
                   *flags, "--s", 1.2) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: --s applies only to --dist-kind zipf, not {kind or 'uniform'}" in err

    @pytest.mark.parametrize("flag,value", [("--ratio", 0.9), ("--s", 1.2)])
    def test_shape_flag_with_dist_file(self, tmp_path, capsys, flag, value):
        keys = gen_keys(tmp_path, bits=8, n=20)
        dist = tmp_path / "dist.tsv"
        assert run("gen", "--dist-kind", "uniform", "--support", keys, "--out", dist) == EXIT_OK
        assert run("bench", "--universe-bits", 8, "--keys", keys, "--dist", dist,
                   "--structure", "yfast", flag, value) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {flag} applies only to" in err and err.rstrip().endswith("not --dist FILE")

    @pytest.mark.parametrize("argv,message", [
        (("--dist-kind", "zipf", "--ratio", 0.9), "--ratio applies only to --dist-kind geometric, not zipf"),
        (("--dist-kind", "geometric", "--s", 1.2), "--s applies only to --dist-kind zipf, not geometric"),
        (("--universe-bits", 8, "--n", 20, "--ratio", 0.9),
         "--ratio applies only to --dist-kind geometric, not a keys file"),
    ])
    def test_gen_shape_flag_outside_its_kind(self, tmp_path, capsys, argv, message):
        keys = gen_keys(tmp_path, bits=8, n=20)
        support = ("--support", keys) if "--dist-kind" in argv else ()
        assert run("gen", *argv, *support, "--out", tmp_path / "out") == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (("--dist-kind", "zipf", "--n", 999), "--n applies only to a keys file, not --dist-kind zipf"),
        (("--dist-kind", "uniform", "--universe-bits", 3),
         "--universe-bits applies only to a keys file, not --dist-kind uniform"),
        (("--dist-kind", "geometric", "--seed", 5),
         "--seed applies only to a keys file, not --dist-kind geometric"),
        (("--dist-kind", "zipf", "--n", 999, "--universe-bits", 3, "--seed", 5),
         "--n applies only to a keys file, not --dist-kind zipf"),
        (("--universe-bits", 8, "--n", 20), "--support applies only to --dist-kind, not a keys file"),
    ])
    def test_gen_flag_outside_its_mode(self, tmp_path, capsys, argv, message):
        """gen writes weights from --support or keys from --universe-bits, --n and --seed;
        a flag of the other mode is rejected, never ignored."""
        keys = gen_keys(tmp_path, bits=8, n=20)
        assert run("gen", *argv, "--support", keys, "--out", tmp_path / "out") == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, source", [
        (("bench", "--query-file", "q.txt"), "--query-file FILE"),
        (("verify", "--query-file", "q.txt"), "--query-file FILE"),
        (("verify",), "the exhaustive sweep"),
    ])
    def test_seed_with_nothing_drawn(self, tmp_path, capsys, monkeypatch, command, source):
        """Keys from a file and queries from a file or the sweep: --seed would change nothing."""
        monkeypatch.chdir(tmp_path)
        keys = gen_keys(tmp_path, bits=8, n=20)
        (tmp_path / "q.txt").write_text("3\n200\n")
        instance = ("--universe-bits", 8, "--keys", keys, "--structure", "yfast")
        assert run(*command, *instance, "--seed", 4) == EXIT_USAGE
        assert (f"error: --seed applies only to drawn keys or queries, not --keys FILE with {source}"
                in capsys.readouterr().err)
        assert run(*command, *instance) == EXIT_OK

    def test_seed_defaults_to_zero_when_drawn(self, tmp_path):
        """Drawn keys or sampled queries read seed 0 unless --seed says otherwise; a replay
        that draws nothing reports no seed."""
        keys = gen_keys(tmp_path, bits=8, n=20)
        qfile = tmp_path / "q.txt"
        qfile.write_text("3\n200\n")
        for source, seed in (((), 0), (("--seed", 0), 0), (("--query-file", qfile), None)):
            out = tmp_path / "report.json"
            assert run("bench", "--universe-bits", 8, "--keys", keys, "--structure", "yfast",
                       *source, "--out", out) == EXIT_OK
            assert json.loads(out.read_text())["seed"] == seed
        assert run("bench", "--universe-bits", 8, "--n", 20, "--structure", "yfast",
                   "--query-file", qfile, "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 0

    def test_gen_keys_seed_defaults_to_zero(self, tmp_path):
        unseeded = tmp_path / "unseeded.txt"
        assert run("gen", "--universe-bits", 12, "--n", 64, "--out", unseeded) == EXIT_OK
        assert unseeded.read_bytes() == gen_keys(tmp_path, seed=0).read_bytes()

    def test_query_file_with_queries(self, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("0\n17\n")
        assert run("bench", "--universe-bits", 8, "--n", 20, "--structure", "yfast",
                   "--query-file", qfile, "--queries", 500) == EXIT_USAGE
        assert ("error: give either --query-file FILE or --queries COUNT, not both"
                in capsys.readouterr().err)

    def test_defaults_apply_after_validation(self, tmp_path):
        """Leaving a flag out gives the old defaults: reports of valid commands do not move."""
        out = tmp_path / "report.json"
        for kind, param in (("geometric", 0.5), ("zipf", 1.0), ("uniform", None)):
            assert run("bench", "--universe-bits", 8, "--n", 20, "--structure", "yfast",
                       "--dist-kind", kind, "--out", out) == EXIT_OK
            report = json.loads(out.read_text())
            assert report["dist_param"] == param and report["query_count"] == 10000


class TestBench:
    def bench_report(self, tmp_path, *argv):
        out = tmp_path / "report.json"
        assert run("bench", "--out", out, *argv) == EXIT_OK
        return json.loads(out.read_text())

    def test_report_schema(self, tmp_path):
        report = self.bench_report(tmp_path, "--universe-bits", 12, "--n", 100,
                                   "--structure", "yfast", "--queries", 500, "--seed", 3)
        assert tuple(report) == REPORT_FIELDS
        assert report["oracle_mismatches"] == 0
        assert report["query_count"] == 500
        assert report["rng"] == "pcg64"
        assert report["seed"] == 3

    def test_layered_point_mass_probes_one_layer(self, tmp_path):
        report = self.bench_report(tmp_path, "--universe-bits", 12, "--n", 100,
                                   "--structure", "layered", "--dist-kind", "pointmass",
                                   "--queries", 200)
        assert report["mean_layers_probed"] == 1.0
        assert report["max_layers_probed"] == 1

    def test_layered_geometric_mean_at_most_two(self, tmp_path):
        report = self.bench_report(tmp_path, "--universe-bits", 16, "--n", 1024,
                                   "--structure", "layered", "--dist-kind", "geometric",
                                   "--ratio", 0.5, "--queries", 5000, "--seed", 1)
        assert report["mean_layers_probed"] <= 2.0

    def test_hashfront_uniform_hit_rate_zero(self, tmp_path):
        report = self.bench_report(tmp_path, "--universe-bits", 16, "--n", 4096,
                                   "--structure", "hashfront-a", "--epsilon", 0.5,
                                   "--dist-kind", "uniform", "--queries", 1000)
        assert report["hashfront_hit_rate"] == 0.0
        assert report["table_size"] == 0

    def test_hashfront_requires_epsilon(self, tmp_path, capsys):
        assert run("bench", "--universe-bits", 12, "--n", 10,
                   "--structure", "hashfront-a") == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err

    def test_epsilon_out_of_range(self, tmp_path):
        assert run("bench", "--universe-bits", 12, "--n", 10,
                   "--structure", "hashfront-b", "--epsilon", 1.0) == EXIT_USAGE

    def test_reports_deterministic_modulo_wall_clock(self, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run("bench", "--universe-bits", 14, "--n", 500,
                       "--structure", "hashfront-b", "--epsilon", 0.5,
                       "--dist-kind", "zipf", "--s", 1.1,
                       "--queries", 2000, "--seed", 11, "--out", out) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        for r in reports:
            r.pop("wall_ns_per_query")
        assert reports[0] == reports[1]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run("bench", "--universe-bits", 12, "--n", 64, "--structure", "layered",
                   "--queries", 100, "--format", "csv", "--out", out) == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header.split(",") == list(REPORT_FIELDS)
        assert row.split(",")[0] == "layered"

    def test_query_file_replay(self, tmp_path):
        keys = gen_keys(tmp_path, bits=12, n=64)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("0\n1\n4095\n17\n")
        report = self.bench_report(tmp_path, "--universe-bits", 12, "--keys", keys,
                                   "--structure", "xfast", "--query-file", qfile)
        assert report["query_count"] == 4
        assert report["query_file"] == str(qfile)

    def test_mismatch_exits_two(self, tmp_path, capsys, monkeypatch):
        class Liar:
            def predecessor(self, q):
                return 0

            def query_stats(self, q):
                return QueryStats(answer=0)

        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: Liar())
        assert run("bench", "--universe-bits", 12, "--n", 64,
                   "--structure", "yfast", "--queries", 50) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "verification failed" in err and "q=" in err

    def test_audit_failure_exits_two(self, capsys, monkeypatch):
        class Liar:
            """Correct answers from a real structure, but a failing structural audit."""

            def __init__(self, structure):
                self.structure = structure

            def predecessor(self, q):
                return self.structure.predecessor(q)

            def query_stats(self, q):
                return self.structure.query_stats(q)

            def audit(self, dist=None):
                raise AssertionError("planted fault")

        real = build_structure
        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: Liar(real(*a, **k)))
        assert run("bench", "--universe-bits", 12, "--n", 64,
                   "--structure", "yfast", "--queries", 50) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "structural invariant failed after run: planted fault" in err
        assert "verification failed" not in err

    @pytest.mark.parametrize("command", ["bench", "verify"])
    @pytest.mark.parametrize("structure, fault, message", [
        ("hashfront-a", _drop_a_threshold_key,
         r"front table lacks key \d+, whose probability meets the threshold"),
        ("layered", _halve_every_p_star, r"key \d+ answers p\* \S+, the distribution gives \S+"),
    ], ids=("hashfront-a", "layered"))
    def test_audited_against_its_distribution(self, structure, fault, message, command, capsys,
                                              monkeypatch):
        """A front table missing one of the distribution's front keys, or a static cascade
        whose stored p* are all halved (its rank, layers and answers unchanged), answers every
        query right, but bench and verify audit it against the distribution they hold."""
        real = build_structure

        def faulty_build(*args, **kwargs):
            built = real(*args, **kwargs)
            fault(built)
            return built

        monkeypatch.setattr("predsearch.cli.build_structure", faulty_build)
        epsilon = ("--epsilon", 0.5) if structure.startswith("hashfront") else ()
        assert run(command, "--universe-bits", 12, "--n", 64, "--dist-kind", "geometric",
                   "--structure", structure, *epsilon) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert re.search("structural invariant failed after run: " + message, err), err

    def test_wall_time_is_the_plain_query_path(self, tmp_path, monkeypatch):
        """wall_ns_per_query times predecessor, not the instrumented query_stats."""
        pause_s = 0.005

        class SlowStats:
            def __init__(self, structure):
                self.structure = structure

            def predecessor(self, q):
                return self.structure.predecessor(q)

            def query_stats(self, q):
                time.sleep(pause_s)
                return self.structure.query_stats(q)

            def audit(self, dist=None):
                self.structure.audit(dist)

        real = build_structure
        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: SlowStats(real(*a, **k)))
        report = self.bench_report(tmp_path, "--universe-bits", 12, "--n", 64,
                                   "--structure", "yfast", "--queries", 40)
        assert report["oracle_mismatches"] == 0
        assert report["wall_ns_per_query"] < pause_s * 1e9 / 10

    def test_layered_ws_stats_from_a_fresh_build(self, tmp_path, monkeypatch):
        """Both passes over a mutating cascade start from the same build-time state."""
        built = []
        real = build_structure

        def recording_build(*a, **k):
            built.append(real(*a, **k))
            return built[-1]

        monkeypatch.setattr("predsearch.cli.build_structure", recording_build)
        report = self.bench_report(tmp_path, "--universe-bits", 10, "--n", 200,
                                   "--structure", "layered-ws", "--dist-kind", "zipf",
                                   "--queries", 300, "--seed", 4)
        assert len(built) == 2 and built[0] is not built[1]
        first, second = map(layer_keys, built)
        assert first == second
        assert report["oracle_mismatches"] == 0 and report["mean_layers_probed"] >= 1


class TestMutationPolicy:
    @pytest.mark.parametrize("mutating", [(), ("layered-ws",)])
    def test_bench_and_verify_read_one_definition(self, mutating, tmp_path, capsys, monkeypatch):
        """bench counts stats on a fresh build, and verify audits every scripted access,
        for exactly the structures that MUTATING names."""
        monkeypatch.setattr("predsearch.cli.MUTATING", mutating)
        built = []
        real = build_structure

        def recording_build(*a, **k):
            built.append(real(*a, **k))
            return built[-1]

        monkeypatch.setattr("predsearch.cli.build_structure", recording_build)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("0\n1023\n17\n")
        instance = ("--universe-bits", 10, "--n", 200, "--seed", 4, "--structure", "layered-ws")
        assert run("bench", *instance, "--queries", 300, "--out", tmp_path / "r.json") == EXIT_OK
        assert len(built) == (2 if mutating else 1)
        assert run("verify", *instance, "--query-file", qfile) == EXIT_OK
        assert ("per-access audits" in capsys.readouterr().out) == bool(mutating)


class TestVerify:
    def test_exhaustive_yfast(self, capsys):
        assert run("verify", "--universe-bits", 12, "--n", 256, "--seed", 3,
                   "--structure", "yfast") == EXIT_OK
        assert "verified all 4096 queries: ok" in capsys.readouterr().out

    def test_exhaustive_all_structures_small(self):
        for structure in ("xfast", "yfast", "layered", "layered-ws"):
            assert run("verify", "--universe-bits", 8, "--n", 30, "--seed", 1,
                       "--structure", structure) == EXIT_OK
        for structure in ("hashfront-a", "hashfront-b"):
            assert run("verify", "--universe-bits", 8, "--n", 30, "--seed", 1,
                       "--structure", structure, "--epsilon", 0.5,
                       "--dist-kind", "geometric") == EXIT_OK

    def test_bits_guard(self, capsys):
        assert run("verify", "--universe-bits", 20, "--n", 10,
                   "--structure", "yfast") == EXIT_USAGE
        assert "exhaustive verify limited to 16 bits" in capsys.readouterr().err
        # the universe is checked first, so a width no structure takes is named as such
        assert run("verify", "--universe-bits", 70, "--n", 5, "--structure", "yfast") == EXIT_USAGE
        assert "universe bits must be an integer in [1, 64], got 70" in capsys.readouterr().err

    def test_scripted_working_set(self, tmp_path, capsys):
        keys = gen_keys(tmp_path, bits=12, n=100, seed=4)
        qfile = tmp_path / "accesses.txt"
        values = read_keys(keys).keys
        script = [values[i % len(values)] for i in range(500)] + [0, 4095]
        qfile.write_text("".join(f"{q}\n" for q in script))
        assert run("verify", "--universe-bits", 12, "--keys", keys,
                   "--structure", "layered-ws", "--query-file", qfile) == EXIT_OK
        assert "per-access audits: ok" in capsys.readouterr().out

    def test_query_file_replayed_for_every_structure(self, tmp_path, capsys):
        keys = gen_keys(tmp_path, bits=12, n=64)
        qfile = tmp_path / "queries.txt"
        qfile.write_text("0\n4095\n17\n")
        for structure in ("xfast", "yfast", "hashfront-a", "hashfront-b", "layered"):
            epsilon = ("--epsilon", 0.5) if structure.startswith("hashfront") else ()
            assert run("verify", "--universe-bits", 12, "--keys", keys, "--structure", structure,
                       *epsilon, "--query-file", qfile) == EXIT_OK
            assert "verified 3 scripted queries: ok" in capsys.readouterr().out

    def test_query_file_replay_beyond_sweep_limit(self, tmp_path, capsys):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("0\n1048575\n")
        assert run("verify", "--universe-bits", 20, "--n", 10, "--structure", "yfast",
                   "--query-file", qfile) == EXIT_OK
        assert "verified 2 scripted queries: ok" in capsys.readouterr().out

    def test_missing_query_file(self, tmp_path, capsys):
        assert run("verify", "--universe-bits", 8, "--n", 10, "--structure", "xfast",
                   "--query-file", tmp_path / "absent.txt") == EXIT_USAGE
        assert "absent.txt" in capsys.readouterr().err

    def test_query_file_mismatch_reproducer(self, tmp_path, capsys, monkeypatch):
        class Liar:
            def predecessor(self, q):
                return None

        qfile = tmp_path / "queries.txt"
        qfile.write_text("255\n")
        monkeypatch.setattr("predsearch.cli.build_structure", lambda *a, **k: Liar())
        assert run("verify", "--universe-bits", 8, "--n", 10, "--seed", 2,
                   "--structure", "xfast", "--query-file", qfile) == EXIT_MISMATCH
        assert "q=255" in capsys.readouterr().err

    @pytest.mark.parametrize("structure", ["xfast", "layered-ws"])
    def test_audit_failure_exits_two(self, structure, capsys, monkeypatch):
        class Liar:
            """Correct answers from a real structure, but a failing structural audit."""

            def __init__(self, structure):
                self.structure = structure

            def predecessor(self, q):
                return self.structure.predecessor(q)

            def audit(self, dist=None):
                raise AssertionError("planted fault")

        real = build_structure
        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: Liar(real(*a, **k)))
        assert run("verify", "--universe-bits", 8, "--n", 10, "--seed", 2,
                   "--structure", structure) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "structural invariant failed after run: planted fault" in err
        assert "mismatch" not in err

    def test_per_access_audit_failure_names_the_access(self, tmp_path, capsys, monkeypatch):
        """verify runs the whole audit after each scripted layered-ws access."""
        class FailsSecondAudit:
            def __init__(self, structure):
                self.structure, self.audits = structure, 0

            def predecessor(self, q):
                return self.structure.predecessor(q)

            def audit(self, dist=None):
                self.audits += 1
                if self.audits == 2:
                    raise AssertionError("planted fault")

        real = build_structure
        monkeypatch.setattr("predsearch.cli.build_structure",
                            lambda *a, **k: FailsSecondAudit(real(*a, **k)))
        qfile = tmp_path / "queries.txt"
        qfile.write_text("17\n90\n200\n")
        assert run("verify", "--universe-bits", 8, "--n", 10, "--seed", 2,
                   "--structure", "layered-ws", "--query-file", qfile) == EXIT_MISMATCH
        assert "structural invariant failed after q=90: planted fault" in capsys.readouterr().err

    def test_verify_mismatch_reproducer(self, capsys, monkeypatch):
        class Liar:
            def predecessor(self, q):
                return None

        monkeypatch.setattr("predsearch.cli.build_structure", lambda *a, **k: Liar())
        assert run("verify", "--universe-bits", 8, "--n", 10, "--seed", 2,
                   "--structure", "yfast") == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "mismatch" in err and "seed=2" in err and "q=" in err
