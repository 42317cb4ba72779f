"""tools/ab.py binds each tree's workloads to its own classes and reports a checked A/B."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_each_load_builds_its_own_classes():
    one, two = (ab.load_workloads(ab.ROOT / "src", tag) for tag in ("one", "two"))
    assert one.WorkingSetLayered is not two.WorkingSetLayered
    assert one.KeySet is not two.KeySet
    import predsearch  # the test process's own package is restored after each load
    assert predsearch.WorkingSetLayered not in (one.WorkingSetLayered, two.WorkingSetLayered)


def test_own_inputs_rebuilds_from_the_target_classes_over_shared_data():
    """Each side meets only its own tree's objects, yet reads the same key ints and stream."""
    source, target = (ab.load_workloads(ab.ROOT / "src", tag) for tag in ("source", "target"))
    inputs = source.WORKLOADS["zipf-layered"].make_inputs(3)
    own = ab.own_inputs(target, inputs)
    assert type(own) is target.Inputs
    assert type(own.universe) is target.UniverseSpec and own.universe.bits == inputs.universe.bits
    assert type(own.keys) is target.KeySet and type(inputs.keys) is source.KeySet
    assert type(own.dist) is target.WeightedDistribution
    assert type(inputs.dist) is source.WeightedDistribution
    assert own.keys.keys is inputs.keys.keys
    assert own.stream is inputs.stream
    assert list(own.dist.items()) == list(inputs.dist.items())
    assert own.dist.total == inputs.dist.total


def test_a_run_against_head_checks_every_answer(capsys):
    assert ab.main(["--base", "HEAD", "--workload", "drift-ws", "--rounds", "1",
                    "--builds", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == out["change"] == ab.git("rev-parse", "--short", "HEAD")
    assert type(out["dirty"]) is bool
    assert out["python"] == sys.version.split()[0] and out["numpy"] == numpy.__version__
    report = out["workloads"]["drift-ws"]
    assert report["query"]["wrong_answers"] == 0
    assert report["query"]["of"] == 128  # 2**17 queries in blocks of 1024
    assert report["query"]["base_floor_ratio"] > 0 and report["query"]["change_floor_ratio"] > 0
    assert report["query"]["base_floor_ns"] > 0 and report["query"]["change_floor_ns"] > 0
    assert report["build"]["of"] == 1


def test_committed_trajectory_files_parse_with_every_answer_right():
    """Each BENCH_*.json is named BENCH_pr<N>.json, BENCH_pr<N>_vs_pr<M>.json or
    BENCH_pr<N>_aa.json (the README's names) and is an ab.py report of a committed tree whose
    query rounds gave no wrong answer."""
    files = sorted(ab.ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert re.fullmatch(r"BENCH_pr\d+(_vs_pr\d+|_aa)?\.json", path.name), path.name
        report = json.loads(path.read_text(encoding="utf-8"))
        assert {"base", "change", "dirty", "python", "numpy"} <= report.keys(), path.name
        assert report["dirty"] is False, path.name
        assert report["workloads"], path.name
        for name, result in report["workloads"].items():
            assert result["query"]["wrong_answers"] == 0, (path.name, name)


@pytest.mark.parametrize("argv, message", [
    (["--base", "HEAD", "--rounds", "-1"], "--rounds and --builds must be >= 0"),
    (["--base", "HEAD", "--workload", "nope"], "unknown workload 'nope'"),
])
def test_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
