"""tools/ab.py binds each tree's workloads to its own classes and reports a checked A/B."""

import importlib.util
import json
from pathlib import Path

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


def test_a_run_against_head_checks_every_answer(capsys):
    assert ab.main(["--base", "HEAD", "--workload", "drift-ws", "--rounds", "1",
                    "--builds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)["workloads"]["drift-ws"]
    assert report["query"]["wrong_answers"] == 0
    assert report["query"]["of"] == 128  # 2**17 queries in blocks of 1024
    assert report["query"]["base_floor_ratio"] > 0 and report["query"]["change_floor_ratio"] > 0
    assert report["build"]["of"] == 1


@pytest.mark.parametrize("argv, message", [
    (["--base", "HEAD", "--rounds", "-1"], "--rounds and --builds must be >= 0"),
    (["--base", "HEAD", "--workload", "nope"], "unknown workload 'nope'"),
])
def test_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
