"""scripts/check_golden.py: the gate rule on canned result lines and
digests, and the table of passes it runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "check_golden.py"
_SPEC = importlib.util.spec_from_file_location("check_golden", _PATH)
check_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_golden)

WANT = {"sweep/min/intrinsic@51": "aa", "sweep/prod/intrinsic@51": "bb"}


def result_line(correct=True, accuracy=1.0):
    return {"correct": correct, "attempted": 2, "failed": 0,
            "metrics": {"verdict_accuracy": {"value": accuracy, "unit": "ratio"}}}


def test_clean_record_passes():
    assert check_golden.failures(result_line(), dict(WANT), WANT, 2, True) == []


def test_correct_false_fails():
    assert check_golden.failures(result_line(correct=False), dict(WANT), WANT,
                                 2, False) == ["run.py says correct: false"]


def test_accuracy_below_one_fails_only_where_required():
    line = result_line(accuracy=0.99)
    assert check_golden.failures(line, dict(WANT), WANT, 2, True) == [
        "verdict_accuracy 0.99 < 1.0"]
    assert check_golden.failures(line, dict(WANT), WANT, 2, False) == []


def test_changed_digest_fails():
    got = {**WANT, "sweep/prod/intrinsic@51": "cc"}
    assert check_golden.failures(result_line(), got, WANT, 2, True) == [
        "changed: sweep/prod/intrinsic@51"]


def test_missing_op_counts_as_changed():
    got = {"sweep/min/intrinsic@51": "aa"}
    assert check_golden.failures(result_line(), got, WANT, 2, True) == [
        "changed: sweep/prod/intrinsic@51"]


def test_wrong_gated_count_fails():
    assert check_golden.failures(result_line(), dict(WANT), WANT, 3, True) == [
        "2 ops gated, expected 3"]


def test_gates_name_the_seven_passes():
    """The passes the per-workload steps ran before check_golden ran them
    itself; accuracy 1.0 is required of powers and battery only."""
    passes = {(seed, workload) for seed, workload, *_ in check_golden.GATES}
    assert passes == {(0xC0FFEE, "powers"), (0xC0FFEE, "battery"),
                      (7, "battery"), (0xC0FFEE, "sweep"), (7, "sweep"),
                      (0xC0FFEE, "cli"), (7, "cli")}
    for _, workload, _, _, exact in check_golden.GATES:
        assert exact == (workload in {"powers", "battery"})


@pytest.mark.parametrize("flip", [None, "correct", "digest"])
def test_main_runs_each_pass_once_against_golden(monkeypatch, capsys, flip):
    """main on passes that reproduce golden.json: every gate passes, each
    (seed, workload) runs once, and one flipped field fails its gates."""
    golden = json.loads((check_golden.BENCH / "golden.json").read_text())
    calls = []

    def fake_pass(seed, workload):
        calls.append((seed, workload))
        digests = dict(golden[str(seed)][workload])
        if flip == "digest" and workload == "sweep":
            digests[next(iter(digests))] = "0" * 64
        return result_line(correct=flip != "correct"), digests

    monkeypatch.setattr(check_golden, "run_pass", fake_pass)
    assert check_golden.main() == (flip is not None)
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 7
    out = capsys.readouterr().out
    assert out.count(", ok\n") == {None: 8, "correct": 0, "digest": 6}[flip]
