"""scripts/fault_census.py: the grouping of op ids and the reduction of a
measured pass, on canned records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "fault_census.py"
_SPEC = importlib.util.spec_from_file_location("fault_census", _PATH)
fault_census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fault_census)


def test_group_of_reads_the_grid_size_or_the_check():
    assert fault_census.group_of("sweep/ss:-2/intrinsic@151") == "@151"
    assert fault_census.group_of("sweep/luk/f=max(x+x*y-1,0)@51") == "@51"
    assert fault_census.group_of("battery/min/axioms") == "axioms"
    assert fault_census.group_of(
        "battery/osum:[0,0.5,luk]/counterexample") == "counterexample"


def test_reduce_sums_per_group_and_per_op():
    records = [
        {"id": "sweep/min/intrinsic@51", "minor_faults": 3, "seconds": 0.25},
        {"id": "sweep/ss:-2/intrinsic@151", "minor_faults": 400,
         "seconds": 0.5},
        {"id": "sweep/min/catalog@51", "minor_faults": 0, "seconds": 0.125},
        {"id": "sweep/ss:-2/intrinsic@151", "minor_faults": 10,
         "seconds": 0.5},
    ]
    got = fault_census.reduce(records)
    assert got["total"] == {"minor_faults": 413, "seconds": 1.375}
    assert list(got["groups"]) == ["@51", "@151"]  # first-seen order
    assert got["groups"]["@51"] == {"minor_faults": 3, "seconds": 0.375}
    assert got["groups"]["@151"] == {"minor_faults": 410, "seconds": 1.0}
    assert got["ops"]["sweep/ss:-2/intrinsic@151"]["minor_faults"] == 410
    assert len(got["ops"]) == 3


def test_reduce_of_no_records_is_zero():
    assert fault_census.reduce([]) == {
        "total": {"minor_faults": 0, "seconds": 0.0}, "groups": {}, "ops": {}}


def test_unknown_workload_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        fault_census.main(["--workload", "powers"])
    assert exc.value.code == 2
