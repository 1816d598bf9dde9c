"""scripts/ab_pairs.py: the result-line parsing and the rule for a gain, on
canned numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

BETTER = {"verdicts_per_s": "higher", "verdict_ms.p90": "lower"}


def pairs_of(parent, change):
    return [({"verdict_ms.p90": p, "verdicts_per_s": 1000.0 / p},
             {"verdict_ms.p90": c, "verdicts_per_s": 1000.0 / c})
            for p, c in zip(parent, change)]


def test_result_metrics_reads_the_last_line():
    last = {"correct": True, "attempted": 108, "failed": 0,
            "metrics": {"verdict_ms.p90": {"value": 39.5, "unit": "ms"},
                        "answered_share": {"value": 1.0, "unit": "ratio"}}}
    stdout = "sweep    verdict_ms.p90 39.5 ms\n" + json.dumps(last) + "\n"
    assert ab_pairs.result_metrics(stdout) == {"verdict_ms.p90": 39.5,
                                               "answered_share": 1.0}


def test_quartiles_inclusive():
    assert ab_pairs.quartiles([41.2, 40.7, 37.9, 39.5, 38.9]) == \
        pytest.approx((38.9, 39.5, 40.7))
    assert ab_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_gain_needs_nine_tenths_of_the_wins_and_a_gap_beyond_the_iqr():
    parent = [41.2, 40.7, 37.9, 39.5, 38.9, 40.1, 39.0, 41.0, 38.5, 39.8]
    change = [34.2, 35.1, 32.6, 33.9, 34.1, 34.0, 33.5, 35.0, 33.0, 34.4]
    rows = {r["metric"]: r for r in ab_pairs.summarize(pairs_of(parent, change),
                                                       BETTER)}
    assert list(rows) == list(BETTER)
    p90 = rows["verdict_ms.p90"]
    assert (p90["wins"], p90["pairs"], p90["gain"]) == (10, 10, True)
    assert p90["ratio"] == pytest.approx(34.05 / 39.65)
    assert rows["verdicts_per_s"]["wins"] == 10 and rows["verdicts_per_s"]["gain"]
    # 8 of 10 wins: not enough, however large the gap; a tie counts for
    # neither side
    lost = change[:8] + [parent[8], parent[9] + 1.0]
    p90 = ab_pairs.summarize(pairs_of(parent, lost), BETTER)[1]
    assert (p90["wins"], p90["gain"]) == (8, False)
    # every pair won, by less than the parent's interquartile range
    close = [p - 0.1 for p in parent]
    p90 = ab_pairs.summarize(pairs_of(parent, close), BETTER)[1]
    assert (p90["wins"], p90["gain"]) == (10, False)


def test_metric_missing_from_a_run_has_no_row():
    pairs = [({"verdict_ms.p90": 1.0}, {"verdict_ms.p90": 0.5})]
    rows = ab_pairs.summarize(pairs, BETTER)
    assert [r["metric"] for r in rows] == ["verdict_ms.p90"]
    assert "verdict_ms.p90" in ab_pairs.format_rows(rows)


BOUNDS = {"verdicts_per_s": 0.25, "verdict_ms.p90": 0.25}


def test_worse_when_the_median_moves_beyond_the_bound():
    parent = [40.0, 40.5, 39.5, 40.2, 39.8]
    # p90 median 40.0 -> 49.9 is within 25%, 50.1 beyond it
    for shift, worse in ((9.9, False), (10.1, True)):
        rows = ab_pairs.summarize(pairs_of(parent, [p + shift for p in parent]),
                                  BETTER, BOUNDS)
        p90 = {r["metric"]: r for r in rows}["verdict_ms.p90"]
        assert (p90["worse"], p90["gain"]) == (worse, False)
    # a better median is never worse, however far it moves
    rows = ab_pairs.summarize(pairs_of(parent, [p / 2 for p in parent]),
                              BETTER, BOUNDS)
    assert not any(r["worse"] for r in rows)


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    bounds = {"verdict_ms.p90": 0.05}
    parent = [36.0, 44.0, 38.0, 42.0, 40.0]  # IQR 4 = 10% of the median 40
    rows = ab_pairs.summarize(pairs_of(parent, parent[::-1]), BETTER, bounds)
    p90 = {r["metric"]: r for r in rows}["verdict_ms.p90"]
    assert (p90["unresolved"], p90["worse"]) == (True, False)
    # a metric without a bound is neither worse nor unresolved
    per_s = {r["metric"]: r for r in rows}["verdicts_per_s"]
    assert (per_s["unresolved"], per_s["worse"]) == (False, False)
    # every change run below every parent run resolves it
    rows = ab_pairs.summarize(pairs_of(parent, [30.0 + p / 100 for p in parent]),
                              BETTER, bounds)
    assert not {r["metric"]: r for r in rows}["verdict_ms.p90"]["unresolved"]
    # a spread within the bound is resolved
    rows = ab_pairs.summarize(pairs_of(parent, parent), BETTER,
                              {"verdict_ms.p90": 0.25})
    assert not {r["metric"]: r for r in rows}["verdict_ms.p90"]["unresolved"]


def test_format_rows_prints_both_marks():
    parent = [36.0, 44.0, 38.0, 42.0, 40.0]
    rows = ab_pairs.summarize(pairs_of(parent, [p + 20.0 for p in parent]),
                              BETTER, {"verdict_ms.p90": 0.05})
    header, per_s, p90 = ab_pairs.format_rows(rows).splitlines()
    assert header.split()[-3:] == ["gain", "worse", "unresolved"]
    assert p90.split()[-3:] == ["no", "yes", "yes"]
    assert per_s.split()[-3:] == ["no", "no", "no"]


def test_checkouts_at_paths_of_different_lengths_exit_2(tmp_path, capsys):
    for name in ("parent", "change", "changed"):
        (tmp_path / name).mkdir()
    code = ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "changed"),
                          "--workload", "sweep"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "differ in length" in err
    # equal lengths get past the check to the parent's BENCHMARK.json
    with pytest.raises(FileNotFoundError, match="BENCHMARK.json"):
        ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "sweep"])
