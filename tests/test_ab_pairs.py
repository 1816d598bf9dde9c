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
