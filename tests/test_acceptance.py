"""End-to-end acceptance matrix.

Each test covers one numbered criterion at its stated tolerance and prints
one line on success; run with ``pytest tests/test_acceptance.py -v -s`` to
see the full pass/fail board.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tnormlab.analysis import (
    GridSpec,
    check_archimedean,
    check_axioms,
    check_gph,
    check_pseudo_homogeneous,
    check_tm_equivalences,
    find_gph_counterexample,
    reconstruct_values,
    scan_diagonal,
)
from tnormlab.classify import classify
from tnormlab.core import (
    Canonical,
    Catalog,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    Product,
    companion_values,
    eval_companion,
    eval_tnorm,
    tnorm_values,
)
from tnormlab.dsl import EvalError, ParseError, eval_expr, parse, serialize
from tnormlab.rng import SplitMix64

from conftest import FAMILY_MATRIX, ORDINAL_SUMS, paper_companion

GRID = GridSpec()  # 101 points, 1e-9 / 1e-12, 10^4 samples, seed 0xC0FFEE

EXPECTED_FAMILY = {
    "min": ("Minimum", None),
    "prod": ("Product", None),
    "drastic": ("Drastic", None),
    "ss:-2": ("SchweizerSklarNeg", -2.0),
    "ss:-1": ("SchweizerSklarNeg", -1.0),
    "ss:-0.5": ("SchweizerSklarNeg", -0.5),
    "ss:0.5": ("SchweizerSklarPos", 0.5),
    "ss:1": ("SchweizerSklarPos", 1.0),
    "ss:2": ("SchweizerSklarPos", 2.0),
    "ss:3": ("SchweizerSklarPos", 3.0),
    "cshelf:0.25": ("CShelf", 0.25),
    "cshelf:0.5": ("CShelf", 0.5),
    "cshelf:0.75": ("CShelf", 0.75),
}


def passed(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] PASS {detail}")


def test_criterion_01_catalog_sweeps():
    worst = 0.0
    slowest = 0.0
    for name, spec, tier in FAMILY_MATRIX:
        start = time.perf_counter()
        report = check_gph(spec, Catalog(spec), GRID)
        elapsed = time.perf_counter() - start
        assert report.passed, f"{name}: {report.summary()}"
        assert report.max_residual <= tier, \
            f"{name}: residual {report.max_residual} over tier {tier}"
        assert elapsed <= 10.0, f"{name}: sweep took {elapsed:.1f}s"
        worst = max(worst, report.max_residual)
        slowest = max(slowest, elapsed)
    passed(1, f"13 catalog sweeps, worst residual {worst:.2e},"
              f" slowest {slowest:.2f}s")


def test_criterion_02_section_example_pair():
    companion = Expr("max(x + x*y - 1, 0)")
    sweep = check_gph(Lukasiewicz(), companion, GRID)
    assert sweep.passed
    # exact in real arithmetic; float addition reordering leaves ~2e-16
    assert sweep.max_residual <= GRID.strict_tol
    strictness = check_pseudo_homogeneous(companion, GRID)
    assert not strictness.passed
    w = strictness.witness
    assert (w.x, w.y, w.lhs) == (0.5, 1.0, 0.0)
    assert eval_companion(companion, 0.5, 1.0) == 0.0
    passed(2, f"pair residual {sweep.max_residual:.2e}; boundary witness"
              " F(0.5, 1) = 0")


def test_criterion_03_uniqueness_roundtrip():
    axis = GRID.validation_axis()
    Xv, Yv = np.meshgrid(axis, axis, indexing="ij")
    g = GRID.axis()
    Xg, Yg = np.meshgrid(g, g, indexing="ij")
    worst_recon = 0.0
    worst_pair = 0.0
    for name, spec, _ in FAMILY_MATRIX:
        recon = float(np.abs(reconstruct_values(Canonical(spec), Xv, Yv)
                             - tnorm_values(spec, Xv, Yv)).max())
        pair = float(np.abs(companion_values(Canonical(spec), Xg, Yg)
                            - paper_companion(spec, Xg, Yg)).max())
        assert recon <= 1e-12, f"{name}: reconstruction off by {recon}"
        assert pair <= 1e-12, f"{name}: companions disagree by {pair}"
        worst_recon = max(worst_recon, recon)
        worst_pair = max(worst_pair, pair)
    passed(3, f"reconstruction {worst_recon:.2e}, companion agreement"
              f" {worst_pair:.2e}")


def test_criterion_04_minimum_equivalences():
    for name, spec, _ in FAMILY_MATRIX:
        report = check_tm_equivalences(spec, GRID)
        assert report.passed, f"{name}: {report.summary()}"
        statements = report.metadata["statements"]
        if isinstance(spec, Minimum):
            assert all(statements.values()), name
        else:
            assert not any(statements.values()), name
    passed(4, "all-true exactly for min, all-false for the other 12")


def test_criterion_05_ordinal_sum_witnesses():
    gaps = []
    for spec in ORDINAL_SUMS:
        report = find_gph_counterexample(spec, GRID)
        assert not report.passed
        assert report.witness.gap >= 0.01
        gaps.append(report.witness.gap)
    first = find_gph_counterexample(ORDINAL_SUMS[0], GRID).witness
    assert abs(first.gap - 0.1) <= 1e-12
    assert (first.lam, first.x, first.y) == (0.8, 0.5, 0.5)
    passed(5, f"gaps {', '.join(f'{g:.4f}' for g in gaps)}; first witness at"
              " (0.8, 0.5, 0.5)")


def test_criterion_06_limit_property_counts():
    product = check_archimedean(Product(), x_probe=(0.9,), n_max=10_000,
                                floor=1e-3)
    assert product.passed and product.metadata["minimal_n"]["0.9"] == 66
    luk = check_archimedean(Lukasiewicz(), x_probe=(0.9,), n_max=10_000,
                            floor=1e-3)
    assert luk.passed and luk.metadata["minimal_n"]["0.9"] == 10
    minimum = check_archimedean(Minimum(), x_probe=(0.5, 0.9, 0.99),
                                n_max=10_000, floor=1e-3)
    assert not minimum.passed
    assert all(n is None for n in minimum.metadata["minimal_n"].values())
    passed(6, "minimal n: product 66, lukasiewicz 10; min fails every probe")


def test_criterion_07_diagonal_limit_dichotomy():
    for name, spec, _ in FAMILY_MATRIX:
        report = scan_diagonal(spec, GRID)
        assert report.passed, name
        estimate = report.metadata["limit_estimate"]
        if isinstance(spec, Drastic):
            assert report.metadata["limit"] == 0, name
            assert estimate == 0.0
        else:
            assert report.metadata["limit"] == 1, name
            assert estimate > 1.0 - 1e-5, f"{name}: {estimate}"
    passed(7, "limit 1 for the twelve non-drastic members, 0 for drastic")


def test_criterion_08_classifier_recovery():
    slowest = 0.0
    for name, spec, _ in FAMILY_MATRIX:
        start = time.perf_counter()
        result = classify(spec, GRID)
        elapsed = time.perf_counter() - start
        family, parameter = EXPECTED_FAMILY[name]
        assert result.family == family, f"{name} -> {result.family}"
        if parameter is not None:
            if family == "CShelf":
                assert abs(result.parameter - parameter) <= 1e-6, name
            else:
                rel = abs(result.parameter - parameter) / abs(parameter)
                assert rel <= 1e-6, f"{name}: relative error {rel}"
        assert elapsed <= 5.0, f"{name}: classify took {elapsed:.1f}s"
        slowest = max(slowest, elapsed)
    for spec in ORDINAL_SUMS:
        start = time.perf_counter()
        result = classify(spec, GRID)
        elapsed = time.perf_counter() - start
        assert result.family == "NotGPH"
        assert elapsed <= 5.0
        slowest = max(slowest, elapsed)
    passed(8, f"13 members + 3 ordinal sums recovered, slowest {slowest:.2f}s")


def test_criterion_09_axiom_suite():
    for name, spec, _ in FAMILY_MATRIX:
        report = check_axioms(spec, GRID)
        assert report.passed, f"{name}: {report.summary()}"
        assert report.metadata["assoc_points"] == 41
    for source in ("x*y/2", "min(x,y)^2"):
        mutant = Expr(source)
        report = check_axioms(mutant, GRID)
        assert not report.passed, source
        assert report.metadata["failed_axiom"] == "T4", source
        w = report.witness
        assert w.y == 1.0
        assert eval_tnorm(mutant, w.x, 1.0) == w.lhs  # witness replays
        assert w.rhs == w.x
        assert w.gap > GRID.strict_tol
    passed(9, "matrix passes at 1e-12 on the 41-point cube; both mutants"
              " fail T4 with replayable witnesses")


def test_criterion_10_dsl_contract():
    rng = SplitMix64(0x5EED)
    from test_dsl import random_tree
    for _ in range(1000):
        tree = random_tree(rng, 6)
        assert parse(serialize(tree)) == tree
    from tnormlab.dsl import BinOp, Const, Neg, Var
    assert parse("x+y*2") == BinOp("+", Var("x"), BinOp("*", Var("y"),
                                                        Const(2.0)))
    assert parse("x^y^2") == BinOp("^", Var("x"), BinOp("^", Var("y"),
                                                        Const(2.0)))
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))
    with pytest.raises(ParseError) as perr:
        parse("min(x,")
    assert perr.value.position == 6
    assert "expression" in perr.value.expected
    with pytest.raises(EvalError) as e1:
        eval_expr(parse("x/y"), 0.1, 0.0)
    assert e1.value.kind == "division_by_zero"
    with pytest.raises(EvalError) as e2:
        eval_expr(parse("x^(-1)"), 0.0, 0.5)
    assert e2.value.kind == "zero_to_negative_power"
    with pytest.raises(EvalError) as e3:
        eval_expr(parse("(x-1)^0.5"), 0.5, 0.5)
    assert e3.value.kind == "nan"
    passed(10, "1000 roundtrips, 3 precedence goldens, 4 error cases")


def test_criterion_11_byte_identical_runs():
    argv = [sys.executable, "-m", "tnormlab", "verify", "--tnorm", "ss:-1",
            "--f", "catalog", "--seed", "42", "--json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"] is True
    passed(11, f"two runs, {len(first.stdout)} identical bytes")
