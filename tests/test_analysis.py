import dataclasses
import hashlib
import math
import re
import tracemalloc
from decimal import ROUND_FLOOR, Decimal, localcontext
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormlab import analysis as an
from tnormlab.analysis import (
    GridSpec,
    check_archimedean,
    check_axioms,
    check_continuity_equivalence,
    check_gph,
    check_pseudo_homogeneous,
    check_tm_equivalences,
    check_unit_scale,
    find_gph_counterexample,
    reconstruct_values,
    residual_csv,
    residual_rows,
    scan_diagonal,
)
from tnormlab.core import (
    Canonical,
    Catalog,
    CShelf,
    DomainError,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    Product,
    SchweizerSklar,
    companion_values,
    eval_companion,
    eval_tnorm,
    parse_spec,
    tnorm_values,
)
from tnormlab.dsl import EvalError

from conftest import EXPR_TNORMS, FAMILY_MATRIX, MATRIX_IDS, ORDINAL_SUMS

SEC3_COMPANION = Expr("max(x + x*y - 1, 0)")


# --------------------------------------------------------------------------
# GridSpec
# --------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(points=2)
    with pytest.raises(ValueError):
        GridSpec(eq_tol=0.0)
    with pytest.raises(ValueError):
        GridSpec(step_h=0.5)


def test_validation_axis_is_off_grid():
    g = GridSpec(points=11)
    assert not np.intersect1d(g.axis(), g.validation_axis()).size


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=3, max_value=5000))
def test_axis_ends_exactly_at_0_and_1(n):
    # the checks read T(g, 1) and F(g, 1) as the last column of a grid table
    axis = GridSpec(points=n).axis()
    assert axis[0] == 0.0
    assert axis[-1] == 1.0


# --------------------------------------------------------------------------
# Axioms
# --------------------------------------------------------------------------

def test_axioms_minimum_exact(grid):
    report = check_axioms(Minimum(), grid)
    assert report.passed
    assert report.max_residual == 0.0


def test_axioms_halved_product_fails_boundary(grid):
    report = check_axioms(Expr("x*y/2"), grid)
    assert not report.passed
    assert report.metadata["failed_axiom"] == "T4"
    w = report.witness
    assert w.y == 1.0
    assert w.lhs == pytest.approx(w.x / 2.0, abs=1e-15)
    assert eval_tnorm(Expr("x*y/2"), 1.0, 1.0) == 0.5  # the blunt failure


def test_axioms_squared_min_fails_boundary(grid):
    report = check_axioms(Expr("min(x,y)^2"), grid)
    assert not report.passed
    assert report.metadata["failed_axiom"] == "T4"
    w = report.witness
    assert w.y == 1.0
    assert w.lhs == pytest.approx(w.x ** 2, abs=1e-15)


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_axioms_matrix(name, spec, _, grid):
    report = check_axioms(spec, grid)
    assert report.passed, report.summary()
    assert report.metadata["assoc_points"] == 41


def test_axioms_ordinal_sums_pass(grid):
    for spec in ORDINAL_SUMS:
        assert check_axioms(spec, grid).passed


def test_axioms_full_cube_flag():
    g = GridSpec(points=51, samples=100)
    report = check_axioms(SchweizerSklar(-1), g, assoc_full=True)
    assert report.passed
    assert report.metadata["assoc_points"] == 51


def test_assoc_full_cube_evaluated_in_bounded_blocks(monkeypatch):
    largest = 0

    def recording(spec, x, y):
        nonlocal largest
        out = tnorm_values(spec, x, y)
        largest = max(largest, out.size)
        return out

    monkeypatch.setattr(an, "tnorm_values", recording)
    n = 101
    report = check_axioms(SchweizerSklar(-1), GridSpec(points=n), assoc_full=True)
    assert report.metadata["assoc_points"] == n
    assert largest <= max(an._BLOCK, n ** 2)


def test_assoc_blocks_keep_the_whole_cube_witness():
    # commutative, monotone, neutral 1, not associative
    spec = Expr("x*y*(1+(1-x)*(1-y)/2)")
    g = GridSpec(points=61)
    report = check_axioms(spec, g, assoc_full=True)
    a = g.axis()
    t = tnorm_values(spec, a[:, None], a[None, :])
    r2 = np.abs(tnorm_values(spec, a[:, None, None], t[None, :, :])
                - tnorm_values(spec, t[:, :, None], a[None, None, :]))
    i, j, k = np.unravel_index(int(np.argmax(np.ravel(r2 > g.strict_tol))), r2.shape)
    assert report.metadata["failed_axiom"] == "T2"
    assert report.metadata["axiom_residuals"]["T2"] == float(r2.max())
    w = report.witness
    assert (w.lam, w.x, w.y, w.gap) == (a[i], a[j], a[k], r2[i, j, k])


# --------------------------------------------------------------------------
# Canonical / reconstruct
# --------------------------------------------------------------------------

def test_canonical_f_examples():
    assert eval_companion(Canonical(Minimum()), 0.3, 0.8) == \
        pytest.approx(0.24, abs=1e-15)
    assert eval_companion(Canonical(Product()), 0.5, 1.0) == 0.25
    assert eval_companion(Canonical(Drastic()), 0.5, 0.7) == 0.0


def test_reconstruct_from_section_formula():
    # F(0.9, 0.6/0.9) = max(0.9 + 0.9*(2/3) - 1, 0) = 0.5
    assert reconstruct_values(SEC3_COMPANION, 0.9, 0.6) == \
        pytest.approx(0.5, abs=1e-12)


def test_reconstruct_minimum_example():
    assert reconstruct_values(Catalog(Minimum()), 0.3, 0.8) == \
        pytest.approx(0.3, abs=1e-15)


def test_reconstruct_origin():
    assert reconstruct_values(Catalog(Drastic()), 0.0, 0.0) == 0.0


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_reconstruct_roundtrip_on_lattice(name, spec, _, grid):
    axis = grid.validation_axis()
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    direct = tnorm_values(spec, X, Y)
    recon = reconstruct_values(Canonical(spec), X, Y)
    assert float(np.abs(direct - recon).max()) <= 1e-12


# --------------------------------------------------------------------------
# Scaling-equation sweeps
# --------------------------------------------------------------------------

def test_gph_lukasiewicz_with_section_companion(grid):
    report = check_gph(Lukasiewicz(), SEC3_COMPANION, grid)
    assert report.passed
    assert report.max_residual <= grid.strict_tol
    lam, x, y = 0.8, 0.9, 0.9
    lhs = eval_tnorm(Lukasiewicz(), lam * x, lam * y)
    rhs = eval_companion(SEC3_COMPANION, lam, eval_tnorm(Lukasiewicz(), x, y))
    assert lhs == pytest.approx(0.44, abs=1e-15)
    assert rhs == pytest.approx(0.44, abs=1e-15)


def test_gph_ss2_catalog_spot_triple(grid):
    spec = SchweizerSklar(2)
    report = check_gph(spec, Catalog(spec), grid)
    assert report.passed
    lam, x, y = 0.9, 0.9, 0.95
    expected = math.sqrt(0.387125)
    assert eval_tnorm(spec, lam * x, lam * y) == pytest.approx(expected, abs=1e-12)
    assert eval_companion(Catalog(spec), lam, eval_tnorm(spec, x, y)) == \
        pytest.approx(expected, abs=1e-12)


def test_gph_intrinsic_matches_catalog_residual(grid):
    for name, spec, _ in FAMILY_MATRIX:
        catalog = check_gph(spec, Catalog(spec), grid)
        intrinsic = check_gph(spec, None, grid)
        assert catalog.passed and intrinsic.passed, name
        assert catalog.max_residual == intrinsic.max_residual, name


def test_gph_ordinal_sum_fails_intrinsically(grid):
    spec = ORDINAL_SUMS[0]
    report = check_gph(spec, None, grid)
    assert not report.passed
    # the triple scaling the top corner of the summand violates by 0.1
    lhs = eval_tnorm(spec, 0.4, 0.4)
    rhs = eval_tnorm(spec, 0.8, 0.8 * eval_tnorm(spec, 0.5, 0.5))
    assert lhs == pytest.approx(0.3, abs=1e-15)
    assert rhs == pytest.approx(0.4, abs=1e-15)
    # the sweep's own maximum sits where the scaled square degenerates
    assert report.max_residual == pytest.approx(0.25, abs=1e-12)
    assert (report.witness.lam, report.witness.x, report.witness.y) == \
        (0.5, 0.5, 0.5)


#: (spec, companion) pairs whose half sweep is compared with the full cube:
#: every symmetric kind of the matrix and luk, intrinsic and with its
#: Catalog companion, the fixed ordinal sums, two Expr companions and the
#: mirror-symmetric Expr t-norms of the benchmark.
HALF_SWEEP_CASES = (
    [(spec, f) for spec in [s for _, s, _ in FAMILY_MATRIX] + [Lukasiewicz()]
     for f in (None, Catalog(spec))]
    + [(spec, None) for spec in ORDINAL_SUMS]
    + [(Lukasiewicz(), Expr("max(x+x*y-1,0)")), (Product(), Expr("x*y"))]
    + [(spec, None) for spec in EXPR_TNORMS])


def full_cube_slices(spec, f, points):
    """Each lambda slice of the full points^3 cube as (residual, lambda,
    lhs, rhs) tables over the (x, y) grid, the companion evaluated on every
    entry of T(x, y): a reference independent of the sweep engine."""
    comp = Canonical(spec) if f is None else f
    g = GridSpec(points=points).axis()
    t = tnorm_values(spec, g[:, None], g[None, :])
    for lam in g:
        lhs = tnorm_values(spec, lam * g[:, None], lam * g[None, :])
        rhs = companion_values(comp, lam, t)
        yield np.abs(lhs - rhs), lam, lhs, rhs


@lru_cache(maxsize=None)
def full_cube_first_max(spec, f, points):
    """(lambda, x, y, lhs, rhs, residual) at the first maximal residual of
    the full cube, slices in lambda order and entries in C order."""
    g = GridSpec(points=points).axis()
    best = None
    for res, lam, lhs, rhs in full_cube_slices(spec, f, points):
        i, j = np.unravel_index(int(np.argmax(res)), res.shape)
        if best is None or res[i, j] > best[5]:
            best = (lam, g[i], g[j], lhs[i, j], rhs[i, j], res[i, j])
    return tuple(float(v) for v in best)


@pytest.mark.parametrize("points", [51, 151])
@pytest.mark.parametrize(
    "spec,f", HALF_SWEEP_CASES,
    ids=[f"{s.label()}/{'intrinsic' if f is None else f.label()}"
         for s, f in HALF_SWEEP_CASES])
def test_gph_half_sweep_matches_full_cube(spec, f, points):
    """A symmetric spec sweeps only x <= y, yet reports the full cube's
    maximum and its first maximal triple, at the default eq_tol (ss:2 at
    151 points and the ordinal sums fail) and at the least positive one,
    where every nonzero residual has a witness and ties are many."""
    # Catalog is Canonical plus a guard: both forms share one reference
    row = full_cube_first_max(spec, None if isinstance(f, Catalog) else f,
                              points)
    for eq_tol in (1e-9, 5e-324):
        report = check_gph(spec, f, GridSpec(points=points, samples=0,
                                             eq_tol=eq_tol))
        assert report.max_residual == row[5]
        assert report.passed == (row[5] <= eq_tol)
        if not report.passed:
            w = report.witness
            assert (w.lam, w.x, w.y, w.lhs, w.rhs, w.gap) == row


def test_residual_rows_match_full_cube():
    """The CSV rows carry the full cube's values bit for bit, every
    companion value evaluated directly."""
    spec = ORDINAL_SUMS[2]
    g = GridSpec(points=51).axis()
    x, y = np.repeat(g, g.size), np.tile(g, g.size)
    expected = [row
                for res, lam, lhs, rhs in full_cube_slices(spec, None, 51)
                for row in zip([float(lam)] * x.size, x.tolist(), y.tolist(),
                               lhs.ravel().tolist(), rhs.ravel().tolist(),
                               res.ravel().tolist())]
    rows = list(residual_rows(spec, None, GridSpec(points=51, samples=0)))
    assert rows == expected
    assert max(rows, key=itemgetter(5)) == full_cube_first_max(spec, None, 51)


@pytest.mark.parametrize("spec", [Minimum(), CShelf(0.5)], ids=["min", "cshelf"])
def test_gph_evaluates_companion_once_per_distinct_t(monkeypatch, spec):
    """T takes at most `points` distinct values on the grid for min and
    cshelf.  The sweep evaluates the companion once per distinct T per
    lambda: three 5,151-triple slices a call at 101 points, one
    11,476-triple slice a call at 151 points."""
    sizes = []

    def recording(f, x, y):
        out = companion_values(f, x, y)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(an, "companion_values", recording)
    for points, per_call in ((101, 3), (151, 1)):
        sizes.clear()
        grid = GridSpec(points=points, samples=0)
        assert check_gph(spec, None, grid).passed
        g = grid.axis()
        distinct = an._distinct(tnorm_values(spec, g[:, None], g[None, :]))[0]
        assert 0 < distinct.size <= points
        assert an._BLOCK // (points * (points + 1) // 2) == per_call
        assert len(sizes) == -(-points // per_call)
        assert sum(sizes) == points * distinct.size


#: (t-norm token, Expr companion or None) pairs swept against the slice by
#: slice reference: catalog kinds, a 3-summand ordinal sum, Hamacher as an
#: expression (mirror symmetric: the half cube) and an Expr companion; then
#: Schweizer-Sklar members on the tabulated powers (ss:1 joins its plain
#: powers), ss:-150 with powers that overflow to inf and ss:150 with powers
#: that underflow to 0.
BLOCK_CASES = [
    ("ss:-2", None), ("ss:3", None), ("luk", None), ("cshelf:0.25", None),
    ("drastic", None), ("osum:[0.1,0.3,prod;0.4,0.7,luk;0.8,0.95,ss:2]", None),
    ("expr:x*y/max(x+y-x*y,1e-300)", None), ("prod", "x*y"),
    ("ss:-0.5", None), ("ss:0.5", None), ("ss:1", None), ("ss:-150", None),
    ("ss:150", None)]
BLOCK_IDS = ["ss:-2", "ss:3", "luk", "cshelf", "drastic", "osum3", "hamacher",
             "prod-xy", "ss:-0.5", "ss:0.5", "ss:1", "ss:-150", "ss:150"]
#: every case at 11, 51 and 101 points, the Schweizer-Sklar ones at 151 too,
#: where a block is one slice.
BLOCK_SWEEPS = [
    pytest.param(tnorm, f, points, id=f"{name}-{points}")
    for (tnorm, f), name in zip(BLOCK_CASES, BLOCK_IDS)
    for points in (11, 51, 101) + ((151,) if tnorm.startswith("ss:") else ())]


def sliced_gph_slices(spec, comp, grid, half=False):
    """The scaling-equation sweep one lambda at a time, both sides evaluated
    on every entry of the slice: a reference for the blocked sweep, in the
    piece shape of ``_gph_slices`` (a leading axis of one lambda)."""
    g = grid.axis()
    if half:
        i, j = np.triu_indices(g.size)
        x, y = g[i], g[j]
    else:
        x, y = g[:, None], g[None, :]
    t = tnorm_values(spec, x, y)
    for lam in g.reshape((-1, 1) + (1,) * x.ndim):
        lhs = tnorm_values(spec, lam * x, lam * y)
        rhs = companion_values(comp, lam, t)
        yield np.abs(lhs - rhs), lam, x, y, lhs, rhs


def rows_digest(rows) -> str:
    """sha256 of the float bits of ``rows`` of six floats, in order."""
    h = hashlib.sha256()
    while (chunk := np.fromiter(chain.from_iterable(islice(rows, 8192)),
                                np.float64)).size:
        h.update(chunk.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("tnorm,f,points", BLOCK_SWEEPS)
def test_blocked_sweep_matches_slice_by_slice(monkeypatch, tnorm, f, points):
    """Blocks of lambda slices give the report of the slice by slice sweep
    bit for bit.  The least positive eq_tol gives every nonzero residual a
    witness; the seeded samples are on."""
    spec, comp = parse_spec(tnorm), None if f is None else Expr(f)
    grid = GridSpec(points=points, eq_tol=5e-324)
    blocked = check_gph(spec, comp, grid).to_json()
    monkeypatch.setattr(an, "_gph_slices", lambda spec, comp, grid:
                        sliced_gph_slices(spec, comp, grid, spec.symmetric))
    assert check_gph(spec, comp, grid).to_json() == blocked


@pytest.mark.parametrize("points", [11, 51])
@pytest.mark.parametrize("tnorm,f", BLOCK_CASES, ids=BLOCK_IDS)
def test_residual_rows_match_slice_by_slice(tnorm, f, points):
    """The rows stream from the reference sweep and carry the slice by
    slice sweep's values over the full cube bit for bit."""
    spec, comp = parse_spec(tnorm), None if f is None else Expr(f)
    grid = GridSpec(points=points)
    slices = sliced_gph_slices(spec, Canonical(spec) if f is None else comp,
                               grid)
    expected = chain.from_iterable(
        zip(*(np.broadcast_to(a, res.shape).ravel().tolist()
              for a in (lam, x, y, lhs, rhs, res)))
        for res, lam, x, y, lhs, rhs in slices)
    assert rows_digest(residual_rows(spec, comp, grid)) == \
        rows_digest(expected)


SS_MATRIX = [(name, s) for name, s, _ in FAMILY_MATRIX
             if isinstance(s, SchweizerSklar)]


def full_layout(spec):
    """``spec`` swept over the full cube, as a spec that is not symmetric."""
    spec = dataclasses.replace(spec)
    object.__setattr__(spec, "symmetric", False)
    return spec


@pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("spec", [s for _, s in SS_MATRIX],
                         ids=[name for name, _ in SS_MATRIX])
def test_tabulated_powers_give_the_kernel_bits(spec, half):
    """Each blocked piece's lhs is T(l*x, l*y) bit for bit, whether the
    sweep gathers the powers from its table or not, on the half and on the
    full cube (the layout of a spec that is not symmetric), the l = 1 and
    x = 0 rows included."""
    if not half:
        spec = full_layout(spec)
    lams, xs = set(), set()
    for _, lam, x, y, lhs, _ in an._gph_slices(spec, Canonical(spec),
                                               GridSpec(points=51)):
        want = tnorm_values(spec, lam * x, lam * y)
        assert lhs.shape == want.shape
        assert np.array_equal(lhs.view(np.int64), want.view(np.int64))
        lams.update(np.ravel(lam).tolist())
        xs.update(np.ravel(x).tolist())
    assert 1.0 in lams and 0.0 in xs


@pytest.mark.parametrize("spec", [
    Product(), SchweizerSklar(-0.5), full_layout(Product()),
    full_layout(SchweizerSklar(-0.5)), Expr("x^3*y")],
    ids=["prod", "ss:-0.5", "prod-full", "ss:-0.5-full", "x^3*y"])
def test_pieces_share_one_workspace(spec):
    """Consecutive pieces of one sweep are formed in the same residual
    buffer, on the half and on the full layout, and each piece is a fresh
    evaluation of both sides bit for bit while it is current."""
    comp = Canonical(spec)
    pieces = 0
    last = None
    for res, lam, x, y, lhs, rhs in an._gph_slices(spec, comp,
                                                   GridSpec(points=51)):
        assert x.shape == (51 * 52 // 2 if spec.symmetric else 51 ** 2,)
        want_lhs = tnorm_values(spec, lam * x, lam * y)
        want_rhs = companion_values(comp, lam, tnorm_values(spec, x, y))
        for got, want in ((lhs, want_lhs), (rhs, want_rhs),
                          (res, np.abs(want_lhs - want_rhs))):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if last is not None:
            assert np.shares_memory(res, last)
        last = res
        pieces += 1
    # blocks of 12 lambda slices on the half layout, of 6 on the full one
    assert pieces == (5 if spec.symmetric else 9)


@pytest.mark.parametrize("tnorm", ["ss:-0.5", "min",
                                   "expr:x*y/(2-(x+y-x*y))"])
def test_gph_memory_stays_quadratic_in_points(tnorm):
    """The traced peak of check_gph stays within 1.5 MB + 100 B * points^2
    at 101, 151 and 201 points (about 3.4 MB for ss:-0.5 at 201); a
    workspace of points^3 entries would read about 65 MB there."""
    spec = parse_spec(tnorm)
    for points in (101, 151, 201):
        grid = GridSpec(points=points)
        check_gph(spec, None, grid)
        tracemalloc.start()
        try:
            check_gph(spec, None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6 + 100 * points ** 2, (points, peak)


def test_only_costly_argument_work_is_tabulated():
    """Of the catalog, only Schweizer-Sklar declares per-argument work, and
    not where its power is a copy or a square (b = 1, 2), which costs less
    than a gather."""
    tabulated = [name for name, spec, _ in FAMILY_MATRIX
                 if spec.argument_power is not None]
    assert tabulated == ["ss:-2", "ss:-1", "ss:-0.5", "ss:0.5", "ss:3"]
    assert all(s.argument_power is None for s in ORDINAL_SUMS + EXPR_TNORMS)


def test_blocked_sweep_witness_in_a_later_slice_of_its_block():
    """At 101 points a block holds three 5,151-triple slices; the 3-summand
    ordinal sum of BLOCK_CASES has its witness in the third slice of the
    block for lambda = 0.72, 0.73, 0.74."""
    grid = GridSpec(points=101)
    w = check_gph(parse_spec(BLOCK_CASES[5][0]), None, grid).witness
    k = int(np.flatnonzero(grid.axis() == w.lam)[0])
    assert an._BLOCK // 5151 == 3
    assert (k, k % 3) == (74, 2)


def test_mid_block_error_is_the_first_failing_slice():
    """At 11 points the whole sweep is one block.  There the companion's
    first division fails first, at x = 0.5; slice by slice, the lambda =
    0.4 slice fails first, in the second division.  check_gph then runs
    the reference sweep, and the CSV streams from it, so the error and the
    partial CSV are the sequential ones: the header and the 4 x 121 rows
    of lambda < 0.4."""
    f = Expr("x*y + 0*(1/(x-0.5)) + 0*(1/(x-0.4))")
    grid = GridSpec(points=11, samples=0)
    error = re.escape("division by zero in (1.0 / (x - 0.4)) at (x, y) = (0.4, 0.0)")
    with pytest.raises(EvalError, match=error):
        check_gph(Product(), f, grid)
    chunks = []
    with pytest.raises(EvalError, match=error):
        for chunk in residual_csv(Product(), f, grid):
            chunks.append(chunk)
    lines = "".join(chunks).splitlines()
    assert len(lines) == 1 + 484
    assert lines[-1].startswith("0.30000000000000004,1.0,1.0,")


@pytest.mark.parametrize("points", [11, 51, 101, 151])
@pytest.mark.parametrize("tnorm,f", [BLOCK_CASES[i] for i in (0, 5, 6, 7)],
                         ids=[BLOCK_IDS[i] for i in (0, 5, 6, 7)])
def test_gph_kernel_calls_stay_within_one_block(monkeypatch, tnorm, f, points):
    """No kernel call of check_gph evaluates more than _BLOCK elements, or
    one slice where a slice holds more."""
    spec, comp = parse_spec(tnorm), None if f is None else Expr(f)
    sizes = []

    def recording(kernel):
        def call(*args):
            out = kernel(*args)
            sizes.append(out.size)
            return out
        return call

    monkeypatch.setattr(an, "tnorm_values", recording(tnorm_values))
    monkeypatch.setattr(an, "companion_values", recording(companion_values))
    check_gph(spec, comp, GridSpec(points=points))
    one_slice = points * (points + 1) // 2 if spec.symmetric else points ** 2
    assert sizes and max(sizes) <= max(an._BLOCK, one_slice)


def test_distinct_keeps_bit_patterns_apart():
    t = np.array([0.5, -0.0, 0.0, 0.5, 1.0])
    values, at = an._distinct(t)
    assert len(set(values.view(np.int64).tolist())) == values.size == 4
    assert values[at].view(np.int64).tolist() == t.view(np.int64).tolist()
    table = np.array([[0.25, 0.0], [0.25, 1.0]])
    values, at = an._distinct(table)
    assert at.shape == table.shape
    assert np.array_equal(values[at], table)


def test_gph_expr_sweeps_full_cube():
    """x^3*y is not symmetric: its largest residual at 51 points lies below
    the diagonal, and the upper triangle's is 2.220446049250313e-16."""
    report = check_gph(Expr("x^3*y"), None, GridSpec(points=51, samples=0))
    assert report.max_residual == 3.3306690738754696e-16


def test_gph_symmetric_expr_error_is_the_full_cube_error():
    """The rule accepts (y-x)^0.5+(x-y)^0.5, whose half sweep meets its
    first NaN in the other branch, at the mirrored point.  check_gph runs
    the reference sweep over the full cube and raises its error."""
    spec, grid = Expr("(y-x)^0.5+(x-y)^0.5"), GridSpec(points=21)
    assert spec.symmetric
    with pytest.raises(EvalError, match=re.escape(
            "NaN produced in ((x - y) ^ 0.5) at (x, y) = (0.0, 0.05)")):
        list(an._gph_slices(spec, Canonical(spec), grid))
    with pytest.raises(EvalError, match=re.escape(
            "NaN produced in ((y - x) ^ 0.5) at (x, y) = (0.05, 0.0)")):
        check_gph(spec, None, grid)


def test_gph_error_only_in_the_seeded_samples():
    """The companion is NaN only for lambda in (0.32, 0.34), between two
    grid lambdas at 11 points, where the sixth smallest of 20 seeded
    lambdas lies.  The grid sweep passes; with the samples on, the fast
    sweep raises and so does the reference sweep, naming that sample."""
    f = Expr("x*x*y + 0*((x-0.32)*(x-0.34))^0.5")
    assert check_gph(Product(), f, GridSpec(points=11, samples=0)).passed
    with pytest.raises(EvalError, match=re.escape(
            "NaN produced in (((x - 0.32) * (x - 0.34)) ^ 0.5) at (x, y) ="
            " (0.3298038124947792, 0.03691602889491254)")):
        check_gph(Product(), f, GridSpec(points=11, samples=20))


def test_gph_probes_use_the_given_companion():
    """The companion is NaN only for lambda in (0.79, 0.81), which no grid
    lambda at 5 points reaches, but the case-2 probe of osum:[0,0.5,luk]
    evaluates it at lambda 0.8: check_gph evaluates the probes with the
    given companion, after the grid."""
    spec, f = ORDINAL_SUMS[0], Expr("x*y + 0*((x-0.79)*(x-0.81))^0.5")
    grid = GridSpec(points=5, samples=0)
    assert not check_gph(spec, None, grid).passed
    with pytest.raises(EvalError, match=re.escape(
            "NaN produced in (((x - 0.79) * (x - 0.81)) ^ 0.5) at (x, y) ="
            " (0.8, 0.5)")):
        check_gph(spec, f, grid)


@pytest.mark.parametrize("points", [51, 101, 151])
def test_gph_fails_a_sum_only_its_probes_see(points):
    """The grid and the seeded samples pass the narrow summand
    [0.9, 0.9005] at every size; its case-1 probe fails by a fifth of the
    summand's width, and check_gph takes it as the witness."""
    spec = parse_spec("osum:[0.9,0.9005,luk]")
    report = check_gph(spec, None, GridSpec(points=points))
    search = find_gph_counterexample(spec, GridSpec(points=points))
    assert not report.passed
    assert report.max_residual == pytest.approx(9.997e-5, rel=1e-4)
    assert report.witness == search.witness
    assert search.metadata["witness_source"] == "case1"


def test_gph_expr_companion_domain_error_text():
    """The first out-of-range companion value names the same point on the
    half sweep as on the full cube."""
    with pytest.raises(DomainError, match=re.escape(
            "companion expression evaluates outside [0, 1] at"
            " (x, y) = (0.25, 0.375): 1.3125")):
        check_gph(Product(), Expr("min(1,2*y)*(1+x*(1-x)*4)"),
                  GridSpec(points=5))


@pytest.mark.parametrize("spec,f,points,point", [
    (Product(), "min(1,2*y)*(1+x*(1-x)*4)", 51, "(0.02, 0.4704): 1.01455872"),
    (Lukasiewicz(), "x-y", 11,
     "(0.0, 0.10000000000000009): -0.10000000000000009"),
], ids=["prod-51", "luk-11"])
def test_gph_expr_companion_domain_error_names_first_point(spec, f, points,
                                                            point):
    """The fast sweep evaluates the companion once per distinct T(x, y), in
    sorted order; when it raises, check_gph runs the reference sweep, so
    the error still names the first bad point in C order."""
    with pytest.raises(DomainError, match=re.escape(
            f"companion expression evaluates outside [0, 1] at (x, y) = {point}")):
        check_gph(spec, Expr(f), GridSpec(points=points))


def test_gph_deterministic_reports(grid):
    a = check_gph(SchweizerSklar(-0.5), None, grid)
    b = check_gph(SchweizerSklar(-0.5), None, grid)
    assert a.to_json() == b.to_json()


def test_unit_scale_precheck():
    assert check_unit_scale(Expr("x*y")).passed  # F(1, t) = t holds
    report = check_unit_scale(Expr("x*y/2"))
    assert not report.passed
    assert report.witness.lam == 1.0


# --------------------------------------------------------------------------
# Pseudo-homogeneity (strict predicate)
# --------------------------------------------------------------------------

def test_ph_product_passes(grid):
    assert check_pseudo_homogeneous(Catalog(Product()), grid).passed


def test_ph_ss_negative_passes(grid):
    assert check_pseudo_homogeneous(Catalog(SchweizerSklar(-2)), grid).passed
    assert check_pseudo_homogeneous(Catalog(SchweizerSklar(-0.5)), grid).passed


def test_ph_section_companion_fails_at_boundary(grid):
    report = check_pseudo_homogeneous(SEC3_COMPANION, grid)
    assert not report.passed
    w = report.witness
    assert (w.x, w.y) == (0.5, 1.0)
    assert w.lhs == 0.0  # F(0.5, 1) = 0 with x != 0
    assert eval_companion(SEC3_COMPANION, 0.5, 1.0) == 0.0


def test_ph_catalog_kinds(grid):
    # strict regularity holds exactly for the continuous kinds whose
    # companion keeps F(x, 1) positive: Minimum (F = x*y), Product, and the
    # negative exponent branch; every nilpotent or discontinuous kind fails
    for name, spec, _ in FAMILY_MATRIX:
        report = check_pseudo_homogeneous(Catalog(spec), grid)
        strict = isinstance(spec, (Minimum, Product)) or (
            isinstance(spec, SchweizerSklar) and spec.beta < 0)
        assert report.passed == strict, name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: no grid point lies in"
                   " a zero run at most one grid spacing wide")
@pytest.mark.parametrize("c,points", [(0.005, 51), (0.005, 101), (0.01, 51),
                                      (0.01, 101), (0.02, 51)])
def test_ph_cshelf_fails_for_every_edge(c, points):
    # F(x, 1) = T(x, x) = 0 on (0, c), so the boundary test fails every edge
    report = check_pseudo_homogeneous(Catalog(CShelf(c)),
                                      GridSpec(points=points))
    assert not report.passed


def test_ph_boundary_gap_is_nonnegative_at_coarse_tolerance():
    # F(x, 1) = x + 0.1 stays under eq_tol up to x = 0.1, where F exceeds x
    report = check_pseudo_homogeneous(Expr("min(x*y+0.1*y,1)"),
                                      GridSpec(points=11, eq_tol=0.2))
    w = report.witness
    assert not report.metadata["boundary_ok"]
    assert (w.x, w.lhs, w.rhs) == (0.1, 0.2, 0.1)
    assert report.max_residual == w.gap == abs(0.2 - 0.1)


def test_ph_drastic_jump(grid):
    report = check_pseudo_homogeneous(Catalog(Drastic()), grid)
    assert not report.passed
    assert not report.metadata["boundary_ok"]
    assert not report.metadata["continuous_at_grid_scale"]
    f = Catalog(Drastic())
    jump = eval_companion(f, 1.0, 0.7) - eval_companion(f, 0.99, 0.7)
    assert jump == 0.7


# --------------------------------------------------------------------------
# Archimedean limit property
# --------------------------------------------------------------------------

def test_archimedean_product():
    report = check_archimedean(Product(), x_probe=(0.5, 0.9, 0.99))
    assert report.passed
    assert report.metadata["minimal_n"]["0.9"] == 66


def test_archimedean_keys_distinct_probes_apart():
    report = check_archimedean(Product(), x_probe=(0.9, 0.9000000000001))
    assert sorted(report.metadata["minimal_n"]) == ["0.9", "0.9000000000001"]


def test_archimedean_minimum_fails():
    report = check_archimedean(Minimum(), x_probe=(0.5,))
    assert not report.passed
    assert report.metadata["minimal_n"]["0.5"] is None
    assert report.witness.x == 0.5


def test_archimedean_drastic_immediate():
    report = check_archimedean(Drastic(), x_probe=(0.9,))
    assert report.passed
    assert report.metadata["minimal_n"]["0.9"] == 2


def closed_form_minimal_n(beta, x, floor, n_max):
    # powers of the exponent family: x^(n) = (max(n*x^b - (n-1), 0))^(1/b)
    for n in range(1, n_max + 1):
        s = n * math.pow(x, beta) - (n - 1)
        value = math.pow(s, 1.0 / beta) if (beta < 0 or s > 0) else 0.0
        if value < floor:
            return n
    return None


@pytest.mark.parametrize("beta,floor", [(0.5, 1e-3), (2.0, 1e-3), (3.0, 1e-3),
                                        (-0.5, 1e-3), (-1.0, 1e-3),
                                        (-2.0, 0.0501)])
def test_archimedean_exponent_family_matches_closed_form(beta, floor):
    # beta = -2 decays like n^(-1/2): reaching 1e-3 needs ~4.3e6 steps, more
    # than the 10,000 the sequential closed form scans, so its floor is
    # relaxed (and kept off the exact power lattice of 0.9); the others
    # reach 1e-3 within 10,000 steps.
    expected = closed_form_minimal_n(beta, 0.9, floor, 10_000)
    assert expected is not None
    report = check_archimedean(SchweizerSklar(beta), x_probe=(0.9,),
                               floor=floor)
    assert report.passed
    assert report.metadata["minimal_n"]["0.9"] == expected


def exact_minimal_n(beta, x, floor):
    # least n with x^(n) < floor for the exponent family (beta = 0: the
    # product), in 60-digit decimal on the exact binary x and floor:
    # x^(n) < floor  <=>  n > (1 - floor^b) / (1 - x^b), or ln(floor)/ln(x)
    with localcontext() as ctx:
        ctx.prec = 60
        xd, fd = Decimal(x), Decimal(floor)
        if beta == 0:
            bound = fd.ln() / xd.ln()
        else:
            b = Decimal(beta)
            bound = (1 - fd ** b) / (1 - xd ** b)
        return int(bound.to_integral_value(rounding=ROUND_FLOOR)) + 1


#: sub-ulp ties: x^(n) at the exact n is about 0.1 ulp under the binary
#: 1e-3, which the tie rule reads as not below, so the count is one above.
EXACT_OR_NEXT = {("ss:-1", 0.5), ("ss:-2", 0.5)}


@pytest.mark.parametrize("token,beta", [
    ("prod", 0), ("luk", 1), ("ss:0.5", 0.5), ("ss:-0.5", -0.5),
    ("ss:-1", -1), ("ss:-2", -2), ("ss:2", 2), ("ss:3", 3)])
def test_archimedean_matches_exact_decimal_count(token, beta):
    report = check_archimedean(parse_spec(token))
    assert report.passed
    for probe in (0.5, 0.9, 0.99):
        exact = exact_minimal_n(beta, probe, 1e-3)
        got = report.metadata["minimal_n"][str(probe)]
        if (token, probe) in EXACT_OR_NEXT:
            assert got in (exact, exact + 1), (probe, got, exact)
        else:
            assert got == exact, (probe, got, exact)


@pytest.mark.parametrize("spec", [SchweizerSklar(-1.0), SchweizerSklar(-2.0),
                                  Expr("x*y/max(x+y-x*y,1e-300)")],
                         ids=["ss:-1", "ss:-2", "hamacher"])
def test_archimedean_defaults_reach_slow_decays(spec):
    # powers of these decay like n^(1/b): ss:-2 at 0.99 needs n = 49,251,208
    report = check_archimedean(spec)
    assert report.passed
    assert report.witness is None
    assert report.metadata["n_max"] == 2**53


def test_archimedean_counts_where_powers_are_within_an_ulp():
    # ss:-4.8 at 0.99 needs n ~ 5.1e15: there x^(n) and x^(n+1) differ by
    # less than an ulp, so only the count's relative accuracy is defined
    report = check_archimedean(SchweizerSklar(-4.8))
    assert report.passed
    for probe in (0.5, 0.9, 0.99):
        assert report.metadata["minimal_n"][str(probe)] == pytest.approx(
            exact_minimal_n(-4.8, probe, 1e-3), rel=1e-12)


@pytest.mark.parametrize("spec,n_max", [
    (SchweizerSklar(-2.0), 2**53), (Minimum(), 2**53), (Product(), 2**53),
    (SchweizerSklar(-1.0), 10_000), (CShelf(0.75), 7)])
def test_archimedean_calls_are_logarithmic(monkeypatch, spec, n_max):
    calls = []

    def counting(*args):
        calls.append(1)
        return tnorm_values(*args)

    monkeypatch.setattr(an, "tnorm_values", counting)
    check_archimedean(spec, n_max=n_max)
    assert 0 < len(calls) <= 2 * n_max.bit_length() + 2


def test_archimedean_cap_is_exact():
    capped = check_archimedean(SchweizerSklar(-1.0), x_probe=(0.9,),
                               n_max=8991)
    assert not capped.passed
    assert capped.metadata["minimal_n"]["0.9"] is None
    # x^(8991) is the floor up to rounding: the tie the cap must not pass
    assert capped.witness.x == 0.9
    assert capped.witness.lhs == pytest.approx(1e-3, rel=1e-14)
    reached = check_archimedean(SchweizerSklar(-1.0), x_probe=(0.9,),
                                n_max=8992)
    assert reached.passed
    assert reached.metadata["minimal_n"]["0.9"] == 8992


def test_archimedean_rejects_bad_arguments():
    for kwargs in ({"n_max": 0}, {"n_max": 2**53 + 1}, {"floor": 1.0},
                   {"x_probe": (1.0,)}):
        with pytest.raises(ValueError):
            check_archimedean(Product(), **kwargs)


# --------------------------------------------------------------------------
# Scan of the diagonal
# --------------------------------------------------------------------------

def test_scan_drastic_limit_zero(grid):
    report = scan_diagonal(Drastic(), grid)
    assert report.passed
    assert report.metadata["limit"] == 0
    assert report.metadata["zero_on_interior"]


def test_scan_cshelf_edge(grid):
    report = scan_diagonal(CShelf(0.25), grid)
    assert report.passed
    assert report.metadata["limit"] == 1
    assert report.metadata["shelf_edge"] == pytest.approx(0.25, abs=grid.spacing)


def test_scan_product(grid):
    report = scan_diagonal(Product(), grid)
    assert report.passed
    assert report.metadata["limit"] == 1
    assert report.metadata["shelf_edge"] is None
    assert report.metadata["monotone_max_violation"] == 0.0


def test_scan_ordinal_sum_is_not_a_shelf(grid):
    # plateau followed by a climb, not by identity: no shelf edge
    report = scan_diagonal(ORDINAL_SUMS[0], grid)
    assert report.metadata["shelf_edge"] is None


def reference_diagonal_shelf(g, d, tol):
    """(zero_on_interior, (plateau_end, shelf_edge) or None) of the
    diagonal d on the grid g: the shelf rule as a function of its own,
    kept here as the reference for the one in scan_diagonal."""
    interior = (g > 0.0) & (g < 1.0)
    gi = g[interior]
    di = d[interior]
    is_zero = di <= tol
    if bool(np.all(is_zero)):
        return True, None
    if not is_zero[0]:
        return False, None
    k = int(np.argmin(is_zero))  # first non-plateau index; >=1 here
    if not np.all(di[k:] >= gi[k:] - tol):
        return False, None
    return False, (float(gi[k - 1]), float(gi[k]))


SHELF_SPECS = ([spec for _, spec, _ in FAMILY_MATRIX] + [Lukasiewicz()]
               + ORDINAL_SUMS + EXPR_TNORMS
               + [CShelf(c) for c in (0.005, 0.01, 0.333, 0.995)])


@pytest.mark.parametrize("points", [11, 51, 101])
def test_scan_shelf_matches_the_reference_rule(points):
    grid = GridSpec(points=points)
    g = grid.axis()
    for spec in SHELF_SPECS:
        zero, shelf = reference_diagonal_shelf(g, tnorm_values(spec, g, g),
                                               grid.eq_tol)
        meta = scan_diagonal(spec, grid).metadata
        got = (meta["zero_on_interior"], meta["plateau_end"], meta["shelf_edge"])
        want = (zero, *(shelf or (None, None)))
        assert repr(got) == repr(want), spec.label()


# --------------------------------------------------------------------------
# Minimum equivalences
# --------------------------------------------------------------------------

def test_tm_equivalences_minimum(grid):
    report = check_tm_equivalences(Minimum(), grid)
    assert report.passed
    assert all(report.metadata["statements"].values())


def test_tm_equivalences_product(grid):
    report = check_tm_equivalences(Product(), grid)
    assert report.passed
    assert not any(report.metadata["statements"].values())
    assert eval_companion(Canonical(Product()), 0.5, 1.0) == 0.25


def test_tm_equivalences_lukasiewicz(grid):
    report = check_tm_equivalences(Lukasiewicz(), grid)
    assert report.passed
    assert not any(report.metadata["statements"].values())
    f = Canonical(Lukasiewicz())
    assert eval_companion(f, 0.5, 1.0) == 0.0
    assert eval_companion(f, 1.0, 0.5) == 0.5


# --------------------------------------------------------------------------
# Continuity equivalence
# --------------------------------------------------------------------------

def test_continuity_ss_half_both_continuous(grid):
    report = check_continuity_equivalence(SchweizerSklar(0.5), grid)
    assert report.passed
    assert report.metadata["t_continuous_at_grid_scale"]
    assert report.metadata["f_continuous_at_grid_scale"]


def test_continuity_drastic_both_jump(grid):
    report = check_continuity_equivalence(Drastic(), grid)
    assert report.passed
    assert not report.metadata["t_continuous_at_grid_scale"]
    assert not report.metadata["f_continuous_at_grid_scale"]
    assert eval_tnorm(Drastic(), 1.0, 0.9) - eval_tnorm(Drastic(), 0.99, 0.9) \
        == 0.9


def test_adjacent_jump_tie_goes_to_x_neighbours(grid):
    # drastic is symmetric: its largest x-step and y-step are equal
    g = grid.axis()
    table = tnorm_values(Drastic(), g[:, None], g[None, :])
    jump, w = an._max_adjacent_jump(table, g)
    assert jump == 0.99
    assert (w.x, w.y, w.lhs, w.rhs) == (1.0, 0.99, 0.99, 0.0)


def test_continuity_cshelf_both_jump(grid):
    report = check_continuity_equivalence(CShelf(0.5), grid)
    assert report.passed
    assert not report.metadata["t_continuous_at_grid_scale"]


def test_continuity_equivalence_all_matrix(grid):
    for name, spec, _ in FAMILY_MATRIX:
        report = check_continuity_equivalence(spec, grid)
        assert report.passed, name
        assert report.metadata["continuity_heuristic"]


# --------------------------------------------------------------------------
# Counterexample search
# --------------------------------------------------------------------------

def test_counterexample_first_ordinal_sum(grid):
    report = find_gph_counterexample(ORDINAL_SUMS[0], grid)
    assert not report.passed
    w = report.witness
    assert (w.lam, w.x, w.y) == (0.8, 0.5, 0.5)
    assert w.gap == pytest.approx(0.1, abs=1e-12)
    assert report.metadata["witness_source"] == "case2"
    assert report.metadata["sweep_max_residual"] == pytest.approx(0.25, abs=1e-12)


def test_counterexample_second_ordinal_sum(grid):
    report = find_gph_counterexample(ORDINAL_SUMS[1], grid)
    w = report.witness
    assert (w.lam, w.x, w.y) == (0.625, 0.9, 0.8)
    assert w.gap == pytest.approx(0.0375, abs=1e-12)
    assert report.metadata["witness_source"] == "case1"


def test_counterexample_families_clean(grid):
    report = find_gph_counterexample(SchweizerSklar(3), grid)
    assert report.passed
    assert report.witness is None
    assert report.max_residual <= grid.eq_tol


@pytest.mark.parametrize("spec", ORDINAL_SUMS + [
    parse_spec("osum:[0.1,0.4,ss:-1.5;0.55,0.9,ss:2.5]"),
    parse_spec("osum:[0.05,0.3,ss:0.7;0.3,0.35,luk;0.6,1,ss:-0.5]"),
], ids=lambda spec: spec.label())
def test_targeted_probes_replay(spec):
    # each probe's gap is the scaling equation's |lhs - rhs| at its triple,
    # with the canonical companion F(l, t) = T(l, l*t) on the right
    grid = GridSpec(points=51, samples=500)
    report = find_gph_counterexample(spec, grid)
    probes = report.metadata["targeted_probes"]
    assert probes
    for p in probes:
        lam, x, y = p["lambda"], p["x"], p["y"]
        lhs = eval_tnorm(spec, lam * x, lam * y)
        rhs = eval_tnorm(spec, lam, lam * eval_tnorm(spec, x, y))
        assert p["gap"] == abs(lhs - rhs)
    gaps = [p["gap"] for p in probes]
    top = gaps.index(max(gaps))  # the first maximal gap
    expected = probes[top]["case"] if gaps[top] > grid.eq_tol else "sweep"
    assert report.metadata["witness_source"] == expected


# --------------------------------------------------------------------------
# Pseudo-inverse form of the companion (strict/nilpotent kinds)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [Product(), SchweizerSklar(2),
                                  SchweizerSklar(-1), SchweizerSklar(-0.5)],
                         ids=["prod", "ss:2", "ss:-1", "ss:-0.5"])
def test_companion_equals_diagonal_of_scaled_pseudo_inverse(spec):
    from tnormlab.core import diagonal_pseudo_inverse
    for x in (0.3, 0.7, 0.9, 1.0):
        for y in (0.05, 0.3, 0.8, 1.0):
            expected = eval_companion(Catalog(spec), x, y)
            z = diagonal_pseudo_inverse(spec, y, 1e-12)
            xz = x * z
            assert eval_tnorm(spec, xz, xz) == pytest.approx(expected, abs=1e-8)


# --------------------------------------------------------------------------
# Report plumbing
# --------------------------------------------------------------------------

def test_report_json_shape(grid):
    report = check_gph(Minimum(), Catalog(Minimum()), grid)
    payload = report.to_dict()
    assert list(payload) == ["check", "passed", "max_residual", "witness",
                             "metadata"]
    assert payload["witness"] is None


def test_witness_json_fields(grid):
    report = check_gph(ORDINAL_SUMS[0], None, grid)
    w = report.to_dict()["witness"]
    assert list(w) == ["lambda", "x", "y", "lhs", "rhs", "gap"]


def test_residual_rows_header_and_arity():
    g = GridSpec(points=5, samples=0)
    rows = list(residual_rows(Minimum(), Catalog(Minimum()), g))
    assert an.RESIDUAL_CSV_HEADER.count(",") == 5
    assert len(rows) == 5 ** 3
    assert all(len(r) == 6 for r in rows)
    assert max(r[5] for r in rows) == 0.0


@pytest.mark.parametrize("tnorm, f, neg_zero", [
    ("ss:-1", None, False),
    ("expr:x*y/(2-(x+y-x*y))", None, False),  # Einstein: the full cube
    ("osum:[0.2,0.6,luk;0.6,1,prod]", None, False),
    ("prod", Expr("x*y"), False),
    # rhs is -0.0 on every row and lhs is 0.0 at lambda = 0: the dedupe
    # must keep the two zeros apart by bit pattern
    ("min", Expr("-(0*x)"), True),
    ("prod", Expr("-(x*0)"), True),
], ids=["ss:-1", "einstein", "osum", "prod-xy", "min-negzero",
        "prod-negzero"])
def test_residual_csv_is_repr_of_residual_rows(tnorm, f, neg_zero):
    spec, grid = parse_spec(tnorm), GridSpec(points=21, samples=0)
    rows = list(residual_rows(spec, f, grid))
    expected = an.RESIDUAL_CSV_HEADER + "\n" + "".join(
        f"{lam!r},{x!r},{y!r},{lhs!r},{rhs!r},{res!r}\n"
        for lam, x, y, lhs, rhs, res in rows)
    csv = "".join(residual_csv(spec, f, grid))
    # the signed zeros first: they fail fast, where a diff of csv is slow
    zeros = [(field, math.copysign(1.0, v) < 0.0)
             for row, line in zip(rows, csv.splitlines()[1:])
             for v, field in zip(row[3:], line.split(",")[3:]) if v == 0.0]
    assert all(field == ("-0.0" if neg else "0.0") for field, neg in zeros)
    assert any(neg for _, neg in zeros) == neg_zero
    assert csv == expected


# --------------------------------------------------------------------------
# Witness replay: every reported witness names slots that give back its lhs
# and rhs exactly, and its gap is |lhs - rhs|
# --------------------------------------------------------------------------

def _assert_replays(w, lhs, rhs):
    assert (w.lhs, w.rhs) == (float(lhs), float(rhs))
    assert w.gap == abs(w.lhs - w.rhs) > 0.0


@pytest.mark.parametrize("source, axiom, sides", [
    ("min(x,y)^2", "T4", lambda t, w: (t(w.x, w.y), w.x)),
    ("x*y*(1-0.5*x*(1-y))", "T1", lambda t, w: (t(w.x, w.y), t(w.y, w.x))),
    # (x; y, z) with y <= z, lhs the later value
    ("min(x,y)*(1-0.2*x*y*(1-x)*(1-y))", "T3",
     lambda t, w: (t(w.lam, w.y), t(w.lam, w.x))),
    ("min(x,y)*max(x,y)^0.5", "T2",
     lambda t, w: (t(w.lam, t(w.x, w.y)), t(t(w.lam, w.x), w.y))),
], ids=["T4", "T1", "T3", "T2"])
def test_axiom_witness_replays(source, axiom, sides):
    spec = Expr(source)
    report = check_axioms(spec, GridSpec(points=21))
    assert report.metadata["failed_axiom"] == axiom
    w = report.witness
    _assert_replays(w, *sides(lambda x, y: tnorm_values(spec, x, y), w))


def test_diagonal_monotonicity_witness_replays(grid):
    spec = Expr("min(x,y)*(1.5-min(x,y)^2)*0.6")
    report = scan_diagonal(spec, grid)
    assert not report.metadata["monotone_ok"]
    w = report.witness
    assert w.x < w.y
    _assert_replays(w, tnorm_values(spec, w.y, w.y), tnorm_values(spec, w.x, w.x))


def test_gph_witness_replays(grid):
    spec = ORDINAL_SUMS[2]
    w = check_gph(spec, None, grid).witness
    _assert_replays(w, tnorm_values(spec, w.lam * w.x, w.lam * w.y),
                    companion_values(Canonical(spec), w.lam,
                                     tnorm_values(spec, w.x, w.y)))


def test_unit_scale_witness_replays(grid):
    f = Expr("x*y*0.5")
    w = check_unit_scale(f, grid).witness
    assert (w.lam, w.x) == (1.0, 1.0)
    _assert_replays(w, companion_values(f, w.x, w.y), w.y)


def test_tm_equivalences_witness_replays(grid):
    spec = Expr("min(x,y)^2")
    report = check_tm_equivalences(spec, grid)
    assert not report.passed
    assert not report.metadata["statements"]["t_equals_min"]
    w = report.witness
    _assert_replays(w, tnorm_values(spec, w.x, w.y), min(w.x, w.y))
    assert report.max_residual == w.gap


def _earlier(g, v):
    """The grid point before the grid value v."""
    return g[np.flatnonzero(g == v)[0] - 1]


def test_ph_increasing_witness_replays(grid):
    f = Expr("x*(1-y)")  # falls in y; F(x, 1) = 0 fails too but comes later
    report = check_pseudo_homogeneous(f, grid)
    assert not report.metadata["increasing_ok"]
    assert not report.metadata["boundary_ok"]
    w = report.witness
    _assert_replays(w, companion_values(f, w.x, w.y),
                    companion_values(f, w.x, _earlier(grid.axis(), w.y)))
    assert report.max_residual == w.gap


def test_ph_zero_boundary_witness_replays(grid):
    f = Expr("max(x*y,0.5*y)")  # F(x, 1) >= 0.5, so F(0, 1) != 0
    report = check_pseudo_homogeneous(f, grid)
    assert report.metadata["increasing_ok"]
    assert not report.metadata["boundary_ok"]
    w = report.witness
    assert (w.lam, w.x, w.y) == (1.0, 0.0, 1.0)
    _assert_replays(w, companion_values(f, w.x, w.y), w.x)
    assert report.max_residual == w.gap


def test_ph_continuity_witness_replays(grid):
    # increasing with F(x, 1) = x, but a step of x*y/2 across y = 0.5
    f = Expr("x*y*(0.5+min(max(100*y-50,0),0.5))")
    report = check_pseudo_homogeneous(f, grid)
    assert report.metadata["increasing_ok"] and report.metadata["boundary_ok"]
    assert not report.metadata["continuous_at_grid_scale"]
    w = report.witness
    _assert_replays(w, companion_values(f, w.x, w.y),
                    companion_values(f, w.x, _earlier(grid.axis(), w.y)))
    assert report.max_residual == w.gap == report.metadata["max_jump"]


def test_diagonal_limit_witness_replays(grid):
    spec = Expr("0.5*x*y")  # the diagonal tends to 1/2, neither 0 nor 1
    report = scan_diagonal(spec, grid)
    assert report.metadata["monotone_ok"]
    assert report.metadata["limit"] is None
    w = report.witness
    assert w.x == w.y == report.metadata["limit_probe"]
    _assert_replays(w, tnorm_values(spec, w.x, w.y), 0.0)
    assert report.max_residual == w.gap


def test_continuity_mismatch_witness_replays(grid):
    # T steps down by half just above the diagonal; F(x, y) = T(x, x*y)
    # reads only y <= x, where T = x*y, so F is continuous
    spec = Expr("x*y*(1-min(max(100*(y-x),0),0.5))")
    report = check_continuity_equivalence(spec, grid)
    assert not report.passed
    assert not report.metadata["t_continuous_at_grid_scale"]
    assert report.metadata["f_continuous_at_grid_scale"]
    w = report.witness
    _assert_replays(w, tnorm_values(spec, w.x, w.y),
                    tnorm_values(spec, _earlier(grid.axis(), w.x), w.y))
    assert report.max_residual == w.gap == report.metadata["t_max_jump"]
