import math
from decimal import ROUND_FLOOR, Decimal, localcontext

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
    reconstruct_t_from_f,
    reconstruct_values,
    residual_rows,
    scan_diagonal,
)
from tnormlab.core import (
    Canonical,
    Catalog,
    CShelf,
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

from conftest import FAMILY_MATRIX, MATRIX_IDS, ORDINAL_SUMS

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
    report = check_axioms(SchweizerSklar(-1), GridSpec(points=101), assoc_full=True)
    assert report.metadata["assoc_points"] == 101
    assert largest <= an.ASSOC_GRID_CAP ** 3


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
    assert reconstruct_t_from_f(SEC3_COMPANION, 0.9, 0.6) == \
        pytest.approx(0.5, abs=1e-12)


def test_reconstruct_minimum_example():
    assert reconstruct_t_from_f(Catalog(Minimum()), 0.3, 0.8) == \
        pytest.approx(0.3, abs=1e-15)


def test_reconstruct_origin():
    assert reconstruct_t_from_f(Catalog(Drastic()), 0.0, 0.0) == 0.0


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
