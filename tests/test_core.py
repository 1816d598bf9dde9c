import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormlab import core
from tnormlab.core import (
    Canonical,
    Catalog,
    CShelf,
    DomainError,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    StructuralError,
    Summand,
    companion_values,
    diagonal_pseudo_inverse,
    eval_companion,
    eval_tnorm,
    t_power,
    tnorm_values,
)

from conftest import FAMILY_MATRIX, MATRIX_IDS, ORDINAL_SUMS, paper_companion

units = st.floats(min_value=0.0, max_value=1.0)
GRID = np.linspace(0.0, 1.0, 101)


# --------------------------------------------------------------------------
# Closed-form oracles (independent of the package's evaluation path)
# --------------------------------------------------------------------------

def oracle_ss(beta, x, y):
    if x == 0.0 or y == 0.0:
        return 0.0
    s = math.pow(x, beta) + math.pow(y, beta) - 1.0
    if beta > 0:
        return math.pow(s, 1.0 / beta) if s > 0 else 0.0
    return math.pow(s, 1.0 / beta)


def oracle_bisect_increasing(fn, target, tol=1e-13):
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Point evaluations
# --------------------------------------------------------------------------

def test_lukasiewicz_point():
    assert eval_tnorm(Lukasiewicz(), 0.5, 0.7) == pytest.approx(0.2, abs=1e-15)


def test_ss_positive_point():
    # (0.64 + 0.81 - 1)^(1/2)
    assert eval_tnorm(SchweizerSklar(2), 0.8, 0.9) == \
        pytest.approx(math.sqrt(0.45), abs=1e-15)


def test_ss_negative_point():
    # (1/x + 1/y - 1)^(-1)
    assert eval_tnorm(SchweizerSklar(-1), 0.5, 0.5) == \
        pytest.approx(1.0 / (2.0 + 2.0 - 1.0), abs=1e-15)


def test_cshelf_case_split():
    shelf = CShelf(0.5)
    assert eval_tnorm(shelf, 0.4, 0.7) == 0.0
    assert eval_tnorm(shelf, 0.6, 0.7) == 0.6
    assert eval_tnorm(shelf, 0.4, 1.0) == 0.4


def test_drastic_points():
    assert eval_tnorm(Drastic(), 0.9, 0.9) == 0.0
    assert eval_tnorm(Drastic(), 1.0, 0.9) == 0.9


@pytest.mark.parametrize("beta", [-2.0, -0.5, 0.5, 3.0])
def test_ss_matches_oracle_on_grid(beta):
    spec = SchweizerSklar(beta)
    for x in GRID[::10]:
        for y in GRID[::10]:
            assert eval_tnorm(spec, x, y) == \
                pytest.approx(oracle_ss(beta, x, y), abs=1e-14)


def test_ss_negative_overflow_is_stable():
    # far outside any grid: the direct power overflows, the rescaled
    # fallback must still track min(x, y)
    spec = SchweizerSklar(-60.0)
    v = eval_tnorm(spec, 1e-7, 0.9)
    assert 0.0 < v <= 1e-7
    assert v == pytest.approx(1e-7, rel=1e-6)


# --------------------------------------------------------------------------
# Companions
# --------------------------------------------------------------------------

def test_catalog_minimum_and_product():
    assert eval_companion(Catalog(Minimum()), 0.3, 0.8) == \
        pytest.approx(0.24, abs=1e-15)
    assert eval_companion(Catalog(Product()), 0.5, 1.0) == 0.25


def test_catalog_ss_positive():
    # (max(0.8^2 + 0.72^2 - 1, 0))^(1/2)
    assert eval_companion(Catalog(SchweizerSklar(2)), 0.8, 0.9) == \
        pytest.approx(math.sqrt(0.1584), abs=1e-15)


def test_catalog_cshelf():
    assert eval_companion(Catalog(CShelf(0.5)), 0.6, 0.9) == \
        pytest.approx(0.54, abs=1e-15)


def test_catalog_drastic():
    f = Catalog(Drastic())
    assert eval_companion(f, 0.5, 0.7) == 0.0
    assert eval_companion(f, 1.0, 0.7) == 0.7


def test_catalog_lukasiewicz_is_section_formula():
    f = Catalog(Lukasiewicz())
    for x in GRID[::7]:
        for y in GRID[::7]:
            assert eval_companion(f, x, y) == max(x + x * y - 1.0, 0.0)


def test_catalog_rejects_compound_kinds():
    with pytest.raises(ValueError):
        Catalog(OrdinalSum([(0.0, 0.5, Lukasiewicz())]))
    with pytest.raises(ValueError):
        Catalog(Expr("x*y"))


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_canonical_is_bitwise_t_of_x_xy(name, spec, _):
    f = Canonical(spec)
    for x in GRID[::9]:
        for y in GRID[::9]:
            assert eval_companion(f, x, y) == eval_tnorm(spec, x, x * y)


#: every kind with the axis it is probed on; ss:-60 at tiny inputs, where
#: x^b overflows and the rescaled branch runs.
BROADCAST_CASES = (
    [(spec, GRID[::10]) for _, spec, _ in FAMILY_MATRIX]
    + [(spec, GRID[::10]) for spec in (Lukasiewicz(), *ORDINAL_SUMS,
                                       Expr("x*y/max(x+y-x*y,1e-300)"))]
    + [(SchweizerSklar(-60.0), GRID[::10] * 1e-8)])


@pytest.mark.parametrize("spec,g", BROADCAST_CASES,
                         ids=[core.spec_label(s) for s, _ in BROADCAST_CASES])
@pytest.mark.parametrize("of", ["tnorm", "canonical"])
def test_kernels_broadcast_bitwise(spec, g, of):
    """Axes, the meshgrid, (0-d lambda, table) and 0-d pairs give the same
    bytes and shapes."""
    def fn(x, y):
        if of == "tnorm":
            return tnorm_values(spec, x, y)
        return companion_values(Canonical(spec), x, y)

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    X, Y = np.meshgrid(g, g, indexing="ij")
    full = fn(X, Y)
    same(fn(g[:, None], g[None, :]), full)
    table = tnorm_values(spec, X, Y)
    lam = g[3]
    same(fn(lam, table), fn(np.full_like(table, lam), table))
    for i, j in [(0, 0), (0, 5), (3, 7), (9, 4), (10, 10), (10, 2)]:
        same(fn(X[i, j], Y[i, j]), full[i, j])


def test_canonical_drastic_example():
    assert eval_companion(Canonical(Drastic()), 0.5, 0.7) == 0.0


# --------------------------------------------------------------------------
# The diagonal, powers, pseudo-inverse
# --------------------------------------------------------------------------

def test_diagonal_examples():
    assert eval_tnorm(Minimum(), 0.7, 0.7) == 0.7
    assert eval_tnorm(Lukasiewicz(), 0.7, 0.7) == pytest.approx(0.4, abs=1e-15)
    assert eval_tnorm(CShelf(0.5), 0.4, 0.4) == 0.0
    assert eval_tnorm(CShelf(0.5), 0.6, 0.6) == 0.6


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_diagonal_invariants(name, spec, _):
    assert eval_tnorm(spec, 0.0, 0.0) == 0.0
    assert eval_tnorm(spec, 1.0, 1.0) == 1.0
    values = tnorm_values(spec, GRID, GRID)
    assert np.all(values <= GRID + 1e-15)
    assert np.all(np.diff(values) >= -1e-15)


def test_t_power_product_closed_form():
    value = t_power(Product(), 0.9, 66)
    assert value == pytest.approx(0.9 ** 66, rel=1e-12)
    assert value < 1e-3
    assert t_power(Product(), 0.9, 65) >= 1e-3


def test_t_power_lukasiewicz_hits_zero():
    # max(1 - n/10, 0) reaches 0 at n = 10
    assert t_power(Lukasiewicz(), 0.9, 10) == 0.0
    assert t_power(Lukasiewicz(), 0.9, 9) == pytest.approx(0.1, abs=1e-14)


def test_t_power_minimum_is_constant():
    assert t_power(Minimum(), 0.5, 100) == 0.5


def test_t_power_monotone_in_n():
    spec = SchweizerSklar(2)
    values = [t_power(spec, 0.9, n) for n in range(1, 12)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v <= 0.9 for v in values)


def test_t_power_rejects_bad_index():
    with pytest.raises(ValueError):
        t_power(Product(), 0.5, 0)


def test_pseudo_inverse_product():
    assert diagonal_pseudo_inverse(Product(), 0.25, 1e-12) == \
        pytest.approx(0.5, abs=1e-11)


def test_pseudo_inverse_lukasiewicz_zero_set():
    # diagonal max(2z - 1, 0): the zero set is [0, 1/2], so its supremum
    assert diagonal_pseudo_inverse(Lukasiewicz(), 0.0, 1e-12) == \
        pytest.approx(0.5, abs=1e-11)


def test_pseudo_inverse_ss_positive_against_oracle():
    expected = oracle_bisect_increasing(
        lambda z: math.sqrt(max(2.0 * z * z - 1.0, 0.0)), 0.45)
    r = diagonal_pseudo_inverse(SchweizerSklar(2), 0.45, 1e-12)
    assert r == pytest.approx(expected, abs=1e-11)
    assert abs(eval_tnorm(SchweizerSklar(2), r, r) - 0.45) <= 1e-10


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_pseudo_inverse_sampled_bracket_matches_full_bisection(name, spec, _):
    # the reference: bisection of the whole [0, 1]
    for y in (0.0, 1e-6, 0.01, 0.25, 0.45, 0.5, 0.9, 0.999):
        for tol in (1e-12, 1e-9, 1e-6):
            assert diagonal_pseudo_inverse(spec, y, tol) == \
                core._bisect_diagonal(spec, y, 0.0, 1.0, tol), (y, tol)


def test_pseudo_inverse_full_range():
    assert diagonal_pseudo_inverse(Product(), 1.0, 1e-12) == 1.0


def test_pseudo_inverse_rejects_non_monotone():
    wiggle = Expr("min(x, y) * max(1 - x, 0.2)")  # not a t-norm diagonal
    with pytest.raises(StructuralError):
        diagonal_pseudo_inverse(wiggle, 0.2, 1e-9)


# --------------------------------------------------------------------------
# Validation and construction errors
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
def test_unit_inputs_rejected(bad):
    with pytest.raises(DomainError):
        eval_tnorm(Minimum(), bad, 0.5)


@pytest.mark.parametrize("beta", [0.0, 1e-4, float("nan"), float("inf")])
def test_ss_rejects_degenerate_beta(beta):
    with pytest.raises(ValueError):
        SchweizerSklar(beta)


@pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 2.0])
def test_cshelf_rejects_edge_outside(c):
    with pytest.raises(ValueError):
        CShelf(c)


def test_ordinal_sum_validation():
    with pytest.raises(ValueError):
        OrdinalSum([])
    with pytest.raises(ValueError):
        OrdinalSum([(0.4, 0.4, Minimum())])
    with pytest.raises(ValueError):
        OrdinalSum([(0.0, 0.6, Product()), (0.5, 1.0, Product())])
    summands = OrdinalSum([(0.5, 1.0, Product()),
                           (0.0, 0.5, Lukasiewicz())]).summands
    assert [s.lower for s in summands] == [0.0, 0.5]  # normalized order


@pytest.mark.parametrize("inner", [Expr("x*y"),
                                   OrdinalSum([(0.0, 0.5, Lukasiewicz())])],
                         ids=["expr", "osum"])
def test_summand_must_be_catalog_kind(inner):
    with pytest.raises(ValueError, match="catalog kind"):
        Summand(0.0, 0.5, inner)
    with pytest.raises(ValueError, match="catalog kind"):
        OrdinalSum([(0.0, 0.5, inner)])


def test_ordinal_sum_touching_endpoints_allowed():
    spec = OrdinalSum([(0.0, 0.5, Lukasiewicz()), (0.5, 1.0, Product())])
    assert eval_tnorm(spec, 0.5, 0.5) == 0.5  # shared endpoint is idempotent


def test_expr_range_violation_names_point():
    with pytest.raises(DomainError) as err:
        eval_tnorm(Expr("x+y"), 0.8, 0.9)
    assert "(0.8, 0.9)" in str(err.value)


def test_expr_accepts_valid_tnorm():
    assert eval_tnorm(Expr("max(x+y-1, 0)"), 0.5, 0.7) == \
        pytest.approx(0.2, abs=1e-15)


# --------------------------------------------------------------------------
# Algebraic properties on the default grid
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_grid_commutativity_boundary_monotonicity(name, spec, _):
    X, Y = np.meshgrid(GRID, GRID, indexing="ij")
    T = tnorm_values(spec, X, Y)
    assert float(np.abs(T - T.T).max()) == 0.0
    assert float(np.abs(tnorm_values(spec, GRID, np.ones_like(GRID))
                        - GRID).max()) == 0.0
    assert float(np.maximum(T[:, :-1] - T[:, 1:], 0.0).max()) <= 1e-12
    assert float((T - np.minimum(X, Y)).max()) <= 1e-12  # T <= min


@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_sampled_associativity(name, spec, _):
    pts = np.linspace(0.0, 1.0, 21)
    A, B, C = np.meshgrid(pts, pts, pts, indexing="ij")
    lhs = tnorm_values(spec, A, tnorm_values(spec, B, C))
    rhs = tnorm_values(spec, tnorm_values(spec, A, B), C)
    assert float(np.abs(lhs - rhs).max()) <= 1e-12


@pytest.mark.parametrize("name,spec,tol", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_catalog_agrees_with_canonical(name, spec, tol):
    # Catalog evaluates the canonical T(x, x*y); the paper's closed-form
    # companion is the independent side of the comparison
    if not isinstance(spec, core.CATALOG_KINDS):
        pytest.skip("no catalog companion")
    X, Y = np.meshgrid(GRID, GRID, indexing="ij")
    cat = core.companion_values(Catalog(spec), X, Y)
    assert float(np.abs(cat - paper_companion(spec, X, Y)).max()) <= 1e-12


def test_minimum_is_the_only_grid_idempotent():
    interior = GRID[(GRID > 0) & (GRID < 1)]
    for name, spec, _ in FAMILY_MATRIX:
        d = tnorm_values(spec, interior, interior)
        idempotent = bool(np.all(np.abs(d - interior) <= 1e-12))
        assert idempotent == isinstance(spec, Minimum), name


def test_drastic_is_the_only_zero_diagonal():
    interior = GRID[(GRID > 0) & (GRID < 1)]
    for name, spec, _ in FAMILY_MATRIX:
        d = tnorm_values(spec, interior, interior)
        vanishing = bool(np.all(d <= 1e-12))
        assert vanishing == isinstance(spec, Drastic), name


def test_cshelf_diagonal_shape():
    shelf = CShelf(0.25)
    xs = GRID[(GRID > 0) & (GRID < 1)]
    d = tnorm_values(shelf, xs, xs)
    assert np.all(d[xs < 0.25] == 0.0)
    assert np.all(d[xs >= 0.25] == xs[xs >= 0.25])


def test_diagonal_limit_dichotomy_at_probe():
    probe = 1.0 - 1e-6
    for name, spec, _ in FAMILY_MATRIX:
        value = eval_tnorm(spec, probe, probe)
        if isinstance(spec, Drastic):
            assert value == 0.0, name
        else:
            assert value > 1.0 - 1e-5, name


@settings(max_examples=200, deadline=None)
@given(x=units, y=units, beta=st.floats(min_value=-8, max_value=8).filter(
    lambda b: abs(b) >= 1e-3))
def test_ss_commutes_and_respects_bounds(x, y, beta):
    spec = SchweizerSklar(beta)
    a = eval_tnorm(spec, x, y)
    assert a == eval_tnorm(spec, y, x)
    assert 0.0 <= a <= min(x, y) + 1e-15
    assert eval_tnorm(spec, x, 1.0) == x


@settings(max_examples=200, deadline=None)
@given(x=units, y=units, z=units)
def test_ordinal_sum_monotone_random(x, y, z):
    spec = OrdinalSum([(0.1, 0.4, Lukasiewicz()), (0.6, 0.9, Product())])
    lo, hi = sorted((y, z))
    assert eval_tnorm(spec, x, lo) <= eval_tnorm(spec, x, hi) + 1e-15
