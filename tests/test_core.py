import ast
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormlab import core, dsl
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
    spec_label,
    t_power,
    tnorm_values,
)
from tnormlab.rng import SplitMix64

from conftest import (
    EXPR_TNORMS,
    FAMILY_MATRIX,
    MATRIX_IDS,
    ORDINAL_SUMS,
    one_midpoint_bisection,
    paper_companion,
)

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
# Bitwise symmetry (the half-cube scaling sweep relies on it)
# --------------------------------------------------------------------------

def test_symmetric_declared_per_kind_and_per_expression():
    """Every kind but Expr declares symmetry once for all its specs; an
    Expr takes it from dsl.mirror_symmetric of its own tree, however it
    was built.  Every catalog kind is symmetric: the ordinal-sum kernel
    hands its summands, all catalog kinds, (min, max) in place of (x, y)."""
    for kind in core.TNORM_KINDS:
        if kind is not Expr:
            assert kind.symmetric is True, kind.__name__
    assert core.CATALOG_KINDS and all(k.symmetric for k in core.CATALOG_KINDS)
    for source, symmetric in [("x*y", True), ("max(x+y-1,0)", True),
                              ("x^3*y", False), ("min(x,y)", False)]:
        for spec in (Expr(source), Expr(dsl.parse(source)),
                     core.parse_spec(f"expr:{source}")):
            assert spec.symmetric is symmetric, source
            assert spec.symmetric is dsl.mirror_symmetric(spec.ast)


def random_ordinal_sum(rng: SplitMix64) -> OrdinalSum:
    """One to three summands of any catalog kind on sorted seeded cuts."""
    kinds = [lambda u: Minimum(), lambda u: Product(), lambda u: Lukasiewicz(),
             lambda u: Drastic(), lambda u: SchweizerSklar(0.5 + 2.5 * u),
             lambda u: SchweizerSklar(-0.5 - 2.5 * u),
             lambda u: CShelf(0.1 + 0.8 * u)]
    count = 1 + int(rng.next_unit() * 3)
    cuts = np.sort(rng.unit_array(2 * count))
    return OrdinalSum([
        (cuts[2 * k], cuts[2 * k + 1],
         kinds[int(rng.next_unit() * len(kinds))](rng.next_unit()))
        for k in range(count)])


_OSUM_RNG = SplitMix64(0x05E)
SYMMETRIC_SPECS = ([spec for _, spec, _ in FAMILY_MATRIX]
                   + [Lukasiewicz(), SchweizerSklar(-3.0), *ORDINAL_SUMS]
                   + [random_ordinal_sum(_OSUM_RNG) for _ in range(6)]
                   + EXPR_TNORMS)


def symmetry_pairs():
    """About 10^5 seeded pairs: uniform ones, pairs scaled to about 1e-120
    (where x^b overflows for ss:-3), and exact 0 and 1, subnormals and tiny
    values against each other and against uniform values."""
    u, v = SplitMix64(0x5A17).unit_tuples(50_000, 2).T
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        1e-120, 7e-121, 0.5, 1.0 - 2.0 ** -53, 1.0])
    sx, sy = np.meshgrid(special, special)
    x = np.concatenate([u, 1e-120 * u[:20_000], 1e-120 * u[20_000:30_000],
                        sx.ravel(), np.resize(special, 20_000)])
    y = np.concatenate([v, 1e-120 * v[:20_000], v[20_000:30_000],
                        sy.ravel(), v[30_000:]])
    return x, y


@pytest.mark.parametrize("spec", SYMMETRIC_SPECS,
                         ids=[core.spec_label(s) for s in SYMMETRIC_SPECS])
def test_symmetric_kernels_are_bitwise_commutative(spec):
    """T(x, y) and T(y, x) are the same float for every declared kind, on
    seeded pairs and on the lambda-scaled pairs (l*g[i], l*g[j]) the
    scaling sweep evaluates."""
    assert spec.symmetric
    x, y = symmetry_pairs()
    assert np.array_equal(tnorm_values(spec, x, y), tnorm_values(spec, y, x))
    for n in (51, 101, 151, 201):
        g = np.linspace(0.0, 1.0, n)
        i, j = np.triu_indices(n, 1)
        lam = g[::n // 50, None]  # about 50 lambdas per grid
        lx, ly = lam * g[i], lam * g[j]
        assert np.array_equal(tnorm_values(spec, lx, ly),
                              tnorm_values(spec, ly, lx)), n


def ss_fixed_up_everywhere(beta, x, y):
    """The Schweizer-Sklar formula with its neutral-element fix-up run over
    every element: the reference for the kernel, which runs it only where
    an argument equals 1."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.power(x, beta) + np.power(y, beta) - 1.0
    if beta > 0.0:
        out = np.power(np.maximum(s, 0.0), 1.0 / beta)
    else:
        out = np.asarray(np.power(s, 1.0 / beta))
        m = np.minimum(x, y)
        overflow = np.isinf(s) & (m > 0.0)
        if np.any(overflow):
            m = m[overflow]
            big = np.maximum(x, y)[overflow]
            bracket = 1.0 + np.power(m / big, -beta) - np.power(m, -beta)
            out[overflow] = m * np.power(bracket, 1.0 / beta)
    out = np.where(y == 1.0, x, out)
    out = np.where(x == 1.0, y, out)
    return core._clamp_unit(out, "reference")


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, -1.0])
def test_ss_kernel_rejects_nan(beta):
    """A NaN argument makes s NaN, which the kernel must pass to the clamp
    for either sign of beta: for beta > 0 it skips pow only where s == 0,
    and a NaN is not."""
    with pytest.raises(DomainError):
        tnorm_values(SchweizerSklar(beta), [math.nan], [0.5])


def test_ss_kernel_rejects_a_negative_base_at_fractional_beta():
    """(-0.5)^0.5 is NaN, and it reaches the clamp (numpy's warning about
    the invalid power is silenced here, so that the clamp is what raises)."""
    with np.errstate(invalid="ignore"), pytest.raises(DomainError):
        tnorm_values(SchweizerSklar(0.5), [-0.5], [0.5])


SS_BETAS = sorted({-3.0, 3.0} | {s.beta for _, s, _ in FAMILY_MATRIX
                                 if isinstance(s, SchweizerSklar)})


@pytest.mark.parametrize("beta", SS_BETAS)
def test_ss_kernel_matches_the_fixed_up_formula(beta):
    """Bit for bit and in type, on the symmetry pairs (exact 1s among
    them), on lambda-scaled half slices (no 1s), on arrays with a few 1s
    and on 0-d pairs."""
    spec = SchweizerSklar(beta)

    def same(x, y):
        got, want = tnorm_values(spec, x, y), ss_fixed_up_everywhere(beta, x, y)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    same(*symmetry_pairs())
    g = np.linspace(0.0, 1.0, 101)
    i, j = np.triu_indices(101)
    lx, ly = g[:-1:7, None] * g[i], g[:-1:7, None] * g[j]
    assert not np.any(lx == 1.0) and not np.any(ly == 1.0)
    same(lx, ly)
    u, v = SplitMix64(0x1E5).unit_tuples(1_000, 2).T
    u[[3, 500]], v[[7, 500, 999]] = 1.0, 1.0
    same(u, v)
    same(g[:, None], g[None, ::10])
    for x, y in [(0.3, 0.6), (1.0, 0.6), (0.3, 1.0), (1.0, 1.0), (0.0, 1.0)]:
        same(np.float64(x), np.float64(y))


# --------------------------------------------------------------------------
# Ordinal-sum and shelf kernels against their mask formulas
# --------------------------------------------------------------------------

def osum_by_masks(spec, x, y):
    """The ordinal sum as four compares per summand on the broadcast
    (x, y): the reference for the kernel, which finds each summand's pairs
    from (min, max) and hands the summand the rescaled (min, max)."""
    x, y = np.broadcast_arrays(np.asarray(x, np.float64),
                               np.asarray(y, np.float64))
    out = np.asarray(np.minimum(x, y))
    for s in spec.summands:
        span = s.upper - s.lower
        mask = ((x >= s.lower) & (x <= s.upper)
                & (y >= s.lower) & (y <= s.upper))
        if np.any(mask):
            xi = (x[mask] - s.lower) / span
            yi = (y[mask] - s.lower) / span
            out[mask] = s.lower + span * tnorm_values(s.inner, xi, yi)
    return out


def cshelf_by_masks(c, x, y):
    """The shelf as ten operations on (x, y): 0 on (0, 1)^2 outside
    [c, 1)^2, min(x, y) elsewhere."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    zero = ((x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)
            & ~((x >= c) & (y >= c)))
    return np.where(zero, 0.0, np.minimum(x, y))


#: adjacent summands with a shared corner e: the earlier summand would give
#: a + (e - a) * T(1, 1) < e there, the later one gives e
SHARED_CORNER_SUMS = [
    OrdinalSum([(0.05, 0.21, Product()), (0.21, 0.8, SchweizerSklar(0.5))]),
    OrdinalSum([(0.03, 0.29, Minimum()), (0.29, 0.82, Lukasiewicz()),
                (0.82, 1.0, CShelf(0.3))]),
]
_KERNEL_RNG = SplitMix64(0x0B5)
MASK_SPECS = ([*ORDINAL_SUMS, *SHARED_CORNER_SUMS]
              + [random_ordinal_sum(_KERNEL_RNG) for _ in range(8)]
              + [CShelf(c) for c in (0.005, 0.25, 0.5, 0.999)])


def by_masks(spec, x, y):
    if isinstance(spec, CShelf):
        return cshelf_by_masks(spec.c, x, y)
    return osum_by_masks(spec, x, y)


def kernel_pairs(spec):
    """Seeded pairs with x > y, the same pairs swapped, and every pair of
    0, -0.0, 1, NaN, the summand bounds or shelf edge and their
    neighbouring floats, against each other and against seeded values."""
    u, v = SplitMix64(0x3E7).unit_tuples(20_000, 2).T
    big, small = np.maximum(u, v), np.minimum(u, v)
    cuts = ([spec.c] if isinstance(spec, CShelf) else
            [b for s in spec.summands for b in (s.lower, s.upper)])
    special = np.array([0.0, -0.0, 1.0, math.nan, 0.5,
                        *cuts, *np.nextafter(cuts, 0.0), *np.nextafter(cuts, 1.0)])
    sx, sy = np.meshgrid(special, special)
    return (np.concatenate([big, small, sx.ravel(), np.resize(special, 2_000)]),
            np.concatenate([small, big, sy.ravel(), u[:2_000]]))


@pytest.mark.parametrize("spec", MASK_SPECS,
                         ids=[core.spec_label(s) for s in MASK_SPECS])
def test_kernel_matches_the_mask_formula(spec):
    """Bit for bit, in shape and in type: on the kernel pairs in both
    orders, on the (n,1) x (1,n) grid of the special values, on a
    (B,1) x (B,k) block and on 0-d pairs."""
    def same(x, y):
        got, want = tnorm_values(spec, x, y), by_masks(spec, x, y)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    x, y = kernel_pairs(spec)
    same(x, y)
    same(y, x)
    g = np.concatenate([np.linspace(0.0, 1.0, 41), x[-60:]])
    same(g[:, None], g[None, :])
    lam = np.linspace(0.0, 1.0, 7)[:, None]
    same(lam, lam * x[:300].reshape(1, 300))
    for i in range(0, len(x), 997):
        same(np.float64(x[i]), np.float64(y[i]))


@pytest.mark.parametrize("spec", SHARED_CORNER_SUMS,
                         ids=[core.spec_label(s) for s in SHARED_CORNER_SUMS])
def test_ordinal_sum_shared_corner_goes_to_the_later_summand(spec):
    """At a shared corner e the later summand gives e; the earlier one
    would give a + (e - a) * T(1, 1), a different float."""
    for a, b in zip(spec.summands, spec.summands[1:]):
        e = a.upper
        assert a.lower + (e - a.lower) * 1.0 != e
        assert eval_tnorm(spec, e, e) == e
        assert tnorm_values(spec, [e, 0.5], [e, 0.5])[0] == e


def test_ordinal_sum_reads_a_signed_zero_pair_as_min_max():
    """np.minimum and np.maximum return one operand for (-0.0, 0.0), so a
    summand starting at 0 reads (0.0, 0.0) or (-0.0, -0.0).  The mask
    formula handed ss:-1 the pair itself, where (-0.0)^-1 + 0^-1 is NaN
    and the kernel raised DomainError; now the sum gives 0 as T(0, 0) does."""
    spec = OrdinalSum([(0.0, 0.5, SchweizerSklar(-1.0))])
    with np.errstate(invalid="ignore"), pytest.raises(DomainError):
        osum_by_masks(spec, -0.0, 0.0)
    for x, y in [(-0.0, 0.0), (0.0, -0.0)]:
        assert tnorm_values(spec, [x], [y])[0] == 0.0


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
    # the reference: the midpoint of the bracket that bisecting the whole
    # [0, 1] leaves
    for y in (0.0, 1e-6, 0.01, 0.25, 0.45, 0.5, 0.9, 0.999):
        for tol in (1e-12, 1e-9, 1e-6):
            lo, hi = core._bisect_diagonal(spec, y, 0.0, 1.0, tol)
            assert diagonal_pseudo_inverse(spec, y, tol) == 0.5 * (lo + hi), \
                (y, tol)


def test_pseudo_inverse_full_range():
    assert diagonal_pseudo_inverse(Product(), 1.0, 1e-12) == 1.0


def test_pseudo_inverse_rejects_non_monotone():
    wiggle = Expr("min(x, y) * max(1 - x, 0.2)")  # not a t-norm diagonal
    with pytest.raises(StructuralError):
        diagonal_pseudo_inverse(wiggle, 0.2, 1e-9)


#: the closed-form power kinds and pseudo-inverse levels of the powers
#: benchmark workload.
POWER_SPECS = [Product(), Lukasiewicz()] + [
    spec for _, spec, _ in FAMILY_MATRIX if isinstance(spec, SchweizerSklar)]
PSEUDO_INVERSE_LEVELS = (0.01, 0.1, 0.3, 0.6, 0.9)


def sampled_cell(spec, y):
    """The 1/128 cell from which diagonal_pseudo_inverse bisects."""
    zs = np.linspace(0.0, 1.0, 129)
    k = max(int(np.argmax(tnorm_values(spec, zs, zs) > y)), 1)
    return float(zs[k - 1]), float(zs[k])


@pytest.mark.parametrize("spec", POWER_SPECS, ids=spec_label)
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_bisection_matches_one_midpoint_loop(spec, tol):
    for y in PSEUDO_INVERSE_LEVELS:
        cell = sampled_cell(spec, y)
        bracket = one_midpoint_bisection(spec, y, *cell, tol)
        assert core._bisect_diagonal(spec, y, *cell, tol) == bracket, y
        assert diagonal_pseudo_inverse(spec, y, tol) == 0.5 * sum(bracket), y


def test_bisection_follows_a_diagonal_that_dips_between_samples():
    # z^2, dented by up to 0.01 on |z - c| < 1/512 inside the cell
    # [70/128, 71/128] that holds sqrt(0.3); every 129-point sample is
    # outside the dent, so the sampled diagonal is monotone
    c = 70.3 / 128
    spec = Expr(f"max(x*y - 0.01*max(0, 1 - (512*(x - {c!r}))^2), 0)")
    y, tol = 0.3, 1e-12
    bracket = one_midpoint_bisection(spec, y, *sampled_cell(spec, y), tol)
    assert sampled_cell(spec, y) == (70 / 128, 71 / 128)
    assert abs(bracket[0] - math.sqrt(0.3)) > 1e-3  # the dent moved the path
    assert core._bisect_diagonal(spec, y, 70 / 128, 71 / 128, tol) == bracket
    assert diagonal_pseudo_inverse(spec, y, tol) == 0.5 * sum(bracket)


def _product_spoiled_at(z0, how):
    """Product, with a pole or a value above 1 at z = z0 alone."""
    if how == "pole":
        return Expr(f"x*y + 0/(x - {z0!r})")
    return Expr(f"x*y + max(0, 1 - 1e30*(x - {z0!r})^2)")


@pytest.mark.parametrize("how", ["pole", "out_of_range"])
@pytest.mark.parametrize("halving", [0, 9])
def test_bisection_ignores_a_bad_point_off_its_path(how, halving):
    """The bad point is a midpoint of the array call that holds halving + 1
    but on the other side of the path: the array call raises, and the
    halvings that read one midpoint at a time never meet it."""
    y, tol = 0.3, 1e-12
    cell = sampled_cell(Product(), y)
    path = []
    bracket = one_midpoint_bisection(Product(), y, *cell, tol, path)
    ends = [cell[0], cell[1], *path[:halving]]
    before = (max(e for e in ends if e <= path[halving]),
              min(e for e in ends if e >= path[halving]))
    went_up = path[halving + 1] > path[halving]
    z0 = 0.5 * (before[0] + path[halving]) if went_up else \
        0.5 * (path[halving] + before[1])
    assert z0 not in path
    spec = _product_spoiled_at(z0, how)
    with pytest.raises((DomainError, dsl.EvalError)):
        eval_tnorm(spec, z0, z0)
    assert core._bisect_diagonal(spec, y, *cell, tol) == bracket
    assert diagonal_pseudo_inverse(spec, y, tol) == 0.5 * sum(bracket)


@pytest.mark.parametrize("how", ["pole", "out_of_range"])
def test_bisection_raises_the_loop_error_on_its_path(how):
    y, tol = 0.3, 1e-12
    cell = sampled_cell(Product(), y)
    path = []
    one_midpoint_bisection(Product(), y, *cell, tol, path)
    spec = _product_spoiled_at(path[2], how)
    with pytest.raises((DomainError, dsl.EvalError)) as loop:
        one_midpoint_bisection(spec, y, *cell, tol)
    with pytest.raises(loop.type) as batched:
        core._bisect_diagonal(spec, y, *cell, tol)
    assert str(batched.value) == str(loop.value)


def guarded(call):
    """The value of ``call`` (Python source over tnormlab.core), computed in
    a subprocess with a timeout, so that a bisection that never ends fails
    the test instead of hanging it."""
    code = ("from tnormlab import core\n"
            "from tnormlab.core import diagonal_pseudo_inverse, parse_spec\n"
            f"print(repr({call}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("spec,y,tol", [(Product(), 0.3, 1e-17),
                                        (SchweizerSklar(-2.0), 0.6, 5e-324)])
def test_pseudo_inverse_below_float_spacing_returns(spec, y, tol):
    z = guarded(f"diagonal_pseudo_inverse(parse_spec({spec_label(spec)!r}),"
                f" {y!r}, {tol!r})")
    lo, hi = one_midpoint_bisection(spec, y, *sampled_cell(spec, y), tol)
    assert hi == math.nextafter(lo, 1.0)
    assert z == 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# t-powers
# --------------------------------------------------------------------------

def sequential_powers(spec, x, n):
    """x^(1), ..., x^(n) by the recursion x^(k) = T(x, x^(k-1))."""
    powers = [x]
    for _ in range(n - 1):
        powers.append(eval_tnorm(spec, x, powers[-1]))
    return powers


def bits(v):
    return struct.pack("<d", v)


#: Lukasiewicz with the zero signed: -0.0 where y < 0.1, else 0.0.  At
#: x = 0.5 the powers go 0.5, 0.0, then -0.0, which reads back as 0.0.
SIGNED_ZERO_LUK = Expr("max(x + y - 1, -0*(0.1 - y))")


@pytest.mark.parametrize("spec", [spec for _, spec, _ in FAMILY_MATRIX]
                         + [Lukasiewicz(), *ORDINAL_SUMS, EXPR_TNORMS[1],
                            SIGNED_ZERO_LUK], ids=spec_label)
def test_t_power_equals_the_sequential_recursion(spec):
    for x in (0.5, 0.95):
        expected = sequential_powers(spec, x, 60)
        assert [bits(t_power(spec, x, n)) for n in range(1, 61)] == \
            [bits(p) for p in expected], x


def test_t_power_stops_at_its_fixed_point(monkeypatch):
    expected = sequential_powers(SchweizerSklar(2.0), 0.99, 200)[-1]
    calls = []

    def counted(spec, x, y):
        calls.append((x, y))
        return eval_tnorm(spec, x, y)

    monkeypatch.setattr(core, "eval_tnorm", counted)
    assert t_power(SchweizerSklar(2.0), 0.99, 200) == expected == 0.0
    assert len(calls) <= 52
    calls.clear()
    assert t_power(Lukasiewicz(), 0.9, 10**9) == 0.0
    assert len(calls) == 10  # 0.8, ..., 0.1, 0, then 0 again


# --------------------------------------------------------------------------
# Validation and construction errors
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
def test_unit_inputs_rejected(bad):
    with pytest.raises(DomainError):
        eval_tnorm(Minimum(), bad, 0.5)


def test_unit_input_reads_negative_zero_as_zero():
    """(-0.0)^-1 + 0^-1 is NaN in the ss:-1 kernel; the scalar path never
    hands it a signed zero, and a summand bound -0 labels as 0."""
    assert math.copysign(1.0, core.as_unit(-0.0)) == 1.0
    with np.errstate(all="raise"):
        assert eval_tnorm(SchweizerSklar(-1.0), -0.0, 0.0) == 0.0
        assert eval_tnorm(SchweizerSklar(-1.0), 0.0, -0.0) == 0.0
    assert Summand(-0.0, 0.5, Product()).lower == 0.0
    assert core.spec_label(core.parse_spec("osum:[-0,0.5,prod]")) == \
        "osum:[0,0.5,prod]"


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


@pytest.mark.parametrize("source", ["x*y", "-(0*x)", "x*y - 1e-12",
                                    "x*y + 1e-12", "min(x, y)*(1 + 1e-12)"])
def test_expr_values_are_clipped_eval_expr(source):
    """Signed zeros and last-ulp drift come out as np.clip gives them."""
    x, y = GRID[:, None], GRID[None, ::5]
    want = np.clip(dsl.eval_expr(dsl.parse(source), x, y), 0.0, 1.0)
    assert tnorm_values(Expr(source), x, y).tobytes() == want.tobytes()


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: cancellation in"
                   " x^b + y^b - 1 for small |b| near y = 1")
def test_ss_small_beta_stays_below_min_near_one():
    """A case the property above can draw: with b = -0.001 and
    y = 1 - 2**-53, T(0.5, y) exceeds min(x, y) = 0.5 by 1.7e-13."""
    assert eval_tnorm(SchweizerSklar(-0.001), 0.5, 1.0 - 2.0 ** -53) <= 0.5 + 1e-15


@settings(max_examples=200, deadline=None)
@given(x=units, y=units, z=units)
def test_ordinal_sum_monotone_random(x, y, z):
    spec = OrdinalSum([(0.1, 0.4, Lukasiewicz()), (0.6, 0.9, Product())])
    lo, hi = sorted((y, z))
    assert eval_tnorm(spec, x, lo) <= eval_tnorm(spec, x, hi) + 1e-15
