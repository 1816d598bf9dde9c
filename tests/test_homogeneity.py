"""Three characterisations the paper builds on, as scaling equations.

Homogeneity of order k, T(l*x, l*y) = l^k * T(x, y), is the scaling
equation with the companion F(l, t) = l^k * t.  Among the t-norms swept
here only the minimum (k = 1) and the product (k = 2) have it.

A t-conorm S is homogeneous of order k only as max(x, y) with k = 1
(Alsina, Frank and Schweizer): the same equation, swept with the
conorm written as an expression.

Quasi-homogeneity (Ebanks 1998) asks for a companion of the form
F(l, t) = phi^-1(psi(l) * phi(t))."""

import pytest

from tnormlab.analysis import GridSpec, check_gph, check_unit_scale
from tnormlab.core import Expr, Lukasiewicz, SchweizerSklar, spec_label

from conftest import EXPR_TNORMS, FAMILY_MATRIX, ORDINAL_SUMS

#: orders around each homogeneous one, 1e-3 off on either side included.
ORDERS = [0.5, 0.999, 1.0, 1.001, 1.5, 1.999, 2.0, 2.001, 3.0]

SPECS = ([spec for _, spec, _ in FAMILY_MATRIX] + [Lukasiewicz()]
         + ORDINAL_SUMS + [EXPR_TNORMS[0]])  # Hamacher

HOMOGENEOUS = {("min", 1.0), ("prod", 2.0)}


@pytest.mark.parametrize("spec", SPECS, ids=spec_label)
def test_homogeneous_exactly_at_min_order_1_and_prod_order_2(spec):
    grid = GridSpec(points=51, samples=200)
    passed = {k for k in ORDERS
              if check_gph(spec, Expr(f"x^{k}*y"), grid).passed}
    assert passed == {k for name, k in HOMOGENEOUS if name == spec_label(spec)}


#: the maximum and two t-conorms that are not idempotent.
CONORMS = ["max(x,y)", "x+y-x*y", "min(x+y,1)"]


@pytest.mark.parametrize("conorm", CONORMS)
def test_homogeneous_conorm_is_max_of_order_1(conorm):
    """S(l*x, l*y) = l^k * S(x, y) holds only for S = max at k = 1; max
    misses k = 1 -+ 1e-3 by 3.68e-4.  The argument, written for this test:
    S(x, 0) = x gives l*x = l^k * x, so k = 1; then S(l, l) = l * S(1, 1)
    = l, so S is idempotent, and max(x, y) <= S(x, y) <= S(m, m) = m for
    m = max(x, y) by monotonicity."""
    grid = GridSpec(points=51, samples=200)
    reports = {k: check_gph(Expr(conorm), Expr(f"x^{k}*y"), grid)
               for k in (0.5, 0.999, 1.0, 1.001, 2.0)}
    passed = {k for k, report in reports.items() if report.passed}
    assert passed == ({1.0} if conorm == "max(x,y)" else set())
    if conorm == "max(x,y)":
        for k in (0.999, 1.001):
            assert reports[k].max_residual == pytest.approx(3.68e-4, abs=1e-6)


def ebanks_companion(beta, psi_order=1):
    """phi^-1(psi(l) * phi(t)) with phi(t) = 1/(1 + t^beta) and
    psi(l) = l^(-psi_order * beta), as an expression in x = l and y = t;
    both arguments are kept off 0, where t^beta is infinite for beta < 0."""
    return Expr(f"((1+max(y,1e-300)^({beta}))"
                f"*max(x,1e-300)^({psi_order * beta})-1)^(1/({beta}))")


NEGATIVE_SS = [spec for _, spec, _ in FAMILY_MATRIX
               if isinstance(spec, SchweizerSklar) and spec.beta < 0]


@pytest.mark.parametrize("spec", NEGATIVE_SS, ids=spec_label)
def test_negative_schweizer_sklar_is_quasi_homogeneous(spec):
    """For ss:b with b < 0 the Ebanks companion is T(l, l*t) written
    through phi and psi, so it passes the scaling equation.

    Of the six kinds, min, prod and drastic have such a companion as well,
    but ss:b with b > 0 and cshelf:c do not.  The argument, written for
    these tests and not a result quoted from the paper: for fixed l,
    t -> phi^-1(psi(l) * phi(t)) with phi a bijection is one-to-one when
    psi(l) != 0 and constant when psi(l) = 0.  The companion T(l, l*t) of
    ss:b, b > 0, is zero for t up to (l^-b - 1)^(1/b) and positive after,
    for every l > 2^(-1/b); that of cshelf:c is zero for 0 < t < c/l and
    l*t after, for every l > c.  Neither is one-to-one or constant in t."""
    grid = GridSpec(points=51, samples=200)
    f = ebanks_companion(spec.beta)
    assert check_unit_scale(f, grid).passed
    assert check_gph(spec, f, grid).passed


def test_doubled_psi_exponent_is_not_a_companion():
    grid = GridSpec(points=51, samples=200)
    spec = SchweizerSklar(-1.0)
    f = ebanks_companion(spec.beta, psi_order=2)
    assert check_unit_scale(f, grid).passed  # F(1, t) = t still holds
    report = check_gph(spec, f, grid)
    assert not report.passed
    assert report.max_residual == pytest.approx(0.214, abs=1e-3)
