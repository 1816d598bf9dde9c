"""Homogeneity of order k, T(l*x, l*y) = l^k * T(x, y), is the scaling
equation with the companion F(l, t) = l^k * t.  Among the t-norms swept
here only the minimum (k = 1) and the product (k = 2) have it."""

import pytest

from tnormlab.analysis import GridSpec, check_gph
from tnormlab.core import Expr, Lukasiewicz, spec_label

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
