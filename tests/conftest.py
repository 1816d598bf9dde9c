import numpy as np
import pytest

from tnormlab.analysis import GridSpec
from tnormlab.core import (
    CShelf,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    eval_tnorm,
)

#: absolute tolerance on a recovered parameter, as in bench/oracle.py.
PARAM_TOL = 2e-6

# The family matrix every end-to-end check runs over, with the residual
# tier each instance must meet in catalog sweeps: 1e-12 where no
# fractional power occurs, 1e-9 otherwise.
FAMILY_MATRIX = [
    ("min", Minimum(), 1e-12),
    ("prod", Product(), 1e-12),
    ("drastic", Drastic(), 1e-12),
    ("ss:-2", SchweizerSklar(-2.0), 1e-9),
    ("ss:-1", SchweizerSklar(-1.0), 1e-9),
    ("ss:-0.5", SchweizerSklar(-0.5), 1e-9),
    ("ss:0.5", SchweizerSklar(0.5), 1e-9),
    ("ss:1", SchweizerSklar(1.0), 1e-12),  # beta = 1: powers stay exact
    ("ss:2", SchweizerSklar(2.0), 1e-9),
    ("ss:3", SchweizerSklar(3.0), 1e-9),
    ("cshelf:0.25", CShelf(0.25), 1e-12),
    ("cshelf:0.5", CShelf(0.5), 1e-12),
    ("cshelf:0.75", CShelf(0.75), 1e-12),
]

MATRIX_IDS = [name for name, _, _ in FAMILY_MATRIX]

ORDINAL_SUMS = [
    OrdinalSum([(0.0, 0.5, Lukasiewicz())]),
    OrdinalSum([(0.5, 1.0, Product())]),
    OrdinalSum([(0.2, 0.6, Lukasiewicz()), (0.6, 1.0, Product())]),
]

#: the families of Klement, Mesiar & Pap, ch. 4, that the sweep benchmark
#: checks as expressions: Hamacher (p = 0), Einstein and Lukasiewicz.
#: dsl.mirror_symmetric accepts all three, so they sweep the half cube.
EXPR_TNORMS = [
    Expr("x*y/max(x+y-x*y,1e-300)"),
    Expr("x*y/(2-(x+y-x*y))"),
    Expr("max(x+y-1,0)"),
]


def paper_companion(spec, x, y):
    """The companion F(x, y) of a catalog kind, written from the closed-form
    F column of the paper's table rather than from T(x, x*y): an oracle
    independent of the package's companion evaluation."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    w = x * y
    if isinstance(spec, Minimum):
        return w
    if isinstance(spec, Product):
        return x ** 2 * y
    if isinstance(spec, Lukasiewicz):
        return np.maximum(x + w - 1.0, 0.0)
    if isinstance(spec, Drastic):
        return np.where(x == 1.0, y, 0.0)
    if isinstance(spec, CShelf):
        c = spec.c
        zero = ((x > 0) & (x < 1) & (w > 0) & (w < 1)
                & ~((x >= c) & (w >= c)))
        return np.where(zero, 0.0, w)
    if isinstance(spec, SchweizerSklar):
        # the T formula with y -> x*y, on (0,1]^2 only
        b = spec.beta
        inside = (x > 0) & (w > 0)
        xs = np.where(inside, x, 1.0)
        ws = np.where(inside, w, 1.0)
        s = xs ** b + ws ** b - 1.0
        if b > 0:
            s = np.maximum(s, 0.0)
        return np.where(inside, s ** (1.0 / b), 0.0)
    raise TypeError(f"no closed-form companion for {spec!r}")


@pytest.fixture(scope="session")
def grid():
    return GridSpec()


@pytest.fixture(scope="session")
def coarse_grid():
    return GridSpec(points=21, samples=500)


def one_midpoint_bisection(spec, level, lo, hi, tol, path=None):
    """core._bisect_diagonal's bracket, one eval_tnorm call per halving:
    the reference that its array calls must match bit for bit.  Appends
    each midpoint it reads to ``path`` when one is given."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: the bracket cannot shrink
        if path is not None:
            path.append(mid)
        if eval_tnorm(spec, mid, mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo, hi
