"""Black-box family identification.

Given any t-norm description that passes the axiom suite, decide which
catalog family it is (estimating the exponent or the shelf edge where the
family is parametric) or certify NotGPH with a scaling-equation witness.

Decision procedure, in order: identity diagonal (Minimum); zero diagonal
on the interior (Drastic); zero plateau followed by identity (CShelf, edge
refined by bisection); pointwise product match (Product); exponent fit
(Schweizer-Sklar, sign of the fitted exponent picks the branch).  A branch
only nominates a candidate: the verdict always comes from the residual
against the exact family member on a validation lattice offset from the
decision grid, so a parametric family is never returned with validation
residual above eq_tol.

The exponent fit solves, per sample (x, y, t = T(x, y)), the root problem
x^b + y^b - 1 - t^b = 0 over [-60, -1e-3] u [1e-3, 60] (b = 0 is always a
root and is excluded; beyond |b| = 60 the family is numerically
indistinguishable from min on binary64 grids), for all samples at once:
one table of the equation over a geometric ladder of 48 rungs a side, one
comparison that finds every sign change between neighbouring rungs, and one
bisection loop over all brackets together.  The estimate is the median of
per-sample roots, which ignores the few samples that land near the
max{., 0} fold.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import GridSpec, check_axioms, diagonal_shelf, find_gph_counterexample
from .core import (
    CShelf,
    Drastic,
    Minimum,
    Product,
    SchweizerSklar,
    TNormSpec,
    _bisect_diagonal,
    spec_label,
    tnorm_values,
)
from .rng import SplitMix64

__all__ = [
    "PreconditionError",
    "FitError",
    "ClassificationResult",
    "BETA_BRACKET",
    "classify",
    "fit_beta_from_triples",
]

#: search range for the Schweizer-Sklar exponent.
BETA_BRACKET = (1e-3, 60.0)

#: samples whose t differs from x*y by less than this are uninformative for
#: the exponent fit (they belong to the Product branch).
PRODUCT_GUARD = 1e-6

_MIN_SAMPLES = 50
_TARGET_SAMPLES = 64
_MAX_DRAWS = 20_000
_BISECT_TOL = 1e-10
_LADDER_POINTS = 48
#: the fit fails when more than this share of the samples brackets no root.
_MAX_MISSING_FRACTION = 0.2


class PreconditionError(Exception):
    """The input is not a t-norm at grid scale; classification is undefined."""


class FitError(Exception):
    """The exponent fit could not bracket roots for enough samples."""


@dataclass(frozen=True)
class ClassificationResult:
    family: str  # Minimum | SchweizerSklarPos | Product | SchweizerSklarNeg
    #             | CShelf | Drastic | NotGPH
    parameter: Optional[float]
    residual: float
    evidence: tuple

    def to_dict(self) -> dict:
        return {**vars(self), "evidence": list(self.evidence)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# --------------------------------------------------------------------------
# Exponent fit
# --------------------------------------------------------------------------

def _h(beta, x, y, t):
    """x^b + y^b - 1 - t^b, rescaled by t^b on the negative side so that no
    term can overflow (t <= min(x, y) keeps every ratio power in (0, 1]).
    Broadcasts; x / 1 is x exactly, so each side keeps its own formula."""
    pos = beta > 0.0
    base = np.where(pos, 1.0, t)
    powers = (x / base) ** beta + (y / base) ** beta
    t_abs = t ** np.abs(beta)
    return np.where(pos, powers - 1.0 - t_abs, powers - t_abs - 1.0)


def fit_beta_from_triples(triples: np.ndarray) -> float:
    """Median per-sample root over (x, y, t) rows.

    The equation is tabled over the ladder for all rows at once.  Column j
    brackets a root when h is exactly 0 there or changes sign towards the
    next rung of its side; a side's last rung brackets only its own exact
    zero.  Every bracket is oriented lo < hi with the sign taken at lo and
    bisected together with all others; it stops at an exact zero (lo, then
    hi, then the midpoint) or at width ``_BISECT_TOL`` and yields its
    midpoint.  A row's root is the one with the smallest |h|; a tie goes to
    the first in scan order, the + side before the - side, |b| ascending.

    Raises :class:`ValueError` unless every x, y and t lies in (0, 1], and
    :class:`FitError` when more than ``_MAX_MISSING_FRACTION`` of the
    samples bracket no root at all.
    """
    triples = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    if not np.all((triples > 0.0) & (triples <= 1.0)):
        raise ValueError("every x, y and t must lie in (0, 1]")
    x, y, t = triples.T
    ladder = np.geomspace(*BETA_BRACKET, _LADDER_POINTS)
    betas = np.concatenate([ladder, -ladder])
    partner = np.arange(1, betas.size + 1)
    partner[_LADDER_POINTS - 1::_LADDER_POINTS] -= 1
    table = _h(betas, x[:, None], y[:, None], t[:, None])
    bracket = (table == 0.0) | ((table < 0.0) != (table[:, partner] < 0.0))

    rows, cols = np.nonzero(bracket)
    x, y, t = x[rows], y[rows], t[rows]
    swap = cols >= _LADDER_POINTS  # the - side runs downwards
    lo_col = np.where(swap, partner[cols], cols)
    hi_col = np.where(swap, cols, partner[cols])
    lo, hi = betas[lo_col], betas[hi_col]
    f_lo, f_hi = table[rows, lo_col], table[rows, hi_col]
    exits = np.where(f_lo == 0.0, lo, hi)
    bisected = live = (f_lo != 0.0) & (f_hi != 0.0)
    # an exact zero at the midpoint closes its bracket onto the midpoint
    while (live := live & (hi - lo > _BISECT_TOL)).any():
        mid = 0.5 * (lo + hi)
        f_mid = _h(mid, x, y, t)
        left = (f_lo < 0.0) != (f_mid < 0.0)
        exact = f_mid == 0.0
        hi = np.where(live & (left | exact), mid, hi)
        lo = np.where(live & (~left | exact), mid, lo)
        f_lo = np.where(live & ~left, f_mid, f_lo)
    roots = np.where(bisected, 0.5 * (lo + hi), exits)

    # the root at which each row's equation is satisfied best
    score = np.full(table.shape, np.inf)
    score[rows, cols] = np.abs(_h(roots, x, y, t))
    table[rows, cols] = roots  # a bracket's cell now holds its root
    found = np.flatnonzero(bracket.any(axis=1))
    per_sample = table[found, score[found].argmin(axis=1)]
    missing = len(table) - len(found)
    if missing > _MAX_MISSING_FRACTION * len(table) or not len(found):
        raise FitError(
            f"no exponent bracket for {missing} of {len(table)} samples")
    return float(np.median(per_sample))


def _draw_fit_samples(spec: TNormSpec, grid: GridSpec) -> np.ndarray:
    """Seeded (x, y, t) rows with t interior and off the product surface."""
    rng = SplitMix64(grid.seed)
    batches = []
    kept = drawn = 0
    while kept < _TARGET_SAMPLES and drawn < _MAX_DRAWS:
        x, y = rng.unit_tuples(256, 2).T
        drawn += 256
        t = tnorm_values(spec, x, y)
        keep = ((t > 0.0) & (t < 1.0) & (x > 0.0) & (x < 1.0)
                & (y > 0.0) & (y < 1.0) & (np.abs(t - x * y) > PRODUCT_GUARD))
        batches.append(np.stack([x, y, t], axis=1)[keep])
        kept += len(batches[-1])
    rows = np.concatenate(batches)[:_TARGET_SAMPLES]
    if len(rows) < _MIN_SAMPLES:
        raise FitError(
            f"only {len(rows)} informative samples in {drawn} draws; need"
            f" {_MIN_SAMPLES}")
    return rows


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def _validation_test(family: str) -> str:
    """Evidence name of a family's validation: validate_<snake_case name>."""
    return "validate_" + re.sub(r"(?<=[a-z])(?=[A-Z])", "_", family).lower()


def classify(spec: TNormSpec, grid: GridSpec = GridSpec(),
             assoc_full: bool = False) -> ClassificationResult:
    """Identify the family of ``spec`` (see module docstring).

    Raises :class:`PreconditionError` when the axiom suite fails.
    """
    evidence: list[dict] = []

    axioms = check_axioms(spec, grid, assoc_full=assoc_full)
    evidence.append({"test": "axioms", "passed": axioms.passed,
                     "detail": {"max_residual": axioms.max_residual,
                                "failed_axiom": axioms.metadata["failed_axiom"]}})
    if not axioms.passed:
        raise PreconditionError(
            f"axiom suite failed ({axioms.metadata['failed_axiom']}): "
            f"{axioms.summary()}")

    g = grid.axis()
    x, y = g[:, None], g[None, :]
    T = tnorm_values(spec, x, y)
    d = np.diagonal(T)
    lattice = grid.validation_axis()
    vx, vy = lattice[:, None], lattice[None, :]
    T_valid = tnorm_values(spec, vx, vy)
    residuals: dict[str, float] = {}  # family -> its validation residual

    def validated(family: str, candidate: TNormSpec,
                  parameter: Optional[float]) -> Optional[ClassificationResult]:
        residual = float(np.abs(T_valid - tnorm_values(candidate, vx, vy)).max())
        residuals[family] = residual
        ok = residual <= grid.eq_tol
        evidence.append({"test": _validation_test(family), "passed": ok,
                         "detail": {"candidate": spec_label(candidate),
                                    "residual": residual}})
        if ok:
            return ClassificationResult(family, parameter, residual,
                                        tuple(evidence))
        return None

    # (1) identity diagonal -> Minimum
    idempotent = bool(np.abs(d - g).max() <= grid.strict_tol)
    evidence.append({"test": "idempotent_diagonal", "passed": idempotent,
                     "detail": {"max_deviation": float(np.abs(d - g).max())}})
    if idempotent and (result := validated("Minimum", Minimum(), None)):
        return result

    # (2) diagonal structure: all-zero interior -> Drastic,
    #     zero plateau then identity -> CShelf
    zero_interior, shelf = diagonal_shelf(g, d, grid.eq_tol)
    evidence.append({"test": "zero_diagonal", "passed": zero_interior,
                     "detail": {}})
    if zero_interior and (result := validated("Drastic", Drastic(), None)):
        return result

    shelf_edge = None
    if shelf is not None:
        # the diagonal's jump point: zero at the plateau end, identity after
        shelf_edge = _bisect_diagonal(spec, grid.eq_tol, *shelf, grid.step_h)
    evidence.append({"test": "shelf_pattern", "passed": shelf_edge is not None,
                     "detail": {"shelf_edge": shelf_edge}})
    if shelf_edge is not None and (
            result := validated("CShelf", CShelf(shelf_edge), shelf_edge)):
        return result

    # (3) pointwise product
    prod_dev = float(np.abs(T - x * y).max())
    product_match = prod_dev <= grid.eq_tol
    evidence.append({"test": "product_match", "passed": product_match,
                     "detail": {"max_deviation": prod_dev}})
    if product_match and (result := validated("Product", Product(), None)):
        return result

    # (4) exponent fit
    beta_hat = None
    try:
        samples = _draw_fit_samples(spec, grid)
        beta_hat = fit_beta_from_triples(samples)
        evidence.append({"test": "beta_fit", "passed": True,
                         "detail": {"beta_hat": beta_hat,
                                    "samples": int(len(samples))}})
    except FitError as err:
        evidence.append({"test": "beta_fit", "passed": False,
                         "detail": {"error": str(err)}})
    if beta_hat is not None:
        family = "SchweizerSklarPos" if beta_hat > 0 else "SchweizerSklarNeg"
        if result := validated(family, SchweizerSklar(beta_hat), beta_hat):
            return result

    # NotGPH: record how far the closed kinds are and certify with a witness
    for family, candidate in (("Minimum", Minimum()), ("Product", Product()),
                              ("Drastic", Drastic())):
        if family not in residuals:
            # a branch predicate was too strict; the residual rules
            if result := validated(family, candidate, None):
                return result

    counterexample = find_gph_counterexample(spec, grid)
    evidence.append({
        "test": "gph_counterexample",
        "passed": counterexample.passed,
        "detail": {"witness": (counterexample.witness.to_dict()
                               if counterexample.witness else None),
                   "max_residual": counterexample.max_residual},
    })

    return ClassificationResult("NotGPH", None,
                                min(residuals.values(), default=math.inf),
                                tuple(evidence))
