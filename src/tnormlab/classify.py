"""Black-box family identification.

Given any t-norm description that passes the axiom suite, decide which
catalog family it is (estimating the exponent or the shelf edge where the
family is parametric) or certify NotGPH with a scaling-equation witness.

Decision procedure: after the axioms, an ordinal sum's targeted probes.
Every non-trivial sum fails the scaling equation, so a first maximal probe
gap above eq_tol is NotGPH with that witness, and no candidate is tried
(the summands are catalog kinds, so nothing that could raise is skipped).
Otherwise classify evaluates T(z, z) once, on a fixed axis of 2^13 + 1
points.  Its shape on the interior (zero meaning at most eq_tol, identity
at least z - eq_tol) nominates the candidates: the identity Minimum; zero
Drastic; a zero run then the identity CShelf, at the low end of the run's
bracket narrowed by bisection; any other shape Product, then
Schweizer-Sklar at the exponent fitted from the same vector (its sign
picks the branch).  A shelf narrower than the axis spacing is invisible to
the shape.  Validation decides: each candidate is compared with the spec
on a validation lattice offset from the decision grid, and the first whose
residual is within eq_tol is the verdict, so a parametric family is never
returned with validation residual above eq_tol.  When none passes, the
verdict is NotGPH with check_gph's witness, the probes its last piece.
NotGPH's residual is its witness gap, the evidence's max_residual.

The exponent fit reads the diagonal, where the family gives
T(z, z) = (2z^b - 1)^(1/b): it keeps the axis points with z and T(z, z)
interior and T(z, z) off z^2, thinned evenly to at most 64, so it does not
depend on the grid or its seed.  It solves, per sample (x, y, t = T(x, y)),
T_b(x, y) = t over [-60, -1e-3] u [1e-3, 60] (b = 0 always solves the
power-sum form and is excluded; beyond |b| = 60 the family is numerically
indistinguishable from min on binary64 grids).  The family decreases
pointwise in b (Klement, Mesiar & Pap, Triangular Norms, ch. 4), so the
sign of T_b(x, y) - t goes from + to - once: its sign near b = 1e-3 picks
the side, a row whose sign does not change over its side has no root, and
one bisection runs over all other rows together.  The estimate is the
median of per-sample roots, which ignores the few samples near the
max{., 0} fold.  Each side is bracketed 0.1% past both ends and the
estimate clipped back, so a root on an end (ss:60) survives rounding.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .analysis import (GridSpec, _diagonal_shape, _first_max, _gph_report,
                       _targeted_probes, check_axioms)
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

__all__ = [
    "PreconditionError",
    "FitError",
    "ClassificationResult",
    "BETA_BRACKET",
    "classify",
    "fit_beta_from_triples",
]

#: range of |b| for the Schweizer-Sklar exponent, from the least that core
#: accepts; the fit brackets 0.1% past each end and clips back into it.
BETA_BRACKET = (1e-3, 60.0)

#: samples whose t differs from x*y by less than this are uninformative for
#: the exponent fit (they belong to the Product branch).
PRODUCT_GUARD = 1e-6

_MIN_SAMPLES = 50
_TARGET_SAMPLES = 64
#: the exponent fit reads T(z, z) at this many evenly spaced z in [0, 1].
_FIT_POINTS = 2**13 + 1
_BISECT_TOL = 1e-12
#: the fit fails when more than this share of the samples brackets no root.
_MAX_MISSING_FRACTION = 0.2


class PreconditionError(Exception):
    """The input is not a t-norm at grid scale; classification is undefined."""


class FitError(Exception):
    """The exponent fit could not bracket roots for enough samples."""


@dataclass(frozen=True)
class ClassificationResult:
    family: str  # the validated candidate's kind, SchweizerSklar with Pos or
    #             Neg by the sign of beta; else NotGPH
    parameter: Optional[float]
    residual: float  # the validation residual; NotGPH's witness gap
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


def _sign(beta, x, y, t):
    """Sign of T_beta(x, y) - t, from that of ``_h`` (T rises with the
    power sum for beta > 0 and falls with it for beta < 0).  Broadcasts."""
    return np.sign(beta) * np.sign(_h(beta, x, y, t))


def fit_beta_from_triples(triples: np.ndarray) -> float:
    """Median per-sample root over (x, y, t) rows.

    The family decreases pointwise in the exponent, so the sign of
    T_b(x, y) - t goes from + to - exactly once as b increases.  A row's
    side is [0.999e-3, 60.06] when that sign is >= 0 at b = 0.999e-3 and
    [-60.06, -0.999e-3] otherwise, 0.1% past the ends of ``BETA_BRACKET``
    so that rounding cannot push a root on an end out; a row whose sign
    does not change over its side has no root there (it sits in the gap
    around 0 or beyond |b| = 60).  An exact zero at an end is the root; all
    other rows are bisected together to width ``_BISECT_TOL``, stopping at
    an exact zero, and yield their midpoints.  The median is clipped into
    the range.

    Raises :class:`ValueError` unless every x, y and t lies in (0, 1], and
    :class:`FitError` when more than ``_MAX_MISSING_FRACTION`` of the
    samples bracket no root at all.
    """
    triples = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    if not np.all((triples > 0.0) & (triples <= 1.0)):
        raise ValueError("every x, y and t must lie in (0, 1]")
    x, y, t = triples.T
    near, far = BETA_BRACKET[0] * (1 - 1e-3), BETA_BRACKET[1] * (1 + 1e-3)
    pos = _sign(near, x, y, t) >= 0.0
    lo, hi = np.where(pos, near, -far), np.where(pos, far, -near)
    s_lo, s_hi = _sign(lo, x, y, t), _sign(hi, x, y, t)
    found = (s_lo >= 0.0) & (s_hi <= 0.0)
    missing = len(triples) - int(found.sum())
    if missing > _MAX_MISSING_FRACTION * len(triples) or not found.any():
        raise FitError(
            f"no exponent bracket for {missing} of {len(triples)} samples")

    x, y, t, lo, hi = (a[found] for a in (x, y, t, lo, hi))
    # an exact zero, at an end or a midpoint, closes the bracket onto it
    hi = np.where(s_lo[found] == 0.0, lo, hi)
    lo = np.where(s_hi[found] == 0.0, hi, lo)
    while (live := hi - lo > _BISECT_TOL).any():
        mid = 0.5 * (lo + hi)
        s_mid = _sign(mid, x, y, t)
        lo = np.where(live & (s_mid >= 0.0), mid, lo)
        hi = np.where(live & (s_mid <= 0.0), mid, hi)
    beta = float(np.median(0.5 * (lo + hi)))
    return float(np.sign(beta) * np.clip(abs(beta), *BETA_BRACKET))


def _diagonal_rows(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(z, z, t) rows of the diagonal t = T(z, z) on the fit axis where z and
    t are interior and t is off z^2, thinned evenly by index to
    ``_TARGET_SAMPLES``."""
    (kept,) = np.nonzero((t > 0.0) & (t < 1.0) & (z > 0.0) & (z < 1.0)
                         & (np.abs(t - z * z) > PRODUCT_GUARD))
    if kept.size < _MIN_SAMPLES:
        raise FitError(
            f"only {kept.size} informative diagonal points of {z.size}; need"
            f" {_MIN_SAMPLES}")
    pick = np.linspace(0, kept.size - 1, min(kept.size, _TARGET_SAMPLES))
    kept = kept[pick.astype(int)]
    return np.stack([z[kept], z[kept], t[kept]], axis=1)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def _validation_test(family: str) -> str:
    """Evidence name of a family's validation: validate_<snake_case name>."""
    return "validate_" + re.sub(r"(?<=[a-z])(?=[A-Z])", "_", family).lower()


def _candidates(spec: TNormSpec, grid: GridSpec, evidence: list):
    """The candidates the diagonal's shape on the fit axis allows, in order
    (module docstring); the exponent fit records itself as evidence."""
    z = np.linspace(0.0, 1.0, _FIT_POINTS)
    t = tnorm_values(spec, z, z)
    shape, bracket = _diagonal_shape(z, t, grid.eq_tol)
    if shape == "identity":
        yield Minimum()
    elif shape == "zero":
        yield Drastic()
    elif shape == "shelf":
        yield CShelf(_bisect_diagonal(spec, grid.eq_tol, *bracket,
                                      grid.step_h)[0])
    else:
        yield Product()
        try:
            samples = _diagonal_rows(z, t)
            fit = {"beta_hat": fit_beta_from_triples(samples),
                   "samples": len(samples)}
        except FitError as err:
            fit = {"error": str(err)}
        evidence.append({"test": "beta_fit", "passed": "beta_hat" in fit,
                         "detail": fit})
        if "beta_hat" in fit:
            yield SchweizerSklar(fit["beta_hat"])


def _verdict(candidate: TNormSpec) -> tuple[str, Optional[float]]:
    """Family and parameter of a candidate: its kind, with the
    Schweizer-Sklar branch given by the sign of the exponent, and its single
    field, or None for a kind without one."""
    family = type(candidate).__name__
    if isinstance(candidate, SchweizerSklar):
        family += "Pos" if candidate.beta > 0 else "Neg"
    (parameter,) = [getattr(candidate, f.name) for f in fields(candidate)] or [None]
    return family, parameter


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

    _, probes = _targeted_probes(spec, None)
    gap, witness = _first_max(probes) if probes else (0.0, None)
    if gap <= grid.eq_tol:
        lattice = grid.validation_axis()
        vx, vy = lattice[:, None], lattice[None, :]
        T_valid = tnorm_values(spec, vx, vy)
        for candidate in _candidates(spec, grid, evidence):
            family, parameter = _verdict(candidate)
            residual = float(np.abs(T_valid
                                    - tnorm_values(candidate, vx, vy)).max())
            passed = residual <= grid.eq_tol
            evidence.append({"test": _validation_test(family), "passed": passed,
                             "detail": {"candidate": spec_label(candidate),
                                        "residual": residual}})
            if passed:
                return ClassificationResult(family, parameter, residual,
                                            tuple(evidence))
        sweep = _gph_report(spec, None, grid, lambda: probes)
        gap, witness = sweep.max_residual, sweep.witness
    evidence.append({"test": "gph_counterexample", "passed": witness is None,
                     "detail": {"witness": witness and witness.to_dict(),
                                "max_residual": gap}})
    return ClassificationResult("NotGPH", None, gap, tuple(evidence))
