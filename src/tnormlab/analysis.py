"""Numerical verification engine.

Every check sweeps exact evaluations over a deterministic grid (plus a
seeded random sample where noted) and reduces to a :class:`Report`:
pass/fail, the largest residual seen, and a :class:`Witness` pinpointing a
violation when there is one.  Reports are pure functions of their inputs
and the :class:`GridSpec`, so identical seeds reproduce identical reports
byte for byte.

Witness slots are named after the scaling equation T(l*x, l*y) =
F(l, T(x, y)); checks that probe pairs rather than triples set ``lam`` to
1 and document the slot meaning in the report metadata.  Every witness
has gap = |lhs - rhs|.  Staged checks (the axioms, the diagonal's
monotonicity) report the first violation in scan order; sweeps (the
scaling equation and its l = 1 line, grid jumps, the minimum equivalences,
the targeted counterexample probes) report the first maximal one.

Continuity cannot be decided from finitely many samples.  The two checks
that talk about it use a grid-jump surrogate (adjacent values differing by
more than ``CONTINUITY_JUMP_FACTOR`` times the grid spacing) and mark
their reports as heuristic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .core import (
    Canonical,
    CompanionF,
    OrdinalSum,
    TNormSpec,
    _format_param,
    companion_values,
    eval_tnorm,
    spec_label,
    tnorm_values,
)
from .rng import SplitMix64

__all__ = [
    "GridSpec",
    "Witness",
    "Report",
    "CONTINUITY_JUMP_FACTOR",
    "ASSOC_GRID_CAP",
    "check_axioms",
    "reconstruct_t_from_f",
    "reconstruct_values",
    "check_gph",
    "check_unit_scale",
    "check_pseudo_homogeneous",
    "check_archimedean",
    "scan_diagonal",
    "diagonal_shelf",
    "check_tm_equivalences",
    "check_continuity_equivalence",
    "find_gph_counterexample",
    "residual_rows",
]

#: adjacent-cell jump beyond CONTINUITY_JUMP_FACTOR * spacing counts as a
#: discontinuity at grid scale.  A desk-scale surrogate, not a proof: steep
#: continuous functions (Schweizer-Sklar with large exponents near the
#: nilpotent boundary) can exceed it.
CONTINUITY_JUMP_FACTOR = 10.0

#: associativity sweeps use the full points^3 cube only up to this many
#: axis points; finer grids fall back to this cap plus random triples.
ASSOC_GRID_CAP = 41


@dataclass(frozen=True)
class GridSpec:
    """Resolution, tolerances, and sampling controls for every sweep."""

    points: int = 101
    eq_tol: float = 1e-9
    strict_tol: float = 1e-12
    samples: int = 10_000
    seed: int = 0xC0FFEE
    step_h: float = 1e-6

    def __post_init__(self):
        if self.points < 3:
            raise ValueError(f"points must be >= 3, got {self.points}")
        if not (self.eq_tol > 0 and self.strict_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.step_h <= 1e-2):
            raise ValueError(f"step_h must lie in (0, 1e-2], got {self.step_h}")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.points)

    @property
    def spacing(self) -> float:
        return 1.0 / (self.points - 1)

    def validation_axis(self) -> np.ndarray:
        """Off-grid lattice, offset from :meth:`axis` by half a spacing."""
        h = self.spacing
        return np.linspace(0.5 * h, 1.0 - 0.5 * h, self.points - 1)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: the probed triple and both sides of the check."""

    lam: float
    x: float
    y: float
    lhs: float
    rhs: float
    gap: float

    def to_dict(self) -> dict:
        d = vars(self).copy()
        return {"lambda": d.pop("lam"), **d}


@dataclass(frozen=True)
class Report:
    check: str
    passed: bool
    max_residual: float
    witness: Optional[Witness]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self),
                "witness": self.witness.to_dict() if self.witness else None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        line = (f"{self.check}: {'PASS' if self.passed else 'FAIL'} "
                f"max_residual={self.max_residual:.3e}")
        if self.witness is not None:
            w = self.witness
            line += (f" witness(lambda={w.lam:.12g} x={w.x:.12g} y={w.y:.12g}"
                     f" lhs={w.lhs:.12g} rhs={w.rhs:.12g} gap={w.gap:.12g})")
        return line


def _witness_from(lam, x, y, lhs, rhs) -> Witness:
    """The one place a :class:`Witness` is built: gap = |lhs - rhs|."""
    lhs = float(lhs)
    rhs = float(rhs)
    return Witness(float(lam), float(x), float(y), lhs, rhs, abs(lhs - rhs))


def _witness_at(i: int, lam, x, y, lhs, rhs) -> Witness:
    """The witness at flat index ``i`` (C order) of the slot arrays
    broadcast together."""
    slots = np.nditer((lam, x, y, lhs, rhs), order="C")
    slots.iterindex = i
    return _witness_from(*slots.value)


def _first_over(res: np.ndarray, tol: float, *slots) -> Optional[Witness]:
    """The witness at the first entry of ``res`` above ``tol`` (C order),
    or None; ``slots`` broadcast to the shape of ``res``."""
    over = res > tol
    i = int(np.argmax(over))
    return _witness_at(i, *slots) if over.flat[i] else None


def _first_max(pieces) -> tuple[float, Witness]:
    """The largest residual over ``pieces`` of (residual, lam, x, y, lhs,
    rhs) and the witness at its first occurrence: pieces in order, entries
    in C order, and a later piece wins only with a strictly larger value."""
    best = None
    for res, *slots in pieces:
        i = int(np.argmax(res))
        if best is None or res.flat[i] > best:
            best, witness = float(res.flat[i]), _witness_at(i, *slots)
    return best, witness


def reconstruct_values(f: CompanionF, x, y) -> np.ndarray:
    """T recovered from its companion: T(x, y) = F(max, min/max); (0,0) -> 0."""
    xb = np.asarray(x, dtype=np.float64)
    yb = np.asarray(y, dtype=np.float64)
    u = np.maximum(xb, yb)
    v = np.minimum(xb, yb)
    ratio = v / np.where(u > 0.0, u, 1.0)
    vals = companion_values(f, u, ratio)
    return np.where(u > 0.0, vals, 0.0)


def reconstruct_t_from_f(f: CompanionF, x: float, y: float) -> float:
    return float(reconstruct_values(f, np.asarray([float(x)]),
                                    np.asarray([float(y)]))[0])


# --------------------------------------------------------------------------
# Axiom suite
# --------------------------------------------------------------------------

def check_axioms(spec: TNormSpec, grid: GridSpec = GridSpec(),
                 assoc_full: bool = False) -> Report:
    """Boundary, commutativity, monotonicity, and associativity at strict_tol.

    Stages run in the order T4, T1, T3, T2 and the first violating point
    becomes the witness.  Associativity uses the full triple cube only up
    to ASSOC_GRID_CAP axis points (or with ``assoc_full``); beyond that a
    capped cube plus seeded random triples.
    """
    g = grid.axis()
    tol = grid.strict_tol
    x, y = g[:, None], g[None, :]
    T_xy = tnorm_values(spec, x, y)
    col = T_xy[:, -1]  # T(g, 1): the axis ends at exactly 1.0

    if assoc_full or grid.points <= ASSOC_GRID_CAP:
        axis = g
    else:
        axis = np.linspace(0.0, 1.0, ASSOC_GRID_CAP)
    n = axis.size
    samples_used = grid.samples if n < grid.points else 0

    def assoc():
        """T2 pieces: the cube in blocks of x rows, each at most
        ASSOC_GRID_CAP^3 triples, then random triples extending a capped
        cube."""
        T_ab = tnorm_values(spec, axis[:, None], axis[None, :])
        rows = max(1, ASSOC_GRID_CAP ** 3 // n ** 2)
        for start in range(0, n, rows):
            a = axis[start:start + rows, None, None]
            lhs = tnorm_values(spec, a, T_ab[None, :, :])
            rhs = tnorm_values(spec, T_ab[start:start + rows, :, None],
                               axis[None, None, :])
            yield (np.abs(lhs - rhs), a, axis[None, :, None], axis[None, None, :],
                   lhs, rhs)
        if samples_used:
            a, b, c = SplitMix64(grid.seed).unit_tuples(samples_used, 3).T
            lhs = tnorm_values(spec, a, tnorm_values(spec, b, c))
            rhs = tnorm_values(spec, tnorm_values(spec, a, b), c)
            yield np.abs(lhs - rhs), a, b, c, lhs, rhs

    # axiom -> pieces (residual, lam, x, y, lhs, rhs).  T4: T(x, 1) = x;
    # T1: T(x, y) = T(y, x); T3: y <= z implies T(x, y) <= T(x, z), checked
    # on adjacent columns with lhs the later value; T2: T(x, T(y, z)) =
    # T(T(x, y), z)
    stages = {
        "T4": [(np.abs(col - g), 1.0, g, 1.0, col, g)],
        "T1": [(np.abs(T_xy - T_xy.T), 1.0, x, y, T_xy, T_xy.T)],
        "T3": [(np.maximum(T_xy[:, :-1] - T_xy[:, 1:], 0.0),
                x, y[:, :-1], y[:, 1:], T_xy[:, 1:], T_xy[:, :-1])],
        "T2": assoc(),
    }
    residuals: dict[str, float] = {}
    witness = failed_axiom = None
    for axiom, pieces in stages.items():
        residuals[axiom] = 0.0
        for res, *slots in pieces:
            residuals[axiom] = max(residuals[axiom], float(res.max()))
            if witness is None and (witness := _first_over(res, tol, *slots)):
                failed_axiom = axiom

    max_residual = max(residuals.values())
    metadata = {
        "tnorm": spec_label(spec),
        "points": grid.points,
        "assoc_points": int(n),
        "assoc_samples": samples_used,
        "seed": grid.seed,
        "strict_tol": tol,
        "axiom_residuals": residuals,
        "failed_axiom": failed_axiom,
        "witness_slots": "T2 uses (lam, x, y) = probed triple; T3 uses"
                         " (x; y, z) with y <= z; pair checks set lam = 1",
    }
    return Report("axioms", max_residual <= tol, max_residual, witness, metadata)


# --------------------------------------------------------------------------
# Scaling-equation sweeps
# --------------------------------------------------------------------------

def _scaling_piece(spec: TNormSpec, comp: CompanionF, lam, x, y, t):
    """(residual, lam, x, y, lhs, rhs) for both sides of the scaling
    equation, lhs = T(l*x, l*y) and rhs = F(l, t), where t = T(x, y)."""
    lhs = tnorm_values(spec, lam * x, lam * y)
    rhs = companion_values(comp, lam, t)
    return np.abs(lhs - rhs), lam, x, y, lhs, rhs


def _gph_slices(spec: TNormSpec, comp: CompanionF, grid: GridSpec):
    """Yield the scaling-equation piece of each grid lambda in scan order,
    over the (x, y) grid with x on axis 0."""
    g = grid.axis()
    x, y = g[:, None], g[None, :]
    T_xy = tnorm_values(spec, x, y)
    for lam in g:
        yield _scaling_piece(spec, comp, lam, x, y, T_xy)


def check_gph(spec: TNormSpec, f: Optional[CompanionF] = None,
              grid: GridSpec = GridSpec()) -> Report:
    """Residual sweep of T(l*x, l*y) = F(l, T(x, y)).

    With ``f`` omitted the check is intrinsic: it uses the canonical
    companion F(l, t) = T(l, l*t), the only candidate any t-norm admits.
    Sweeps all grid triples in (l, x, y) scan order plus ``samples`` seeded
    random triples; the witness is the first maximal-gap triple.
    """
    comp = Canonical(spec) if f is None else f

    def pieces():
        yield from _gph_slices(spec, comp, grid)
        if grid.samples > 0:
            lam, x, y = SplitMix64(grid.seed).unit_tuples(grid.samples, 3).T
            yield _scaling_piece(spec, comp, lam, x, y, tnorm_values(spec, x, y))

    best_gap, best = _first_max(pieces())
    passed = best_gap <= grid.eq_tol
    metadata = {
        "tnorm": spec_label(spec),
        "companion": "intrinsic" if f is None else f.label(),
        "points": grid.points,
        "samples": grid.samples,
        "seed": grid.seed,
        "eq_tol": grid.eq_tol,
    }
    return Report("gph", passed, best_gap, None if passed else best, metadata)


def check_unit_scale(f: CompanionF, grid: GridSpec = GridSpec()) -> Report:
    """Fail-fast slice of the scaling equation at l = 1: F(1, t) = t.

    The boundary axiom forces it, so any companion violating this line
    cannot satisfy the full equation."""
    g = grid.axis()
    vals = companion_values(f, 1.0, g)
    m, witness = _first_max([(np.abs(vals - g), 1.0, 1.0, g, vals, g)])
    passed = m <= grid.eq_tol
    return Report("unit_scale", passed, m, None if passed else witness, {
        "companion": f.label(),
        "points": grid.points,
        "eq_tol": grid.eq_tol,
        "identity": "F(1, t) = t",
    })


# --------------------------------------------------------------------------
# Companion regularity (the strict pseudo-homogeneity predicate)
# --------------------------------------------------------------------------

def check_pseudo_homogeneous(f: CompanionF, grid: GridSpec = GridSpec()) -> Report:
    """Does the companion meet the stricter regularity demanded of a
    pseudo-homogeneous pairing: increasing in each argument, continuous (at
    grid scale), and F(x, 1) = 0 exactly when x = 0?

    Subtests run in the order (increasing, boundary, continuity); the
    witness comes from the first failing one.  For the boundary test the
    witness is the largest grid x whose F(x, 1) vanishes.
    """
    g = grid.axis()
    F = companion_values(f, g[:, None], g[None, :])
    tol = grid.eq_tol

    # (a) nondecreasing in each argument
    inc_violation, inc_witness = _max_adjacent_jump(
        F, g, lambda step: np.maximum(-step, 0.0))
    inc_ok = inc_violation <= tol

    # (b) F(x, 1) = 0 iff x = 0; F(g, 1) is the last column of F
    col = F[:, -1]
    zero_ok = float(col[0]) <= tol
    vanishing = (g > 0.0) & (col <= tol)
    boundary_ok = zero_ok and not bool(np.any(vanishing))
    boundary_witness = None
    if np.any(vanishing):
        i = int(np.nonzero(vanishing)[0][-1])  # largest violating x
        boundary_witness = _witness_from(1.0, g[i], 1.0, col[i], g[i])
    elif not zero_ok:
        boundary_witness = _witness_from(1.0, 0.0, 1.0, col[0], 0.0)

    # (c) continuity at grid scale
    threshold = CONTINUITY_JUMP_FACTOR * grid.spacing
    jumps, cont_witness = _max_adjacent_jump(F, g)
    cont_ok = jumps <= threshold

    passed = inc_ok and boundary_ok and cont_ok
    witness = None
    if not inc_ok:
        witness = inc_witness
    elif not boundary_ok:
        witness = boundary_witness
    elif not cont_ok:
        witness = cont_witness
    max_residual = 0.0 if passed else float(witness.gap)
    metadata = {
        "companion": f.label(),
        "points": grid.points,
        "eq_tol": tol,
        "increasing_ok": inc_ok,
        "increasing_max_violation": inc_violation,
        "boundary_ok": boundary_ok,
        "max_jump": jumps,
        "jump_threshold": threshold,
        "continuous_at_grid_scale": cont_ok,
        "continuity_heuristic": True,
    }
    return Report("pseudo_homogeneous", passed, max_residual, witness, metadata)


# --------------------------------------------------------------------------
# Archimedean limit property
# --------------------------------------------------------------------------

#: a power counts as below the floor only when it is below
#: floor * (1 - _FLOOR_TIE).  Doubling rounds differently from the
#: sequential recursion, so a power whose exact value is within a few ulps
#: of the floor (a tie on the power lattice: ss:-1 at 0.9 reaches exactly
#: 1e-3 at n = 8991 up to the rounding of 0.9) must not be counted as below
#: it one step early.
_FLOOR_TIE = 1e-15


def check_archimedean(spec: TNormSpec,
                      x_probe: Sequence[float] = (0.5, 0.9, 0.99),
                      n_max: int = 2**53,
                      floor: float = 1e-3) -> Report:
    """Limit property: the powers x^(n) of each probe must fall below
    ``floor`` for some n <= ``n_max``; ``minimal_n`` is the least such n.

    Powers are found in O(log n_max) vectorized T calls over all probes at
    once, by associativity x^(m+n) = T(x^(m), x^(n)):

    1. a doubling table x^(1), x^(2), x^(4), ... (one call per level),
       stopped once every probe is below the floor or has stalled, or the
       next power of two would exceed ``n_max``.  A probe stalls when
       T(p, p) >= p for a table entry p, an idempotent trap: its powers
       are constant from there on and it fails;
    2. a binary descent over the table, from x^(0) = 1 (T(1, y) = y), to
       the largest m < ``n_max`` with x^(m) not below the floor (one call
       per level);
    3. ``minimal_n`` is m + 1 when x^(m+1) reads below the floor.  The
       descent computed it already if it rejected any candidate as below
       (the last one rejected sits at m + 1); one final call
       T(x^(m), x) covers the others, m + 1 = n_max among them.  Far out
       consecutive powers differ by less than an ulp, and the two
       roundings of x^(m+1) may disagree: either one below counts.

    That is at most 2 * n_max.bit_length() calls.  The default
    ``n_max = 2**53`` is the largest index a JSON double holds exactly.
    A power counts as below only when it is below floor * (1 - 1e-15), so
    an exact power a few ulps from the floor reads as not below; a power
    within that margin under the floor gives minimal_n one above its exact
    value.  Resolution limit: at floor 1e-3, ss:b with b at about -4.9 or
    below needs n > 2**53 at probe 0.99, which then fails with ``None``.
    """
    if not 1 <= n_max <= 2**53:
        raise ValueError("n_max must lie in [1, 2**53]")
    if not (0.0 < floor < 1.0):
        raise ValueError("floor must lie in (0, 1)")
    for probe in x_probe:
        if not (0.0 < probe < 1.0):
            raise ValueError(f"probes must lie in (0, 1), got {probe}")
    x = np.asarray(x_probe, dtype=np.float64)
    below = floor * (1.0 - _FLOOR_TIE)

    table = [x]  # table[k] = x^(2^k)
    done = x < below
    while not done.all() and 2 ** len(table) <= n_max:
        p = table[-1]
        table.append(tnorm_values(spec, p, p))
        done |= (table[-1] < below) | (table[-1] >= p)

    m = np.zeros_like(x)  # exact in float64: m < n_max <= 2**53
    power = np.ones_like(x)  # x^(m)
    hit = np.zeros(x.shape, dtype=bool)  # a candidate x^(m+step) read below
    for k in reversed(range(len(table))):
        step = 1 << k
        cand = np.where(m == 0, table[k], tnorm_values(spec, power, table[k]))
        valid = m < n_max - step
        take = valid & (cand >= below)
        hit |= valid & ~take
        m = np.where(take, m + step, m)
        power = np.where(take, cand, power)
    last = np.where(m == 0, x, tnorm_values(spec, power, x))  # x^(m+1)
    reached = hit | (last < below)
    lowest = np.minimum(np.minimum.reduce(table), last)

    minimal_n: dict[str, Optional[int]] = {
        _format_param(probe): int(n) + 1 if ok else None
        for probe, n, ok in zip(x_probe, m, reached)}
    failing = np.flatnonzero(~reached)
    witness = None
    max_residual = 0.0
    if failing.size:
        i = failing[0]
        witness = _witness_from(1.0, x[i], x[i], lowest[i], floor)
        max_residual = float(np.max(np.abs(lowest[failing] - floor)))
    metadata = {
        "tnorm": spec_label(spec),
        "n_max": n_max,
        "floor": floor,
        "minimal_n": minimal_n,
        "witness_slots": "x = probe, lhs = smallest power reached, rhs = floor",
    }
    return Report("archimedean", witness is None, max_residual, witness,
                  metadata)


# --------------------------------------------------------------------------
# Scan of the diagonal
# --------------------------------------------------------------------------

def diagonal_shelf(g: np.ndarray, d: np.ndarray,
                   tol: float) -> tuple[bool, Optional[tuple[float, float]]]:
    """Zero/identity structure of a diagonal ``d`` sampled on the grid ``g``.

    Returns whether ``d`` vanishes (within ``tol``) on the whole interior
    of the grid, and, when the interior instead starts with a zero plateau
    followed only by identity values, the last plateau point and the first
    identity point (None otherwise).  The shelf edge lies between them.
    """
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


def scan_diagonal(spec: TNormSpec, grid: GridSpec = GridSpec()) -> Report:
    """Monotonicity of the diagonal x -> T(x, x), its limit at 1, and the
    shelf edge.

    For any t-norm the diagonal fixes 0 and 1, never exceeds its argument,
    and is monotone increasing; the scan verifies monotonicity and
    assumes none of these.

    The limit estimate is the diagonal at 1 - step_h and must land within
    ``max(eq_tol, 10 * step_h)`` of 0 or of 1 (the only limits a t-norm
    compatible with the scaling equation can have).  A shelf edge is
    reported when a zero plateau on the interior grid is immediately
    followed by identity diagonal values.
    """
    g = grid.axis()
    d = tnorm_values(spec, g, g)
    tol = grid.eq_tol

    drops = d[:-1] - d[1:]
    mono_violation = float(np.maximum(drops, 0.0).max())
    mono_ok = mono_violation <= grid.strict_tol
    mono_witness = _first_over(drops, grid.strict_tol, 1.0, g[:-1], g[1:],
                               d[1:], d[:-1])

    probe = 1.0 - grid.step_h
    limit_estimate = eval_tnorm(spec, probe, probe)
    limit_tol = max(tol, 10.0 * grid.step_h)
    if limit_estimate <= limit_tol:
        limit = 0
    elif 1.0 - limit_estimate <= limit_tol:
        limit = 1
    else:
        limit = None

    zero_on_interior, shelf = diagonal_shelf(g, d, tol)
    plateau_end, shelf_edge = shelf if shelf is not None else (None, None)

    passed = mono_ok and limit is not None
    witness = None
    if not mono_ok:
        witness = mono_witness
    elif limit is None:
        witness = _witness_from(1.0, probe, probe, limit_estimate,
                                round(limit_estimate))
    max_residual = 0.0 if passed else float(witness.gap)
    metadata = {
        "tnorm": spec_label(spec),
        "points": grid.points,
        "eq_tol": tol,
        "monotone_ok": mono_ok,
        "monotone_max_violation": mono_violation,
        "limit_probe": probe,
        "limit_estimate": float(limit_estimate),
        "limit_tol": limit_tol,
        "limit": limit,
        "zero_on_interior": zero_on_interior,
        "plateau_end": plateau_end,
        "shelf_edge": shelf_edge,
    }
    return Report("diagonal_scan", passed, max_residual, witness, metadata)


# --------------------------------------------------------------------------
# Minimum-kind equivalences
# --------------------------------------------------------------------------

def check_tm_equivalences(spec: TNormSpec, grid: GridSpec = GridSpec()) -> Report:
    """Four statements that stand or fall together for any t-norm carrying
    a companion: T = min, F = x*y, F commutative, F(x, 1) = x.  The check
    passes when the truth vector is constant (all true or all false)."""
    g = grid.axis()
    x, y = g[:, None], g[None, :]
    T = tnorm_values(spec, x, y)
    F = companion_values(Canonical(spec), x, y)
    tol = grid.strict_tol

    # statement -> (lhs table, rhs table, x coords, y coords)
    cases = {
        "t_equals_min": (T, np.minimum(x, y), x, y),
        "f_equals_xy": (F, x * y, x, y),
        "f_commutative": (F, F.T, x, y),
        "f_right_neutral": (F[:, -1], g, g, 1.0),
    }
    deviations = {name: np.abs(lhs - rhs) for name, (lhs, rhs, _, _) in cases.items()}
    truth = {name: bool(dev.max() <= tol) for name, dev in deviations.items()}
    values = list(truth.values())
    passed = all(values) or not any(values)

    witness = None
    max_residual = 0.0
    if not passed:
        # the first false statement explains the inconsistency
        name = next(name for name, ok in truth.items() if not ok)
        lhs, rhs, xs, ys = cases[name]
        max_residual, witness = _first_max(
            [(deviations[name], 1.0, xs, ys, lhs, rhs)])

    metadata = {
        "tnorm": spec_label(spec),
        "points": grid.points,
        "strict_tol": tol,
        "statements": truth,
        "max_deviation": {k: float(v.max()) for k, v in deviations.items()},
    }
    return Report("tm_equivalences", passed, max_residual, witness, metadata)


# --------------------------------------------------------------------------
# Continuity equivalence
# --------------------------------------------------------------------------

def _max_adjacent_jump(values: np.ndarray, g: np.ndarray,
                       measure=np.abs) -> tuple[float, Witness]:
    """Largest ``measure`` of the step between neighbouring cells of a table
    over ``g`` x ``g`` (later cell minus earlier), and a witness at the
    first such pair, x-neighbours scanned before y-neighbours (so they win
    ties).  The witness gives the later cell's coordinates, lhs = its value
    and rhs = the earlier cell's value; its gap is the measured step
    whenever that step is |lhs - rhs|, as it is for every reported jump."""
    return _first_max([
        (measure(values[1:, :] - values[:-1, :]), 1.0, g[1:, None], g[None, :],
         values[1:, :], values[:-1, :]),
        (measure(values[:, 1:] - values[:, :-1]), 1.0, g[:, None], g[None, 1:],
         values[:, 1:], values[:, :-1]),
    ])


def check_continuity_equivalence(spec: TNormSpec,
                                 grid: GridSpec = GridSpec()) -> Report:
    """A t-norm and its companion are continuous together or not at all;
    this verifies the grid-scale surrogate of that equivalence."""
    g = grid.axis()
    T = tnorm_values(spec, g[:, None], g[None, :])
    F = companion_values(Canonical(spec), g[:, None], g[None, :])
    threshold = CONTINUITY_JUMP_FACTOR * grid.spacing
    t_jump, t_witness = _max_adjacent_jump(T, g)
    f_jump, f_witness = _max_adjacent_jump(F, g)
    t_cont = t_jump <= threshold
    f_cont = f_jump <= threshold
    passed = t_cont == f_cont

    witness = None
    if not passed:
        witness = t_witness if t_jump >= f_jump else f_witness

    metadata = {
        "tnorm": spec_label(spec),
        "points": grid.points,
        "jump_threshold": threshold,
        "t_max_jump": t_jump,
        "f_max_jump": f_jump,
        "t_continuous_at_grid_scale": t_cont,
        "f_continuous_at_grid_scale": f_cont,
        "continuity_heuristic": True,
    }
    return Report("continuity_equivalence", passed,
                  0.0 if passed else float(witness.gap), witness, metadata)


# --------------------------------------------------------------------------
# Counterexample search
# --------------------------------------------------------------------------

def find_gph_counterexample(spec: TNormSpec, grid: GridSpec = GridSpec()) -> Report:
    """Hunt for a triple violating the intrinsic scaling equation.

    Ordinal sums are the interesting prey: every non-trivial one fails, and
    for them two targeted constructions are probed per summand [a, e]:

      case 1 (a > 0): scale so l*y pins the idempotent endpoint a exactly
        while the unscaled pair multiplies strictly inside the summand;
      case 2 (e < 1): scale the top corner (e, e) so the scaled pair lands
        strictly inside the summand.

    The returned witness is the largest-gap targeted probe when one
    violates, otherwise the sweep's witness; the full sweep maximum is kept
    in metadata either way.
    """
    sweep = check_gph(spec, None, grid)
    probes = []
    if isinstance(spec, OrdinalSum):
        for s in spec.summands:
            a, e = s.lower, s.upper
            if a > 0.0:
                x = a + 0.8 * (e - a)
                y = a + 0.6 * (e - a)
                probes.append(("case1", a / y, x, y))
            if e < 1.0:
                x = 0.8 * e
                if x <= e * e:
                    x = 0.5 * (e * e + e)
                probes.append(("case2", x / e, e, e))

    targeted = []
    witness = sweep.witness
    max_residual = sweep.max_residual
    source = "sweep" if witness is not None else None
    if probes:
        cases = [case for case, *_ in probes]
        lam, x, y = np.asarray([p[1:] for p in probes]).T
        gap, *slots = _scaling_piece(spec, Canonical(spec), lam, x, y,
                                     tnorm_values(spec, x, y))
        rows = zip(cases, lam.tolist(), x.tolist(), y.tolist(), gap.tolist())
        targeted = [dict(zip(("case", "lambda", "x", "y", "gap"), row))
                    for row in rows]
        i = int(np.argmax(gap))  # the first maximal gap
        if gap[i] > grid.eq_tol:
            witness = _witness_at(i, *slots)
            max_residual = witness.gap
            source = cases[i]

    passed = witness is None
    metadata = {
        "tnorm": spec_label(spec),
        "points": grid.points,
        "samples": grid.samples,
        "seed": grid.seed,
        "eq_tol": grid.eq_tol,
        "sweep_max_residual": sweep.max_residual,
        "targeted_probes": targeted,
        "witness_source": source,
    }
    return Report("gph_counterexample", passed, max_residual, witness, metadata)


# --------------------------------------------------------------------------
# CSV dump
# --------------------------------------------------------------------------

RESIDUAL_CSV_HEADER = "lambda,x,y,lhs,rhs,residual"


def residual_rows(spec: TNormSpec, f: Optional[CompanionF],
                  grid: GridSpec = GridSpec()):
    """Yield (lambda, x, y, lhs, rhs, residual) for every grid triple, in
    scan order.  Streams one lambda slice at a time."""
    comp = Canonical(spec) if f is None else f
    g = grid.axis()
    flat_x = np.repeat(g, g.size).tolist()
    flat_y = np.tile(g, g.size).tolist()
    for res, lam, _, _, lhs, rhs in _gph_slices(spec, comp, grid):
        yield from zip(repeat(float(lam)), flat_x, flat_y, np.ravel(lhs).tolist(),
                       np.ravel(rhs).tolist(), np.ravel(res).tolist())
