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
has gap = |lhs - rhs|.  A staged check's verdict is ``_first_failing``'s:
the first failing subtest's witness, its gap as the residual.  The axioms
and the diagonal's monotonicity report the first violation in scan order;
sweeps (the scaling equation and its l = 1 line, grid jumps, the minimum
equivalences) the first maximal one.  :func:`check_gph` is the scaling
equation's one witness pipeline: grid sweep, seeded samples, then an
ordinal sum's targeted probes.  :func:`find_gph_counterexample` and
``classify`` let the first maximal probe win whenever it exceeds eq_tol.

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
    "reconstruct_values",
    "check_gph",
    "check_unit_scale",
    "check_pseudo_homogeneous",
    "check_archimedean",
    "scan_diagonal",
    "check_tm_equivalences",
    "check_continuity_equivalence",
    "find_gph_counterexample",
    "residual_rows",
    "residual_csv",
]

#: adjacent-cell jump beyond CONTINUITY_JUMP_FACTOR * spacing counts as a
#: discontinuity at grid scale.  A desk-scale surrogate, not a proof: steep
#: continuous functions (Schweizer-Sklar with large exponents near the
#: nilpotent boundary) can exceed it.
CONTINUITY_JUMP_FACTOR = 10.0

#: associativity sweeps use the full points^3 cube only up to this many
#: axis points; finer grids fall back to this cap plus random triples.
ASSOC_GRID_CAP = 41

#: the most triples one kernel call of a blocked sweep (the scaling
#: equation's lambda slices, the T2 cube's x rows) evaluates, unless a
#: single slice or row holds more: 128 KiB per float64 temporary.
_BLOCK = 2 ** 14


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


def _first_failing(subtests) -> tuple[bool, float, Optional[Witness]]:
    """(passed, max_residual, witness) of ordered (ok, witness) subtests:
    the first failing one's witness and gap, else a pass at residual 0."""
    for ok, witness in subtests:
        if not ok:
            return False, witness.gap, witness
    return True, 0.0, None


def _first_max(pieces) -> tuple[float, Witness]:
    """The largest residual over ``pieces`` of (residual, lam, x, y, lhs,
    rhs) and the witness at its first occurrence: pieces in order, entries
    in C order, and a later piece wins only with a strictly larger value.
    Each piece is let go before the next is requested, so a sweep's
    workspace is freed before the pieces after it allocate theirs."""
    best = None
    for res, *slots in pieces:
        i = int(np.argmax(res))
        if best is None or res.flat[i] > best:
            best, witness = float(res.flat[i]), _witness_at(i, *slots)
        del res, slots
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


# --------------------------------------------------------------------------
# Axiom suite
# --------------------------------------------------------------------------

def check_axioms(spec: TNormSpec, grid: GridSpec = GridSpec(),
                 assoc_full: bool = False) -> Report:
    """Boundary, commutativity, monotonicity, and associativity at strict_tol.

    Stages run in the order T4, T1, T3, T2 and the first violating point
    becomes the witness.  Associativity uses the full triple cube only up
    to ASSOC_GRID_CAP axis points (or with ``assoc_full``); beyond that a
    capped cube plus seeded random triples.  The cube is evaluated in
    blocks of at most ``max(2**14, points**2)`` triples.
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
        """T2 pieces: the cube in blocks of x rows, each at most _BLOCK
        triples or one row, then random triples extending a capped cube."""
        T_ab = tnorm_values(spec, axis[:, None], axis[None, :])
        rows = max(1, _BLOCK // n ** 2)
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

def _scaling_piece(spec: TNormSpec, comp: CompanionF, lam, x, y, t,
                   at=None, cells=None, out=(None,) * 6):
    """(residual, lam, x, y, lhs, rhs) for both sides of the scaling
    equation, lhs = T(l*x, l*y) and rhs = F(l, T(x, y)).  With ``at``
    omitted ``t`` is T(x, y) and both sides are evaluated entrywise; else
    ``lam`` is a block of lambdas on a leading axis, ``t`` holds distinct
    values with t[at] = T(x, y), and F(l, t) is gathered at ``at``.  With
    ``cells`` = (g, ix, iy), x = g[ix] and y = g[iy], a spec's
    ``argument_power`` is taken once per (l, g) and gathered.  ``out``
    holds the buffers of l*x, l*y, the two gathered powers, rhs and the
    residual (None allocates); a piece formed in them is valid only until
    the next piece is requested."""
    lx = np.multiply(lam, x, out=out[0])
    ly = np.multiply(lam, y, out=out[1])
    if cells is None or spec.argument_power is None:
        lhs = tnorm_values(spec, lx, ly)
    else:
        g, ix, iy = cells
        table = spec.argument_power(lam * g)
        lhs = spec.join(lx, ly,
                        np.take(table, ix, axis=1, out=out[2], mode="clip"),
                        np.take(table, iy, axis=1, out=out[3], mode="clip"))
    rhs = companion_values(comp, lam, t)
    if at is not None:
        rhs = np.take(rhs, at, axis=1, out=out[4], mode="clip")
    res = np.subtract(lhs, rhs, out=out[5])
    return np.abs(res, out=out[5]), lam, x, y, lhs, rhs


def _distinct(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct floats of ``t`` by bit pattern (so -0.0 and 0.0 stay
    apart) and the index array ``at`` of the shape of ``t`` with values[at]
    equal to ``t`` bit for bit."""
    flat = np.ravel(t)
    # return_index makes numpy sort stably, faster on tables of few values
    _, first, at = np.unique(flat.view(np.int64), return_index=True,
                             return_inverse=True)
    return flat[first], at.reshape(t.shape)


def _reference_slices(spec: TNormSpec, comp: CompanionF, grid: GridSpec):
    """Yield the scaling-equation pieces of the grid lambdas in scan order,
    one lambda at a time over the full (x, y) grid with x on axis 0, both
    sides evaluated at every entry.  Its rows and its errors are the
    contract; :func:`_gph_slices` gives its maximum faster."""
    g = grid.axis()
    x, y = g[:, None], g[None, :]
    t = tnorm_values(spec, x, y)
    for lam in g.tolist():
        yield _scaling_piece(spec, comp, lam, x, y, t)


def _gph_slices(spec: TNormSpec, comp: CompanionF, grid: GridSpec):
    """Yield the scaling-equation pieces of the grid lambdas in scan order,
    over the (x, y) grid with x on axis 0, or for a ``symmetric`` spec over
    its upper triangle x <= y, as flat arrays in C order.  Each piece is a
    block of consecutive lambda slices on a leading axis, at most _BLOCK
    triples or one slice.  The companion side reads (x, y) only through
    T(x, y), so each slice evaluates it once per distinct T value and
    gathers.  So does the lhs with a spec's ``argument_power``, once per
    (l, axis point).  Every piece is formed in one workspace allocated per
    call, so a piece is valid only until the next piece is requested.  Its
    maximum is the reference sweep's; its errors need not be."""
    g = grid.axis()
    n = g.size
    ix, iy = (np.triu_indices(n) if spec.symmetric
              else np.indices((n, n)).reshape(2, -1))
    x, y = g[ix], g[iy]
    t, at = _distinct(tnorm_values(spec, x, y))
    lams = g[:, None]
    step = max(1, _BLOCK // at.size)
    work = np.empty((6, min(step, n), at.size))
    for start in range(0, n, step):
        lam = lams[start:start + step]
        yield _scaling_piece(spec, comp, lam, x, y, t, at, (g, ix, iy),
                             work[:, :lam.shape[0]])


def _targeted_probes(spec: TNormSpec, f: Optional[CompanionF]):
    """(cases, pieces): each targeted probe's case, and [] or the one piece
    evaluating them all with companion ``f`` (canonical when None).  Every
    non-trivial ordinal sum fails; two probes per summand [a, e]:

      case 1 (a > 0): scale so l*y pins the idempotent endpoint a exactly
        while the unscaled pair multiplies strictly inside the summand;
      case 2 (e < 1): scale the top corner (e, e) so the scaled pair lands
        strictly inside the summand.

    A probe's gap is 0.12 to 0.2 times its summand's width, so at eq_tol
    1e-9 the probes miss summands narrower than about 8e-9."""
    probes = []
    if isinstance(spec, OrdinalSum):
        for s in spec.summands:
            a, e = s.lower, s.upper
            if a > 0.0:
                y = a + 0.6 * (e - a)
                probes.append(("case1", a / y, a + 0.8 * (e - a), y))
            if e < 1.0:
                x = 0.8 * e if 0.8 * e > e * e else 0.5 * (e * e + e)
                probes.append(("case2", x / e, e, e))
    if not probes:
        return [], []
    lam, x, y = np.asarray([p[1:] for p in probes]).T
    comp = Canonical(spec) if f is None else f
    return [p[0] for p in probes], [
        _scaling_piece(spec, comp, lam, x, y, tnorm_values(spec, x, y))]


def check_gph(spec: TNormSpec, f: Optional[CompanionF] = None,
              grid: GridSpec = GridSpec()) -> Report:
    """Residual sweep of T(l*x, l*y) = F(l, T(x, y)).

    With ``f`` omitted the check is intrinsic: it uses the canonical
    companion F(l, t) = T(l, l*t), the only candidate any t-norm admits.
    The pieces run in order: every grid triple in (l, x, y) scan order,
    ``samples`` seeded random triples, then an ordinal sum's targeted
    probes (:func:`_targeted_probes`), all with this companion.  The
    witness is the first maximal-gap triple (:func:`_first_max`).  A
    ``symmetric`` spec's sides are unchanged by swapping x and y, bit for
    bit, so each l slice sweeps only x <= y, where its first maximal entry
    lies.  The grid sweep evaluates blocks of l slices (:func:`_gph_slices`);
    when it raises, the reference sweep runs instead, one full l slice at a
    time evaluated entrywise, so an error names the node and point it meets
    first.
    """
    return _gph_report(spec, f, grid, lambda: _targeted_probes(spec, f)[1])


def _gph_report(spec: TNormSpec, f, grid: GridSpec, probes) -> Report:
    """:func:`check_gph` with the pieces ``probes()`` returns last."""
    comp = Canonical(spec) if f is None else f

    def pieces(sweep):
        yield from sweep(spec, comp, grid)
        if grid.samples > 0:
            lam, x, y = SplitMix64(grid.seed).unit_tuples(grid.samples, 3).T
            yield _scaling_piece(spec, comp, lam, x, y,
                                 tnorm_values(spec, x, y))
        yield from probes()

    try:
        best_gap, best = _first_max(pieces(_gph_slices))
    except Exception:
        best_gap, best = _first_max(pieces(_reference_slices))
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

    passed, max_residual, witness = _first_failing(
        [(inc_ok, inc_witness), (boundary_ok, boundary_witness),
         (cont_ok, cont_witness)])
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

def _diagonal_shape(z: np.ndarray, d: np.ndarray,
                    tol: float) -> tuple[str, Optional[tuple[float, float]]]:
    """Shape of the diagonal d = T(z, z) on the interior of the increasing
    axis z, zero meaning at most tol and identity at least z - tol: "zero",
    "identity", "shelf" (a zero run, then the identity: cshelf's shape)
    with the bracket of the run's last point and the next, or "other"."""
    interior = (z > 0.0) & (z < 1.0)
    zi, di = z[interior], d[interior]
    is_zero = di <= tol
    k = int(np.argmin(is_zero))  # the first interior point off the zero run
    if is_zero.all():
        return "zero", None
    if not np.all(di[k:] >= zi[k:] - tol):
        return "other", None
    return ("shelf", (float(zi[k - 1]), float(zi[k]))) if k else ("identity", None)


def scan_diagonal(spec: TNormSpec, grid: GridSpec = GridSpec()) -> Report:
    """Monotonicity of the diagonal x -> T(x, x), its limit at 1, and the
    shelf edge.

    For any t-norm the diagonal fixes 0 and 1, never exceeds its argument,
    and is monotone increasing; the scan verifies monotonicity and
    assumes none of these.

    The limit estimate is the diagonal at 1 - step_h and must land within
    ``max(eq_tol, 10 * step_h)`` of 0 or of 1 (the only limits a t-norm
    compatible with the scaling equation can have).  The grid diagonal's
    shape, by :func:`_diagonal_shape` with tolerance ``eq_tol``, gives
    ``zero_on_interior``, and for a shelf its bracket as ``plateau_end``
    and ``shelf_edge``; else both are None.
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

    shape, bracket = _diagonal_shape(g, d, tol)
    plateau_end, shelf_edge = bracket or (None, None)

    passed, max_residual, witness = _first_failing(
        [(mono_ok, mono_witness),
         (limit is not None, _witness_from(1.0, probe, probe, limit_estimate,
                                           round(limit_estimate)))])
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
        "zero_on_interior": shape == "zero",
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
    passed, max_residual, witness = _first_failing(
        [(t_cont == f_cont, t_witness if t_jump >= f_jump else f_witness)])
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
    return Report("continuity_equivalence", passed, max_residual, witness,
                  metadata)


# --------------------------------------------------------------------------
# Counterexample search
# --------------------------------------------------------------------------

def find_gph_counterexample(spec: TNormSpec, grid: GridSpec = GridSpec()) -> Report:
    """Hunt for a triple violating the intrinsic scaling equation.

    Evaluates an ordinal sum's targeted probes once and runs
    :func:`check_gph` with them as its last piece.  The witness is the
    first maximal probe when its gap exceeds ``eq_tol``, even below the
    sweep's maximum, else check_gph's; ``sweep_max_residual`` is
    check_gph's maximum, probes included.
    """
    cases, probes = _targeted_probes(spec, None)
    sweep = _gph_report(spec, None, grid, lambda: probes)
    targeted = [dict(zip(("case", "lambda", "x", "y", "gap"), row))
                for gap, lam, x, y, *_ in probes
                for row in zip(cases, lam.tolist(), x.tolist(), y.tolist(),
                               gap.tolist())]
    witness, max_residual = sweep.witness, sweep.max_residual
    source = "sweep" if witness is not None else None
    if probes and (probed := _first_max(probes))[0] > grid.eq_tol:
        max_residual, witness = probed
        source = max(targeted, key=lambda row: row["gap"])["case"]

    metadata = {**sweep.metadata, "sweep_max_residual": sweep.max_residual,
                "targeted_probes": targeted, "witness_source": source}
    del metadata["companion"]
    return Report("gph_counterexample", witness is None, max_residual,
                  witness, metadata)


# --------------------------------------------------------------------------
# CSV dump
# --------------------------------------------------------------------------

RESIDUAL_CSV_HEADER = "lambda,x,y,lhs,rhs,residual"


def residual_rows(spec: TNormSpec, f: Optional[CompanionF],
                  grid: GridSpec = GridSpec()):
    """Yield (lambda, x, y, lhs, rhs, residual) for every grid triple, in
    scan order, streamed from the reference sweep one lambda slice at a
    time."""
    g = grid.axis()
    flat_x = np.repeat(g, g.size).tolist()
    flat_y = np.tile(g, g.size).tolist()
    comp = Canonical(spec) if f is None else f
    for res, lam, _, _, lhs, rhs in _reference_slices(spec, comp, grid):
        yield from zip(repeat(lam), flat_x, flat_y, lhs.ravel().tolist(),
                       rhs.ravel().tolist(), res.ravel().tolist())


def residual_csv(spec: TNormSpec, f: Optional[CompanionF],
                 grid: GridSpec = GridSpec()):
    """The rows of :func:`residual_rows` as CSV text: the header line, then
    one chunk per lambda slice.  Every float is written by ``repr``, once
    per distinct bit pattern in the slice, and gathered into the rows."""
    axis = [repr(v) for v in grid.axis().tolist()]
    rows = [f",{x},{y},%s,%s,%s\n" for x in axis for y in axis]
    yield RESIDUAL_CSV_HEADER + "\n"
    comp = Canonical(spec) if f is None else f
    for res, lam, _, _, lhs, rhs in _reference_slices(spec, comp, grid):
        values, at = _distinct(np.stack([lhs, rhs, res], axis=-1))
        text = np.array([repr(v) for v in values.tolist()],
                        dtype=object)[at.ravel()]
        head = repr(lam)
        yield (head + head.join(rows)) % tuple(text.tolist())
