"""T-norm kinds and exact evaluation.

The closed catalog consists of the six kinds of t-norm that admit a
companion function F satisfying T(l*x, l*y) = F(l, T(x, y)) for all
l, x, y in [0, 1]:

    Minimum          T = min(x, y)
    SchweizerSklar   T = (max(x^b + y^b - 1, 0))^(1/b), b > 0, on (0,1]^2, 0 otherwise
    Product          T = x*y
    SchweizerSklar   T = (x^b + y^b - 1)^(1/b), b < 0, on (0,1]^2, 0 otherwise
    CShelf           T = 0 on (0,1)^2 outside [c,1)^2, min(x, y) otherwise
    Drastic          T = min(x, y) if max(x, y) = 1, else 0

A companion, when one exists, is unique: F(x, y) = T(x, x*y).  Canonical
evaluates that formula for any t-norm; Catalog is the same companion,
offered only for the catalog kinds.

Lukasiewicz (max(x + y - 1, 0)) is the b = 1 member of the positive
Schweizer-Sklar branch and is kept as its own kind because no fractional
powers occur in it.  Ordinal sums and DSL expressions round out TNormSpec
for use as verification and counterexample targets.

Each kind is declared once, as a frozen dataclass holding its mini-syntax
tokens, its label and its array kernel; tnorm_values, spec_label,
CATALOG_KINDS and parse_spec derive from those declarations.  A kind's
``symmetric`` flag declares that its kernel is bitwise commutative,
T(x, y) and T(y, x) being the same float for all inputs: true for
CATALOG_KINDS, their ordinal sums and each expression that
``dsl.mirror_symmetric`` accepts (``x*y``, not ``x*0.3*y``).  A label
is a mini-syntax token: parse_spec(spec_label(s)) == s for every spec
whose ordinal-sum summands are catalog kinds, the only summands allowed.

All evaluation is pure; values are binary64 and results of power-based
formulas are clamped to [0, 1] with at most CLAMP_SLACK of drift allowed.
Kernels take any broadcastable arrays.  The Schweizer-Sklar formulas are
evaluated over the whole arrays and IEEE arithmetic yields their zero
branch: 0^b = +inf and inf^(1/b) = 0 for b < 0, max(s, 0) = 0 for b > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import dsl
from .dsl import Expression, eval_expr

__all__ = [
    "DomainError",
    "StructuralError",
    "Minimum",
    "Product",
    "Lukasiewicz",
    "Drastic",
    "SchweizerSklar",
    "CShelf",
    "Summand",
    "OrdinalSum",
    "Expr",
    "TNormSpec",
    "TNORM_KINDS",
    "Catalog",
    "Canonical",
    "CompanionF",
    "CATALOG_KINDS",
    "MIN_ABS_BETA",
    "CLAMP_SLACK",
    "as_unit",
    "eval_tnorm",
    "eval_companion",
    "tnorm_values",
    "companion_values",
    "t_power",
    "diagonal_pseudo_inverse",
    "spec_label",
    "parse_spec",
]

#: rejection threshold for Schweizer-Sklar exponents; the b -> 0 limit is
#: the Product kind, listed separately in the catalog.
MIN_ABS_BETA = 1e-3

#: tolerated distance of a power-formula result outside [0, 1] before the
#: clamp is treated as an evaluation error.
CLAMP_SLACK = 1e-9

#: exponents numpy's pow runs as a copy or a square: no table or mask pays.
_FAST_POW = (1.0, 2.0)


class DomainError(Exception):
    """A value left [0, 1] (or was NaN) where a unit value is required."""


class StructuralError(Exception):
    """An operation was applied to a t-norm outside its precondition."""


def as_unit(value: float, label: str = "value") -> float:
    """Validate ``value`` as a float in [0, 1]; NaN and out-of-range reject.
    -0.0 reads as 0.0."""
    v = float(value)
    if math.isnan(v) or v < 0.0 or v > 1.0:
        raise DomainError(f"{label} must lie in [0, 1], got {value!r}")
    return v + 0.0


# --------------------------------------------------------------------------
# T-norm kinds
# --------------------------------------------------------------------------

class _Kind:
    """A t-norm kind: its mini-syntax tokens, its label and its array kernel.

    A kind without fields is written as its token; a kind with one float
    field as ``token:<value>``.  The compound kinds (ordinal sums and
    expressions) override ``label`` and ``from_token``; ``from_token`` gets
    the text after the colon and returns the spec.  ``values`` gets
    float arrays of any broadcastable shapes, 0-d included.
    """

    #: names the mini-syntax accepts; labels use the first.
    tokens: tuple[str, ...] = ()
    #: whether the kind is in the closed catalog (and may be an osum summand).
    catalog = True
    #: whether ``values(x, y)`` and ``values(y, x)`` agree bit for bit.
    symmetric = True
    #: f of a kernel ``join(x, y, f(x), f(y))`` if it costs more than a gather.
    argument_power = None

    def label(self) -> str:
        params = [_format_param(getattr(self, f.name)) for f in fields(self)]
        return ":".join([self.tokens[0], *params])

    @classmethod
    def from_token(cls, body: str) -> "_Kind":
        """The spec written ``token:body`` (``body`` is empty without fields)."""
        return cls(float(body)) if fields(cls) else cls()


@dataclass(frozen=True)
class Minimum(_Kind):
    tokens = ("min", "minimum")

    def values(self, x, y):
        return np.minimum(x, y)


@dataclass(frozen=True)
class Product(_Kind):
    tokens = ("prod", "product")

    def values(self, x, y):
        return x * y


@dataclass(frozen=True)
class Lukasiewicz(_Kind):
    tokens = ("luk", "lukasiewicz")

    def values(self, x, y):
        return np.maximum(x + y - 1.0, 0.0)


@dataclass(frozen=True)
class Drastic(_Kind):
    tokens = ("drastic",)

    def values(self, x, y):
        return np.where((x == 1.0) | (y == 1.0), np.minimum(x, y), 0.0)


@dataclass(frozen=True)
class SchweizerSklar(_Kind):
    beta: float
    tokens = ("ss",)

    def __post_init__(self):
        b = float(self.beta)
        if math.isnan(b) or math.isinf(b) or abs(b) < MIN_ABS_BETA:
            raise ValueError(
                f"beta must be finite with |beta| >= {MIN_ABS_BETA}; got {self.beta!r}"
                " (use Product for the beta -> 0 limit)")
        object.__setattr__(self, "beta", b)

    argument_power = property(
        lambda self: None if self.beta in _FAST_POW else self.power)

    @np.errstate(divide="ignore", over="ignore")
    def power(self, u):
        return np.power(u, self.beta)

    @np.errstate(divide="ignore", over="ignore")
    def values(self, x, y):
        return self.join(x, y, np.power(x, self.beta), np.power(y, self.beta))

    @np.errstate(over="ignore")
    def join(self, x, y, px, py):
        """T from px = x^b and py = y^b, exact at the neutral element."""
        beta, inv = self.beta, 1.0 / self.beta
        s = px + py - 1.0
        if beta > 0.0:
            s = np.maximum(s, 0.0)  # pow(0, 1/b) is slow: skip the zeros, keep NaN
            out = (np.asarray(np.power(s, inv)) if inv in _FAST_POW else
                   np.power(s, inv, out=np.zeros(np.shape(s)), where=s != 0.0))
        else:
            out = np.asarray(np.power(s, inv))
            # s = +inf where an argument is 0 (T = 0 already) or where x^b
            # overflowed; rescale the latter by the smaller argument, whose
            # power factors out: T = m * (1 + (m/M)^|b| - m^|b|)^(1/b).
            # The test reads bools only: no points^2 float temporary.
            overflow = (s == np.inf) & (x > 0.0) & (y > 0.0)
            if overflow.any():
                m = np.minimum(x, y)[overflow]
                big = np.maximum(x, y)[overflow]
                bracket = 1.0 + np.power(m / big, -beta) - np.power(m, -beta)
                out[overflow] = m * np.power(bracket, inv)
        # an argument equals 1 in a sweep only where l = 1, so the fix-up
        # passes run only when there is something to fix
        one_x, one_y = x == 1.0, y == 1.0
        if one_x.any() or one_y.any():
            out = np.where(one_y, x, out)
            out = np.where(one_x, y, out)
        return _clamp_unit(out, f"SchweizerSklar(beta={beta})")


@dataclass(frozen=True)
class CShelf(_Kind):
    c: float
    tokens = ("cshelf",)

    def __post_init__(self):
        c = float(self.c)
        if not (0.0 < c < 1.0):
            raise ValueError(f"shelf edge c must lie strictly inside (0, 1); got {self.c!r}")
        object.__setattr__(self, "c", c)

    def values(self, x, y):
        """0 where 0 < min(x, y) < c and max(x, y) < 1, else min(x, y)."""
        lo = np.minimum(x, y)
        return np.where((lo > 0.0) & (lo < self.c) & (np.maximum(x, y) < 1.0),
                        0.0, lo)


@dataclass(frozen=True)
class Summand:
    lower: float
    upper: float
    inner: "TNormSpec"

    def __post_init__(self):
        lo = as_unit(self.lower, "summand lower bound")
        hi = as_unit(self.upper, "summand upper bound")
        if not lo < hi:
            raise ValueError(f"summand needs lower < upper; got [{lo}, {hi}]")
        if not isinstance(self.inner, CATALOG_KINDS):
            raise ValueError(f"summand must be a catalog kind; got"
                             f" {type(self.inner).__name__}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass(frozen=True)
class OrdinalSum(_Kind):
    """a + (e - a) * T_k((x - a) / (e - a), (y - a) / (e - a)) on the pairs
    of summand k = [a, e], a <= min(x, y) and max(x, y) <= e; else min(x, y).
    All pairs are read before any is written: a corner shared by adjacent
    summands goes to the later one.  T_k reads the rescaled (min, max): the
    bits of (x, y) for the symmetric catalog kinds, (-0.0, 0.0) aside."""

    summands: tuple[Summand, ...]
    tokens = ("osum",)
    catalog = False

    def __init__(self, summands):
        items = []
        for s in summands:
            items.append(s if isinstance(s, Summand) else Summand(*s))
        items.sort(key=lambda s: s.lower)
        if not items:
            raise ValueError("ordinal sum needs at least one summand")
        for a, b in zip(items, items[1:]):
            if a.upper > b.lower:
                raise ValueError(
                    f"summand intervals overlap: [{a.lower}, {a.upper}] and"
                    f" [{b.lower}, {b.upper}]")
        object.__setattr__(self, "summands", tuple(items))

    def label(self) -> str:
        parts = ";".join(
            f"{_format_param(s.lower)},{_format_param(s.upper)},{s.inner.label()}"
            for s in self.summands)
        return f"osum:[{parts}]"

    @classmethod
    def from_token(cls, body):
        """``[a,e,T;...]``, each inner T a catalog token."""
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("needs the form osum:[a,e,T;...]")
        summands = []
        for part in body[1:-1].split(";"):
            items = part.split(",")
            if len(items) != 3:
                raise ValueError(f"summand needs a,e,T; got {part!r}")
            summands.append((float(items[0]), float(items[1]),
                             parse_spec(items[2])))
        return cls(summands)

    def values(self, x, y):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        shape = lo.shape
        lo, hi = lo.ravel(), hi.ravel()
        parts = [(s, ((lo >= s.lower) & (hi <= s.upper)).nonzero()[0])
                 for s in self.summands]
        parts = [(s, at, lo[at], hi[at]) for s, at in parts if at.size]
        del hi  # one array fewer live while the summands evaluate
        for s, at, u, v in parts:
            span = s.upper - s.lower
            u -= s.lower
            u /= span
            v -= s.lower
            v /= span
            lo[at] = s.lower + span * tnorm_values(s.inner, u, v)
        return lo.reshape(shape)


@dataclass(frozen=True)
class Expr(_Kind):
    """A binary function given as a DSL expression in x and y.

    Doubles as a t-norm description and as a companion description; every
    evaluation checks that the result stays inside [0, 1].
    """

    ast: Expression
    tokens = ("expr",)
    catalog = False

    def __post_init__(self):
        if isinstance(self.ast, str):
            object.__setattr__(self, "ast", dsl.parse(self.ast))
        object.__setattr__(self, "symmetric", dsl.mirror_symmetric(self.ast))

    def label(self) -> str:
        return f"expr:{dsl.serialize(self.ast)}"

    @classmethod
    def from_token(cls, body):
        return cls(body)

    def values(self, x, y):
        return _expr_values(self.ast, x, y, "t-norm expression")

    def companion(self, x, y):
        return _expr_values(self.ast, x, y, "companion expression")


#: every t-norm kind, in the order the catalog table lists them.
TNORM_KINDS = (Minimum, Product, Lukasiewicz, Drastic, SchweizerSklar, CShelf,
               OrdinalSum, Expr)

TNormSpec = Union[TNORM_KINDS]

#: kinds covered by the closed catalog (everything except ordinal sums and
#: expressions, which have no catalog companion).
CATALOG_KINDS = tuple(kind for kind in TNORM_KINDS if kind.catalog)


# --------------------------------------------------------------------------
# Companion descriptions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Canonical:
    """The companion derived from any t-norm via F(x, y) = T(x, x*y)."""

    of: TNormSpec

    def label(self) -> str:
        return f"canonical({self.of.label()})"

    def companion(self, x, y):
        return self.of.values(x, x * y)


@dataclass(frozen=True)
class Catalog(Canonical):
    """The canonical companion of a catalog kind, the only companion that
    kind admits; other kinds are rejected."""

    def __post_init__(self):
        if not isinstance(self.of, CATALOG_KINDS):
            raise ValueError(
                f"no catalog companion for {type(self.of).__name__}; only the six"
                " closed-form kinds have one")

    def label(self) -> str:
        return f"catalog({self.of.label()})"


CompanionF = Union[Catalog, Canonical, Expr]


# --------------------------------------------------------------------------
# Array evaluation
# --------------------------------------------------------------------------

def _clamp_unit(values: np.ndarray, context: str) -> np.ndarray:
    """Clamp last-ulp drift into [0, 1]; drift beyond CLAMP_SLACK is an error."""
    if values.size == 0:
        return values
    lo = float(values.min())
    hi = float(values.max())
    if math.isnan(lo) or lo < -CLAMP_SLACK or hi > 1.0 + CLAMP_SLACK:
        raise DomainError(f"{context} produced a value outside [0, 1]: "
                          f"range [{lo}, {hi}]")
    if lo < 0.0 or hi > 1.0:
        return np.clip(values, 0.0, 1.0)
    return values


def _expr_values(ast: Expression, x: np.ndarray, y: np.ndarray,
                 context: str) -> np.ndarray:
    values = eval_expr(ast, x, y)
    if np.ndim(values) == 0:
        values = np.float64(values)  # eval_expr gives 0-d inputs a float
    try:
        return _clamp_unit(values, context)
    except DomainError:
        # name the first offending point, found only once the range fails
        bad = np.isnan(values) | (values < -CLAMP_SLACK) | (values > 1.0 + CLAMP_SLACK)
        px, py = dsl._first_bad_point(bad, x, y)
        raise DomainError(f"{context} evaluates outside [0, 1] at "
                          f"(x, y) = ({px}, {py}): {float(values[bad][0])}") from None


def tnorm_values(spec: TNormSpec, x, y) -> np.ndarray:
    """Vectorized t-norm evaluation on broadcastable float arrays."""
    return spec.values(np.asarray(x, np.float64), np.asarray(y, np.float64))


def companion_values(f: CompanionF, x, y) -> np.ndarray:
    """Vectorized companion evaluation on broadcastable float arrays."""
    return f.companion(np.asarray(x, np.float64), np.asarray(y, np.float64))


# --------------------------------------------------------------------------
# Scalar operations
# --------------------------------------------------------------------------

def eval_tnorm(spec: TNormSpec, x: float, y: float) -> float:
    """T(x, y) for unit values x, y."""
    return float(tnorm_values(spec, [as_unit(x, "x")], [as_unit(y, "y")])[0])


def eval_companion(f: CompanionF, x: float, y: float) -> float:
    """F(x, y) for unit values x, y."""
    return float(companion_values(f, [as_unit(x, "x")], [as_unit(y, "y")])[0])


def t_power(spec: TNormSpec, x: float, n: int) -> float:
    """n-fold composition x^(n): x^(1) = x, x^(n) = T(x, x^(n-1))."""
    if n < 1:
        raise ValueError(f"power index must be >= 1, got {n}")
    xv = as_unit(x, "x")
    p = xv
    for _ in range(n - 1):
        p = eval_tnorm(spec, xv, p)
    return p


_PSEUDO_INVERSE_SAMPLES = 129


def diagonal_pseudo_inverse(spec: TNormSpec, y: float, tol: float) -> float:
    """sup{z : T(z, z) <= y}, located by bisection to absolute accuracy tol.

    Meaningful for t-norms with a continuous increasing diagonal (the
    strict and nilpotent catalog kinds); a non-monotone sampled diagonal
    raises StructuralError.
    """
    yv = as_unit(y, "y")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    zs = np.linspace(0.0, 1.0, _PSEUDO_INVERSE_SAMPLES)
    ds = tnorm_values(spec, zs, zs)
    if np.any(np.diff(ds) < -1e-12):
        raise StructuralError(
            "sampled diagonal is not monotone increasing; the pseudo-inverse"
            " is defined only for monotone diagonals")
    if float(ds[-1]) <= yv:
        return 1.0
    # the sampled cell where the diagonal first exceeds y: bisection of
    # [0, 1] reaches this dyadic cell after 7 halvings (k = 0 only if
    # T(0, 0) > y, which no t-norm has)
    k = max(int(np.argmax(ds > yv)), 1)
    lo, hi = _bisect_diagonal(spec, yv, float(zs[k - 1]), float(zs[k]), tol)
    return 0.5 * (lo + hi)


def _bisect_diagonal(spec: TNormSpec, level: float, lo: float, hi: float,
                     tol: float) -> tuple[float, float]:
    """The bracket [lo, hi] on which T(z, z) <= level turns false, narrowed
    by bisection to width at most tol.  Expects the predicate true at lo and
    false at hi, and keeps it so."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if eval_tnorm(spec, mid, mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo, hi


# --------------------------------------------------------------------------
# Labels and the mini-syntax
# --------------------------------------------------------------------------

def _format_param(v: float) -> str:
    """12 significant digits if they read back as ``v``, else repr."""
    short = format(v, ".12g")
    return short if float(short) == v else repr(float(v))


def spec_label(spec: TNormSpec) -> str:
    """The mini-syntax token of ``spec``; parse_spec reads it back."""
    return spec.label()


#: mini-syntax name -> t-norm kind
_KINDS = {token: kind for kind in TNORM_KINDS for token in kind.tokens}


def parse_spec(token: str) -> TNormSpec:
    """The spec a mini-syntax token names; ValueError when it names none."""
    head, colon, body = token.strip().partition(":")
    head = head.lower()
    kind = _KINDS.get(head)
    # a kind with fields is written name:<body>, one without as its name
    if kind is None or bool(colon) != bool(fields(kind)):
        raise ValueError(f"unknown t-norm spec {token!r}; see --help for the"
                         " mini-syntax")
    try:
        return kind.from_token(body)
    except (ValueError, DomainError) as err:
        raise ValueError(f"bad {head}: spec {token!r}: {err}") from err
