"""The in-process workloads: each is a fixed list of operations.

Every operation calls one public function of tnormlab through its module
attribute (``analysis.check_gph``, not a name bound here), so the traced
run's wrappers see it.  The benchmark seed feeds ``GridSpec.seed`` and the
random ordinal-sum draws; nothing else varies between seeds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from tnormlab import analysis, core
from tnormlab.core import (
    Canonical,
    Catalog,
    CShelf,
    Drastic,
    Expr,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
)
from tnormlab.rng import SplitMix64

import oracle

# the package rebinds the name ``classify`` to the function
classify = importlib.import_module("tnormlab.classify")


@dataclass(frozen=True)
class Op:
    id: str
    key: tuple  # oracle.expected(key) is this op's expected verdict
    run: Callable[[], object]
    verdict: Callable[[object], dict]


# The conftest.FAMILY_MATRIX kinds, by token.
MATRIX = ["min", "prod", "drastic", "ss:-2", "ss:-1", "ss:-0.5", "ss:0.5",
          "ss:1", "ss:2", "ss:3", "cshelf:0.25", "cshelf:0.5", "cshelf:0.75"]

EXPR_TNORMS = {
    "hamacher": "x*y/max(x+y-x*y,1e-300)",
    "lukexpr": "max(x+y-1,0)",
    "einstein": "x*y/(2-(x+y-x*y))",
}

FIXED_OSUMS = [
    OrdinalSum([(0.0, 0.5, Lukasiewicz())]),
    OrdinalSum([(0.5, 1.0, Product())]),
    OrdinalSum([(0.2, 0.6, Lukasiewicz()), (0.6, 1.0, Product())]),
]

# The exponent-family members with closed-form powers.
POWER_KINDS = ["prod", "luk"] + [m for m in MATRIX if m.startswith("ss:")]
PSEUDO_INVERSE_LEVELS = (0.01, 0.1, 0.3, 0.6, 0.9)
T_POWER_PAIRS = ((0.9, 3), (0.7, 10), (0.95, 50), (0.99, 200))


def spec_of(member: str):
    named = {"min": Minimum, "prod": Product, "luk": Lukasiewicz,
             "drastic": Drastic}
    if member in named:
        return named[member]()
    if member.startswith("ss:"):
        return SchweizerSklar(float(member[3:]))
    if member.startswith("cshelf:"):
        return CShelf(float(member[7:]))
    if member in EXPR_TNORMS:
        return Expr(EXPR_TNORMS[member])
    raise KeyError(member)


_INNER_KINDS = [
    lambda u: Lukasiewicz(),
    lambda u: Product(),
    lambda u: SchweizerSklar(0.5 + 3.0 * u),
    lambda u: SchweizerSklar(-2.0 + 1.5 * u),
]


def random_ordinal_sum(rng: SplitMix64, index: int) -> OrdinalSum:
    """The draw of scripts/hunt_ordinal_sums.py, copied so that a change to
    the script cannot change the benchmark's inputs, with one change: the
    number of summands (1 to 3) and their kinds follow ``index`` instead of
    the draw, so that every seed gets the same mix of costs and only the
    cuts and the inner parameters are random."""
    count = 1 + index % 3
    cuts = sorted(round(0.05 + 0.9 * rng.next_unit(), 3)
                  for _ in range(2 * count))
    summands = []
    for i in range(count):
        lower, upper = cuts[2 * i], cuts[2 * i + 1]
        if upper - lower < 0.05:
            upper = min(1.0, lower + 0.05)
        inner = _INNER_KINDS[(index + i) % 4](rng.next_unit())
        summands.append((lower, upper, inner))
    cleaned = []
    last_upper = 0.0
    for lower, upper, inner in summands:
        if lower >= last_upper and lower < upper:
            cleaned.append((lower, upper, inner))
            last_upper = upper
    return OrdinalSum(cleaned or summands[:1])


def _passed(report) -> dict:
    return {"passed": bool(report.passed)}


def _value(v) -> dict:
    return {"value": float(v)}


def _family(result) -> dict:
    return {"family": result.family, "parameter": result.parameter}


def report_text(raw) -> str:
    """The text whose sha256 is an op's report digest."""
    if hasattr(raw, "to_json"):
        return raw.to_json()
    return repr(raw)


# --------------------------------------------------------------------------
# sweep: check_gph over kinds, forms and grid sizes
# --------------------------------------------------------------------------

def sweep(seed: int, size: str = "full") -> list[Op]:
    points = (51, 101, 151) if size == "full" else (11, 21)
    samples = 10_000 if size == "full" else 200
    ops = []
    for n in points:
        grid = analysis.GridSpec(points=n, samples=samples, seed=seed)

        def gph(member, form, spec, comp, grid=grid, n=n):
            ops.append(Op(f"sweep/{member}/{form}@{n}", ("gph", member, form),
                          lambda: analysis.check_gph(spec, comp, grid), _passed))

        for member in MATRIX + ["luk"]:
            spec = spec_of(member)
            gph(member, "intrinsic", spec, None)
            gph(member, "catalog", spec, Catalog(spec))
        for spec in FIXED_OSUMS:
            gph(core.spec_label(spec), "intrinsic", spec, None)
        for member in EXPR_TNORMS:
            gph(member, "intrinsic", spec_of(member), None)
        for member, f in oracle.EXPR_COMPANIONS:
            gph(member, f"f={f}", spec_of(member), Expr(f))
    return ops


# --------------------------------------------------------------------------
# battery: the run_family_suite checks, plus the ordinal-sum hunt
# --------------------------------------------------------------------------

def battery(seed: int, size: str = "full") -> list[Op]:
    grid = (analysis.GridSpec(points=101, seed=seed) if size == "full"
            else analysis.GridSpec(points=21, samples=200, seed=seed))
    draws = 25 if size == "full" else 3
    ops = []

    def add(member, check, call, verdict):
        ops.append(Op(f"battery/{member}/{check}", (check, member), call, verdict))

    for member in MATRIX + ["hamacher", "einstein"]:
        spec = spec_of(member)
        comp = Canonical(spec) if isinstance(spec, Expr) else Catalog(spec)
        add(member, "axioms", lambda s=spec: analysis.check_axioms(s, grid), _passed)
        add(member, "diagonal_scan", lambda s=spec: analysis.scan_diagonal(s, grid),
            lambda r: {"passed": bool(r.passed), "limit": r.metadata["limit"]})
        add(member, "tm_equivalences",
            lambda s=spec: analysis.check_tm_equivalences(s, grid), _passed)
        add(member, "continuity_equivalence",
            lambda s=spec: analysis.check_continuity_equivalence(s, grid), _passed)
        add(member, "strict_regularity",
            lambda c=comp: analysis.check_pseudo_homogeneous(c, grid), _passed)
        add(member, "classify", lambda s=spec: classify.classify(s, grid), _family)
        add(member, "counterexample",
            lambda s=spec: analysis.find_gph_counterexample(s, grid), _passed)

    rng = SplitMix64(seed)
    osums = [(core.spec_label(s), s) for s in FIXED_OSUMS]
    osums += [(f"rosum{i:02d}", random_ordinal_sum(rng, i))
              for i in range(draws)]
    for member, spec in osums:
        add(member, "classify", lambda s=spec: classify.classify(s, grid), _family)
        add(member, "counterexample",
            lambda s=spec: analysis.find_gph_counterexample(s, grid), _passed)
    return ops


# --------------------------------------------------------------------------
# powers: the scalar eval_tnorm path
# --------------------------------------------------------------------------

def powers(seed: int, size: str = "full") -> list[Op]:
    # check_archimedean takes its default arguments in the full run; the
    # tiny self-check run caps the steps so that it stays quick.
    kwargs = {} if size == "full" else {"x_probe": (0.5,), "n_max": 100}
    members = ([(m, spec_of(m)) for m in MATRIX]
               + [(core.spec_label(s), s) for s in FIXED_OSUMS]
               + [(m, spec_of(m)) for m in ("hamacher", "einstein")])
    ops = []
    for member, spec in members:
        ops.append(Op(f"powers/archimedean/{member}", ("archimedean", member),
                      lambda s=spec: analysis.check_archimedean(s, **kwargs),
                      _passed))
    for member in POWER_KINDS:
        spec = spec_of(member)
        for y in PSEUDO_INVERSE_LEVELS:
            ops.append(Op(f"powers/pseudo_inverse/{member}/y={y}",
                          ("pseudo_inverse", member, y),
                          lambda s=spec, y=y: core.diagonal_pseudo_inverse(
                              s, y, oracle.PSEUDO_INVERSE_TOL), _value))
        for x, n in T_POWER_PAIRS:
            ops.append(Op(f"powers/t_power/{member}/x={x},n={n}",
                          ("t_power", member, x, n),
                          lambda s=spec, x=x, n=n: core.t_power(s, x, n), _value))
    return ops


BUILDERS = {"sweep": sweep, "battery": battery, "powers": powers}
