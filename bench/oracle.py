"""Expected verdicts for every benchmark operation, written from the paper.

Nothing here calls tnormlab.  The facts come from the paper's six-kind
table (min, the Schweizer-Sklar family with Lukasiewicz as its b = 1
member, prod, the C-shelf family and the drastic t-norm) and from closed
forms of the exponent family, so a wrong verdict of the program shows up as
a mismatch instead of being copied into the expectation.

Member tokens name the t-norms the workloads run:

    min | prod | luk | drastic | ss:<b> | cshelf:<c>
    hamacher    x*y/max(x+y-x*y, 1e-300), the ss:-1 member as an expression
    lukexpr     max(x+y-1, 0), the luk member as an expression
    einstein    x*y/(2-(x+y-x*y)), strict and continuous but not in the table
    osum:<label> / rosum<i>   non-trivial ordinal sums (fixed / seeded draws)
"""

from __future__ import annotations

import math

#: absolute tolerance on classify's fitted parameter; the C-shelf edge is
#: refined only to the default step_h = 1e-6.
PARAM_TOL = 2e-6

#: absolute tolerance on t-powers, pseudo-inverses and CLI eval values.
VALUE_TOL = 1e-9

#: bisection tolerance the powers workload passes to diagonal_pseudo_inverse.
PSEUDO_INVERSE_TOL = 1e-9

#: operations the program gets wrong at the commit that defined the
#: benchmark.  They count against verdict_accuracy like any other mismatch;
#: a mismatch outside this set makes the run's "correct" flag false.
KNOWN_AT_SEED = {
    # (0.6, 0.8) lies on the nilpotent boundary of ss:2; rounding of the
    # 151-point grid gives a residual of 6.2e-9 > eq_tol.
    "sweep/ss:2/intrinsic@151": "rounding FAIL on the nilpotent boundary",
    "sweep/ss:2/catalog@151": "rounding FAIL on the nilpotent boundary",
    # the same boundary breaks the full-cube T2 check, so classify exits 2.
    "cli/classify-ss:2-151-assoc-full": "T2 rounding at 151 points, exit 2",
    # powers of b <= -1 decay like n^(1/b); the default n_max = 10^4 is too
    # small to reach the 1e-3 floor from probe 0.99.
    "powers/archimedean/ss:-1": "n_max step cap",
    "powers/archimedean/ss:-2": "n_max step cap",
    "powers/archimedean/hamacher": "n_max step cap (ss:-1 as an expression)",
}


def _facts(member: str) -> dict:
    """Paper facts for one member token."""
    if member == "hamacher":
        return _facts("ss:-1")
    if member in ("lukexpr", "luk"):
        return _facts("ss:1")
    if member == "min":
        return dict(gph=True, family="Minimum", parameter=None,
                    strict_regular=True, archimedean=False, diag_limit=1)
    if member == "prod":
        return dict(gph=True, family="Product", parameter=None,
                    strict_regular=True, archimedean=True, diag_limit=1)
    if member == "drastic":
        return dict(gph=True, family="Drastic", parameter=None,
                    strict_regular=False, archimedean=True, diag_limit=0)
    if member.startswith("ss:"):
        b = float(member[3:])
        return dict(gph=True, parameter=b,
                    family="SchweizerSklarNeg" if b < 0 else "SchweizerSklarPos",
                    strict_regular=b < 0, archimedean=True, diag_limit=1)
    if member.startswith("cshelf:"):
        return dict(gph=True, family="CShelf", parameter=float(member[7:]),
                    strict_regular=False, archimedean=False, diag_limit=1)
    if member == "einstein":
        # strict and continuous, so its canonical F(x, y) = T(x, x*y) is
        # increasing, continuous and F(x, 1) = T(x, x) > 0 for x > 0.
        return dict(gph=False, family="NotGPH", parameter=None,
                    strict_regular=True, archimedean=True, diag_limit=1)
    if member.startswith("osum:") or member.startswith("rosum"):
        # every non-trivial ordinal sum fails the equation, and its summand
        # endpoints are idempotent, so its powers stall above any floor.
        return dict(gph=False, family="NotGPH", parameter=None,
                    archimedean=False)
    raise KeyError(f"no oracle entry for member {member!r}")


#: companions given as expressions, against the paper's F column:
#: F_luk(x, y) = max(x + x*y - 1, 0); F_prod(x, y) = x^2*y, not x*y.
EXPR_COMPANIONS = {
    ("luk", "max(x+x*y-1,0)"): True,
    ("prod", "x*y"): False,
}


def expected(key: tuple) -> dict:
    """Expected verdict for an operation key (see workloads.Op.key)."""
    kind = key[0]
    if kind == "gph":  # ("gph", member, form)
        _, member, form = key
        if form.startswith("f="):
            return {"passed": EXPR_COMPANIONS[(member, form[2:])]}
        return {"passed": _facts(member)["gph"]}
    if kind in ("axioms", "tm_equivalences", "continuity_equivalence"):
        _facts(key[1])
        # every member is a t-norm; the four T = min statements stand or
        # fall together, and T is continuous exactly when F is.
        return {"passed": True}
    if kind == "diagonal_scan":
        return {"passed": True, "limit": _facts(key[1])["diag_limit"]}
    if kind == "strict_regularity":
        return {"passed": _facts(key[1])["strict_regular"]}
    if kind == "classify":
        f = _facts(key[1])
        return {"family": f["family"], "parameter": f["parameter"]}
    if kind == "counterexample":
        return {"passed": _facts(key[1])["gph"]}
    if kind == "archimedean":
        return {"passed": _facts(key[1])["archimedean"]}
    if kind == "pseudo_inverse":  # ("pseudo_inverse", member, y)
        return {"value": pseudo_inverse(_exponent(key[1]), key[2])}
    if kind == "t_power":  # ("t_power", member, x, n)
        return {"value": t_power(_exponent(key[1]), key[2], key[3])}
    if kind == "cli":
        return CLI[key[1]]
    raise KeyError(f"no oracle entry for operation {key!r}")


def matches(key: tuple, verdict: dict) -> bool:
    """True when ``verdict`` agrees with the oracle for ``key``."""
    want = expected(key)
    for name, value in want.items():
        got = verdict.get(name)
        if name in ("parameter", "value") and value is not None:
            tol = PARAM_TOL if name == "parameter" else VALUE_TOL
            if not isinstance(got, (int, float)) or not abs(got - value) <= tol:
                return False
        elif got != value:
            return False
    return True


# --------------------------------------------------------------------------
# Closed forms of the exponent family (b = None is the product, b -> 0)
# --------------------------------------------------------------------------

def _exponent(member: str):
    if member == "prod":
        return None
    if member == "luk":
        return 1.0
    if member.startswith("ss:"):
        return float(member[3:])
    raise KeyError(f"no closed-form powers for {member!r}")


def t_power(b, x: float, n: int) -> float:
    """x^(n) = (max(n*x^b - (n-1), 0))^(1/b); x^n for the product."""
    if b is None:
        return x ** n
    s = n * math.pow(x, b) - (n - 1)
    return math.pow(s, 1.0 / b) if (b < 0 or s > 0) else 0.0


def pseudo_inverse(b, y: float) -> float:
    """sup{z : T(z, z) <= y} = ((y^b + 1)/2)^(1/b); sqrt(y) for the product."""
    if b is None:
        return math.sqrt(y)
    return math.pow((math.pow(y, b) + 1.0) / 2.0, 1.0 / b)


# --------------------------------------------------------------------------
# CLI: exit codes (0 pass, 1 fail with a witness, 2 usage error) and the
# fields parsed from stdout.
# --------------------------------------------------------------------------

_SS2_101_ROWS = 101 ** 3 + 1  # header plus one row per grid triple

CLI = {
    "catalog": {"exit": 0},
    "catalog-json": {"exit": 0, "families": 6},
    "eval-prod": {"exit": 0, "value": 0.2},
    "eval-luk-catalog-json": {"exit": 0, "value": 0.35},
    "eval-ss:-1-json": {"exit": 0, "value": 1.0 / (1.0 / 0.5 + 1.0 / 0.25 - 1.0)},
    "verify-ss:2-json": {"exit": 0, "passed": True},
    "verify-min-catalog-json": {"exit": 0, "passed": True},
    "verify-cshelf:0.5-json": {"exit": 0, "passed": True},
    "verify-prod-fexpr-json": {"exit": 1, "passed": False},
    "verify-osum-json": {"exit": 1, "passed": False},
    "verify-einstein-json": {"exit": 1, "passed": False},
    "counterexample-prod-json": {"exit": 0, "passed": True},
    "counterexample-drastic-json": {"exit": 0, "passed": True},
    "counterexample-osum-json": {"exit": 1, "passed": False},
    "classify-ss:-1-json": {"exit": 0, "family": "SchweizerSklarNeg",
                            "parameter": -1.0},
    "classify-cshelf:0.25-json": {"exit": 0, "family": "CShelf",
                                  "parameter": 0.25},
    "classify-osum-json": {"exit": 1, "family": "NotGPH"},
    "usage-ss:0": {"exit": 2},
    "classify-ss:2-151-assoc-full": {"exit": 0, "family": "SchweizerSklarPos"},
    "verify-ss:2-101-csv": {"exit": 0, "lines": _SS2_101_ROWS},
}
