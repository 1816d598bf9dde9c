"""A drawn population of the paper's kinds and of ordinal sums, checked
against the paper's verdicts through every entry point.

The paper says exactly six kinds satisfy the scaling equation: each
``ss:b`` and ``cshelf:c`` member passes it and is classified with its own
parameter, and every non-trivial ordinal sum fails it.  The draw reaches
the corners the fixed matrix does not: |b| log-uniform over the fitted
range, shelf edges within 1e-3 of either end, and summands as narrow as
1e-5.  ``WRONG`` records how many members each (kind, entry point) gets
wrong today, zeros included; a fix lowers its cell in the same change.
"""

from collections import Counter

import pytest

from conftest import PARAM_TOL
from tnormlab.analysis import GridSpec, check_gph, find_gph_counterexample
from tnormlab.classify import classify
from tnormlab.core import (
    CShelf,
    Drastic,
    Lukasiewicz,
    OrdinalSum,
    Product,
    SchweizerSklar,
)
from tnormlab.rng import SplitMix64

SEED = 20261019
GRID = GridSpec(points=51, samples=200, seed=SEED)

#: wrong members per (kind, entry point) on this draw of 40 ``ss``, 20
#: ``cshelf`` and 60 ordinal sums.  classify reads the targeted probes
#: first, so a summand narrower than its diagonal axis's spacing is NotGPH
#: by its probe witness.  One ordinal sum has a ``cshelf`` summand,
#: [0.1468, 0.1580] with its edge at 0.0047, whose zero part (about 5e-5
#: wide) neither the grid nor the targeted probes reach: verify and
#: counterexample pass it, and classify's NotGPH for it carries no witness
#: (ROADMAP items 5, 8, 11).
WRONG = {
    ("ss", "verify"): 0, ("ss", "counterexample"): 0, ("ss", "classify"): 0,
    ("cshelf", "verify"): 0, ("cshelf", "counterexample"): 0,
    ("cshelf", "classify"): 0,
    ("osum", "verify"): 1, ("osum", "counterexample"): 1,
    ("osum", "classify"): 0,
}
#: NotGPH verdicts whose evidence carries no witness.
WITNESSLESS = 1


def _log_uniform(lo: float, hi: float, rng: SplitMix64) -> float:
    return lo * (hi / lo) ** rng.next_unit()


def _exponent(rng: SplitMix64) -> SchweizerSklar:
    """|b| log-uniform in [1e-3, 60], either sign."""
    magnitude = _log_uniform(1e-3, 60.0, rng)
    return SchweizerSklar(magnitude if rng.next_unit() < 0.5 else -magnitude)


def _shelf_edge(rng: SplitMix64) -> CShelf:
    """c log-uniform in [1e-3, 0.5], as c or as 1 - c."""
    c = _log_uniform(1e-3, 0.5, rng)
    return CShelf(c if rng.next_unit() < 0.5 else 1.0 - c)


#: the summand kinds of an ordinal sum, each drawn from the stream: every
#: catalog kind but min, whose summand leaves the sum unchanged.
SUMMAND_KINDS = [lambda rng: Lukasiewicz(), lambda rng: Product(),
                 lambda rng: Drastic(), _exponent, _shelf_edge]


def _ordinal_sum(rng: SplitMix64) -> OrdinalSum:
    """One or two summands, each in its own equal slot of [0, 1]: width
    log-uniform between 1e-5 and the slot's, place in the slot uniform."""
    count = 1 + int(rng.next_unit() * 2)
    slot = 1.0 / count
    summands = []
    for i in range(count):
        width = _log_uniform(1e-5, slot, rng)
        lower = i * slot + (slot - width) * rng.next_unit()
        inner = SUMMAND_KINDS[int(rng.next_unit() * len(SUMMAND_KINDS))](rng)
        summands.append((lower, min((i + 1) * slot, lower + width), inner))
    return OrdinalSum(summands)


def population():
    """(kind, spec) pairs: 40 exponents, 20 shelf edges, 60 ordinal sums."""
    rng = SplitMix64(SEED)
    return ([("ss", _exponent(rng)) for _ in range(40)]
            + [("cshelf", _shelf_edge(rng)) for _ in range(20)]
            + [("osum", _ordinal_sum(rng)) for _ in range(60)])


def paper_verdict(spec):
    """(passes the equation, family, parameter) as the paper states it."""
    if isinstance(spec, SchweizerSklar):
        sign = "Pos" if spec.beta > 0 else "Neg"
        return True, "SchweizerSklar" + sign, spec.beta
    if isinstance(spec, CShelf):
        return True, "CShelf", spec.c
    return False, "NotGPH", None


def wrong_entry_points(spec, result):
    """The entry points whose verdict on ``spec`` differs from the paper's,
    ``result`` being classify's."""
    gph, family, parameter = paper_verdict(spec)
    wrong = set()
    if check_gph(spec, None, GRID).passed != gph:
        wrong.add("verify")
    if find_gph_counterexample(spec, GRID).passed != gph:
        wrong.add("counterexample")
    if result.family != family or (
            parameter is not None
            and not abs(result.parameter - parameter) <= PARAM_TOL):
        wrong.add("classify")
    return wrong


@pytest.fixture(scope="module")
def members():
    return population()


@pytest.fixture(scope="module")
def classified(members):
    return [(kind, spec, classify(spec, GRID)) for kind, spec in members]


def test_draw_covers_every_summand_kind(members):
    kinds = {type(s.inner) for kind, spec in members if kind == "osum"
             for s in spec.summands}
    assert kinds == {Lukasiewicz, Product, Drastic, SchweizerSklar, CShelf}
    assert {len(spec.summands) for kind, spec in members
            if kind == "osum"} == {1, 2}


def test_wrong_verdicts_per_kind_and_entry_point(classified):
    counts = Counter((kind, entry) for kind, spec, result in classified
                     for entry in wrong_entry_points(spec, result))
    assert {cell: counts[cell] for cell in WRONG} == WRONG


def test_not_gph_verdicts_without_a_witness(classified):
    witnesses = [e["detail"]["witness"] for _, _, result in classified
                 for e in result.evidence if e["test"] == "gph_counterexample"]
    assert witnesses.count(None) == WITNESSLESS
