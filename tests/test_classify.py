import importlib
import json

import numpy as np
import pytest

from tnormlab import analysis, core
from tnormlab.analysis import GridSpec, check_gph, find_gph_counterexample
from tnormlab.classify import (
    FitError,
    PreconditionError,
    _diagonal_rows,
    classify,
    fit_beta_from_triples,
)
from tnormlab.core import (
    CShelf,
    Expr,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    parse_spec,
    spec_label,
    tnorm_values,
)
from tnormlab.dsl import EvalError
from tnormlab.rng import SplitMix64

from conftest import (
    EXPR_TNORMS,
    FAMILY_MATRIX,
    MATRIX_IDS,
    ORDINAL_SUMS,
    PARAM_TOL,
)

# the package re-exports the function under the module's name
classify_module = importlib.import_module("tnormlab.classify")

EXPECTED_FAMILY = {
    "min": ("Minimum", None),
    "prod": ("Product", None),
    "drastic": ("Drastic", None),
    "ss:-2": ("SchweizerSklarNeg", -2.0),
    "ss:-1": ("SchweizerSklarNeg", -1.0),
    "ss:-0.5": ("SchweizerSklarNeg", -0.5),
    "ss:0.5": ("SchweizerSklarPos", 0.5),
    "ss:1": ("SchweizerSklarPos", 1.0),
    "ss:2": ("SchweizerSklarPos", 2.0),
    "ss:3": ("SchweizerSklarPos", 3.0),
    "cshelf:0.25": ("CShelf", 0.25),
    "cshelf:0.5": ("CShelf", 0.5),
    "cshelf:0.75": ("CShelf", 0.75),
}


#: classify's fit axis, on which it evaluates the diagonal once.
FIT_AXIS = np.linspace(0.0, 1.0, classify_module._FIT_POINTS)


def fit_axis_rows(spec):
    """The fit's (z, z, T(z, z)) rows of ``spec`` on the fit axis."""
    return _diagonal_rows(FIT_AXIS, tnorm_values(spec, FIT_AXIS, FIT_AXIS))


def sample_triples(spec, n, seed=0xBEEF):
    rng = SplitMix64(seed)
    rows = []
    while len(rows) < n:
        x, y = rng.unit_tuples(1, 2)[0]
        t = float(tnorm_values(spec, np.asarray([x]), np.asarray([y]))[0])
        if 0.0 < t < 1.0 and abs(t - x * y) > 1e-6:
            rows.append((x, y, t))
    return np.asarray(rows)


# --------------------------------------------------------------------------
# Exponent fit
# --------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [2.0, -0.5, -2.0, 3.0, 0.5])
def test_fit_recovers_exact_exponent(beta, grid):
    result = classify(SchweizerSklar(beta), grid)
    assert abs(result.parameter - beta) / abs(beta) <= 1e-6
    assert result.residual <= grid.eq_tol


def test_fit_product_has_no_informative_samples():
    # every diagonal point sits on t = z*z and is filtered out
    with pytest.raises(FitError, match="only 0 informative diagonal points"):
        fit_axis_rows(Product())


def test_fit_rejects_rows_outside_the_unit_interval():
    # t = 0 would divide by zero in the negative-side scaling
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        fit_beta_from_triples(np.tile([0.5, 0.4, 0.0], (60, 1)))
    with pytest.raises(ValueError):
        fit_beta_from_triples(np.asarray([[0.5, 1.5, 0.4]]))
    with pytest.raises(ValueError):
        fit_beta_from_triples(np.asarray([[np.nan, 0.5, 0.4]]))


def test_fit_from_noisy_samples_stays_close():
    for beta in (2.0, -1.0):
        triples = sample_triples(SchweizerSklar(beta), 80)
        noise = SplitMix64(0xD00D).unit_array(len(triples))
        noisy = triples.copy()
        noisy[:, 2] = np.clip(noisy[:, 2] + (noise - 0.5) * 2e-8, 1e-12, 1.0)
        beta_hat = fit_beta_from_triples(noisy)
        assert abs(beta_hat - beta) <= 1e-4


def test_fit_rejects_uninformative_triples():
    # min-shaped samples solve the per-sample equation only at the excluded 0
    rng = SplitMix64(3)
    rows = []
    for _ in range(60):
        x, y = sorted(rng.unit_tuples(1, 2)[0])
        rows.append((x, y, min(x, y)))
    with pytest.raises(FitError):
        fit_beta_from_triples(np.asarray(rows))


def test_fit_premise_family_decreases_in_the_exponent():
    """T_b(x, y) never rises with b over the fitted range, so T_b(x, y) - t
    changes sign once; the fit reads that sign as sign(b) * sign(h)."""
    near, far = classify_module.BETA_BRACKET
    mags = np.geomspace(near, far, 41)
    betas = np.concatenate([-mags[::-1], mags])
    x, y, u = SplitMix64(0xC0FFEE).unit_tuples(200, 3).T
    t = u * np.minimum(x, y)
    T = np.stack([tnorm_values(SchweizerSklar(b), x, y) for b in betas])
    assert np.diff(T, axis=0).max() <= 1e-15
    signs = np.stack([classify_module._sign(b, x, y, t) for b in betas])
    clear = np.abs(T - t) > 1e-15  # ties within rounding may go either way
    assert clear.mean() > 0.99
    assert np.array_equal(signs[clear], np.sign(T - t)[clear])


def seeded_rows(spec):
    """64 seeded (x, y, T(x, y)) rows off the product surface."""
    return sample_triples(spec, 64, seed=GridSpec().seed)


def single_row_fits(rows):
    """The fit of each row on its own; None where the row brackets no root."""
    fits = []
    for row in rows:
        try:
            fits.append(fit_beta_from_triples(row[None, :]))
        except FitError:
            fits.append(None)
    return fits


#: the rows each member's fit is tested on: the diagonal where it brackets
#: enough roots, 2-D seeded rows for the ordinal sums.
FIT_ROWS = {"ss:2": fit_axis_rows, "ss:-1": fit_axis_rows,
            "osum:[0.5,1,prod]": seeded_rows,
            "osum:[0.2,0.6,luk;0.6,1,prod]": seeded_rows}


@pytest.mark.parametrize("token", list(FIT_ROWS))
def test_fit_rows_do_not_affect_each_other(token):
    # the batch fit is the median of the one-row fits of the rows that
    # bracket a root: no row's brackets or choice leak into another's
    rows = FIT_ROWS[token](parse_spec(token))
    alone = [b for b in single_row_fits(rows) if b is not None]
    assert len(alone) >= 0.8 * len(rows)
    assert fit_beta_from_triples(rows) == float(np.median(alone))


def test_fit_missing_fraction_boundary():
    good = sample_triples(SchweizerSklar(2.0), 40)
    # min-shaped rows mostly bracket nothing; keep only those that fail alone
    rng = SplitMix64(3)
    candidates = []
    for _ in range(80):
        x, y = sorted(rng.unit_tuples(1, 2)[0])
        candidates.append((x, y, x))
    candidates = np.asarray(candidates)
    rootless = candidates[[b is None for b in single_row_fits(candidates)]]
    assert len(rootless) >= 11
    # 10 of 50 rows is exactly the default 20%
    assert fit_beta_from_triples(np.vstack([good, rootless[:10]])) == \
        fit_beta_from_triples(good)
    with pytest.raises(FitError, match="no exponent bracket for 11 of 51"):
        fit_beta_from_triples(np.vstack([good, rootless[:11]]))


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name,spec,_", FAMILY_MATRIX, ids=MATRIX_IDS)
def test_classify_matrix_member(name, spec, _, grid):
    result = classify(spec, grid)
    family, parameter = EXPECTED_FAMILY[name]
    assert result.family == family
    if parameter is None:
        assert result.parameter is None
    elif family == "CShelf":
        assert abs(result.parameter - parameter) <= grid.step_h
    else:
        assert abs(result.parameter - parameter) / abs(parameter) <= 1e-6
    assert result.residual <= grid.eq_tol
    validated = [e for e in result.evidence
                 if e["test"].startswith("validate_") and e["passed"]]
    assert len(validated) == 1


def test_classify_lukasiewicz_kind_lands_on_beta_one(grid):
    from tnormlab.core import Lukasiewicz
    result = classify(Lukasiewicz(), grid)
    assert result.family == "SchweizerSklarPos"
    assert abs(result.parameter - 1.0) <= 1e-6


def test_classify_cshelf_offgrid_edge(grid):
    result = classify(CShelf(0.3), grid)
    assert result.family == "CShelf"
    assert abs(result.parameter - 0.3) <= grid.step_h


@pytest.mark.parametrize("c,edge", [(0.25, 0.2499990463256836),
                                    (0.5, 0.4999990463256836),
                                    (0.75, 0.7499990463256836)])
def test_classify_cshelf_edge_bits(c, edge, grid):
    """The bisection starts from the shelf bracket on the fit axis, and the
    edge is its low end, the largest point known to lie in the zero run;
    pinned bit for bit."""
    assert classify(CShelf(c), grid).parameter == edge


#: a product with a pole at z = 2^-13, the fit axis's first interior point.
POLE_ON_FIT_AXIS = "x*y+0*(1/(x-0.0001220703125))"


def test_classify_raises_the_fit_axis_error(grid):
    """classify evaluates the diagonal on the fit axis before it validates
    any candidate, so it raises the error that evaluation raises, not a
    Product verdict."""
    spec = Expr(POLE_ON_FIT_AXIS)
    with pytest.raises(EvalError) as evaluated:
        tnorm_values(spec, FIT_AXIS, FIT_AXIS)
    with pytest.raises(EvalError) as classified:
        classify(spec, grid)
    assert str(classified.value) == str(evaluated.value)


def test_classify_expression_negative_exponent(grid):
    # rational form of the beta = -1 member; the raw power formula is
    # undefined on the zero boundary, this algebraic rewrite is not
    spec = Expr("x*y/max(x+y-x*y, 1e-300)")
    result = classify(spec, grid)
    assert result.family == "SchweizerSklarNeg"
    assert abs(result.parameter + 1.0) <= 1e-6
    assert result.residual <= 1e-9


@pytest.mark.parametrize("spec", ORDINAL_SUMS,
                         ids=["osum-luk", "osum-prod", "osum-two"])
def test_classify_ordinal_sum_not_gph(spec, grid):
    result = classify(spec, grid)
    assert result.family == "NotGPH"
    assert result.parameter is None
    assert result.residual > grid.eq_tol
    cited = [e for e in result.evidence if e["test"] == "gph_counterexample"]
    assert cited and cited[0]["detail"]["witness"] is not None
    assert not any(e["passed"] for e in result.evidence
                   if e["test"].startswith("validate_"))


def seeded_ordinal_sums(count, seed=7):
    """Ordinal sums drawn as the battery draws them: 1 to 3 summands by
    index, cuts in [0.05, 0.95] rounded to 3 places, each summand widened
    to at least 0.05, colliding ones dropped, and the inner kinds in turn."""
    kinds = [lambda u: Lukasiewicz(), lambda u: Product(),
             lambda u: SchweizerSklar(0.5 + 3.0 * u),
             lambda u: SchweizerSklar(-2.0 + 1.5 * u)]
    rng = SplitMix64(seed)
    sums = []
    for index in range(count):
        cuts = sorted(round(0.05 + 0.9 * rng.next_unit(), 3)
                      for _ in range(2 * (1 + index % 3)))
        summands, last = [], 0.0
        for i, (lower, upper) in enumerate(zip(cuts[::2], cuts[1::2])):
            upper = max(upper, min(1.0, lower + 0.05))
            inner = kinds[(index + i) % 4](rng.next_unit())
            if lower >= last:
                summands.append((lower, upper, inner))
                last = upper
        sums.append(OrdinalSum(summands))
    return sums


PROBED_SUMS = ORDINAL_SUMS + seeded_ordinal_sums(10)


def assert_cites_the_search(result, search):
    """classify's gph_counterexample evidence is the counterexample
    search's report, field by field."""
    (cited,) = [e for e in result.evidence if e["test"] == "gph_counterexample"]
    assert cited["passed"] == search.passed
    assert cited["detail"]["witness"] == search.witness.to_dict()
    assert cited["detail"]["max_residual"] == search.max_residual


@pytest.mark.parametrize("spec", PROBED_SUMS, ids=map(spec_label, PROBED_SUMS))
def test_classify_takes_a_probe_witness_without_the_sweep(spec, monkeypatch):
    # a decisive probe is the verdict: classify evaluates neither the
    # validation lattice nor the fit axis, and does not sweep
    grid = GridSpec(points=51)
    search = find_gph_counterexample(spec, grid)
    assert search.metadata["witness_source"] in ("case1", "case2")

    def refuse(*args):
        raise RuntimeError("classify went past a decisive probe")

    for name in ("_gph_report", "tnorm_values"):
        monkeypatch.setattr(classify_module, name, refuse)
    result = classify(spec, grid)
    assert result.family == "NotGPH"
    assert [e["test"] for e in result.evidence] == ["axioms",
                                                    "gph_counterexample"]
    assert_cites_the_search(result, search)
    assert result.residual == search.max_residual


@pytest.mark.parametrize("spec", PROBED_SUMS, ids=map(spec_label, PROBED_SUMS))
def test_verify_and_counterexample_agree(spec):
    grid = GridSpec(points=51)
    assert check_gph(spec, None, grid).passed == \
        find_gph_counterexample(spec, grid).passed


@pytest.mark.parametrize("entry", [
    lambda spec, grid: check_gph(spec, None, grid), find_gph_counterexample,
    classify], ids=["verify", "counterexample", "classify"])
def test_each_entry_point_evaluates_the_probes_once(entry, monkeypatch):
    spec = parse_spec("osum:[0.2,0.6,cshelf:0.5]")  # its probe gaps are 0
    calls = []
    probes = analysis._targeted_probes
    for module in (analysis, classify_module):
        monkeypatch.setattr(module, "_targeted_probes",
                            lambda *args: calls.append(args) or probes(*args))
    entry(spec, GridSpec(points=51))
    assert len(calls) == 1


def test_classify_sweeps_a_spec_without_probes(monkeypatch):
    spec = EXPR_TNORMS[1]  # Einstein
    grid = GridSpec(points=51)
    search = find_gph_counterexample(spec, grid)
    assert search.metadata["witness_source"] == "sweep"
    sweeps = []
    sweep = classify_module._gph_report
    monkeypatch.setattr(classify_module, "_gph_report",
                        lambda *args: sweeps.append(args) or sweep(*args))
    result = classify(spec, grid)
    assert result.family == "NotGPH"
    assert len(sweeps) == 1
    assert_cites_the_search(result, search)


#: EXPR_TNORMS[1]: its diagonal nominates Product and the fit, which fail.
EINSTEIN = "expr:x*y/(2-(x+y-x*y))"


def test_classify_evaluates_validation_lattice_once(grid, monkeypatch):
    # the spec's table on the validation lattice is shared by all candidates
    spec = parse_spec(EINSTEIN)
    assert spec == EXPR_TNORMS[1]
    lattice = grid.validation_axis()
    calls = []

    def counting(s, x, y):
        if s == spec and np.array_equal(np.ravel(x), lattice):
            calls.append(s)
        return tnorm_values(s, x, y)

    monkeypatch.setattr(classify_module, "tnorm_values", counting)
    result = classify(spec, grid)
    assert result.family == "NotGPH"
    assert sum(e["test"].startswith("validate_") for e in result.evidence) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("token", ["min", "cshelf:0.5", "ss:2",
                                   EINSTEIN])
def test_classify_evaluates_the_diagonal_once(token, grid, monkeypatch):
    # one diagonal vector, on the fit axis, decides the candidates and feeds
    # the fit; the diagonal scan is not consulted.  Single points are the
    # shelf edge's bisection steps.
    spec = parse_spec(token)
    diagonals = []

    def recording(s, x, y):
        if (s == spec and np.ndim(x) == 1 and np.size(x) > 1
                and np.array_equal(x, y)):
            diagonals.append(np.array(x))
        return tnorm_values(s, x, y)

    def no_scan(*args):
        raise RuntimeError("classify ran the diagonal scan")

    for module in (core, analysis, classify_module):
        monkeypatch.setattr(module, "tnorm_values", recording)
    monkeypatch.setattr(analysis, "scan_diagonal", no_scan)
    classify(spec, grid)
    assert len(diagonals) == 1
    assert np.array_equal(diagonals[0], FIT_AXIS)
    assert not hasattr(classify_module, "scan_diagonal")


# The tests each verdict lists, in order: a decisive probe's witness alone;
# else the candidates the diagonal's shape allows, validated up to the first
# that passes, the fit where it ran, the witness on NotGPH.
EVIDENCE_TESTS = {
    "min": ["axioms", "validate_minimum"],
    "cshelf:0.5": ["axioms", "validate_cshelf"],
    "ss:2": ["axioms", "validate_product", "beta_fit",
             "validate_schweizer_sklar_pos"],
    "osum:[0.2,0.6,luk;0.6,1,prod]": ["axioms", "gph_counterexample"],
    EINSTEIN: ["axioms", "validate_product", "beta_fit",
               "validate_schweizer_sklar_pos", "gph_counterexample"],
}


@pytest.mark.parametrize("token", list(EVIDENCE_TESTS))
def test_classify_evidence_lists_candidates_in_order(token, grid):
    result = classify(parse_spec(token), grid)
    assert [e["test"] for e in result.evidence] == EVIDENCE_TESTS[token]


@pytest.mark.parametrize("token,fits", [("min", 0), ("prod", 0),
                                        ("drastic", 0), ("cshelf:0.5", 0),
                                        ("ss:2", 1)])
def test_classify_fits_only_after_cheaper_candidates_fail(token, fits, grid,
                                                          monkeypatch):
    calls = []

    def recording(z, t):
        calls.append(t)
        return _diagonal_rows(z, t)

    monkeypatch.setattr(classify_module, "_diagonal_rows", recording)
    classify(parse_spec(token), grid)
    assert len(calls) == fits


#: scan members the fit misses, with the cause.
SCAN_MISSES: dict[str, str] = {}
#: 40 log-spaced exponents a side over the fitted range, and steep members
#: whose diagonal leaves few points off min.
SCAN_TOKENS = [f"ss:{sign * beta:.6g}" for sign in (1, -1)
               for beta in (*np.geomspace(1e-3, 60, 40), 24, 30, 45, 59.9)]


@pytest.mark.parametrize("token", [
    pytest.param(token, marks=pytest.mark.xfail(strict=True,
                                                reason=SCAN_MISSES[token]))
    if token in SCAN_MISSES else token for token in SCAN_TOKENS])
def test_classify_exponent_scan(token, grid):
    beta = float(token[len("ss:"):])
    result = classify(parse_spec(token), grid)
    assert result.family == ("SchweizerSklarPos" if beta > 0
                             else "SchweizerSklarNeg")
    assert abs(result.parameter - beta) <= PARAM_TOL


def test_classify_exponent_does_not_depend_on_the_seed():
    spec = parse_spec("ss:-19.4126")
    first, second = (classify(spec, GridSpec(seed=seed)).parameter
                     for seed in (0xC0FFEE, 7))
    assert first == second


# Shelf edges inside a boundary cell or on a grid point of the default grid,
# and a summand the validation lattice never enters: the fit axis resolves
# them all.
@pytest.mark.parametrize("token,family,parameter", [
    ("cshelf:0.005", "CShelf", 0.005),
    ("cshelf:0.01", "CShelf", 0.01),
    ("cshelf:0.995", "CShelf", 0.995),
    ("cshelf:0.999", "CShelf", 0.999),
    ("osum:[0.5,0.502,drastic]", "NotGPH", None),
])
def test_classify_edge_cells_and_narrow_summand(token, family, parameter,
                                                grid):
    result = classify(parse_spec(token), grid)
    assert result.family == family
    if parameter is not None:
        assert abs(result.parameter - parameter) <= PARAM_TOL


#: the population's single summands narrower than the fit axis's spacing,
#: whose probe gaps are 2.6e-6 to 1.2e-5, and sums of min summands, whose
#: probe gaps are exactly 0.
@pytest.mark.parametrize("points", [51, 101])
@pytest.mark.parametrize("token,family", [
    ("osum:[0.006072646828954813,0.006094510339350785,prod]", "NotGPH"),
    ("osum:[0.08062843598067297,0.08066818110449443,luk]", "NotGPH"),
    ("osum:[0.5041579423004151,0.5042170752371065,luk]", "NotGPH"),
    ("osum:[0.9384276934295829,0.93845466101683,luk]", "NotGPH"),
    ("osum:[0.2,0.6,min]", "Minimum"),
    ("osum:[0.3,0.7,min;0.8,0.9,min]", "Minimum"),
])
def test_classify_reads_the_probes_first(token, family, points):
    # a probe gap above eq_tol is the verdict and its residual; a zero gap
    # vetoes nothing
    grid = GridSpec(points=points)
    spec = parse_spec(token)
    gap, _ = analysis._first_max(analysis._targeted_probes(spec, None)[1])
    result = classify(spec, grid)
    assert result.family == family
    if family == "NotGPH":
        assert result.residual == gap > grid.eq_tol
    else:
        assert gap == 0.0


@pytest.mark.parametrize("token,points", [("cshelf:0.005", 101),
                                          ("cshelf:0.995", 101),
                                          ("cshelf:0.01", 51),
                                          ("cshelf:0.99", 51)])
def test_classify_shelf_edge_on_a_validation_point(token, points):
    # the edge is a validation-lattice point, where the spec is already min:
    # an estimate above the edge would put it in the candidate's zero run
    grid = GridSpec(points=points)
    spec = parse_spec(token)
    assert np.abs(grid.validation_axis() - spec.c).min() <= 1e-15
    result = classify(spec, grid)
    assert result.family == "CShelf"
    assert result.parameter <= spec.c
    assert abs(result.parameter - spec.c) <= PARAM_TOL
    assert result.residual == 0.0


def test_classify_requires_axioms(grid):
    with pytest.raises(PreconditionError):
        classify(Expr("x*y/2"), grid)


def test_classification_result_json(grid):
    result = classify(Minimum(), grid)
    payload = json.loads(result.to_json())
    assert list(payload) == ["family", "parameter", "residual", "evidence"]
    assert payload["family"] == "Minimum"
    assert all(list(e) == ["test", "passed", "detail"]
               for e in payload["evidence"])


def test_classify_deterministic(grid):
    a = classify(SchweizerSklar(2), grid)
    b = classify(SchweizerSklar(2), grid)
    assert a.to_json() == b.to_json()
