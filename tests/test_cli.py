import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnormlab.analysis import GridSpec, check_gph
from tnormlab.cli import main
from tnormlab.core import (
    CShelf,
    Drastic,
    Lukasiewicz,
    Minimum,
    OrdinalSum,
    Product,
    SchweizerSklar,
    parse_spec,
    spec_label,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# Mini-syntax
# --------------------------------------------------------------------------

def test_token_named_and_parametric():
    assert parse_spec("lukasiewicz") == Lukasiewicz()
    assert parse_spec("ss:2") == SchweizerSklar(2.0)
    assert parse_spec("cshelf:0.25") == CShelf(0.25)


def test_token_ordinal_sum():
    spec = parse_spec("osum:[0,0.5,lukasiewicz]")
    assert isinstance(spec, OrdinalSum)
    assert spec.summands[0].upper == 0.5


def test_token_rejects_unknown():
    with pytest.raises(ValueError, match="mini-syntax"):
        parse_spec("frobnicate")


_BETAS = st.floats(min_value=-60.0, max_value=60.0).filter(
    lambda b: abs(b) >= 1e-3)
_EDGES = st.floats(min_value=0.0, max_value=1.0).filter(
    lambda c: 0.0 < c < 1.0)
_CATALOG_SPECS = st.one_of(
    st.sampled_from([Minimum(), Product(), Lukasiewicz(), Drastic()]),
    _BETAS.map(SchweizerSklar),
    _EDGES.map(CShelf),
)


@st.composite
def _ordinal_sums(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    cuts = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                min_size=2 * n, max_size=2 * n, unique=True)))
    return OrdinalSum([(cuts[2 * i], cuts[2 * i + 1], draw(_CATALOG_SPECS))
                       for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(spec=st.one_of(_CATALOG_SPECS, _ordinal_sums()))
@example(spec=SchweizerSklar(1 / 3))
@example(spec=CShelf(1 / 3))
def test_label_parses_back_to_its_spec(spec):
    assert parse_spec(spec_label(spec)) == spec


def test_label_keeps_exact_short_form():
    assert spec_label(SchweizerSklar(2.0)) == "ss:2"
    assert spec_label(OrdinalSum([(0.2, 0.6, Lukasiewicz())])) == "osum:[0.2,0.6,luk]"


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def test_eval_lukasiewicz(capsys):
    code, out, _ = run(capsys, "eval", "--tnorm", "lukasiewicz",
                       "--x", "0.5", "--y", "0.7")
    assert code == 0
    assert out.strip() == "0.2"


def test_eval_negative_zero_reads_as_zero(capsys):
    code, out, err = run(capsys, "eval", "--tnorm", "ss:-1",
                         "--x", "-0", "--y", "0")
    assert (code, out.strip(), err) == (0, "0", "")


def test_eval_companion_expression(capsys):
    code, out, _ = run(capsys, "eval", "--tnorm", "luk",
                       "--f-expr", "max(x+x*y-1,0)", "--x", "0.8", "--y", "0.8")
    assert code == 0
    assert out.strip() == "0.44"


def test_verify_catalog_json(capsys):
    code, out, _ = run(capsys, "verify", "--tnorm", "ss:2", "--f", "catalog",
                       "--points", "51", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_residual"] <= 1e-9
    assert payload["metadata"]["points"] == 51


def test_verify_drastic_against_product_expression(capsys):
    code, out, _ = run(capsys, "verify", "--tnorm", "drastic",
                       "--f-expr", "x*y", "--points", "21", "--samples", "100")
    assert code == 1
    assert "FAIL" in out


def test_verify_unit_scale_precheck_fires_first(capsys):
    # F(1, t) = t already fails: the fast slice reports before any sweep
    code, out, _ = run(capsys, "verify", "--tnorm", "min",
                       "--f-expr", "x*y/2", "--points", "11", "--samples", "10",
                       "--json")
    assert code == 1
    assert json.loads(out)["check"] == "unit_scale"


def test_counterexample_ordinal_sum(capsys):
    code, out, _ = run(capsys, "counterexample", "--tnorm",
                       "osum:[0,0.5,lukasiewicz]", "--json")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["lambda"] == 0.8
    assert witness["x"] == 0.5
    assert witness["y"] == 0.5
    assert abs(witness["gap"] - 0.1) <= 1e-12


def test_counterexample_clean_family(capsys):
    code, out, _ = run(capsys, "counterexample", "--tnorm", "ss:3",
                       "--points", "21", "--samples", "100")
    assert code == 0


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--tnorm", "ss:-1",
                       "--points", "51", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "SchweizerSklarNeg"
    assert abs(payload["parameter"] + 1.0) <= 1e-6


def test_classify_not_gph_exit(capsys):
    code, out, _ = run(capsys, "classify", "--tnorm", "osum:[0.5,1,prod]",
                       "--points", "51", "--json")
    assert code == 1
    assert json.loads(out)["family"] == "NotGPH"


def test_catalog_lists_six_kinds(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    families = json.loads(out)["families"]
    assert len(families) == 6


def test_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "--tnorm", "min", "--f", "catalog",
                       "--points", "5", "--samples", "0", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,x,y,lhs,rhs,residual"
    assert len(lines) == 1 + 5 ** 3
    assert all(len(line.split(",")) == 6 for line in lines[1:])


@pytest.mark.parametrize("tnorm", ["ss:2", "osum:[0,0.5,luk]"])
def test_csv_out_file_matches_stdout(tmp_path, capsys, tnorm):
    argv = ["verify", "--tnorm", tnorm, "--points", "7", "--samples", "0", "--csv"]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "rows.csv"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert code == (0 if tnorm == "ss:2" else 1)
    assert target.read_bytes() == out.encode()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--tnorm", "min", "--points", "11",
                       "--samples", "10", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True


# --------------------------------------------------------------------------
# Error paths -> exit 2
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["verify", "--tnorm", "min", "--points", "5", "--samples", "0", "--csv"],
], ids=["catalog", "verify-csv"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, where):
    target = tmp_path / "no" / "x.out" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("tnormlab: cannot write ")
    assert len(err.splitlines()) == 1


PARTIAL_CSV = ["verify", "--tnorm", "min", "--f-expr=y*y+8*max(x-0.5,0)*(1-x)",
               "--points", "11", "--samples", "0", "--csv"]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_mid_sweep_error_keeps_earlier_slices(tmp_path, capsys, to_file):
    """The companion leaves [0, 1] first at lambda = 0.6: the header and
    the rows of lambda = 0 ... 0.5 stay written, and the run exits 2."""
    target = tmp_path / "rows.csv"
    code, out, err = run(capsys, *PARTIAL_CSV,
                         *(["--out", str(target)] if to_file else []))
    lines = (target.read_text() if to_file else out).splitlines()
    assert code == 2
    assert not to_file or out == ""
    assert lines[0] == "lambda,x,y,lhs,rhs,residual"
    assert len(lines) == 1 + 6 * 11 ** 2
    assert lines[-1].startswith("0.5,1.0,1.0,")
    assert len(err.splitlines()) == 1
    assert "(0.6000000000000001, 0.9)" in err


@pytest.mark.parametrize("argv", [["verify"], ["classify"], ["counterexample"],
                                  ["verify", "--csv"]],
                         ids=["verify", "classify", "counterexample", "csv"])
def test_grid_too_large_to_allocate_exits_2(capsys, argv):
    """10**7 points ask numpy for a 728 TiB table, which it refuses at once;
    only arrays of the axis's length (80 MB each) are built before that."""
    code, out, err = run(capsys, argv[0], "--tnorm", "prod", "--points",
                         "10000000", "--samples", "0", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("tnormlab: Unable to allocate")
    assert len(err.splitlines()) == 1


def test_unknown_spec_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--tnorm", "nope", "--x", "0", "--y", "0")
    assert code == 2
    assert "mini-syntax" in err


def test_bad_expression_reports_position(capsys):
    code, _, err = run(capsys, "verify", "--tnorm", "expr:min(x,")
    assert code == 2
    assert "offset 6" in err  # within the expression source


def test_degenerate_beta_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--tnorm", "ss:0", "--x", "0", "--y", "0")
    assert code == 2


def test_conflicting_companions_exit_2(capsys):
    for flags in (["--f", "catalog", "--f-expr", "x*y"],
                  ["--f-catalog", "--f-expr", "x*y"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tnorm", "min", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("source", ["(" * 3000 + "x" + ")" * 3000,
                                    "-" * 3000 + "x",
                                    "x*y" + "+0*x" * 3000],
                         ids=["parentheses", "unary-minus", "operator-chain"])
def test_deep_expression_exits_2(capsys, source):
    code, out, err = run(capsys, "verify", "--tnorm", "expr:" + source,
                         "--points", "5", "--samples", "10")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "expression" in err


def assert_exit_code_contract(argv):
    """The run exits 0, 1 or 2: on 2 with nothing on stdout and one line on
    stderr, otherwise with output on stdout and nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")


#: DSL strings: grammar-shaped ones (literals that overflow, vanish or are
#: zero included) and arbitrary text over the DSL's own characters.
_DSL_SOURCES = st.one_of(
    st.recursive(
        st.one_of(st.sampled_from(["x", "y", "0", "1", "0.5", "2", "1e-3",
                                   "1e308", "1e999"]),
                  st.floats(min_value=0.0, max_value=4.0).map(repr)),
        lambda inner: st.one_of(
            inner.map("-{}".format),
            st.tuples(inner, st.sampled_from("+-*/^"), inner)
            .map(lambda t: "({}{}{})".format(*t)),
            st.tuples(st.sampled_from(["min", "max"]), inner, inner)
            .map(lambda t: "{}({},{})".format(*t)),
        ),
        max_leaves=10),
    st.text(alphabet="xy0123456789.e+-*/^(),minax ", max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(source=_DSL_SOURCES, command=st.sampled_from(["eval", "verify"]),
       point=st.sampled_from(["0", "0.5", "1"]))
def test_exit_code_contract_on_drawn_expressions(source, command, point):
    """Any expression gives exit 0, 1 or 2, and exit 2 one stderr line."""
    argv = ["--tnorm", "expr:" + source]
    if command == "eval":
        argv = ["eval", *argv, "--x", point, "--y", "0.25"]
    else:
        argv = ["verify", *argv, "--points", "5", "--samples", "0"]
    assert_exit_code_contract(argv)


@settings(max_examples=100, deadline=None)
@given(source=_DSL_SOURCES, command=st.sampled_from(["eval", "verify"]),
       tnorm=st.sampled_from(["prod", "min", "ss:-0.5", "ss:3"]))
def test_exit_code_contract_on_drawn_companions(source, command, tnorm):
    """Any --f-expr companion gives exit 0, 1 or 2, and exit 2 one stderr
    line.  The ``=`` form keeps a source that starts with '-' a value."""
    argv = [command, "--tnorm", tnorm, f"--f-expr={source}"]
    if command == "eval":
        argv += ["--x", "0.5", "--y", "0.25"]
    else:
        argv += ["--points", "5", "--samples", "0"]
    assert_exit_code_contract(argv)


#: texts for a mini-syntax number: drawn floats, texts that read as nan,
#: inf, zero or a subnormal, and arbitrary text over a number's characters.
_NUMBER_TEXTS = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
    st.sampled_from(["", "0", "-0", "1", "0.5", "nan", "inf", "-inf", "1e999",
                     "1e-300", "5e-324", "0x1p-3"]),
    st.text(alphabet="0123456789.e+-", max_size=8),
)
#: summand kinds: well-formed ones half the time, else malformed or nested.
_INNER_TOKENS = st.one_of(
    st.sampled_from(["luk", "prod", "min", "drastic", "ss:2", "ss:-0.5",
                     "cshelf:0.5"]),
    st.one_of(st.sampled_from(["", "osum:[0,1,luk]",
                               "osum:[0.2,0.4,prod;0.5,0.9,luk]"]),
              _NUMBER_TEXTS.map("ss:{}".format),
              _NUMBER_TEXTS.map("cshelf:{}".format)),
)


@st.composite
def _ordinal_sum_tokens(draw):
    """osum:[...] with 0 to 3 summands in drawn order.  Mostly each starts
    at a drawn cut and is log-uniform wide, down to 1e-6 or to 1e-300 (so
    its bounds may round to equal), clipped at the next cut; else its
    bounds are drawn as text."""
    count = draw(st.integers(min_value=0, max_value=3))
    cuts = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                min_size=count, max_size=count, unique=True)))
    summands = []
    for lower, room in zip(cuts, [*cuts[1:], 1.0]):
        if draw(st.integers(min_value=0, max_value=3)):
            digits = draw(st.sampled_from([6.0, 6.0, 300.0]))
            width = 10.0 ** -draw(st.floats(min_value=0.0, max_value=digits))
            bounds = f"{lower!r},{min(room, lower + width)!r}"
        else:
            bounds = f"{draw(_NUMBER_TEXTS)},{draw(_NUMBER_TEXTS)}"
        summands.append(f"{bounds},{draw(_INNER_TOKENS)}")
    return "osum:[" + ";".join(summands) + "]"


_MINI_SYNTAX_TOKENS = st.one_of(
    _NUMBER_TEXTS.map("ss:{}".format),
    _NUMBER_TEXTS.map("cshelf:{}".format),
    _ordinal_sum_tokens(),
)


@settings(max_examples=300, deadline=None)
@given(token=_MINI_SYNTAX_TOKENS,
       command=st.sampled_from(["eval", "verify", "counterexample",
                                "classify"]))
@example(token="osum:[0,0.5,osum:[0,1,luk]]", command="classify")
@example(token="osum:[0.5,0.5,luk]", command="counterexample")
@example(token="osum:[0,1e-300,prod]", command="classify")
@example(token="ss:1e999", command="verify")
@example(token="cshelf:nan", command="eval")
def test_exit_code_contract_on_drawn_tokens(token, command):
    """Any mini-syntax token gives exit 0, 1 or 2, and exit 2 one stderr
    line."""
    argv = [command, "--tnorm", token]
    if command == "eval":
        argv += ["--x", "0.5", "--y", "0.25"]
    else:
        argv += ["--points", "5", "--samples", "0"]
    assert_exit_code_contract(argv)


@pytest.mark.parametrize("argv", [
    ["verify", "--tnorm", "min", "--assoc-full"],
    ["counterexample", "--tnorm", "min", "--assoc-full"],
    ["classify", "--tnorm", "min", "--csv"],
    ["eval", "--tnorm", "min", "--x", "0.5", "--y", "0.5", "--csv"],
    ["catalog", "--csv"],
])
def test_option_only_on_subcommands_that_read_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_fails_a_sum_only_its_probes_see(capsys):
    code, out, _ = run(capsys, "verify", "--tnorm", "osum:[0.9,0.9005,luk]",
                       "--points", "51")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tnorm", ["ss:2", "osum:[0,0.5,luk]"])
def test_closed_stdout_keeps_verdict_exit_code(tnorm):
    points = 41
    verdict = check_gph(parse_spec(tnorm), None, GridSpec(points=points))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tnormlab", "verify", "--tnorm", tnorm, "--csv",
         "--points", str(points)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().decode() == "lambda,x,y,lhs,rhs,residual\n"
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == (0 if verdict.passed else 1)
    assert "Traceback" not in err


def test_classify_pole_on_the_fit_axis_exits_2(capsys):
    # the diagonal's fit axis meets the pole at its first interior point
    code, out, err = run(capsys, "classify", "--tnorm",
                         "expr:x*y+0*(1/(x-0.0001220703125))")
    assert code == 2
    assert out == ""
    assert "division by zero" in err


def test_classify_precondition_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--tnorm", "expr:x*y/2",
                       "--points", "21", "--samples", "100")
    assert code == 2
    assert "axiom" in err


# --------------------------------------------------------------------------
# Determinism and seeding
# --------------------------------------------------------------------------

def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TNORMLAB_SEED", "0x123")
    code, out, _ = run(capsys, "verify", "--tnorm", "min", "--points", "11",
                       "--samples", "10", "--json")
    assert code == 0
    assert json.loads(out)["metadata"]["seed"] == 0x123


def test_identical_invocations_identical_bytes(capsys):
    args = ["verify", "--tnorm", "ss:-1", "--f", "catalog", "--seed", "42",
            "--points", "31", "--json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
