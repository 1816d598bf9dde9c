import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnormlab import dsl
from tnormlab.analysis import GridSpec, check_gph
from tnormlab.core import Expr, spec_label
from tnormlab.dsl import BinOp, Call, Const, EvalError, Neg, ParseError, Var
from tnormlab.rng import SplitMix64

from conftest import EXPR_TNORMS
from test_core import symmetry_pairs


# --------------------------------------------------------------------------
# Reference evaluator: an independent recursive-descent mirror used as the
# oracle for agreement tests.  Errors are classified the same three ways.
# --------------------------------------------------------------------------

class RefError(Exception):
    def __init__(self, kind):
        self.kind = kind


_REF_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def ref_eval(node, x, y):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -ref_eval(node.operand, x, y)
    if isinstance(node, Call):
        fn = min if node.func == "min" else max
        value = fn(ref_eval(node.left, x, y), ref_eval(node.right, x, y))
    elif node.op in _REF_BINOPS:
        value = _REF_BINOPS[node.op](ref_eval(node.left, x, y),
                                     ref_eval(node.right, x, y))
    elif node.op == "/":
        a = ref_eval(node.left, x, y)
        b = ref_eval(node.right, x, y)
        if b == 0.0:
            raise RefError("division_by_zero")
        value = a / b
    else:  # "^"
        a = ref_eval(node.left, x, y)
        b = ref_eval(node.right, x, y)
        if a == 0.0 and b < 0.0:
            raise RefError("zero_to_negative_power")
        try:
            value = math.pow(a, b)
        except OverflowError:
            # magnitude overflow; negative bases reach here only with an
            # integer exponent (others raise ValueError)
            negative = a < 0.0 and float(b) == int(b) and int(b) % 2 == 1
            value = -math.inf if negative else math.inf
        except ValueError:
            raise RefError("nan")
    if isinstance(value, float) and math.isnan(value):
        raise RefError("nan")
    return value


# --------------------------------------------------------------------------
# Random grammar-producible trees
# --------------------------------------------------------------------------

def random_tree(rng: SplitMix64, depth: int):
    r = rng.next_unit()
    if depth <= 0 or r < 0.25:
        pick = rng.next_unit()
        if pick < 0.4:
            return Var("x")
        if pick < 0.8:
            return Var("y")
        return Const(round(rng.next_unit() * 4.0, 3))
    if r < 0.35:
        return Neg(random_tree(rng, depth - 1))
    if r < 0.5:
        func = "min" if rng.next_unit() < 0.5 else "max"
        return Call(func, random_tree(rng, depth - 1),
                    random_tree(rng, depth - 1))
    op = "+-*/^"[int(rng.next_unit() * 5) % 5]
    return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


expressions = st.recursive(
    st.one_of(
        st.builds(Var, st.sampled_from(["x", "y"])),
        st.builds(Const, st.floats(min_value=0.0, max_value=1e6,
                                   allow_nan=False, allow_infinity=False)),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), inner, inner),
        st.builds(Call, st.sampled_from(["min", "max"]), inner, inner),
    ),
    max_leaves=2 ** 6,
)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def test_parse_section_example():
    tree = dsl.parse("max(x + y - 1, 0)")
    assert isinstance(tree, Call) and tree.func == "max"
    assert dsl.eval_expr(tree, 0.5, 0.7) == pytest.approx(0.2, abs=1e-15)


def test_parse_power_product():
    assert dsl.eval_expr(dsl.parse("x^2*y"), 0.5, 1.0) == 0.25


def test_parse_reciprocal_form():
    tree = dsl.parse("(x^(-1)+y^(-1)-1)^(-1)")
    assert dsl.eval_expr(tree, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_parse_error_position_at_end():
    with pytest.raises(ParseError) as err:
        dsl.parse("min(x,")
    assert err.value.position == 6
    assert "expression" in err.value.expected
    assert err.value.found == "end of input"


@pytest.mark.parametrize("source", ["", "x +", "min(x)", "1..2", "x y", "foo",
                                    "(x", "x)", "x ** y", "2 2",
                                    pytest.param("(" * 3000 + "x" + ")" * 3000,
                                                 id="deep-nesting"),
                                    pytest.param("x*y" + "+0*x" * 3000,
                                                 id="tall-chain"),
                                    # x*y is 2 nodes tall, each "+0*x" adds one
                                    pytest.param("x*y" + "+0*x" * (dsl.MAX_DEPTH - 1),
                                                 id="one-over-max-depth")])
def test_parse_rejections(source):
    with pytest.raises(ParseError) as err:
        dsl.parse(source)
    assert 0 <= err.value.position <= len(source) + 1


def test_tallest_accepted_chain_evaluates_and_serializes():
    spec = Expr("x*y" + "+0*x" * (dsl.MAX_DEPTH - 2))
    assert check_gph(spec, None, GridSpec(points=5, samples=10)).passed
    assert spec_label(spec).count(" + ") == dsl.MAX_DEPTH - 2


def _tree_of_height(wrap, height):
    node = Var("x")
    for _ in range(height - 1):
        node = wrap(node)
    return node


@pytest.mark.parametrize("wrap", [
    lambda t: BinOp("+", t, Const(0.0)),   # ((x + 0.0) + 0.0) ...
    lambda t: BinOp("+", Var("x"), t),     # (x + (x + ...))
    Neg,                                   # (-(-...))
    lambda t: Call("min", t, Var("y")),    # min(min(...), y)
    lambda t: BinOp("^", Var("x"), t),     # (x ^ (x ^ ...))
], ids=["plus-chain", "paren-chain", "neg-chain", "min-nest", "pow-chain"])
def test_tallest_accepted_tree_reparses_from_its_serialization(wrap):
    tree = _tree_of_height(wrap, dsl.MAX_DEPTH)
    assert dsl.parse(dsl.serialize(tree)) == tree
    with pytest.raises(ParseError):
        dsl.parse(dsl.serialize(_tree_of_height(wrap, dsl.MAX_DEPTH + 1)))


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        dsl.parse("xy")
    with pytest.raises(ParseError):
        dsl.parse("2x")


def test_number_literals():
    assert dsl.eval_expr(dsl.parse("1e-3"), 0, 0) == 1e-3
    assert dsl.eval_expr(dsl.parse("2.5E+2"), 0, 0) == 250.0
    assert dsl.eval_expr(dsl.parse("0.125"), 0, 0) == 0.125


# Precedence goldens
def test_precedence_addition_vs_product():
    assert dsl.parse("x+y*2") == BinOp("+", Var("x"),
                                       BinOp("*", Var("y"), Const(2.0)))


def test_precedence_power_right_associative():
    assert dsl.parse("x^y^2") == BinOp("^", Var("x"),
                                       BinOp("^", Var("y"), Const(2.0)))


def test_precedence_unary_minus_below_power():
    assert dsl.parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))


def test_unary_minus_binds_above_product():
    assert dsl.parse("-x*y") == BinOp("*", Neg(Var("x")), Var("y"))


def test_subtraction_left_associative():
    assert dsl.parse("x-y-1") == BinOp("-", BinOp("-", Var("x"), Var("y")),
                                       Const(1.0))


# --------------------------------------------------------------------------
# Serialization roundtrip
# --------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(expressions)
def test_serialize_parse_roundtrip(tree):
    assert dsl.parse(dsl.serialize(tree)) == tree


def test_roundtrip_seeded_thousand():
    rng = SplitMix64(0xD51)
    for _ in range(1000):
        tree = random_tree(rng, 6)
        assert dsl.parse(dsl.serialize(tree)) == tree


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def test_eval_product_example():
    assert dsl.eval_expr(dsl.parse("x*y"), 0.25, 0.4) == 0.1


def test_eval_division_by_zero():
    with pytest.raises(EvalError) as err:
        dsl.eval_expr(dsl.parse("x/y"), 0.1, 0.0)
    assert err.value.kind == "division_by_zero"
    assert "(x / y)" in str(err.value)


def test_eval_zero_to_negative_power():
    with pytest.raises(EvalError) as err:
        dsl.eval_expr(dsl.parse("x^(-1)"), 0.0, 0.5)
    assert err.value.kind == "zero_to_negative_power"


def test_eval_nan_from_negative_base():
    with pytest.raises(EvalError) as err:
        dsl.eval_expr(dsl.parse("(x-1)^0.5"), 0.5, 0.5)
    assert err.value.kind == "nan"


def test_eval_section_example_hand_value():
    assert dsl.eval_expr(dsl.parse("max(x+x*y-1,0)"), 0.8, 0.8) == \
        pytest.approx(0.44, abs=1e-15)


def test_eval_array_matches_scalar():
    tree = dsl.parse("max(x + x*y - 1, 0)")
    xs = np.linspace(0.0, 1.0, 33)
    ys = np.linspace(0.0, 1.0, 33)[::-1].copy()
    arr = dsl.eval_expr(tree, xs, ys)
    for i in range(xs.size):
        assert arr[i] == dsl.eval_expr(tree, float(xs[i]), float(ys[i]))


def test_eval_array_error_names_point():
    for source, xs, ys, point in [
        ("x/y", [0.5, 0.5], [0.5, 0.0], (0.5, 0.0)),
        # unequal shapes: the point is read after broadcasting the mask
        ("1/x", [[1.0], [0.0]], [[0.25, 0.5]], (0.0, 0.25)),
    ]:
        with pytest.raises(EvalError) as err:
            dsl.eval_expr(dsl.parse(source), np.asarray(xs), np.asarray(ys))
        assert err.value.point == point


def test_agreement_with_reference_evaluator():
    rng = SplitMix64(0xACE)
    agreements = 0
    for _ in range(10_000):
        tree = random_tree(rng, 5)
        x = rng.next_unit()
        y = rng.next_unit()
        try:
            expected = ref_eval(tree, x, y)
            failure = None
        except RefError as err:
            expected = None
            failure = err.kind
        if failure is None:
            got = dsl.eval_expr(tree, x, y)
            if math.isinf(expected):
                assert got == expected
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)
        else:
            with pytest.raises(EvalError) as err:
                dsl.eval_expr(tree, x, y)
            assert err.value.kind == failure
        agreements += 1
    assert agreements == 10_000


def _checked_walk(tree, x, y):
    """The node-by-node walk: every node checked as it is evaluated."""
    with np.errstate(all="ignore"):
        return dsl._eval(tree, x, y, True)


def _outcome(evaluate, tree, x, y):
    """The value's bytes at the broadcast shape, or what the error names."""
    try:
        value = evaluate(tree, x, y)
    except EvalError as err:
        return ("error", err.kind, dsl.serialize(err.node), repr(err.point))
    shape = np.broadcast(x, y).shape
    return ("value", np.broadcast_to(np.asarray(value, float), shape).tobytes())


def _seeded_arrays(rng: SplitMix64):
    """x down a column and y along a row, each of 1 to 6 seeded values
    drawn from uniform ones and those that make nodes fail or absorb a NaN
    (0, -0.0, 0.5, 1)."""
    special = np.array([0.0, -0.0, 0.5, 1.0])

    def axis():
        values = np.concatenate([rng.unit_array(3), special])
        pick = rng.unit_array(1 + int(rng.next_unit() * 6))
        return values[(pick * values.size).astype(int)]

    return axis()[:, None], axis()[None, :]


def test_array_evaluation_matches_the_checked_walk():
    """On seeded arrays, eval_expr returns the checked walk's value bit for
    bit, or raises the checked walk's error: the same kind, node and
    point."""
    rng = SplitMix64(0xA77)
    errors = 0
    for _ in range(2_000):
        tree = random_tree(rng, 5)
        x, y = _seeded_arrays(rng)
        want = _outcome(_checked_walk, tree, x, y)
        assert _outcome(dsl.eval_expr, tree, x, y) == want, dsl.serialize(tree)
        errors += want[0] == "error"
    assert 200 < errors < 1_800


@pytest.mark.parametrize("source,kind,node,point", [
    # a NaN left of a division by zero is met first, though "^0" absorbs it
    ("((x-1)^0.5)^0 + x/(y-0.5)", "nan", "((x - 1.0) ^ 0.5)", (0.25, 0.5)),
    ("x/(y-0.5) + ((x-1)^0.5)^0", "division_by_zero", "(x / (y - 0.5))",
     (0.25, 0.5)),
    ("1^((x-1)^0.5)", "nan", "((x - 1.0) ^ 0.5)", (0.25, 0.5)),
    ("min((x-1)^0.5, 1/y)", "nan", "((x - 1.0) ^ 0.5)", (0.25, 0.5)),
    ("x/(y-1)", "division_by_zero", "(x / (y - 1.0))", (0.25, 1.0)),
    ("x/y", "division_by_zero", "(x / y)", (0.25, -0.0)),
])
def test_error_names_the_node_of_the_checked_walk(source, kind, node, point):
    x = np.array([[0.25], [2.0]])
    y = np.array([[0.5, 1.0, -0.0]])
    tree = dsl.parse(source)
    with pytest.raises(EvalError) as err:
        dsl.eval_expr(tree, x, y)
    got = (err.value.kind, dsl.serialize(err.value.node), err.value.point)
    assert got == (kind, node, point)
    assert _outcome(_checked_walk, tree, x, y) == _outcome(dsl.eval_expr, tree, x, y)


@pytest.mark.parametrize("source", ["x", "y", "0.5", "x*y"])
def test_array_result_is_a_new_array(source):
    x = np.linspace(0.0, 1.0, 5)
    y = x[::-1].copy()
    out = dsl.eval_expr(dsl.parse(source), x, y)
    assert out.shape == x.shape and out.dtype == np.float64
    assert not np.shares_memory(out, x) and not np.shares_memory(out, y)
    out[:] = 7.0
    assert x[0] == 0.0 and y[0] == 1.0


# --------------------------------------------------------------------------
# Mirror symmetry: the rule that lets a scaling sweep take the half cube
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    *(dsl.serialize(spec.ast) for spec in EXPR_TNORMS),
    "x*y", "(y-x)^0.5+(x-y)^0.5"])
def test_mirror_symmetric_accepts(source):
    assert dsl.mirror_symmetric(dsl.parse(source))


@pytest.mark.parametrize("source", ["x*0.3*y", "x^3*y", "(x+1)+y", "min(x,y)"])
def test_mirror_symmetric_rejects(source):
    """Each is a different float at some mirrored pair (x*0.3*y for about a
    third of random pairs), or, like (x+1)+y, merely not provably equal."""
    assert not dsl.mirror_symmetric(dsl.parse(source))


def test_min_keeps_its_operand_order_on_signed_zeros():
    """Why the rule leaves min and max alone: on a tie np.minimum returns
    one operand by position, so min(x, y) at (-0.0, 0.0) and at
    (0.0, -0.0) are zeros of opposite sign."""
    tree = dsl.parse("min(x,y)")
    a = dsl.eval_expr(tree, np.array([-0.0]), np.array([0.0]))
    b = dsl.eval_expr(tree, np.array([0.0]), np.array([-0.0]))
    assert np.signbit(a) != np.signbit(b)


def mirror(node):
    """``node`` with x and y exchanged."""
    if isinstance(node, Var):
        return Var("y" if node.name == "x" else "x")
    if isinstance(node, Neg):
        return Neg(mirror(node.operand))
    if isinstance(node, (BinOp, Call)):
        return dataclasses.replace(node, left=mirror(node.left),
                                   right=mirror(node.right))
    return node


small_expressions = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["x", "y"])),
              st.sampled_from([Const(0.0), Const(0.5), Const(1.0), Const(3.0)])),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), inner, inner),
        st.builds(Call, st.sampled_from(["min", "max"]), inner, inner),
    ),
    max_leaves=6,
)

def mirrored(op, e):
    """``e op mirror(e)``, a call for min and max."""
    return (Call if op in ("min", "max") else BinOp)(op, e, mirror(e))


#: e op mirror(e) for every operation: the rule accepts only "+" and "*".
mirrored_pairs = st.builds(
    mirrored, st.sampled_from([*"+-*/^", "min", "max"]), small_expressions)

#: trees the rule accepts by construction: e + mirror(e) and e * mirror(e),
#: and any operation on accepted trees.
symmetric_expressions = st.recursive(
    st.builds(mirrored, st.sampled_from("+*"), small_expressions),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), inner, inner),
        st.builds(Call, st.sampled_from(["min", "max"]), inner, inner),
    ),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(symmetric_expressions)
def test_mirror_symmetric_accepts_mirrored_constructions(tree):
    assert dsl.mirror_symmetric(tree)


_IEEE = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
         "^": np.power, "min": np.minimum, "max": np.maximum}


def ieee_values(node, x, y):
    """``node`` at (x, y) with numpy's IEEE-754 operations and no checks,
    so NaNs and infinities come out as values."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -ieee_values(node.operand, x, y)
    op = node.func if isinstance(node, Call) else node.op
    return _IEEE[op](ieee_values(node.left, x, y), ieee_values(node.right, x, y))


_PAIRS = symmetry_pairs()


@settings(max_examples=150, deadline=None)
@given(st.one_of(symmetric_expressions, mirrored_pairs, small_expressions))
def test_mirror_symmetric_trees_evaluate_the_same_bits(tree):
    """A tree the rule accepts gives the same float at every symmetry pair
    and at its mirror, NaN-aware (a NaN's payload may differ), and
    eval_expr raises at both or returns the same bits at both."""
    if not dsl.mirror_symmetric(tree):
        return
    x, y = _PAIRS
    with np.errstate(all="ignore"):
        a = np.broadcast_to(ieee_values(tree, x, y), x.shape)
        b = np.broadcast_to(ieee_values(tree, y, x), x.shape)
    same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
    assert same.all(), dsl.serialize(tree)
    assert _outcome(dsl.eval_expr, tree, x, y)[0] == \
        _outcome(dsl.eval_expr, tree, y, x)[0]
    if _outcome(dsl.eval_expr, tree, x, y)[0] == "value":
        assert dsl.eval_expr(tree, x, y).tobytes() == \
            dsl.eval_expr(tree, y, x).tobytes()
