"""Expression DSL for user-supplied binary functions on the unit square.

Grammar (stable public contract)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | "y" | "(" expr ")"
            | ("min" | "max") "(" expr "," expr ")"

"^" is right-associative and binds tighter than unary minus on its left
("-x^2" is -(x^2), "a^b^c" is a^(b^c)).  NUMBER is an unsigned decimal
literal with optional fraction and exponent ("2", "0.25", "1e-3").
Whitespace is insignificant.  Implicit multiplication is rejected; "*" is
always explicit.  There is no lambda variable: scaling checks substitute
the scale factor into ``x`` of a two-variable expression.

``serialize`` emits a fully parenthesized canonical form that reparses to
a structurally identical tree for every tree ``parse`` accepts.

Evaluation follows IEEE-754 double semantics and is total except for three
conditions, each reported as :class:`EvalError` naming the offending AST
node: division by zero, zero raised to a negative power, and any NaN
produced in the tree.  Both scalars and numpy arrays are accepted.

Errors are detected once per evaluation.  The tree is evaluated without
checking each node's value; a NaN is looked for only at the root and at
the operands of each "^", the one operation that can absorb a NaN
(nan^0 = 1^nan = 1), and zero divisors and zero to a negative power where
they occur.  If any shows up, the tree is walked again with every node
checked in evaluation order, so an error names the same node, kind and
point as a node-by-node walk.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ParseError",
    "EvalError",
    "MAX_DEPTH",
    "parse",
    "serialize",
    "mirror_symmetric",
    "eval_expr",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("constants must be finite")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str  # "min" or "max"
    left: "Expression"
    right: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Call]


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class ParseError(Exception):
    """Syntax error with the offset, what was expected, and what was found."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {position}: expected {expected}, found {found}")


class EvalError(Exception):
    """Evaluation failure attributed to one AST node.

    ``kind`` is one of ``"division_by_zero"``, ``"zero_to_negative_power"``,
    ``"nan"``.
    """

    def __init__(self, kind: str, node: Expression, point: tuple[float, float]):
        self.kind = kind
        self.node = node
        self.point = point
        label = {
            "division_by_zero": "division by zero",
            "zero_to_negative_power": "zero raised to a negative power",
            "nan": "NaN produced",
        }[kind]
        super().__init__(f"{label} in {serialize(node)} at (x, y) = {point}")


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", a punctuation char, or "end"
    text: str
    position: int

    def describe(self) -> str:
        if self.kind == "end":
            return "end of input"
        if self.kind == "number":
            return f"number {self.text!r}"
        return repr(self.text)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(source, i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(source, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, "a token", repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Pratt parser
# --------------------------------------------------------------------------

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_RIGHT_ASSOC = {"^"}
_UNARY_BP = 25  # between "*" and "^": -x^2 parses as -(x^2), -x*y as (-x)*y


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.position, expected, tok.describe())
        return self.advance()

    def parse_expression(self, min_bp: int = 0) -> Expression:
        node = self._nud()
        while True:
            tok = self.peek()
            bp = _LBP.get(tok.kind)
            if bp is None or bp < min_bp:
                return node
            self.advance()
            next_bp = bp if tok.kind in _RIGHT_ASSOC else bp + 1
            node = BinOp(tok.kind, node, self.parse_expression(next_bp))

    def _nud(self) -> Expression:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in ("min", "max"):
                self.expect("(", "'('")
                left = self.parse_expression(0)
                self.expect(",", "','")
                right = self.parse_expression(0)
                self.expect(")", "')'")
                return Call(tok.text, left, right)
            raise ParseError(tok.position, "'x', 'y', 'min' or 'max'", tok.describe())
        if tok.kind == "-":
            return Neg(self.parse_expression(_UNARY_BP))
        if tok.kind == "(":
            inner = self.parse_expression(0)
            self.expect(")", "')'")
            return inner
        raise ParseError(tok.position, "an expression", tok.describe())


#: tallest tree ``parse`` accepts, in nodes from the root to the deepest
#: leaf.  Evaluation and serialization recurse once per level; the parser,
#: reading the serialized form back, spends at most four frames per level
#: (for "(-...)") and two for the other node kinds.  200 keeps that reparse
#: well under the interpreter's default recursion limit of 1000.
MAX_DEPTH = 200


def _height(node: Expression) -> int:
    """Nodes on the longest root-to-leaf path, counted level by level."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [getattr(n, f) for n in level
                 for f in ("operand", "left", "right") if hasattr(n, f)]
    return height


def parse(source: str) -> Expression:
    """Parse ``source`` into an AST; raises :class:`ParseError` on any violation,
    trees taller than MAX_DEPTH and nesting deeper than the interpreter's
    recursion limit included."""
    parser = _Parser(_tokenize(source))
    try:
        node = parser.parse_expression(0)
    except RecursionError:
        raise ParseError(parser.peek().position, "less deeply nested input",
                         "nesting beyond the recursion limit") from None
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.position, "end of input", tail.describe())
    height = _height(node)
    if height > MAX_DEPTH:
        raise ParseError(0, f"an expression at most {MAX_DEPTH} levels deep",
                         f"{height} levels")
    return node


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def serialize(node: Expression) -> str:
    """Fully parenthesized canonical form; reparses to an identical tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{serialize(node.operand)})"
    if isinstance(node, BinOp):
        return f"({serialize(node.left)} {node.op} {serialize(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({serialize(node.left)}, {serialize(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


def mirror_symmetric(node: Expression) -> bool:
    """Whether ``node`` is the same float at (x, y) and (y, x) because its
    mirror (x and y swapped) is itself up to the operand order of "+" and
    "*", bitwise commutative in IEEE-754; min and max keep their order, as
    np.minimum and np.maximum differ on -0.0 and 0.0."""
    def key(n, rename):
        if isinstance(n, (Const, Var)):
            return rename.get(text := serialize(n), text)
        if isinstance(n, Neg):
            return f"(-{key(n.operand, rename)})"
        op = n.func if isinstance(n, Call) else n.op
        a, b = key(n.left, rename), key(n.right, rename)
        a, b = sorted((a, b)) if op in ("+", "*") else (a, b)
        return f"({a} {op} {b})"
    return key(node, {}) == key(node, {"x": "y", "y": "x"})


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def _first_bad_point(mask, x, y) -> tuple[float, float]:
    """Coordinates of the first True entry of ``mask`` (row-major), with
    ``mask``, ``x`` and ``y`` broadcast together first."""
    xb, yb, mb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                     np.asarray(mask))
    idx = np.argmax(np.ravel(mb))
    return float(np.ravel(xb)[idx]), float(np.ravel(yb)[idx])


class _Recheck(Exception):
    """Raised by the unchecked walk when the checked walk might raise."""


def _has_nan(value) -> bool:
    return bool(np.isnan(value).any())


def _nan_below(node: Expression, value) -> bool:
    """Whether ``value`` of ``node`` holds a NaN made by an operation, which
    the checked walk reports; x and y pass their NaNs through unreported."""
    return not isinstance(node, (Const, Var)) and _has_nan(value)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval(node: Expression, x, y, checked: bool):
    """The value of ``node`` at (x, y).

    The checked walk raises :class:`EvalError` at the first node, in
    evaluation order, that divides by zero, raises zero to a negative power
    or produces a NaN.  The unchecked walk looks only for what a NaN at the
    root would not show, and raises :class:`_Recheck` at a zero divisor,
    at zero to a negative power and at a NaN operand of "^", the one
    operation that can absorb a NaN (nan^0 = 1^nan = 1).  Both compute
    the same values with the same operations.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_eval(node.operand, x, y, checked)
    if not isinstance(node, (Call, BinOp)):
        raise TypeError(f"not an expression node: {node!r}")
    a = _eval(node.left, x, y, checked)
    b = _eval(node.right, x, y, checked)
    if isinstance(node, Call):
        value = (np.minimum if node.func == "min" else np.maximum)(a, b)
    elif node.op in _ARITH:
        value = _ARITH[node.op](a, b)
    elif node.op == "/":
        zero = np.asarray(b) == 0
        if checked:
            zero = np.broadcast_to(zero, np.broadcast(a, b).shape)
            if np.any(zero):
                raise EvalError("division_by_zero", node, _first_bad_point(zero, x, y))
        elif np.any(zero):
            raise _Recheck
        value = a / b
    else:  # "^"
        negative = np.asarray(b) < 0
        if checked:
            bad = np.broadcast_to((np.asarray(a) == 0) & negative,
                                  np.broadcast(a, b).shape)
            if np.any(bad):
                raise EvalError("zero_to_negative_power", node,
                                _first_bad_point(bad, x, y))
        elif (np.any(negative) and np.any((np.asarray(a) == 0) & negative)
              or _nan_below(node.left, a) or _nan_below(node.right, b)):
            raise _Recheck
        value = np.power(a, b)
    if checked and _has_nan(value):
        raise EvalError("nan", node, _first_bad_point(np.isnan(value), x, y))
    return value


def eval_expr(node: Expression, x, y):
    """Evaluate ``node`` at (x, y); scalars in give a float out, arrays in
    give an array out, never ``x`` or ``y`` itself.  Deterministic:
    identical inputs produce identical bits."""
    with np.errstate(all="ignore"):
        try:
            value = _eval(node, x, y, False)
            if _has_nan(value):
                raise _Recheck
        except _Recheck:
            # evaluate again node by node: the error, if any, names the
            # node and point that the node-by-node walk meets first
            value = _eval(node, x, y, True)
    if np.ndim(value) == 0 and np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(value)
    shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
    if (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.shape == shape and value is not x and value is not y):
        return value
    return np.broadcast_to(np.asarray(value, float), shape).copy()
