"""Single-variable expression parser with exact symbolic differentiation.

Grammar (recursive descent, standard precedence):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' rational)?          # exponents are rational literals
    atom    := number | 't' | const | func '(' expr ')' | '(' expr ')'
    func    := sin | cos | tan | exp | ln | sqrt
    const   := pi | e

Differentiation is closed over this node set, so derivatives of any order
exist; the only rewriting applied is constant folding and elision of 0/1
identities, which keeps order-3 derivative trees small enough to evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (BadParameters, EvalDomain, ExprSyntaxError,
                     UnknownIdentifier)

_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_SOURCE = 64 * 1024
# nesting levels (parentheses, function calls, unary minus) the recursive
# descent may open, and levels of the parsed tree, where an operator chain
# such as t+t+...+t is one level per operator; differentiation and
# evaluation recurse once per tree level, and three derivatives of a tree
# this deep stay well inside the default recursion limit
_MAX_DEPTH = 100
# nodes a derivative chain (a tree and its derivatives) may hold, counted
# as `evaluate` walks them; each derivative can multiply the count, as
# the product rule repeats its factors
_MAX_CHAIN_NODES = 20_000


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass  # the single variable t


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: Fraction


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class Func:
    name: str
    child: "Node"


Node = Union[Const, Var, BinOp, Pow, Neg, Func]


# -- tokenizer ---------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {lit!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.parse_term()
                node = _fold_binop(value, node, rhs)
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.parse_unary()
                node = _fold_binop(value, node, rhs)
            else:
                return node

    def nest(self, offset: int) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", offset)

    def parse_unary(self) -> Node:
        kind, value, offset = self.peek()
        self.nest(offset)
        if kind == "op" and value == "-":
            self.next()
            node = _fold_neg(self.parse_unary())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent = self.parse_rational()
            return _fold_pow(base, exponent)
        return base

    def parse_rational(self) -> Fraction:
        """Exponent: [-] number, optionally parenthesized as (p/q)."""
        kind, value, offset = self.peek()
        if kind == "op" and value == "(":
            self.next()
            self.nest(offset)
            frac = self.parse_rational()
            self.depth -= 1
            kind, value, offset = self.peek()
            if kind == "op" and value == "/":
                self.next()
                kind2, value2, offset2 = self.next()
                if kind2 != "num":
                    raise ExprSyntaxError("expected number in exponent", offset2)
                frac = frac / Fraction(str(value2))
            self.expect_op(")")
            return frac
        sign = 1
        if kind == "op" and value == "-":
            self.next()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "num":
            raise ExprSyntaxError("exponent must be a rational literal", offset)
        self.next()
        return sign * Fraction(str(value))

    def parse_atom(self) -> Node:
        kind, value, offset = self.next()
        if kind == "num":
            return Const(float(value))
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if value == "t":
                return Var()
            if value in _FUNCTIONS:
                kind2, value2, offset2 = self.peek()
                if kind2 == "op" and value2 == "(":
                    self.next()
                    arg = self.parse_expr()
                    self.expect_op(")")
                    return Func(value, arg)
                raise ExprSyntaxError(
                    f"function {value!r} requires parentheses", offset2)
            if value in _CONSTANTS:
                return Const(_CONSTANTS[value])
            raise UnknownIdentifier(f"unknown identifier {value!r}")
        raise ExprSyntaxError("expected a value", offset)


def parse(text: str) -> Node:
    """Parse expression text into an AST."""
    if not isinstance(text, str):
        raise ExprSyntaxError(f"expression must be text, got {text!r}", 0)
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if len(text) > _MAX_SOURCE:
        raise ExprSyntaxError("expression too long", _MAX_SOURCE)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", offset)
    if _measure(node)[0] > _MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression tree deeper than {_MAX_DEPTH} levels", 0)
    return node


def _children(node: Node) -> tuple:
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Neg, Func)):
        return (node.child,)
    return ()


def _measure(node: Node) -> tuple[int, int]:
    """(depth, size) of the tree under `node`, the size counted as
    `evaluate` walks it: a shared subtree once per reference.  It is
    memoized over shared subtrees and does not recurse, so it costs one
    visit per distinct node at any depth."""
    known = {}  # id(node) -> (depth, size); the tree keeps the ids alive
    stack = [node]
    while stack:
        top = stack[-1]
        if id(top) in known:  # pushed by more than one parent
            stack.pop()
            continue
        children = _children(top)
        pending = [c for c in children if id(c) not in known]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        known[id(top)] = (
            1 + max((known[id(c)][0] for c in children), default=0),
            1 + sum(known[id(c)][1] for c in children))
    return known[id(node)]


# -- constant folding constructors -------------------------------------------

def _fold_binop(op: str, left: Node, right: Node) -> Node:
    if isinstance(left, Const) and isinstance(right, Const):
        if op == "+":
            return Const(left.value + right.value)
        if op == "-":
            return Const(left.value - right.value)
        if op == "*":
            return Const(left.value * right.value)
        if right.value != 0.0:
            return Const(left.value / right.value)
    if op == "+":
        if isinstance(left, Const) and left.value == 0.0:
            return right
        if isinstance(right, Const) and right.value == 0.0:
            return left
    if op == "-" and isinstance(right, Const) and right.value == 0.0:
        return left
    if op == "*":
        for a, b in ((left, right), (right, left)):
            if isinstance(a, Const):
                if a.value == 0.0:
                    return Const(0.0)
                if a.value == 1.0:
                    return b
    if op == "/" and isinstance(right, Const) and right.value == 1.0:
        return left
    return BinOp(op, left, right)


def _fold_neg(child: Node) -> Node:
    if isinstance(child, Const):
        return Const(-child.value)
    return Neg(child)


def _fold_pow(base: Node, exponent: Fraction) -> Node:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(_pow_eval(base.value, exponent))
        except EvalDomain:
            pass
    return Pow(base, exponent)


# -- evaluation ---------------------------------------------------------------

def _pow_eval(base: float, exponent: Fraction) -> float:
    if base == 0.0 and exponent < 0:
        raise EvalDomain("zero base with negative exponent")
    if base < 0.0 and exponent.denominator != 1:
        raise EvalDomain("negative base with fractional exponent")
    return math.pow(base, float(exponent))


def evaluate(node: Node, t: float) -> float:
    """IEEE-754 evaluation at t; raises EvalDomain instead of returning NaN."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -evaluate(node.child, t)
    if isinstance(node, BinOp):
        a = evaluate(node.left, t)
        b = evaluate(node.right, t)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomain(f"division by zero at t={t:g}")
        return a / b
    if isinstance(node, Pow):
        return _pow_eval(evaluate(node.base, t), node.exponent)
    if isinstance(node, Func):
        x = evaluate(node.child, t)
        if node.name == "sin":
            return math.sin(x)
        if node.name == "cos":
            return math.cos(x)
        if node.name == "tan":
            return math.tan(x)
        if node.name == "exp":
            return math.exp(x)
        if node.name == "ln":
            if x <= 0.0:
                raise EvalDomain(f"ln of non-positive value {x:g}")
            return math.log(x)
        if x < 0.0:
            raise EvalDomain(f"sqrt of negative value {x:g}")
        return math.sqrt(x)
    raise TypeError(f"not an AST node: {node!r}")


# -- differentiation ----------------------------------------------------------

def differentiate(node: Node) -> Node:
    """Exact derivative AST with respect to t."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, Neg):
        return _fold_neg(differentiate(node.child))
    if isinstance(node, BinOp):
        da = differentiate(node.left)
        db = differentiate(node.right)
        if node.op in "+-":
            return _fold_binop(node.op, da, db)
        if node.op == "*":
            return _fold_binop(
                "+",
                _fold_binop("*", da, node.right),
                _fold_binop("*", node.left, db),
            )
        # quotient rule: (a/b)' = (a'b - ab') / b^2
        num = _fold_binop(
            "-",
            _fold_binop("*", da, node.right),
            _fold_binop("*", node.left, db),
        )
        return _fold_binop("/", num, _fold_pow(node.right, Fraction(2)))
    if isinstance(node, Pow):
        # d/dt u^r = r * u^(r-1) * u'
        du = differentiate(node.base)
        return _fold_binop(
            "*",
            _fold_binop(
                "*",
                Const(float(node.exponent)),
                _fold_pow(node.base, node.exponent - 1),
            ),
            du,
        )
    if isinstance(node, Func):
        du = differentiate(node.child)
        u = node.child
        if node.name == "sin":
            outer: Node = Func("cos", u)
        elif node.name == "cos":
            outer = _fold_neg(Func("sin", u))
        elif node.name == "tan":
            # 1 / cos^2
            outer = _fold_binop(
                "/", Const(1.0), _fold_pow(Func("cos", u), Fraction(2)))
        elif node.name == "exp":
            outer = Func("exp", u)
        elif node.name == "ln":
            outer = _fold_binop("/", Const(1.0), u)
        else:  # sqrt
            outer = _fold_binop(
                "/", Const(1.0), _fold_binop("*", Const(2.0), Func("sqrt", u)))
        return _fold_binop("*", outer, du)
    raise TypeError(f"not an AST node: {node!r}")


def derivative_chain(node: Node, order: int = 3) -> list[Node]:
    """node and its derivatives up to `order`.  A chain of more than
    _MAX_CHAIN_NODES nodes, as `evaluate` walks them, raises BadParameters;
    each tree is measured before it is differentiated."""
    chain = [node]
    total = _measure(node)[1]
    while len(chain) <= order and total <= _MAX_CHAIN_NODES:
        chain.append(differentiate(chain[-1]))
        total += _measure(chain[-1])[1]
    if total > _MAX_CHAIN_NODES:
        raise BadParameters(f"an expression and its derivatives exceed "
                            f"{_MAX_CHAIN_NODES} nodes")
    return chain


# -- pretty printer ------------------------------------------------------------

def to_text(node: Node) -> str:
    """Render an AST back to parseable text (reparses structurally equal)."""
    return _render(node, 0)


# precedence levels: 0 add, 1 mul, 2 unary, 3 pow/atom
def _render(node: Node, parent_level: int) -> str:
    if isinstance(node, Const):
        text = repr(node.value)
        return f"({text})" if node.value < 0 and parent_level > 0 else text
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        inner = _render(node.child, 2)
        text = f"-{inner}"
        return f"({text})" if parent_level >= 1 else text
    if isinstance(node, BinOp):
        level = 0 if node.op in "+-" else 1
        left = _render(node.left, level)
        # bump the right side so subtraction/division stay left-associative
        right = _render(node.right, level + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_level > level else text
    if isinstance(node, Pow):
        base = _render(node.base, 4)
        if node.exponent.denominator == 1:
            exp = str(node.exponent.numerator)
            if node.exponent < 0:
                exp = f"({exp})"
        else:
            exp = f"({node.exponent.numerator}/{node.exponent.denominator})"
        text = f"{base}^{exp}"
        return f"({text})" if parent_level >= 4 else text
    if isinstance(node, Func):
        return f"{node.name}({_render(node.child, 0)})"
    raise TypeError(f"not an AST node: {node!r}")
