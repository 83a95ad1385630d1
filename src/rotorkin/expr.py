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
`evaluate` walks a tree; `compile_tree` turns it into straight-line Python
that computes the same floats, for trees evaluated at many parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import (BadParameters, EvalDomain, ExprSyntaxError,
                     UnknownIdentifier)

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
              "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
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
                denominator = _exponent_literal(value2, offset2)
                if denominator == 0:
                    raise ExprSyntaxError("exponent divides by zero", offset2)
                frac = frac / denominator
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
        return sign * _exponent_literal(value, offset)

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


def _exponent_literal(value: float, offset: int) -> Fraction:
    """The exact value of an exponent's number literal; one that overflows
    to inf (1e400) is a syntax error."""
    if not math.isfinite(value):
        raise ExprSyntaxError("exponent literal is not finite", offset)
    return Fraction(str(value))


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
    try:
        return math.pow(base, float(exponent))
    except OverflowError:
        raise EvalDomain(f"{base:g}^{exponent} overflows") from None


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
        if node.name == "ln" and x <= 0.0:
            raise EvalDomain(f"ln of non-positive value {x:g}")
        if node.name == "sqrt" and x < 0.0:
            raise EvalDomain(f"sqrt of negative value {x:g}")
        try:
            return _FUNCTIONS[node.name](x)
        except OverflowError:
            raise EvalDomain(f"{node.name} of {x:g} overflows") from None
        except ValueError:  # sin, cos and tan of an infinity
            raise EvalDomain(f"{node.name} of {x:g} is undefined") from None
    raise TypeError(f"not an AST node: {node!r}")


# -- compilation --------------------------------------------------------------

# what the compiled operations raise exactly where `evaluate` raises
# EvalDomain: float division by zero, math.log of x <= 0, math.sqrt of
# x < 0, overflow of math.exp and math.pow, and math's sin, cos and tan
# of an infinity (_pow_eval raises EvalDomain itself); +, -, * and unary
# minus never raise on floats
_FAILURES = (ArithmeticError, ValueError, EvalDomain)
_OPERATORS = ("+", "-", "*", "/")
# the functions whose numpy versions return math's bits, over arrays;
# `except ()` catches nothing, so a failure leaves the array function as
# numpy's FloatingPointError
_ARRAY_NAMES = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
                "_FAILURES": ()}


def _scalar_only(t):
    raise FloatingPointError("a tree numpy cannot evaluate with the "
                             "walker's bits and failures")


def compile_tree(node: Node) -> Callable[[float], float]:
    """`node` as one generated Python function of t that returns what
    `evaluate(node, t)` returns, bit for bit.

    The function is straight-line code: one statement per distinct node,
    in the walker's post-order, with the walker's float operations, so a
    subtree shared by identity is computed once.  It runs without the
    walker's domain checks; the operations raise where those checks
    would (see _FAILURES), and then `evaluate` walks the tree at that t
    to raise its typed error with its message.  The source is built from
    node types, operator symbols and the names of _FUNCTIONS only; the
    constants and exponents reach it as one tuple, so folded infinities
    need no literal.

    The same statements, bound to numpy's sin, cos and sqrt, are the
    function's `array` attribute, over a float64 array `ts` (a float when
    the tree is free of t).  Under np.errstate with divide, over and
    invalid set to "raise", it raises FloatingPointError wherever numpy
    flags a failure.  With finite constants every infinity or NaN is
    flagged where it is made, so no later operation can hide a failure of
    the walker (1/(1/(t - 0.5)) would be a finite 0 at t = 0.5).  A tree
    with a non-finite constant, a power, tan, exp or ln gets an `array`
    that always raises: numpy flags no failure on an infinity it did not
    make, its tan, exp, log and power may round differently from math's,
    and np.power drops _pow_eval's rule for a negative base.
    """
    operands = {}  # id(node) -> the name holding its value
    constants = []
    on_arrays = True  # no power, and every function in _ARRAY_NAMES
    lines = []
    stack = [node]
    while stack:  # iterative, as in _measure, so depth costs no recursion
        top = stack[-1]
        if id(top) in operands:  # pushed by more than one parent
            stack.pop()
            continue
        pending = [c for c in _children(top) if id(c) not in operands]
        if pending:
            stack.extend(reversed(pending))  # the left child runs first
            continue
        stack.pop()
        if isinstance(top, Var):
            operands[id(top)] = "t"
            continue
        if isinstance(top, Const):
            operands[id(top)] = f"k{len(constants)}"
            constants.append(top.value)
            continue
        if isinstance(top, Neg):
            value = f"-{operands[id(top.child)]}"
        elif isinstance(top, BinOp) and top.op in _OPERATORS:
            value = (f"{operands[id(top.left)]} {top.op} "
                     f"{operands[id(top.right)]}")
        elif isinstance(top, Pow):
            value = (f"_pow_eval({operands[id(top.base)]}, "
                     f"k{len(constants)})")
            constants.append(top.exponent)
            on_arrays = False
        elif isinstance(top, Func) and top.name in _FUNCTIONS:
            value = f"{top.name}({operands[id(top.child)]})"
            on_arrays = on_arrays and top.name in _ARRAY_NAMES
        else:
            raise TypeError(f"not an AST node: {top!r}")
        operands[id(top)] = f"v{len(lines)}"
        lines.append(f"            v{len(lines)} = {value}\n")
    unpack = "".join(f"k{i}, " for i in range(len(constants)))
    source = (f"def _bind(_node, _constants):\n"
              f"    ({unpack}) = _constants\n"
              f"    def compiled(t):\n"
              f"        try:\n"
              f"{''.join(lines)}"
              f"            return {operands[id(node)]}\n"
              f"        except _FAILURES:\n"
              f"            return _evaluate(_node, t)\n"
              f"    return compiled\n")
    code = compile(source, "<expr>", "exec")

    def bind(names, values):
        namespace = dict(names)
        exec(code, namespace)
        return namespace["_bind"](node, tuple(values))

    compiled = bind({**_FUNCTIONS, "_pow_eval": _pow_eval,
                     "_FAILURES": _FAILURES, "_evaluate": evaluate},
                    constants)
    if on_arrays and all(map(math.isfinite, constants)):
        # numpy scalars, so that 1/0 between constants flags too
        compiled.array = bind(_ARRAY_NAMES, map(np.float64, constants))
    else:
        compiled.array = _scalar_only
    return compiled


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


def compile_chain(text: str) -> list[Callable[[float], float]]:
    """The compiled functions of the expression `text` and of its first
    three derivatives: parse, derivative_chain, then compile_tree."""
    return [compile_tree(node) for node in derivative_chain(parse(text))]
