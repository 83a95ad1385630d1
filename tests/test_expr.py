import math

import numpy as np
import pytest

from rotorkin import expr
from rotorkin.errors import (BadParameters, EvalDomain, ExprSyntaxError,
                             UnknownIdentifier)

RNG = np.random.default_rng(877)


def fd2(f, t, h=1e-4):
    return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)


def test_unbound_identifier():
    with pytest.raises(UnknownIdentifier):
        expr.parse("a")


def test_parse_and_eval_basic():
    ast = expr.parse("2*cos(t)")
    assert expr.evaluate(ast, 0.0) == 2.0


def test_pythagorean_identity():
    ast = expr.parse("sin(t)^2 + cos(t)^2")
    for t in RNG.uniform(-10, 10, size=1000):
        assert abs(expr.evaluate(ast, float(t)) - 1.0) <= 1e-12


def test_sin_derivative_is_cos():
    d = expr.differentiate(expr.parse("sin(t)"))
    for t in RNG.uniform(-5, 5, size=200):
        assert abs(expr.evaluate(d, float(t)) - math.cos(t)) <= 1e-15


def test_cubic_derivative():
    d = expr.differentiate(expr.parse("t^3"))
    for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert expr.evaluate(d, t) == 3.0 * t * t


def test_second_derivative_vs_fd_oracle():
    ast = expr.parse("t*exp(t)")
    d2 = expr.differentiate(expr.differentiate(ast))
    t = 1.0
    oracle = fd2(lambda s: expr.evaluate(ast, s), t)
    value = expr.evaluate(d2, t)
    assert abs(value - oracle) <= 1e-6 * max(abs(value), abs(oracle))


def test_eval_domain_errors():
    with pytest.raises(EvalDomain):
        expr.evaluate(expr.parse("1/t"), 0.0)
    with pytest.raises(EvalDomain):
        expr.evaluate(expr.parse("sqrt(t)"), -1.0)
    with pytest.raises(EvalDomain):
        expr.evaluate(expr.parse("ln(t)"), 0.0)


def test_sqrt_and_inverse_pair():
    assert expr.evaluate(expr.parse("sqrt(t)"), 4.0) == 2.0
    v = expr.evaluate(expr.parse("exp(ln(t))"), 2.5)
    assert abs(v - 2.5) <= 1e-14


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as info:
        expr.parse("2 +* 3")
    assert info.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        expr.parse("")
    with pytest.raises(ExprSyntaxError):
        expr.parse("sin t")  # function application requires parentheses


def test_precedence():
    assert expr.evaluate(expr.parse("2 + 3 * 4"), 0.0) == 14.0
    assert expr.evaluate(expr.parse("-2^2"), 0.0) == -4.0  # pow binds tighter
    assert expr.evaluate(expr.parse("2 - 3 - 4"), 0.0) == -5.0  # left assoc
    assert expr.evaluate(expr.parse("8 / 4 / 2"), 0.0) == 1.0


_CORPUS_BASE = [
    "t", "1", "-t", "t + 1", "t - 1", "2*t", "t/2", "t^2", "t^(-1)",
    "t^(1/2)", "sin(t)", "cos(t)", "tan(t)", "exp(t)", "ln(t)", "sqrt(t)",
    "sin(t)*cos(t)", "sin(t)^2 + cos(t)^2", "t*exp(-t^2)",
    "(t + 1)/(t - 1)", "1/(1 + t^2)", "sin(cos(t))", "exp(t)/t",
    "t^3 - 2*t^2 + t - 7", "sqrt(1 + t^2)",
]


def _random_ast(depth):
    kind = RNG.integers(0, 6)
    if depth <= 0 or kind == 0:
        leaf = RNG.integers(0, 3)
        if leaf == 0:
            return expr.Var()
        return expr.Const(float(np.round(RNG.uniform(-5, 5), 3)))
    if kind == 1:
        return expr.Neg(_random_ast(depth - 1))
    if kind == 2:
        from fractions import Fraction
        exponent = Fraction(int(RNG.integers(-3, 4)) or 2)
        return expr.Pow(_random_ast(depth - 1), exponent)
    if kind == 3:
        name = ("sin", "cos", "tan", "exp", "ln", "sqrt")[RNG.integers(0, 6)]
        return expr.Func(name, _random_ast(depth - 1))
    op = "+-*/"[RNG.integers(0, 4)]
    return expr.BinOp(op, _random_ast(depth - 1), _random_ast(depth - 1))


def test_roundtrip_corpus():
    corpus = list(_CORPUS_BASE)
    while len(corpus) < 100:
        corpus.append(expr.to_text(_random_ast(3)))
    assert len(corpus) >= 100
    for text in corpus:
        ast = expr.parse(text)
        again = expr.parse(expr.to_text(ast))
        assert again == ast, text


def test_derivative_linearity():
    f = expr.parse("sin(t)*t^2")
    g = expr.parse("exp(-t) + t")
    fg = expr.parse("sin(t)*t^2 + (exp(-t) + t)")
    d_sum = expr.differentiate(fg)
    df = expr.differentiate(f)
    dg = expr.differentiate(g)
    for t in RNG.uniform(0.1, 3.0, size=200):
        lhs = expr.evaluate(d_sum, float(t))
        rhs = expr.evaluate(df, float(t)) + expr.evaluate(dg, float(t))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_ellipse_third_derivative_matches_catalog():
    from rotorkin.curves import curve_from_spec, make_catalog_curve

    via_expr = curve_from_spec({
        "kind": "expr",
        "expr": {"x": "2*cos(t)", "y": "sin(t)"},
        "domain": [0.0, 2.0 * math.pi],
    })
    catalog = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    for t in RNG.uniform(0.0, 2.0 * math.pi, size=100):
        d_expr = via_expr.derivative(float(t), 3)
        d_cat = catalog.derivative(float(t), 3)
        assert (d_expr - d_cat).norm() <= 1e-12 * max(d_cat.norm(), 1.0)


def test_source_size_limit():
    with pytest.raises(ExprSyntaxError):
        expr.parse("t + " * 30000 + "t")


@pytest.mark.parametrize("text", [
    "(" * 2000 + "t" + ")" * 2000,
    "sin(" * 400 + "t" + ")" * 400,
    "-" * 5000 + "t",
    "t^" + "(" * 2000 + "2" + ")" * 2000,
])
def test_nesting_depth_limit(text):
    # each of these used to overflow the interpreter's recursion limit
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        expr.parse(text)


def test_nesting_up_to_the_limit_parses_and_differentiates():
    assert expr.parse("(" * 99 + "t" + ")" * 99) == expr.Var()
    node = expr.differentiate(expr.parse("sin(" * 99 + "t" + ")" * 99))
    assert math.isfinite(expr.evaluate(node, 0.3))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_operator_chains_count_toward_the_depth_limit(op):
    # a 10,000-term sum parsed, then crashed differentiation with
    # RecursionError; a chain of n terms is a tree n levels deep
    with pytest.raises(ExprSyntaxError, match="deeper than 100 levels"):
        expr.parse(op.join(["t"] * 10000))
    with pytest.raises(ExprSyntaxError, match="deeper than 100 levels"):
        expr.parse(op.join(["t"] * 101))
    node = expr.parse(op.join(["t"] * 100))
    assert math.isfinite(expr.evaluate(expr.differentiate(node), 0.7))


def test_measure_walks_shared_subtrees_once_per_reference():
    s = expr.Func("sin", expr.Var())
    assert expr._measure(expr.BinOp("*", s, s)) == (3, 5)
    assert expr._measure(expr.parse("t")) == (1, 1)


@pytest.mark.parametrize("text", [
    "0.3 + 1.7*cos(t) + 0.2*sin(2*t)",  # the benchmark's expression shapes
    "0.4 + 0.9*t + 0.3*sin(t)",
    "*".join(["sin(t)"] * 10),
    "sin(" * 12 + "t" + ")" * 12,
    "+".join(["t"] * 100),
], ids=["bench-plane", "bench-space", "product-10", "sin-12", "sum-100"])
def test_derivative_chain_is_the_repeated_derivative(text):
    node = expr.parse(text)
    chain = expr.derivative_chain(node)
    assert len(chain) == 4 and chain[0] is node
    for lower, higher in zip(chain, chain[1:]):
        assert higher == expr.differentiate(lower)


@pytest.mark.parametrize("text", [
    "*".join(["sin(t)"] * 80),  # second derivative walks 540,916 nodes
    "*".join(["sin(t)"] * 20),  # third walks 156,943
    "*".join(["t"] * 100),
    "1/(" * 40 + "t" + ")" * 40,
    "sin(" * 99 + "t" + ")" * 99,
], ids=["product-80", "product-20", "t-product-100", "reciprocal-40",
        "sin-99"])
def test_derivative_chain_node_cap(text):
    with pytest.raises(BadParameters, match="exceed"):
        expr.derivative_chain(expr.parse(text))
