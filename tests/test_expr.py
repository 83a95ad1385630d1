import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin import expr
from rotorkin.curves import PlaneCurve, _compiled_form
from rotorkin.errors import (BadParameters, EvalDomain, ExprSyntaxError,
                             UnknownIdentifier)
from rotorkin.vec import Vec2

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


@pytest.mark.parametrize("text, message", [
    ("t^1e400", "not finite"),
    ("t^-1e400", "not finite"),
    ("t^(1e400/2)", "not finite"),
    ("t^(2/1e400)", "not finite"),
    ("t^(1/1e-400)", "divides by zero"),
    ("t^(1/0)", "divides by zero"),
])
def test_exponent_literals_out_of_range_are_syntax_errors(text, message):
    # these raised ValueError (Fraction('inf')) and ZeroDivisionError
    with pytest.raises(ExprSyntaxError, match=message):
        expr.parse(text)


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


# -- printer: an AST back to text, for the round-trip corpus -------------------

def to_text(node: expr.Node) -> str:
    """Render an AST back to parseable text (reparses structurally equal)."""
    return _render(node, 0)


# precedence levels: 0 add, 1 mul, 2 unary, 3 pow/atom
def _render(node: expr.Node, parent_level: int) -> str:
    if isinstance(node, expr.Const):
        text = repr(node.value)
        return f"({text})" if node.value < 0 and parent_level > 0 else text
    if isinstance(node, expr.Var):
        return "t"
    if isinstance(node, expr.Neg):
        inner = _render(node.child, 2)
        text = f"-{inner}"
        return f"({text})" if parent_level >= 1 else text
    if isinstance(node, expr.BinOp):
        level = 0 if node.op in "+-" else 1
        left = _render(node.left, level)
        # bump the right side so subtraction/division stay left-associative
        right = _render(node.right, level + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_level > level else text
    if isinstance(node, expr.Pow):
        base = _render(node.base, 4)
        if node.exponent.denominator == 1:
            exp = str(node.exponent.numerator)
            if node.exponent < 0:
                exp = f"({exp})"
        else:
            exp = f"({node.exponent.numerator}/{node.exponent.denominator})"
        text = f"{base}^{exp}"
        return f"({text})" if parent_level >= 4 else text
    if isinstance(node, expr.Func):
        return f"{node.name}({_render(node.child, 0)})"
    raise TypeError(f"not an AST node: {node!r}")


def test_roundtrip_corpus():
    corpus = list(_CORPUS_BASE)
    while len(corpus) < 100:
        corpus.append(to_text(_random_ast(3)))
    assert len(corpus) >= 100
    for text in corpus:
        ast = expr.parse(text)
        again = expr.parse(to_text(ast))
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


def test_post_order_yields_each_distinct_node_once_children_first():
    t, two = expr.Var(), expr.Const(2.0)
    shared = expr.BinOp("*", t, two)
    sine = expr.Func("sin", shared)
    neg = expr.Neg(shared)
    root = expr.BinOp("+", sine, neg)
    # identity, not equality: frozen dataclasses compare by value
    assert [id(n) for n in expr._post_order(root)] == [
        id(n) for n in (t, two, shared, sine, neg, root)]
    square = expr.BinOp("*", shared, shared)
    assert [id(n) for n in expr._post_order(square)] == [
        id(n) for n in (t, two, shared, square)]


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


# -- compiled trees -------------------------------------------------------------

def _outcome(fn, *args):
    """repr of fn's value, or the class and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


_LEAVES = st.one_of(
    st.just(expr.Var()),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 710.0, 1e200, math.inf])
    .map(expr.Const),
    st.floats(-5.0, 5.0).map(expr.Const))
# p/q with q up to 3: integer powers, roots and reciprocals
_EXPONENTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _uses_t(node):
    stack = [node]
    while stack:
        top = stack.pop()
        if isinstance(top, expr.Var):
            return True
        stack.extend(expr._children(top))
    return False


@st.composite
def _dags(draw, leaves=_LEAVES, steps=12, constant_subtrees=True,
          functions=tuple(sorted(expr._FUNCTIONS)), powers=True):
    """A tree grown from a pool of subtrees: each step puts one node on
    the pool, its operands drawn from the last few, so depth grows and a
    subtree can sit under several parents, shared by identity.  Without
    constant_subtrees, a new node free of t is replaced by a leaf, as
    exp(exp(1.8*1.8)) = 1.2e11 would swallow t in exp(exp(1.8*1.8)) + t.
    Functions are drawn from `functions`; without `powers`, no Pow."""
    pool = [draw(leaves)]

    def operand():
        return pool[-1 - draw(st.integers(0, min(3, len(pool) - 1)))]

    kinds = ["func", "binop", "neg", "leaf"] + ["pow"] * powers
    for _ in range(draw(st.integers(steps // 2, steps))):
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            node = draw(leaves)
        elif kind == "neg":
            node = expr.Neg(operand())
        elif kind == "func":
            node = expr.Func(draw(st.sampled_from(functions)), operand())
        elif kind == "pow":
            node = expr.Pow(operand(), draw(_EXPONENTS))
        else:
            node = expr.BinOp(draw(st.sampled_from("+-*/")), operand(),
                              operand())
        if not (constant_subtrees or _uses_t(node)):
            node = draw(leaves)
        pool.append(node)
    return pool[-1]


# derivatives share the subtrees of the tree they come from
TREES = st.one_of(_dags(), _dags().map(expr.differentiate),
                  _dags(steps=4).map(lambda n: expr.differentiate(
                      expr.differentiate(n))))
# tenths from -5 to 5: no 1e200 or 1e-200^-1
MODERATE_LEAVES = st.one_of(st.just(expr.Var()), st.integers(-50, 50).map(
    lambda k: expr.Const(k / 10)))
ARGUMENTS = st.one_of(st.floats(-4.0, 4.0),
                      st.sampled_from([0.0, -0.0, 1.0, 400.0, 1e300]))


@settings(max_examples=400, deadline=None)
@given(node=TREES, t=ARGUMENTS)
def test_compiled_tree_is_the_walker(node, t):
    # the same bits, or the same error class with the same message
    assert _outcome(expr.compile_tree(node), t) == _outcome(expr.evaluate,
                                                            node, t)


# trees of the nodes that run on arrays: arithmetic, sin, cos and sqrt
_ARRAY_DAGS = _dags(functions=("cos", "sin", "sqrt"), powers=False)
ARRAY_TREES = st.one_of(_ARRAY_DAGS, _ARRAY_DAGS.map(expr.differentiate))


@settings(max_examples=300, deadline=None)
@given(node=st.one_of(TREES, ARRAY_TREES),
       ts=st.lists(ARGUMENTS, min_size=1, max_size=6))
def test_array_function_is_the_scalar_function(node, ts):
    fn = expr.compile_tree(node)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise",
                         under="ignore"):
            values = np.broadcast_to(fn.array(np.array(ts)), len(ts)).tolist()
    except FloatingPointError:
        values = [math.nan]  # sample redoes these through the scalar calls
    if all(map(math.isfinite, values)):
        for t, value in zip(ts, values):
            scalar = fn(t)  # raises if numpy hid a failure at t
            assert repr(value) == repr(scalar)
    # sample: the walker's error wherever the scalar calls raise one
    curve = PlaneCurve(position=lambda t: Vec2(fn(t), t),
                       domain=(-1e301, 1e301),  # holds every ARGUMENT
                       forms=(_compiled_form(
                           (fn, expr.compile_tree(expr.Var()))),))
    want = _outcome(lambda: [list(curve.point(t).as_tuple()) for t in ts])
    got = _outcome(lambda: curve.sample(ts, 0)[0].tolist())
    assert got == want


@pytest.mark.parametrize("text", ["2", "cos(1) - 3"])
def test_array_function_of_a_constant_broadcasts(text):
    fn, ts = expr.compile_tree(expr.parse(text)), np.linspace(0.0, 1.0, 5)
    assert np.broadcast_to(fn.array(ts), ts.shape).tolist() == (
        [fn(t) for t in ts.tolist()])


def test_array_function_flags_a_division_of_constants():
    # numpy scalars, not floats: 1/0 raises FloatingPointError, not
    # ZeroDivisionError, which sample would not redo
    fn = expr.compile_tree(expr.parse("1/0 + t"))
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        fn.array(np.array([0.5]))


@pytest.mark.parametrize("text", [
    # numpy flags no failure on an infinity it did not make: at t = 0.5,
    # inf/0 is a silent inf and 1/inf a finite 0, where the walker raises
    "1e400*0 + t", "t + 1/(1e400/(t - 0.5))",
    # numpy's tan, exp, log and power may round differently from math's
    "tan(t)", "exp(t)", "ln(t)", "t^2", "sqrt(t)^2",
    # np.power(-1.0, 3.3e16) is a silent 1, where the walker raises
    "t^(1e17/3)"])
def test_trees_numpy_cannot_follow_have_no_array_function(text):
    fn = expr.compile_tree(expr.parse(text))
    with pytest.raises(FloatingPointError):
        fn.array(np.array([0.25, 0.5]))


def _difference_check(f, d, t):
    """Whether d(t) is f'(t) by central differences; None where they
    cannot tell: f or d undefined or huge next to t, or bent sharply."""
    h = 1e-3 * max(1.0, abs(t))
    try:
        values = [f(t + k * h / 2) for k in (-2, -1, 0, 1, 2)]
        slopes = [d(t + k * h / 2) for k in (-1, 0, 1)]
    except expr.EvalDomain:
        return None
    if not all(math.isfinite(v) and abs(v) < 1e6 for v in values + slopes):
        return None
    if len(set(values)) == 1:
        return None  # flat in floats: t is lost against a large constant
    # rounding costs about eps * |f| / h in a difference quotient
    rounding = 1e3 * 2.0 ** -52 * max(map(abs, values)) / h
    ahead = (values[3] - values[2]) / (h / 2)
    behind = (values[2] - values[1]) / (h / 2)
    bend = abs(ahead - behind)
    if bend > 0.1 * max(abs(ahead), abs(behind)) + rounding:
        return None  # a kink at t, such as sqrt(t*t) at 0, or a sharp bend
    if max(slopes) - min(slopes) > 0.1 * max(map(abs, slopes)):
        # f' changes too fast for the stencil, or its formula cancels at a
        # removable singularity, such as t*t*(t*t - t)^(-2) at 0
        return None
    slope = slopes[1]
    wide = (values[4] - values[0]) / (2 * h)
    narrow = (values[3] - values[1]) / h
    # the narrow difference's truncation error is about a third of the
    # gap between the two; the bend bounds what rounding inside f adds
    return abs(slope - narrow) <= (2 * abs(wide - narrow) + bend + rounding
                                   + 1e-6 * (1.0 + abs(slope)))


@settings(max_examples=400, deadline=None)
@given(node=_dags(MODERATE_LEAVES, constant_subtrees=False),
       ts=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_derivative_matches_a_central_difference(node, ts):
    d, f = expr.compile_tree(expr.differentiate(node)), expr.compile_tree(node)
    for t in ts:
        assert _difference_check(f, d, t) is not False, t


@pytest.mark.parametrize("text, t", [
    ("0.3 + 1.7*cos(t) + 0.2*sin(2*t)", 0.4),  # the benchmark's shapes
    ("0.4 + 0.9*t + 0.3*sin(t)", 2.5),
    ("tan(t)^2/(1 + t) - sqrt(t)*ln(t)", 1.2),
    ("1e308*10*t", 2.0),  # a folded infinity
])
def test_compiled_chain_is_the_walked_chain(text, t):
    chain = expr.derivative_chain(expr.parse(text))
    compiled = expr.compile_chain(text)
    assert len(compiled) == len(chain) == 4
    for node, fn in zip(chain, compiled):
        assert repr(fn(t)) == repr(expr.evaluate(node, t))


@pytest.mark.parametrize("text, t, message", [
    ("exp(t)", 800.0, "exp of 800 overflows"),
    ("t^300", 1000.0, "1000^300 overflows"),
    ("(1e200)^2 + t", 0.0, "1e+200^2 overflows"),  # left unfolded
    ("sin(t*1e308*10)", 1.0, "sin of inf is undefined"),
    ("1/(t - 1) + ln(t - 1)", 1.0, "division by zero at t=1"),
    ("ln(t - 1) + 1/(t - 1)", 1.0, "ln of non-positive value 0"),
    ("sqrt(t - 2)", 1.0, "sqrt of negative value -1"),
])
def test_math_failures_raise_eval_domain(text, t, message):
    # overflow used to escape as OverflowError, sin(inf) as ValueError
    node = expr.parse(text)
    for fn in (lambda s: expr.evaluate(node, s), expr.compile_tree(node)):
        with pytest.raises(EvalDomain) as info:
            fn(t)
        assert str(info.value) == message


def test_shared_subtree_is_one_local():
    s = expr.Func("sin", expr.Var())
    fn = expr.compile_tree(expr.BinOp("*", s, s))
    assert fn.__code__.co_varnames == ("t", "v0", "v1")
    assert fn(0.5) == math.sin(0.5) * math.sin(0.5)


def test_compiling_does_not_recurse_per_level():
    node = expr.Var()
    for _ in range(5000):  # far past the recursion limit of the walker
        node = expr.BinOp("+", node, expr.Const(1.0))
    assert expr.compile_tree(node)(0.5) == 5000.5


@pytest.mark.parametrize("node", [
    expr.Func("__import__", expr.Var()),
    expr.BinOp("**", expr.Var(), expr.Var()),
    expr.Neg("t"),
])
def test_only_node_types_and_function_names_reach_the_source(node):
    with pytest.raises(TypeError, match="not an AST node"):
        expr.compile_tree(node)
