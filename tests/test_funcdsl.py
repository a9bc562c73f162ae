import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erwlab import funcdsl
from erwlab.funcdsl import (
    EvalDomainError,
    NonSmoothError,
    ParseError,
    derive_at,
    evaluate,
    parse,
    print_ast,
)


# ---------------------------------------------------------------------------
# Reference semantics: the tree-walking interpreter the compiler must match


def _power(a, b):
    try:
        return a ** b
    except (OverflowError, ZeroDivisionError):  # Python floats raise where IEEE pow is infinite
        return np.power(np.float64(a), b)


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": _power, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_FUNCTIONS = {"abs": np.abs, "sgn": np.sign, "sqrt": np.sqrt, "sin": np.sin, "tanh": np.tanh,
              "exp": np.exp, "log": np.log, "min": np.minimum, "max": np.maximum}


def _walk(node, cols):
    """Value of ``node`` on the columns ``cols``, by direct recursion.

    Partial operations raise EvalDomainError if any point leaves their
    domain. ``piecewise`` evaluates every condition and every branch at every
    point, takes the first branch whose condition holds, and is NaN where
    none does."""
    if isinstance(node, funcdsl.Const):
        return node.value
    if isinstance(node, funcdsl.Var):
        return cols[node.index]
    if isinstance(node, funcdsl.Neg):
        return -_walk(node.operand, cols)
    if isinstance(node, (funcdsl.BinOp, funcdsl.Comparison)):
        a, b = _walk(node.left, cols), _walk(node.right, cols)
        if node.op == "/" and np.any(b == 0):
            raise EvalDomainError("division by zero")
        if node.op == "^" and isinstance(node.right, funcdsl.Const) and float(b).is_integer():
            return _power(a, int(b))
        if node.op == "^" and np.any(np.asarray(a) < 0):
            raise EvalDomainError("negative base with non-integer exponent")
        return _OPERATORS[node.op](a, b)
    if isinstance(node, funcdsl.Call):
        args = [_walk(arg, cols) for arg in node.args]
        if node.name == "sqrt" and np.any(np.asarray(args[0]) < 0):
            raise EvalDomainError("sqrt of negative value")
        if node.name == "log" and np.any(np.asarray(args[0]) <= 0):
            raise EvalDomainError("log of non-positive value")
        return _FUNCTIONS[node.name](*args)
    if isinstance(node, funcdsl.Piecewise):
        shape = np.broadcast(*cols).shape
        out = np.full(shape, np.nan)
        open_ = np.ones(shape, dtype=bool)
        for cond, branch in node.branches:
            take = np.broadcast_to(_walk(cond, cols), shape) & open_
            out[take] = np.broadcast_to(_walk(branch, cols), shape)[take]
            open_ &= ~take
        return out
    raise TypeError(node)


def reference(expr, cols):
    """``expr`` on ``cols`` by the documented rules: a tree that contains
    ``piecewise`` raises wherever its value is NaN."""
    out = _walk(expr.ast, cols)
    if "piecewise" in print_ast(expr.ast) and np.any(np.isnan(out)):
        raise EvalDomainError("piecewise evaluated outside its covered region")
    return out


class TestParse:
    def test_identity(self):
        e = parse("x")
        assert e(0.3) == 0.3

    def test_precedence(self):
        assert parse("2 + 3 * 4")(0.0) == 14.0
        assert parse("2 * 3 + 4")(0.0) == 10.0
        assert parse("2 ^ 3 * 2")(0.0) == 16.0
        assert parse("-2 ^ 2")(0.0) == -4.0  # unary minus binds looser than ^
        assert parse("(2 + 3) * 4")(0.0) == 20.0

    def test_power_right_associative(self):
        assert parse("2 ^ 3 ^ 2")(0.0) == 512.0

    def test_left_associative_subtraction(self):
        assert parse("8 - 3 - 2")(0.0) == 3.0
        assert parse("8 / 2 / 2")(0.0) == 2.0

    def test_steep_cubic_example(self):
        e = parse("0.5 + 3*(x-0.5) + (x-0.5)^2 + sgn(x-0.5)*(x-0.5)^3")
        assert e(0.5) == 0.5
        assert e(0.7) == pytest.approx(0.5 + 0.6 + 0.04 + 0.008, abs=1e-15)
        # sgn(u) * u^3 = |u|^3 keeps its sign below the midpoint
        assert e(0.3) == pytest.approx(0.5 - 0.6 + 0.04 + 0.008, abs=1e-15)

    def test_piecewise_quadratic_example(self):
        e = parse("piecewise(x<0.5 : x^2+0.25 ; x>=0.5 : 0.75-(1-x)^2)")
        assert e(0.5) == 0.5
        assert e(0.25) == pytest.approx(0.3125)
        assert e(0.75) == pytest.approx(0.6875)

    def test_error_offsets(self):
        with pytest.raises(ParseError) as err:
            parse("x + @")
        assert err.value.offset == 4
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("bogus(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("x3", arity=2)
        with pytest.raises(ParseError):
            parse("x", arity=2)
        e = parse("x1 + x2", arity=2)
        assert e([1.0, 2.0]) == 3.0
        with pytest.raises(funcdsl.DslError, match=r"got shape \(\)"):
            e(0.5)  # a bare scalar is no point of arity 2

    @pytest.mark.parametrize("text", [0.5, None, b"x", ["x"]])
    def test_text_that_is_not_a_string(self, text):
        with pytest.raises(ParseError, match="must be a string"):
            parse(text)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x + 1) * 2")


class TestEval:
    def test_vectorized(self):
        e = parse("x^2 + 1")
        out = e(np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(out, [1.0, 2.0, 5.0])

    def test_sgn_at_zero(self):
        assert parse("sgn(x)")(0.0) == 0.0

    def test_tanh_cubed_odd(self):
        assert parse("tanh(x)^3")(0.0) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            parse("1 / x")(0.0)

    def test_log_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            parse("log(x)")(-1.0)
        with pytest.raises(EvalDomainError):
            parse("sqrt(x)")(-1.0)

    def test_piecewise_uncovered(self):
        e = parse("piecewise(x < 0.0 : x)")
        with pytest.raises(EvalDomainError):
            e(0.5)
        with pytest.raises(EvalDomainError):
            e.fast([np.array([-1.0, 0.5])])

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    @pytest.mark.parametrize("bad", [1.5, np.inf], ids=["uncovered", "nan-branch"])
    def test_piecewise_raises_exactly_where_nan(self, shape, bad):
        # 1.5 falls between the branches; at inf the second branch's 0 * x is NaN
        e = parse("piecewise(x <= 1 : x ; x >= 2 : 0 * x)")
        xs = np.full(shape, 0.25)
        xs.flat[1 % xs.size] = 3.0
        out = e.fast([xs])
        assert out.shape == shape and not np.isnan(out).any()
        xs.flat[-1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(EvalDomainError, match="outside its covered region"):
            e.fast([xs])

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_piecewise_empty_batch(self, shape):
        out = parse("piecewise(x <= 1 : x ; x >= 2 : 0 * x)").fast([np.empty(shape)])
        assert isinstance(out, np.ndarray) and out.shape == shape

    def test_piecewise_first_match_wins(self):
        e = parse("piecewise(x <= 0.5 : 1.0 ; x >= 0.5 : 2.0)")
        assert e(0.5) == 1.0

    def test_purity(self):
        e = parse("x^2 + sin(x)")
        assert e(0.7) == e(0.7)

    def test_min_max(self):
        assert parse("min(x, 0.25)")(0.5) == 0.25
        assert parse("max(x, 0.25)")(0.5) == 0.5

    def test_compiled_matches_interpreter(self):
        texts = [
            "0.25 + 0.5 * x",
            "piecewise(x<0.5 : x^2+0.25 ; x>=0.5 : 0.75-(1-x)^2)",
            "piecewise(x <= 0.5 : 1.0 ; x >= 0.5 : 2.0 ; x > 0.25 : x)",
            "sgn(x - 0.5) * abs(x) + tanh(x)^3",
            "(1 - x)^3 / 2",
        ]
        xs = np.linspace(0.0, 1.0, 57)
        for text in texts:
            e = parse(text)
            assert funcdsl._emit(e.ast) is not None  # compiled, not interpreted
            assert np.array_equal(e.fast([xs]), e(xs))
            assert np.array_equal(e.fast([xs]), reference(e, [xs]))

    def test_partial_operations_compile_to_checked_helpers(self):
        xs = np.linspace(0.05, 2.0, 40)
        for text, outside, helper in (("log(x)", 0.0, "_log("), ("x ^ 0.5", -1.0, "_pow("), ("1 / x", 0.0, "_div(")):
            e = parse(text)
            assert helper in funcdsl._emit(e.ast)
            assert np.array_equal(e.fast([xs]), e(xs))
            with pytest.raises(EvalDomainError):
                e.fast([np.array([0.5, outside])])


# strategy for random expression trees (kept to total-function nodes so any
# printed form evaluates everywhere)
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False).map(lambda v: funcdsl.Const(round(v, 3))),
    st.just(funcdsl.Var(0, "x")),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*"])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: funcdsl.BinOp(t[0], t[1], t[2])),
        children.map(funcdsl.Neg),
        children.map(lambda c: funcdsl.Call("tanh", (c,))),
        children.map(lambda c: funcdsl.Call("abs", (c,))),
        st.tuples(children, st.integers(min_value=1, max_value=3)).map(
            lambda t: funcdsl.BinOp("^", t[0], funcdsl.Const(float(t[1])))
        ),
    )


_trees = st.recursive(_leaf, _combine, max_leaves=12)


def expression_trees(variables, max_leaves=10):
    """Random trees over ``variables`` with every node kind, partial operations included."""
    leaf = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]).map(funcdsl.Const),
        st.floats(min_value=0.0, max_value=4.0).map(lambda v: funcdsl.Const(round(v, 3))),
        st.sampled_from(variables),
    )

    def combine(children):
        branch = st.tuples(st.sampled_from(["<", "<=", ">", ">="]), children, children, children).map(
            lambda t: (funcdsl.Comparison(t[0], t[1], t[2]), t[3])
        )
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
                lambda t: funcdsl.BinOp(t[0], t[1], t[2])
            ),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(
                lambda t: funcdsl.BinOp("^", t[0], funcdsl.Const(float(t[1])))
            ),
            children.map(funcdsl.Neg),
            st.sampled_from(sorted(funcdsl._FUNCTIONS)).flatmap(
                lambda name: st.tuples(*[children] * funcdsl._FUNCTIONS[name][1]).map(lambda a: funcdsl.Call(name, a))
            ),
            st.lists(branch, min_size=1, max_size=3).map(lambda bs: funcdsl.Piecewise(tuple(bs))),
        )

    return st.recursive(leaf, combine, max_leaves=max_leaves)


_points = st.lists(
    st.tuples(*[st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=-3.0, max_value=3.0)] * 2),
    min_size=1, max_size=6,
)


class TestSingleEvaluator:
    @given(expression_trees([funcdsl.Var(0, "x1"), funcdsl.Var(1, "x2")]), _points)
    @settings(max_examples=300)
    def test_compiled_matches_reference(self, tree, points):
        expr = funcdsl.FuncExpr(tree, 2)
        cols = [np.array(c) for c in zip(*points)]
        with np.errstate(all="ignore"):
            try:
                want = reference(expr, cols)
            except EvalDomainError:
                with pytest.raises(EvalDomainError):
                    expr.fast(cols)
                return
            got = expr.fast(cols)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    def test_every_parsed_tree_compiles(self):
        # the deepest tree of each kind that parse accepts, and after
        # substitutions and affine maps that deepen it further
        depth = funcdsl.MAX_DEPTH
        texts = [
            "0.4" + " + 0.0001*x" * (depth - 2),
            "sin(" * (depth - 1) + "x" + ")" * (depth - 1),
            "-" * (depth - 1) + "x",
            "x^" * (depth - 1) + "1",
            "piecewise(" + " ; ".join(f"x < {i}.5 : x" for i in range(depth - 3)) + " ; x >= 0 : 1)",
            "piecewise(" * (depth // 2 - 1) + "x" + " < 2 : x)" * (depth // 2 - 1),
        ]
        x = funcdsl.Var(0, "x")
        half = funcdsl.BinOp("/", funcdsl.BinOp("+", x, funcdsl.Const(1.0)), funcdsl.Const(2.0))
        twice = funcdsl.BinOp("-", funcdsl.BinOp("*", funcdsl.Const(2.0), x), funcdsl.Const(1.0))
        xs = np.linspace(0.1, 0.9, 5)
        for text in texts:
            f = parse(text)
            g = funcdsl.affine(funcdsl.substitute(f, half), 2.0, -1.0)  # 2 f((x+1)/2) - 1
            back = funcdsl.affine(funcdsl.substitute(g, twice), 0.5, 0.5)  # (g(2x-1) + 1) / 2
            h = funcdsl.affine(back, 2.0 * 0.6 - 1.0, 1.0 - 0.6)
            with np.errstate(all="ignore"):
                for e in (f, h):
                    assert np.array_equal(e.fast([xs]), reference(e, [xs]), equal_nan=True)

    @pytest.mark.parametrize("text,offset", [
        ("0.4" + " + 0.0001*x" * 300, 1082),
        ("(" * 1200 + "0.5" + ")" * 1200, 100),
        ("-" * 1200 + "x", 100),
        ("piecewise(" + " ; ".join(f"x < {i} : x" for i in range(120)) + ")", 0),
    ], ids=["sum-chain", "parentheses", "unary-minus", "piecewise-branches"])
    def test_nesting_past_the_bound_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError, match="nested deeper than") as err:
            parse(text)
        assert err.value.offset == offset

    def test_piecewise_branches_are_eager(self):
        # every branch runs at every point, so a domain error in a branch
        # that no point selects still raises
        e = parse("piecewise(x >= 0 : x ; x < 0 : log(-x))")
        assert e(-0.5) == math.log(0.5)
        with pytest.raises(EvalDomainError, match="log"):
            e(0.5)

    def test_infinite_literal_compiles(self):
        e = parse("min(1e999, x) + 0 * x")
        assert np.array_equal(e.fast([np.array([0.25, 0.5])]), [0.25, 0.5])

    @pytest.mark.parametrize("text,want", [("0 ^ -1.5", math.inf), ("1e200 ^ 2", math.inf),
                                           ("(-1e200) ^ 3", -math.inf), ("(-2) ^ 3", -8.0)])
    def test_constant_powers_follow_ieee(self, text, want):
        # Python floats raise on these where IEEE pow (and an array base) gives infinity
        with np.errstate(all="ignore"):
            assert parse(text)(0.5) == want


class TestPrinter:
    @given(_trees)
    def test_print_parse_roundtrip(self, tree):
        expr = funcdsl.FuncExpr(tree, 1)
        text = print_ast(tree)
        reparsed = parse(text, 1)
        # printed form of a parsed tree is a fixed point
        assert print_ast(reparsed.ast) == text
        for x in (0.0, 0.37, 1.0):
            assert evaluate(reparsed, x) == pytest.approx(evaluate(expr, x), rel=1e-12, abs=1e-12)

    def test_parse_print_parse_identical(self):
        texts = [
            "x",
            "0.5 + 3*(x-0.5) + (x-0.5)^2 + sgn(x-0.5)*(x-0.5)^3",
            "piecewise(x<0.5 : x^2+0.25 ; x>=0.5 : 0.75-(1-x)^2)",
            "min(max(x, 0.1), 0.9) - tanh(2*x)",
        ]
        for text in texts:
            once = parse(text)
            twice = parse(once.to_string())
            assert once.ast == twice.ast


def _substitute_reference(node, replacement):
    """Independent oracle for ``substitute``: one rebuild per node type."""
    def walk(n):
        if isinstance(n, funcdsl.Var):
            return replacement
        if isinstance(n, funcdsl.Const):
            return n
        if isinstance(n, funcdsl.Neg):
            return funcdsl.Neg(walk(n.operand))
        if isinstance(n, (funcdsl.BinOp, funcdsl.Comparison)):
            return type(n)(n.op, walk(n.left), walk(n.right))
        if isinstance(n, funcdsl.Call):
            return funcdsl.Call(n.name, tuple(walk(a) for a in n.args))
        return funcdsl.Piecewise(tuple((walk(c), walk(b)) for c, b in n.branches))

    return walk(node)


class TestSubstitute:
    @given(expression_trees([funcdsl.Var(0, "x")]))
    @settings(max_examples=200)
    def test_matches_a_rebuild_per_node_type(self, tree):
        replacement = funcdsl.BinOp("*", funcdsl.Const(2.0), funcdsl.Var(2, "x3"))
        got = funcdsl.substitute(funcdsl.FuncExpr(tree, 1), replacement)
        assert got.arity == 1
        assert got.ast == _substitute_reference(tree, replacement)

    def test_arity_above_one_refused(self):
        with pytest.raises(funcdsl.DslError, match="arity-1 expressions only"):
            funcdsl.substitute(parse("x1 + x2", arity=2), funcdsl.Const(0.0))


class TestDerivatives:
    def test_tanh_prime_at_zero(self):
        value, err = derive_at(parse("tanh(x)"), 0.0, order=1)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_polynomial_prime(self):
        value, _ = derive_at(parse("x^2"), 0.25, order=1)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_cubic_memory_second_derivative(self):
        # the steep-cubic step-up map: second derivative at the midpoint is
        # 2*(2p-1) for any memory strength p
        p = 0.62
        f = parse("0.5 + 3*(x-0.5) + (x-0.5)^2 + sgn(x-0.5)*(x-0.5)^3")
        h = funcdsl.affine(f, 2 * p - 1, 1 - p)
        value, _ = derive_at(h, 0.5, order=2)
        assert value == pytest.approx(2 * (2 * p - 1), abs=1e-6)

    @given(
        st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=6),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=100)
    def test_poly_first_derivative_matches_symbolic(self, coeffs, x0):
        # independent oracle: differentiate the coefficient list directly
        text = " + ".join(f"{c!r} * x^{i}" for i, c in enumerate(coeffs, start=1))
        expr = parse(text)
        exact = sum(i * c * x0 ** (i - 1) for i, c in enumerate(coeffs, start=1))
        value, _ = derive_at(expr, x0, order=1)
        assert value == pytest.approx(exact, abs=1e-9 * max(1.0, abs(exact)))

    def test_nonsmooth_flagged(self):
        with pytest.raises(NonSmoothError, match=r"do not converge at array\(0\.\) \(order 1\)"):
            derive_at(parse("sgn(x)"), 0.0, order=1)

    def test_order_bounds(self):
        with pytest.raises(funcdsl.DslError):
            derive_at(parse("x"), 0.0, order=7)
        with pytest.raises(funcdsl.DslError, match="arity-1 expressions, got arity 2"):
            derive_at(parse("x1 * x2", arity=2), [0.5, 0.5], order=1)
