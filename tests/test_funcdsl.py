import math

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

    def test_uncompiled_trees_run_the_interpreter(self):
        xs = np.linspace(0.05, 2.0, 40)
        for text, outside in (("log(x)", 0.0), ("x ^ 0.5", -1.0), ("1 / x", 0.0)):
            e = parse(text)
            assert funcdsl._emit(e.ast) is None
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
        with pytest.raises(NonSmoothError):
            derive_at(parse("sgn(x)"), 0.0, order=1)

    def test_order_bounds(self):
        with pytest.raises(funcdsl.DslError):
            derive_at(parse("x"), 0.0, order=7)
