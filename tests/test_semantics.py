import sys
from fractions import Fraction

import pytest

from ertkit.kernel import INF, State, XReal
from ertkit.parser import parse_program, parse_rt
from ertkit.semantics import (
    DivByZero,
    EmptyUniformRange,
    UnboundVariable,
    eval_dist,
    eval_expr,
    eval_guard,
    eval_rt,
    harmonic_number,
    rw_coefficient,
)


def expr_of(src):
    # reuse the statement parser: the right-hand side of a point mass
    return parse_program("tmp := " + src).dist.value


def test_eval_expr_arithmetic_and_logic():
    s = State({"x": 7, "y": 2, "b": True})
    assert eval_expr(expr_of("x + y * 3"), s) == 13
    assert eval_expr(expr_of("x - 10"), s) == -3  # program integers go negative
    assert eval_expr(expr_of("x > 0 and not (y = 3)"), s) is True
    assert eval_expr(expr_of("b or false"), s) is True
    with pytest.raises(UnboundVariable):
        eval_expr(expr_of("z"), s)


def test_eval_dist_uniform_and_merge():
    s = State({"h": 3})
    d = parse_program("t :~ unif[h .. h + 2]").dist
    assert eval_dist(d, s) == [
        (Fraction(1, 3), 3),
        (Fraction(1, 3), 4),
        (Fraction(1, 3), 5),
    ]
    merged = parse_program("t :~ 1/4*<1> + 1/4*<1> + 1/2*<2>").dist
    assert sorted(eval_dist(merged, s)) == [
        (Fraction(1, 2), 1),
        (Fraction(1, 2), 2),
    ]
    with pytest.raises(EmptyUniformRange):
        eval_dist(parse_program("t :~ unif[5 .. 4]").dist, s)


def test_eval_guard_probability():
    s = State({"x": 1})
    g = parse_program("if (2/5*<true> + 3/5*<false>) { skip }").guard
    assert eval_guard(g, s) == Fraction(2, 5)
    bare = parse_program("if (x > 0) { skip }").guard
    assert eval_guard(bare, s) == 1


def test_eval_rt_basics():
    s = State({"x": 3, "c": 1})
    assert eval_rt(parse_rt("1 + [c = 1] * 4"), s) == XReal(5)
    assert eval_rt(parse_rt("1 + [c = 0] * 4"), s) == XReal(1)
    assert eval_rt(parse_rt("inf"), s) == INF
    assert eval_rt(parse_rt("x / 2"), s) == XReal(Fraction(3, 2))
    with pytest.raises(DivByZero):
        eval_rt(parse_rt("1 / (x - 3)"), s)


def test_eval_rt_monus_truncates():
    s = State({"x": 1})
    assert eval_rt(parse_rt("x - 5"), s) == XReal(0)
    assert eval_rt(parse_rt("5 - x"), s) == XReal(4)
    assert eval_rt(parse_rt("inf - 5"), s) == INF


def test_eval_rt_variables_must_be_nonnegative():
    s = State({"x": -2})
    with pytest.raises(Exception):
        eval_rt(parse_rt("x"), s)


def test_iteration_parameter_binding():
    s = State({"b": 1})
    f = parse_rt("[b = 1] * (7 - 7 * (1/2)^n)")
    assert eval_rt(f, s, {"n": 3}) == XReal(Fraction(49, 8))
    with pytest.raises(UnboundVariable):
        eval_rt(f, s)


def test_finite_sum_and_min_max():
    s = State({"x": 3})
    assert eval_rt(parse_rt("sum(k, 0, 2, [x > k] * 1)"), s) == XReal(3)
    assert eval_rt(parse_rt("sum(k, 1, 0, 99)"), s) == XReal(0)  # empty range
    assert eval_rt(parse_rt("min(2 * x, 5)"), s) == XReal(5)
    assert eval_rt(parse_rt("max(2 * x, 5)"), s) == XReal(6)


def test_geoseries_harmonic_rwcoef_builtins():
    s = State({"x": 4})
    # sum_{i>=0} r^i for r = 1/2
    assert eval_rt(parse_rt("geoseries(1/2)"), s) == XReal(2)
    assert eval_rt(parse_rt("harmonic(x)"), s) == XReal(Fraction(25, 12))
    assert eval_rt(parse_rt("harmonic(0)"), s) == XReal(0)
    assert eval_rt(parse_rt("rwcoef(1, 0)"), s) == XReal(Fraction(5, 2))


def test_harmonic_number_table():
    assert harmonic_number(1) == 1
    assert harmonic_number(2) == Fraction(3, 2)
    assert harmonic_number(4) == Fraction(25, 12)


def test_harmonic_of_a_large_argument_at_the_default_recursion_limit():
    old = sys.getrecursionlimit()
    harmonic_number.cache_clear()
    sys.setrecursionlimit(1000)
    try:
        value = eval_rt(parse_rt("harmonic(3000)"), State())
    finally:
        sys.setrecursionlimit(old)
    assert value == XReal(sum(Fraction(1, k) for k in range(1, 3001)))


def test_rw_coefficient_base_cases():
    assert rw_coefficient(0, 0) == 1
    assert rw_coefficient(1, 0) == Fraction(5, 2)
    assert rw_coefficient(0, 5) == 0
