import math
import sys
import typing
from fractions import Fraction

import pytest

import semantics_oracle
from ertkit import semantics, transformer
from ertkit.kernel import (
    INF, IndexOutOfBounds, KernelError, KindMismatch, State, XReal,
)
from ertkit.parser import parse_program, parse_rt
from ertkit.props import run_property_suite, sweep_triples
from ertkit.semantics import (
    DivByZero,
    EmptyUniformRange,
    EvalError,
    MonusOfInfinities,
    UnboundVariable,
    eval_dist,
    eval_expr,
    eval_guard,
    eval_rt,
    eval_rt_pair,
    harmonic_number,
    rw_coefficient,
)
from ertkit.syntax import (
    Annotated, BoolLit, Dirac, Expr, If, IntLit, NdChoice, ProbAssign, RCell, RLit,
    RVar, RtExpr, Seq, VarRef, WeightedList, While, WhileBounded,
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


def test_the_rule_table_covers_every_expression():
    assert set(semantics._EXPR_RULES) == set(typing.get_args(Expr))
    for e in (42, RLit(1)):
        with pytest.raises(TypeError):
            eval_expr(e, State())


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


# ---------------------------------------------------------------------------
# the shared weights of distributions and guards


def test_weighted_list_merges_duplicates_in_first_seen_order():
    s = State({"x": 2})
    d = parse_program("t :~ 1/8*<x> + 1/4*<1> + 3/8*<2> + 1/4*<3>").dist
    support = eval_dist(d, s)
    assert support == [
        (Fraction(1, 2), 2),
        (Fraction(1, 4), 1),
        (Fraction(1, 4), 3),
    ]
    # an entry that merges with nothing keeps its own weight object
    assert support[1][0] is d.entries[1][0]
    assert support[2][0] is d.entries[3][0]


def test_weighted_list_keeps_equal_values_of_two_kinds_apart():
    # 1 == true, but as in `State` a value merges only with its own kind
    d = parse_program("t :~ 1/2*<1> + 1/2*<true>").dist
    support = eval_dist(d, State())
    assert support == [(Fraction(1, 2), 1), (Fraction(1, 2), True)]
    assert [v.__class__ for _, v in support] == [int, bool]


def test_zero_weight_is_dropped_before_its_value_is_evaluated():
    d = parse_program("t :~ 0*<undefined> + 1*<3>").dist
    assert eval_dist(d, State()) == [(Fraction(1), 3)]
    # the same entry with a positive weight does read the variable
    with pytest.raises(UnboundVariable):
        eval_dist(WeightedList(((Fraction(1), VarRef("undefined")),)), State())


def test_int_weighted_list_yields_fraction_weights():
    d = WeightedList(((1, IntLit(4)), (0, IntLit(5))))
    assert [type(p) for p, _ in d.entries] == [Fraction, Fraction]
    [(p, v)] = eval_dist(d, State())
    assert (type(p), p, v) == (Fraction, 1, 4)
    coin = WeightedList(((1, BoolLit(True)), (0, BoolLit(False))))
    p_true = eval_guard(coin, State())
    assert (type(p_true), p_true) == (Fraction, 1)


def test_guard_with_two_true_entries_returns_their_sum(monkeypatch):
    s = State({"x": 1})
    g = parse_program("if (1/4*<x = 1> + 1/4*<true> + 1/2*<false>) { skip }").guard
    assert eval_guard(g, s) == Fraction(1, 2)
    # a support that lists two true entries apart is summed by the guard
    monkeypatch.setattr(
        semantics, "eval_dist",
        lambda d, sigma, bind=None: [
            (Fraction(1, 4), True), (Fraction(1, 2), False), (Fraction(1, 4), True),
        ],
    )
    assert eval_guard(g, s) == Fraction(1, 2)


def test_guard_with_no_true_entry_returns_zero():
    s = State({"x": 1})
    for src in ("if (x > 5) { skip }", "if (1/3*<false> + 2/3*<x = 0>) { skip }"):
        p = eval_guard(parse_program(src).guard, s)
        assert (type(p), p) == (Fraction, 0)


def test_guard_that_yields_a_non_boolean_raises_kind_mismatch():
    half = Fraction(1, 2)
    for g, v in (
        (Dirac(IntLit(1)), 1),
        (WeightedList(((half, BoolLit(True)), (half, IntLit(3)))), 3),
        (WeightedList(((half, IntLit(3)), (half, BoolLit(False)))), 3),
    ):
        with pytest.raises(KindMismatch) as info:
            eval_guard(g, State())
        assert str(info.value) == "guard produced non-boolean value %d" % v


# ---------------------------------------------------------------------------
# the leaves of run-time expressions


def test_rt_variable_reads_bindings_before_the_state():
    s = State({"k": 5, "a": (7, 8)})
    assert eval_rt(RVar("k"), s) == XReal(5)
    assert eval_rt(RVar("k"), s, {"k": 2}) == XReal(2)
    assert eval_rt(RCell("a", VarRef("k")), s, {"k": 2}) == XReal(8)
    assert eval_rt(RCell("a", IntLit(1)), s) == XReal(7)


def test_rt_variable_errors_keep_their_texts():
    s = State({"b": True, "a": (1,), "flags": (False,)})
    cases = [
        (RVar("z"), UnboundVariable, "undefined variable 'z'"),
        (RCell("c", IntLit(1)), UnboundVariable, "undefined array 'c'"),
        (RCell("a", VarRef("z")), UnboundVariable, "undefined variable 'z'"),
        (
            RVar("b"), KindMismatch,
            "'b' is boolean; wrap it in an indicator to use it as a run-time",
        ),
        (
            RCell("flags", IntLit(1)), KindMismatch,
            "'flags' is boolean; wrap it in an indicator to use it as a run-time",
        ),
        (
            RVar("n"), EvalError,
            "'n' is -1; run-times are non-negative (guard it with an indicator)",
        ),
    ]
    for f, exc, text in cases:
        with pytest.raises(exc) as info:
            eval_rt(f, s, {"n": -1})
        assert str(info.value) == text


def test_negative_rt_literal_is_rejected():
    for value in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="run-time literals are non-negative"):
            RLit(value)


# ---------------------------------------------------------------------------
# differential test against the parent's evaluators


def _outcome(fn, *args):
    """What a call gives, as (exception class, message) or the value with
    the type of every number in it."""
    try:
        out = fn(*args)
    except KernelError as e:
        return type(e), str(e)
    if isinstance(out, XReal):
        return "xreal", type(out.q), out.q
    if isinstance(out, list):
        return "support", [(type(p), p, type(v), v) for p, v in out]
    return "weight", type(out), out


def _guards_and_dists(p, out):
    if isinstance(p, ProbAssign):
        out.append(("dist", p.dist))
    elif isinstance(p, Seq):
        _guards_and_dists(p.first, out)
        _guards_and_dists(p.second, out)
    elif isinstance(p, NdChoice):
        _guards_and_dists(p.left, out)
        _guards_and_dists(p.right, out)
    elif isinstance(p, If):
        out.append(("guard", p.guard))
        _guards_and_dists(p.then, out)
        _guards_and_dists(p.orelse, out)
    elif isinstance(p, (While, WhileBounded)):
        out.append(("guard", p.guard))
        _guards_and_dists(p.body, out)
    elif isinstance(p, Annotated):
        _guards_and_dists(p.loop, out)
    return out


def _rt_subterms(f, out):
    # every node of a run-time expression, so that a leaf's own value is
    # compared, not only what the operators above it make of it
    out.append(f)
    for name in f.__slots__:
        sub = getattr(f, name)
        if isinstance(sub, typing.get_args(RtExpr)):
            _rt_subterms(sub, out)
    return out


_PAIRS = {
    "dist": (eval_dist, semantics_oracle.eval_dist),
    "guard": (eval_guard, semantics_oracle.eval_guard),
    "rt": (eval_rt, semantics_oracle.eval_rt),
}


def test_evaluators_match_the_parent_on_the_soundness_sweep():
    # the triples of run_soundness_sweep(11)
    checked = {"dist": 0, "guard": 0, "rt": 0}
    for program, f, sigma in sweep_triples(11):
        calls = _guards_and_dists(program, []) + [("rt", t) for t in _rt_subterms(f, [])]
        for kind, e in calls:
            new, old = _PAIRS[kind]
            assert _outcome(new, e, sigma) == _outcome(old, e, sigma), (kind, e, sigma)
            checked[kind] += 1
    assert min(checked.values()) >= 400, checked


def test_evaluators_match_the_parent_on_the_property_suite(monkeypatch):
    # every guard, distribution and run-time expression the transformer
    # evaluates over 200 samples of the law suite, with its state and bindings
    seen = {}

    def recording(kind, fn):
        def call(e, sigma, bind=None):
            key = (kind, id(e), sigma, tuple(sorted(bind.items())) if bind else ())
            seen.setdefault(key, (kind, e, sigma, dict(bind) if bind else None))
            return fn(e, sigma, bind) if bind else fn(e, sigma)

        return call

    for name, kind in (
        ("eval_dist", "dist"), ("eval_guard", "guard"), ("eval_rt_pair", "rt")
    ):
        monkeypatch.setattr(transformer, name, recording(kind, getattr(transformer, name)))
    report = run_property_suite(seed=42, count=200)
    monkeypatch.undo()
    assert report.ok
    kinds = {"dist": 0, "guard": 0, "rt": 0}
    for kind, e, sigma, bind in seen.values():
        new, old = _PAIRS[kind]
        args = (sigma, bind) if bind else (sigma,)
        for t in _rt_subterms(e, []) if kind == "rt" else [e]:
            assert _outcome(new, t, *args) == _outcome(old, t, *args), (kind, t, sigma)
        kinds[kind] += 1
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# the pair evaluator on what the generators never draw


def _rt_outcome(fn, f, sigma, bind):
    """What a run-time evaluation gives: (exception class, message) or the
    value with the type of its number."""
    try:
        out = fn(f, sigma, bind)
    except (KernelError, ValueError) as e:
        return type(e), str(e)
    return type(out.q), out.q


_RT_STATE = State({"x": 3, "y": -2, "b": True, "a": (1, 2), "flags": (False,)})

# (run-time, bindings, the exception class it raises or None)
_RT_CASES = [
    ("inf - inf", None, MonusOfInfinities),
    ("inf - 3", None, None),
    ("3 - inf", None, None),
    ("2 - x", None, None),
    ("x / 2 - 1/3", None, None),
    ("x / 6 - 1/2", None, None),
    ("1 / [x > 100]", None, DivByZero),
    ("inf / [x > 100]", None, DivByZero),
    ("1 / inf", None, EvalError),
    ("inf / 2", None, None),
    ("x / (x / 6)", None, None),
    ("0 * inf", None, None),
    ("inf * 0", None, None),
    ("inf * (x / 6)", None, None),
    ("[x > 100] * (1 / [x > 100])", None, None),
    ("2 ^ (1/2)", None, EvalError),
    ("2 ^ (x / 6)", None, EvalError),
    ("2 ^ inf", None, EvalError),
    ("2 ^ (x / 3)", None, None),
    ("inf ^ 0", None, None),
    ("inf ^ 2", None, None),
    ("(x / 6) ^ 3", None, None),
    ("0 ^ 0", None, None),
    ("sum(k, 0, 1/2, k)", None, EvalError),
    ("sum(k, 0, x / 6, k)", None, EvalError),
    ("sum(k, 0, inf, k)", None, EvalError),
    ("sum(k, 1, x, k / 2)", None, None),
    ("sum(k, 0, 2, [k = 0] * inf + 1 / [k < 2])", None, DivByZero),
    ("sum(k, 0, 1, [k = 0] * inf + k)", None, None),
    ("n", None, UnboundVariable),
    ("n", {"n": -1}, ValueError),
    ("n / 2 + 1", {"n": 3}, None),
    ("y", None, EvalError),
    ("b", None, KindMismatch),
    ("a[2] + a[1]", None, None),
    ("a[3]", None, IndexOutOfBounds),
    ("flags[1]", None, KindMismatch),
    ("harmonic(x / 3)", None, None),
    ("harmonic(0)", None, None),
    ("harmonic(1/2)", None, EvalError),
    ("harmonic(inf)", None, EvalError),
    ("rwcoef(x, 1)", None, None),
    ("rwcoef(1, 5)", None, None),
    ("rwcoef(x / 6, 0)", None, EvalError),
    ("rwcoef(2, inf)", None, EvalError),
    ("min(x / 6, 1/2)", None, None),
    ("max(1/2, x / 6)", None, None),
    ("min(inf, 3)", None, None),
    ("max(inf, 3)", None, None),
    ("min(inf, inf) + max(2, inf)", None, None),
    ("geoseries(x / 6)", None, None),
    ("geoseries(1)", None, None),
    ("geoseries(inf)", None, None),
    ("[x > 0] + [b] * inf", None, None),
]


@pytest.mark.parametrize("text, bind, raises", _RT_CASES)
def test_the_pair_evaluator_matches_the_parent(text, bind, raises):
    f = parse_rt(text)
    want = _rt_outcome(semantics_oracle.eval_rt, f, _RT_STATE, bind)
    assert _rt_outcome(eval_rt, f, _RT_STATE, bind) == want
    if raises is None:
        q = want[1]
        pair = (None, 1) if q is None else (q.numerator, q.denominator)
        assert eval_rt_pair(f, _RT_STATE, bind) == pair
    else:
        assert want[0] is raises
        with pytest.raises(raises) as info:
            eval_rt_pair(f, _RT_STATE, bind)
        assert str(info.value) == want[1]


def test_the_pair_evaluator_cases_cover_every_run_time_class():
    seen = {
        t.__class__ for text, _, _ in _RT_CASES for t in _rt_subterms(parse_rt(text), [])
    }
    assert seen == set(typing.get_args(RtExpr))
    assert set(semantics._RT_RULES) == seen


def test_a_written_out_harmonic_sum_is_summed_over_the_lcm():
    f = parse_rt(" + ".join("1/%d" % k for k in range(1, 201)))
    assert eval_rt(f, State()) == XReal(harmonic_number(200))
    assert eval_rt(f, State()) == semantics_oracle.eval_rt(f, State())
    # over the product of the denominators it would have 375 digits
    n, d = semantics._rt(f, State(), None)
    assert d <= math.lcm(*range(1, 201))
