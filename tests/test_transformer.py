import hashlib
import itertools
import random
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xreal_engine
from ertkit import transformer
from ertkit.generator import PROFILES, random_program, random_runtime, random_state
from ertkit.kernel import INF, ONE, ZERO, KindMismatch, State, XReal
from ertkit.parser import parse_program, parse_rt
from ertkit.props import sweep_triples
from ertkit.semantics import EvalError
from ertkit.syntax import (
    RT_ZERO,
    Annotated,
    BoolLit,
    Dirac,
    Empty,
    If,
    IntLit,
    NdChoice,
    ProbAssign,
    Program,
    Seq,
    VarTarget,
    WeightedList,
    While,
    WhileBounded,
    program_to_text,
    unfold_once,
    while_loops,
)
from ertkit.transformer import (
    FuelExhausted,
    NotDeterministic,
    char_functional,
    det_step_count,
    expected_runtime,
    kleene_iterates,
)
from test_mutants import TRANSFORMER_MUTANTS, cut_off_does_not_taint, drop_if_tick, guard_drift

GEO = parse_program("while (c = 1) { c :~ 1/2*<0> + 1/2*<1> }")


def ert(src, f=None, sigma=None):
    return expected_runtime(parse_program(src), f, sigma)


def test_empty_skip_halt():
    f = parse_rt("3/2")
    assert ert("empty", f).value == XReal(Fraction(3, 2))
    assert ert("skip", f).value == XReal(Fraction(5, 2))
    assert ert("halt", f).value == XReal(0)
    for src in ("empty", "skip", "halt"):
        assert ert(src, f).kind == "exact"


def test_assignment_charges_one_tick_and_averages():
    f = parse_rt("x")
    r = ert("x :~ 1/2*<0> + 1/2*<4>", f, State({"x": 9}))
    assert r.value == XReal(3)  # 1 + (0 + 4) / 2
    r = ert("x :~ unif[1 .. 3]", f, State({"x": 0}))
    assert r.value == XReal(3)  # 1 + (1 + 2 + 3) / 3


def test_sequence_composes_backwards():
    f = parse_rt("x")
    r = ert("x := 2; x := x * x", f, State({"x": 0}))
    assert r.value == XReal(6)  # two ticks + final x = 4


def test_ndchoice_takes_worst_case_without_a_tick():
    f = parse_rt("x")
    r = ert("{ x := 1 } [] { x := 5 }", f, State({"x": 0}))
    assert r.value == XReal(6)  # max(1 + 1, 1 + 5), no tick for the choice


def test_if_charges_guard_tick():
    r = ert("if (x > 0) { skip } else { empty }", None, State({"x": 1}))
    assert r.value == XReal(2)
    r = ert("if (x > 0) { skip } else { empty }", None, State({"x": 0}))
    assert r.value == XReal(1)


def test_probabilistic_guard_mixes_branches():
    r = ert("if (1/3*<true> + 2/3*<false>) { skip } else { skip; skip }", None)
    # 1 + 1/3 * 1 + 2/3 * 2
    assert r.value == XReal(Fraction(8, 3))
    assert r.kind == "exact"


def test_truncated_coin_value():
    src = """
    if (1/2*<true> + 1/2*<false>) { succ := true }
    else {
      if (1/2*<true> + 1/2*<false>) { succ := true } else { succ := false }
    }
    """
    r = ert(src)
    assert r.kind == "exact"
    assert r.value == XReal(Fraction(5, 2))


def test_geometric_loop_is_a_lower_bound_at_the_depth_cap():
    r = expected_runtime(GEO, None, State({"c": 1}))
    assert r.kind == "lower"
    assert r.value == XReal(Fraction(5) - Fraction(3, 2**63))
    r0 = expected_runtime(GEO, None, State({"c": 0}))
    assert r0.kind == "exact"
    assert r0.value == XReal(1)


def test_depth_cap_gives_the_closed_form_kleene_iterate():
    # F^d(0)(c=1) = 1 + 4 - 3/2^(d-1); the engine reaches exactly the cap
    for depth in (1, 2, 8, 16):
        r = expected_runtime(GEO, None, State({"c": 1}), depth)
        assert r.value == XReal(1 + Fraction(4) - Fraction(3, 2 ** (depth - 1)))
        assert r.kind == "lower"


def test_probabilistic_guard_loop():
    r = ert("while (1/2*<true> + 1/2*<false>) { skip }")
    assert r.kind == "lower"
    assert r.value == XReal(Fraction(3) - Fraction(3, 2**64))


def test_infinite_value_is_promoted_to_exact():
    # the loop body drifts upward with certainty and f grows linearly,
    # so already the bounded approximations blow up
    r = ert("while (x > 0) { x := x + 1 }", parse_rt("x"), State({"x": 1}))
    if r.value.is_infinite:
        assert r.kind == "exact"
    else:
        # a finite bounded approximation must still be a lower bound
        assert r.kind == "lower"


def test_kleene_iterates_of_the_geometric_loop():
    states = [State({"c": 0}), State({"c": 1})]
    gen = kleene_iterates(GEO, parse_rt("0"), states)
    tables = [next(gen) for _ in range(5)]
    assert tables[0] == {s: XReal(0) for s in states}
    at1 = [t[State({"c": 1})] for t in tables[1:]]
    assert at1 == [
        XReal(2),
        XReal(Fraction(7, 2)),
        XReal(Fraction(17, 4)),
        XReal(Fraction(37, 8)),
    ]
    for n, v in enumerate(at1, start=1):
        assert v == XReal(1 + Fraction(4) - Fraction(3, 2 ** (n - 1)))
    assert all(t[State({"c": 0})] == XReal(1) for t in tables[1:])


def test_char_functional_fixed_point():
    table = {State({"c": 0}): XReal(1), State({"c": 1}): XReal(5)}
    F = char_functional(GEO, parse_rt("0"))
    for sigma, v in table.items():
        out, tainted = F(lambda q: table[q], sigma)
        assert not tainted
        assert out == v


def test_kleene_iterates_apply_the_char_functional():
    rng = random.Random(17)
    for program, f, sigma in itertools.islice(_programs(13, loops_only=True), 40):
        loop = while_loops(program)[0]
        states = [sigma, random_state(rng), random_state(rng)]
        apply_F = char_functional(loop, f)
        gen = kleene_iterates(loop, f, states)
        table = next(gen)
        assert table == {s: ZERO for s in states}
        for _ in range(3):
            nxt = next(gen)
            assert nxt == {
                s: apply_F(lambda q: table.get(q, ZERO), s)[0] for s in states
            }
            table = nxt


def test_char_functional_shares_one_engine_per_x(monkeypatch):
    built = []

    class CountingEngine(transformer._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(transformer, "_Engine", CountingEngine)
    c0, c1 = State({"c": 0}), State({"c": 1})
    gen = kleene_iterates(GEO, RT_ZERO, [c0, c1, State({"c": 2})])
    tables = [next(gen) for _ in range(4)]
    # one engine per iterate, shared by the three states it is applied at
    assert len(built) == 3
    assert [t[c1] for t in tables] == [
        ZERO, XReal(2), XReal(Fraction(7, 2)), XReal(Fraction(17, 4))
    ]
    # each new X object gets an engine of its own, whatever its id
    built.clear()
    F = char_functional(GEO, RT_ZERO)
    for k in range(5):
        assert F(lambda q, k=k: XReal(k), c1) == (XReal(2 + k), False)
        assert F(lambda q, k=k: XReal(2 * k), c0) == (ONE, False)
    assert len(built) == 10


def test_evaluation_scopes_the_recursion_limit():
    default = sys.getrecursionlimit()
    seen = []

    def f(sigma):
        seen.append(sys.getrecursionlimit())
        return XReal(0)

    # a long run needs a deep stack while it is evaluated
    countdown = parse_program("while (x > 0) { x := x - 1 }")
    long_run = expected_runtime(countdown, None, State({"x": 2000}), 4096)
    assert long_run.kind == "exact" and long_run.value == XReal(4001)
    assert sys.getrecursionlimit() == default

    expected_runtime(countdown, f, State({"x": 1}))
    assert sys.getrecursionlimit() == default

    F = char_functional(GEO, f)
    F(f, State({"c": 1}))
    assert sys.getrecursionlimit() == default

    gen = kleene_iterates(GEO, f, [State({"c": 0}), State({"c": 1})])
    next(gen)
    next(gen)
    assert sys.getrecursionlimit() == default
    next(gen)
    assert sys.getrecursionlimit() == default

    assert seen and all(limit > default for limit in seen)

    with pytest.raises(EvalError):
        ert("x := y + 1")
    assert sys.getrecursionlimit() == default


def test_bounded_unroll_matches_single_step_expansion():
    loop = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    wb = WhileBounded(3, loop.guard, loop.body)
    # the printer writes the fully unrolled if/halt chain
    unrolled = parse_program(program_to_text(wb))
    a = expected_runtime(unrolled, parse_rt("x"), State({"x": 5}))
    b = expected_runtime(wb, parse_rt("x"), State({"x": 5}))
    c = expected_runtime(unfold_once(wb), parse_rt("x"), State({"x": 5}))
    assert a.kind == b.kind == c.kind == "exact"
    # three guard and three assignment ticks, then the cut-off halts
    assert a.value == b.value == c.value == XReal(6)


def test_explicit_bounded_loop_is_its_own_semantics():
    # the written-out bound ends in halt, so the value is exact for that
    # program even though the halt is reached with positive probability
    wb = WhileBounded(4, GEO.guard, GEO.body)
    r = expected_runtime(wb, None, State({"c": 1}))
    assert r.kind == "exact"
    assert r.value == XReal(1 + Fraction(4) - Fraction(3, 2**3))
    deep = WhileBounded(
        10,
        parse_program("while (x > 0) { x := x - 1 }").guard,
        parse_program("x := x - 1"),
    )
    r = expected_runtime(deep, None, State({"x": 2}))
    assert r.kind == "exact"  # the cut-off branch is unreachable
    assert r.value == XReal(5)


def test_strictly_decreasing_loop_is_exact():
    r = ert("while (x > 0) { x := x - 1 }", None, State({"x": 3}))
    assert r.kind == "exact"
    assert r.value == XReal(7)  # 1 + 2x
    for v in range(0, 6):
        r = ert("while (x > 0) { x := x - 1 }", None, State({"x": v}))
        assert r.value == XReal(1 + 2 * v)


def test_lower_annotation_substitutes_and_is_recorded():
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    bound = parse_rt("1 + [x > 0] * 2 * x")
    annotated = Annotated(drain, bound)
    # the zero post-run-time, left out or written out
    for f in (None, parse_rt("0")):
        r = expected_runtime(annotated, f, State({"x": 3}))
        assert r.kind == "lower"
        assert r.value == XReal(7)
        assert r.annotations_used == ("1 + [x > 0] * 2 * x",)

    off = expected_runtime(annotated.loop, None, State({"x": 3}))
    assert off.kind == "exact"
    assert off.value == XReal(7)
    assert off.annotations_used == ()


def test_annotation_duplicates_collapse():
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    annotated = Annotated(drain, parse_rt("1 + [x > 0] * 2 * x"))
    prog = Seq(parse_program("x :~ unif[1 .. 3]"), annotated)
    r = expected_runtime(prog, None, State({"x": 0}))
    assert r.kind == "lower"
    # 1 + mean of (1 + 2x) over x in 1..3
    assert r.value == XReal(1 + Fraction(3 + 5 + 7, 3))
    assert len(r.annotations_used) == 1


def test_annotation_refused_under_other_continuations():
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    annotated = Annotated(drain, parse_rt("1 + [x > 0] * 2 * x"))
    r = expected_runtime(annotated, parse_rt("100"), State({"x": 3}))
    assert r.annotations_used == ()
    assert r.value == XReal(107)  # computed by unrolling, continuation kept


def test_an_annotated_loop_followed_by_a_tail_is_unrolled():
    # the loop's continuation is the tail's, not the zero run-time, however
    # the sequence is nested
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    annotated = Annotated(drain, parse_rt("1 + [x > 0] * 2 * x"))
    skip = parse_program("skip")
    for prog, value in (
        (Seq(annotated, Empty()), 7),
        (Seq(annotated, skip), 8),
        (Seq(Seq(annotated, skip), skip), 9),
    ):
        r = expected_runtime(prog, None, State({"x": 3}))
        assert (r.kind, r.value, r.annotations_used) == ("exact", XReal(value), ())


def test_a_post_run_time_is_read_once_per_state(monkeypatch):
    # both branches end in x = 1
    prog = parse_program("if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := 1 }")
    calls = []

    def f(s):
        calls.append(s)
        return XReal(s.get("x") + 2)

    assert expected_runtime(prog, f, State({"x": 0})).value == XReal(5)
    assert calls == [State({"x": 1})]
    # a run-time expression goes through the module's eval_rt_pair, looked
    # up when the value is needed
    calls.clear()
    eval_rt_pair = transformer.eval_rt_pair
    monkeypatch.setattr(
        transformer, "eval_rt_pair",
        lambda g, s: calls.append(s) or eval_rt_pair(g, s),
    )
    assert expected_runtime(prog, parse_rt("x + 2"), State({"x": 0})).value == XReal(5)
    assert calls == [State({"x": 1})]



def test_an_int_and_a_bool_of_one_value_keep_their_own_values():
    # 1 == True, so paths ending in x = 1 and in x = true reach equal values
    # of two kinds, and neither may reuse the other's value
    branches = "if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := true }"
    with pytest.raises(KindMismatch):
        expected_runtime(parse_program(branches), parse_rt("x"), State())
    with pytest.raises(KindMismatch):
        expected_runtime(parse_program(branches + "; y := x + 1"), None, State())

    def f(s):
        return XReal(5 if s.get("x") is True else s.get("x"))

    assert expected_runtime(parse_program(branches), f, State()).value == XReal(5)

def test_the_rule_table_covers_every_statement():
    # `eval` walks a sequence itself, so `Seq` is the one class with no rule
    assert Seq not in transformer._RULES
    assert set(transformer._RULES) | {Seq} == set(typing.get_args(Program))
    prog, f = parse_program("x := 1; x := x + 1; skip"), transformer._as_cont(parse_rt("x"))
    engine = transformer.StepTable().engine(prog)
    assert engine.eval(prog, State({"x": 0}), f) == (5, 1, False)
    for p in (42, Seq(parse_rt("x"), Empty())):
        with pytest.raises(TypeError):
            expected_runtime(p)


def test_det_step_count_frozen_pairs():
    for k, expect in ((1, 4), (2, 6)):
        src = f"x := {k}; while (x > 0) {{ x := x - 1 }}"
        ticks, final = det_step_count(parse_program(src), State({"x": 0}))
        assert ticks == XReal(expect)
        assert final.get("x") == 0
        assert expected_runtime(parse_program(src), None, State({"x": 0})).value == ticks


def test_det_step_count_halt_keeps_partial_count():
    ticks, _ = det_step_count(parse_program("skip; skip; halt; skip"))
    assert ticks == XReal(2)


def test_det_step_count_unfolds_bounded_loops_like_the_transformer():
    drain = parse_program("while (x > 0) { x := x - 1 }")
    for k in range(5):
        wb = WhileBounded(k, drain.guard, drain.body)
        for x in range(6):
            ticks, _ = det_step_count(wb, State({"x": x}))
            r = expected_runtime(wb, None, State({"x": x}))
            assert r.kind == "exact"
            assert ticks == r.value
    # a cut-off halts the whole run, so the assignment after it never runs
    cut = Seq(WhileBounded(2, drain.guard, drain.body), parse_program("y := 1"))
    for x, expect, y in ((5, 4, 0), (1, 4, 1)):
        sigma = State({"x": x, "y": 0})
        ticks, final = det_step_count(cut, sigma)
        assert ticks == expected_runtime(cut, None, sigma).value == XReal(expect)
        assert final.get("y") == y


def test_det_step_count_writes_array_cells():
    ticks, final = det_step_count(parse_program("a := [0, 0]; a[2] := 5"))
    assert (ticks, final) == (XReal(2), State({"a": (0, 5)}))


def test_det_step_count_runs_an_annotated_loop_as_its_loop():
    # the bound, here far from the loop's run-time, is never read
    drain = parse_program("while (x > 0) { x := x - 1 }")
    annotated = Annotated(drain, parse_rt("7"))
    for x in range(4):
        sigma = State({"x": x})
        ticks, final = det_step_count(annotated, sigma)
        assert (ticks, final) == det_step_count(drain, sigma)
        assert ticks == XReal(2 * x + 1)


@pytest.mark.parametrize(
    "src, message",
    [
        ("x :~ 1/2*<0> + 1/2*<1>", "random assignment"),
        ("if (1/2*<true> + 1/2*<false>) { skip }", "probabilistic guard"),
    ],
)
def test_det_step_count_rejects_probabilistic_input(src, message):
    with pytest.raises(NotDeterministic, match=message):
        det_step_count(parse_program(src))


def test_det_step_count_rejects_nondeterminism_and_diverging_runs(monkeypatch):
    with pytest.raises(NotDeterministic):
        det_step_count(parse_program("{ skip } [] { skip }"))
    monkeypatch.setattr(transformer, "STEP_BUDGET", 1000)
    with pytest.raises(FuelExhausted):
        det_step_count(parse_program("while (true) { skip }"))


def test_drop_if_tick_mutation_changes_conditionals_only(monkeypatch):
    src = "if (x > 0) { skip } else { skip }"
    assert ert(src, None, State({"x": 1})).value == XReal(2)
    drop_if_tick(monkeypatch)
    assert ert(src, None, State({"x": 1})).value == XReal(1)
    assert ert("skip").value == XReal(1)


def test_callable_continuation():
    r = expected_runtime(
        parse_program("x := x + 1"),
        lambda s: XReal(10 * s.get("x")),
        State({"x": 1}),
    )
    assert r.value == XReal(21)


def test_monotone_in_depth():
    prev = XReal(0)
    for depth in (1, 2, 4, 8, 16, 32, 64):
        v = expected_runtime(GEO, None, State({"c": 1}), depth).value
        assert prev <= v
        prev = v


def test_infinity_continuation_on_terminating_program():
    r = ert("x := 1; while (x > 0) { x := x - 1 }", parse_rt("inf"), State({"x": 0}))
    assert r.value == INF
    assert r.kind == "exact"


def test_unroll_cap_below_one_is_rejected():
    for ert in (expected_runtime, transformer.StepTable().expected_runtime):
        for depth in (0, -3):
            with pytest.raises(ValueError) as caught:
                ert(GEO, None, State({"c": 1}), depth)
            assert str(caught.value) == "max_unroll_depth must be at least 1, got %d" % depth
    r = expected_runtime(GEO, None, State({"c": 1}), 1)
    assert r.kind == "lower" and r.value == XReal(2)  # F(0)(c=1) = 1 + 1/2 * 2


def test_loops_sharing_guard_and_body_keep_their_own_cutoff():
    # a while and a while^{<3} over one guard and one body object: at cap 3
    # both run three rounds from x = 5, but only the while's cutoff taints,
    # so neither loop may reuse the other's unrolling
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    unbounded = While(drain.guard, drain.body)
    bounded = WhileBounded(3, drain.guard, drain.body)
    for left, right in ((unbounded, bounded), (bounded, unbounded)):
        r = expected_runtime(NdChoice(left, right), None, State({"x": 5}), 3)
        assert (r.kind, r.value) == ("lower", XReal(6))


# ---------------------------------------------------------------------------
# the per-term XReal arithmetic as an oracle
#
# The reference engine of `xreal_engine` reads every guard afresh and sums
# each node term by term in XReal arithmetic, total + p * v, multiplying by
# every weight, certain or not, and by every value, zero or not.  The
# transformer's unreduced int pair per node, which skips those multiplies
# and impossible branches and reduces once, must give the same results.
# They are also checked across each case's rising caps: a loop's run-time is
# the least fixed point that its unrollings approach from below, so an exact
# result reached no cut-off, and every larger cap must give it as well.  That
# catches a defect both engines share, such as a cut-off that does not taint.

CAPS = (1, 2, 3, 5, 8, 64)


def _programs(seed: int, loops_only: bool = False):
    """Generated (program, f, sigma) triples, without end; `loops_only`
    keeps the programs with a loop."""
    rng = random.Random(seed)
    names = list(PROFILES)
    for k in itertools.count():
        program = random_program(rng, PROFILES[names[k % len(names)]], max_depth=2)
        if while_loops(program) or not loops_only:
            yield program, random_runtime(rng, terms=1), random_state(rng)


def _runtime_cases(count: int):
    """The (program, f, sigma, caps) inputs of the reference comparison.

    Two samples, of programs with a loop and of any programs, alternate.
    Each program runs under its f and under inf.  Some are followed by a
    tail of annotated loops, under the zero run-time, where the bounds stand
    in for the loops, and in the first sample also under f, where they may
    not.
    """
    drain = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    coin = while_loops(parse_program("while (1/2*<true> + 1/2*<false>) { y := y + 1 }"))[0]
    # two distinct bounds, reached on the exit paths of the loops before
    # them, so the order in which they are first used is compared as well
    loops_tail = If(
        parse_program("if (y > 1) { skip }").guard,
        Annotated(drain, parse_rt("1 + [x > 0] * 2 * x")),
        Annotated(drain, parse_rt("[x > 0] * 2 * x")),
    )
    any_tail = If(
        parse_program("if (1/2*<true> + 1/2*<false>) { skip }").guard,
        Annotated(drain, parse_rt("[x > 0] * 2 * x")),
        Annotated(coin, parse_rt("1")),
    )
    inf = parse_rt("inf")
    samples = zip(_programs(7, loops_only=True), _programs(5))
    for i, ((program, f, sigma), (other, g, tau)) in enumerate(itertools.islice(samples, count)):
        yield program, f, sigma, CAPS
        yield program, inf, sigma, CAPS
        if i % 8 == 0:
            yield Seq(program, loops_tail), RT_ZERO, sigma, CAPS
        if i % 16 == 0:
            yield Seq(program, loops_tail), f, sigma, CAPS
        yield other, g, tau, (1, 3, 64)
        yield other, inf, tau, (1, 3, 64)
        if i % 4 == 0:
            yield Seq(other, any_tail), RT_ZERO, tau, (1, 3, 64)


def _results(cases):
    """Per case, the (value, kind, annotations_used) of the transformer and
    of the reference, each a list over the case's caps."""
    for program, f, sigma, caps in cases:
        yield [
            [(r.value, r.kind, r.annotations_used) for r in (
                ert(program, f, sigma, cap) for cap in caps
            )]
            for ert in (expected_runtime, xreal_engine.expected_runtime)
        ]


def _check_across_caps(results) -> int:
    """Check that the results at rising caps are all the same from the
    first exact one on; returns how many followed that one."""
    settled = list(itertools.dropwhile(lambda r: r[1] != "exact", results))
    for r in settled[1:]:
        assert r == settled[0], f"{r} after the exact {settled[0]} of a smaller cap"
    return max(len(settled) - 1, 0)


def test_one_accumulator_matches_the_per_term_arithmetic():
    lower = annotated = infinite = settled = 0
    for new, old in _results(_runtime_cases(200)):
        assert new == old
        settled += _check_across_caps(new)
        for value, kind, used in new:
            lower += kind == "lower"
            annotated += bool(used)
            infinite += value.is_infinite
    # the samples reach the cap, substitute bounds and have infinite values,
    # and many results are checked against a smaller cap that had settled
    assert lower > 500 and annotated > 100 and infinite > 1000 and settled > 2000


@pytest.mark.parametrize("mutate", TRANSFORMER_MUTANTS.values(), ids=TRANSFORMER_MUTANTS.keys())
def test_the_reference_comparison_catches_the_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    # the first 48 programs of both samples catch every transformer mutant
    assert any(new != old for new, old in _results(_runtime_cases(48)))


def test_the_cross_cap_check_catches_a_cut_off_both_engines_miss(monkeypatch):
    # a cut-off that does not taint, in both engines: they still agree at
    # every cap, but a cut-off result now reads as exact and a larger cap
    # changes it
    cut_off_does_not_taint(monkeypatch)
    cut_off_does_not_taint(monkeypatch, xreal_engine._Engine, (ZERO, False))
    with pytest.raises(AssertionError, match="of a smaller cap"):
        for new, old in _results(itertools.islice(_runtime_cases(1), 4)):
            assert new == old
            _check_across_caps(new)


NESTED = parse_program(
    "while (x > 0) { c := 1; while (c = 1) { c :~ 1/2*<0> + 1/2*<1> }; x := x - 1 }"
)
# a loop whose guard is probabilistic in every state with c = 1
COIN_GUARD = parse_program(
    "while (1/3*<c = 1> + 2/3*<false>) { c :~ 1/2*<0> + 1/2*<1>; x := x + 1 }"
)


# both functionals run at the default cap, the one cap they have;
# NESTED's inner loop reaches its cut-off there, so the taint the functional
# passes on is compared as well.  Each f is also an X, 2 * x standing in
# for x + c; NESTED, which unrolls its inner loop to the cap in every state,
# takes fewer of them.
@pytest.mark.parametrize(
    "loop, fs",
    [
        pytest.param(GEO, ("x + c", "0", "inf"), id="default-geo"),
        pytest.param(NESTED, ("x + c", "inf"), id="default-nested"),
        pytest.param(COIN_GUARD, ("x + c", "0", "inf"), id="default-coin-guard"),
    ],
)
def test_loop_functional_matches_the_per_term_arithmetic(loop, fs):
    states = [State({"c": c, "x": x}) for c in (0, 1) for x in (0, 1, 2)]
    tainted = False
    for f in map(parse_rt, fs):
        for X in map(parse_rt, ("2 * x",) + fs[1:]):
            new = [char_functional(loop, f)(X, s) for s in states]
            assert new == [xreal_engine.char_functional(loop, f)(X, s) for s in states]
            tainted = tainted or any(t for _, t in new)
        new_it = kleene_iterates(loop, f, states)
        old_it = xreal_engine.kleene_iterates(loop, f, states)
        for _ in range(5):
            assert next(new_it) == next(old_it)
    assert tainted == (loop is NESTED)


# ---------------------------------------------------------------------------
# the engine's branch weights and choice against Fraction and XReal
# arithmetic (the pair arithmetic itself is tested in test_kernel)

# weights in (0, 1] with small denominators, so sums often share one; 1 is
# the certain weight
_WEIGHTS = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)).filter(lambda p: p <= 1)
# values: infinity, zero, integers and fractions
_VALUES = st.one_of(
    st.just(INF),
    st.just(ZERO),
    st.builds(lambda n, d: XReal(Fraction(n, d)), st.integers(0, 40), st.integers(1, 12)),
)


def _assert_is(val, x, tainted=False):
    """The engine value `val` is `x` in lowest terms, with the taint flag."""
    n, d, t = val
    assert t == tainted
    if x.is_infinite:
        assert n is None
    else:
        assert d > 0 and (n, d) == (x.q.numerator, x.q.denominator)


def _coin(p):
    """The guard true with probability p, weights 0 and 1 included."""
    return WeightedList(((p, BoolLit(True)), (1 - p, BoolLit(False))))


def _to(x):
    return ProbAssign(VarTarget("x"), Dirac(IntLit(x)))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), _WEIGHTS),
    _VALUES,
    _VALUES,
)
def test_branch_weights_and_choice_match_xreal_arithmetic(p, a, b):
    # f reads a after x := 0 and b after x := 1
    f = transformer._as_cont(lambda s: (a, b)[s.get("x")])
    sigma = State({"x": 0})
    branch = If(_coin(p), _to(0), _to(1))
    choice = NdChoice(_to(0), _to(1))
    engine = transformer.StepTable().engine(branch)
    tn, fn, d = engine.guard(branch.guard, sigma)
    assert (Fraction(tn, d), Fraction(fn, d)) == (p, 1 - p)
    # each side charges the tick of its assignment; an impossible side is
    # never evaluated, so 0 * inf never arises
    then, orelse = ONE + a, ONE + b
    expected = ONE + (XReal(p) * then + XReal(1 - p) * orelse)
    _assert_is(engine.eval(branch, sigma, f), expected)
    _assert_is(engine.eval(choice, sigma, f), orelse if then <= orelse else then)


def test_certain_weights_are_one_over_one():
    """`unif[3 .. 3]` and a one-entry list give a fresh Fraction(1), not a
    shared constant; as an int pair it is (1, 1), so it is not multiplied."""
    f = parse_rt("x")
    sources = ("x :~ unif[3 .. 3]", "x :~ 1*<3>", "x := 3")
    values = set()
    for src in sources:
        prog = parse_program(src)
        engine = transformer.StepTable().engine(prog)
        values.add(engine.eval(prog, State({"x": 0}), transformer._as_cont(f)))
        support = engine.support(prog, State({"x": 0}))
        assert [tuple(entry[:3]) for entry in support] == [(1, 1, 3)]
        assert expected_runtime(prog, f, State({"x": 0})).value == XReal(4)
    assert values == {(4, 1, False)}


def test_a_table_keeps_the_programs_evaluated_against_it():
    # the table's keys hold ids of program nodes; a program its caller
    # dropped lives on in the table, so no later node can take its ids
    steps = transformer.StepTable()
    f, sigma = parse_rt("x"), State({"x": 0})
    for k in range(1, 40):
        a = If(_coin(Fraction(1, 2)), _to(k), _to(k + 1))
        steps.expected_runtime(a, f, sigma)
        del a
        b = If(_coin(Fraction(1, 3)), _to(k + 100), _to(k + 200))
        assert steps.expected_runtime(b, f, sigma) == expected_runtime(b, f, sigma)


def test_a_table_holds_one_object_per_successor_state():
    # two assignments that lead to equal states share one successor object,
    # so a table holds each state it reached once, as an engine's memo does
    prog = parse_program("if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := 2 - 1 }")
    steps = transformer.StepTable()
    assert steps.expected_runtime(prog, parse_rt("x"), State({"x": 0})).value == XReal(3)
    successors = [entry[3] for row in steps.supports.values() for entry in row]
    assert len(successors) == 2 and successors[0] is successors[1]
    assert successors[0] == State({"x": 1})


def _record_engines(monkeypatch):
    built = []

    class RecordingEngine(transformer._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(transformer, "_Engine", RecordingEngine)
    return built


def _memo_state_ids(engine):
    # (head, state, continuation) and (loop, depth, state, continuation)
    return {key[-2] for key in engine.memo}


def test_every_state_an_engine_keys_is_held_by_its_table(monkeypatch):
    # the engines key states by id, so every keyed state must live as long
    # as the table, or a later state could take its id
    built = _record_engines(monkeypatch)
    read = []
    eval_rt_pair = transformer.eval_rt_pair
    monkeypatch.setattr(
        transformer, "eval_rt_pair", lambda g, s: read.append(s) or eval_rt_pair(g, s)
    )
    prog = parse_program(
        "while (x > 0) { x :~ 1/2*<x - 1> + 1/2*<x> }; "
        "if (y = 0) { y := 1 } else { skip }"
    )
    steps = transformer.StepTable()
    for f in (None, parse_rt("x + y"), lambda s: read.append(s) or ONE):
        steps.expected_runtime(prog, f, State({"x": 3, "y": 0}))
    held = {id(s) for s in steps.states.values()}
    keyed = set().union(*map(_memo_state_ids, built))
    keyed |= {key[1] for key in steps.guards} | {key[1] for key in steps.supports}
    keyed |= set(map(id, read))
    assert len(built) == 3 and read and keyed <= held
    assert all(steps.states[s] is s for s in read)


def test_equal_entry_states_share_one_object_and_one_guard_row(monkeypatch):
    built = _record_engines(monkeypatch)
    prog = parse_program("if (x > 0) { x := x - 1 } else { skip }")
    steps = transformer.StepTable()
    first, second = State({"x": 2}), State({"x": 2})
    assert steps.expected_runtime(prog, parse_rt("x"), first).value == XReal(3)
    rows = dict(steps.guards)
    assert steps.expected_runtime(prog, parse_rt("x"), second).value == XReal(3)
    assert steps.guards == rows and len(rows) == 1
    assert steps.states[second] is first
    assert _memo_state_ids(built[0]) == _memo_state_ids(built[1])


def test_char_functional_at_a_state_not_interned():
    # each state is made for one application and dropped after it, so its
    # id is free for the next one; F must key what it keeps by the table's
    # own object, and give the value it gives at that object
    loop = while_loops(parse_program("while (x > 0) { x := x - 1 }"))[0]
    f = parse_rt("x + 1")

    def X(s):
        return XReal(2 * s.get("x"))

    F = char_functional(loop, f)
    want = [xreal_engine.char_functional(loop, f)(X, State({"x": k})) for k in range(30)]
    assert [F(X, State({"x": k})) for k in range(30)] == want
    kept = [State({"x": k}) for k in range(30)]
    assert [F(X, s) for s in kept] == want


def test_an_assignment_that_returns_to_its_own_state():
    # `x :~ <x>` leads back to the state it left, so the next round of the
    # loop evaluates the same assignment at the same state while its first
    # evaluation there is still running
    prog = parse_program("while (x > 0) { x :~ 1/2*<x> + 1/2*<x - 1> }")
    sigma = State({"x": 2})
    want = xreal_engine.expected_runtime(prog, None, sigma)
    assert expected_runtime(prog, None, sigma) == want
    steps = transformer.StepTable()
    for f in (None, parse_rt("x + 1"), None):
        for depth in (64, 1, 5):
            expected = xreal_engine.expected_runtime(prog, f, sigma, depth)
            assert steps.expected_runtime(prog, f, sigma, depth) == expected


def test_a_support_raises_its_errors_in_support_order():
    # each successor state is made just before its continuation runs: the
    # second entry's kind error comes after the first entry's continuation
    # has run, and comes again from a table that holds the first entry
    sigma = State({"x": 0})
    cases = (
        ("x :~ 1/2*<2> + 1/2*<true>", KindMismatch, "cannot assign bool value to int variable 'x'"),
        ("x :~ 1/2*<2> + 1/2*<true>; y := z", EvalError, "undefined variable 'z'"),
    )
    for src, error, text in cases:
        prog = parse_program(src)
        steps = transformer.StepTable()
        for run in (expected_runtime, steps.expected_runtime, steps.expected_runtime):
            with pytest.raises(error) as raised:
                run(prog, None, sigma)
            assert str(raised.value) == text


# sha256 over (str(value), kind, annotations_used) of `expected_runtime`, one
# line per triple, on the 500 (program, f, state) triples that
# `run_soundness_sweep(11)` draws, at the default unrolling cap
SWEEP_ERT_SHA256 = "bcc608baa9db76f6fc39a4110942a779b10fe9a11e0a9da9aacccf85ece7f6a7"


def _sweep_ert_digest() -> str:
    digest = hashlib.sha256()
    for program, f, sigma in sweep_triples(11):
        r = expected_runtime(program, f, sigma)
        digest.update(repr((str(r.value), r.kind, r.annotations_used)).encode() + b"\n")
    return digest.hexdigest()


def test_sweep_runtimes_match_golden_digest():
    assert _sweep_ert_digest() == SWEEP_ERT_SHA256


def test_the_golden_digest_catches_a_defect_every_leg_shares(monkeypatch):
    # the legs and the references read guards through the one shared
    # helper, so no comparison between them sees this defect; only values
    # pinned before it was made do
    guard_drift(monkeypatch)
    assert _sweep_ert_digest() != SWEEP_ERT_SHA256
