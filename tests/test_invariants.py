import sys
from fractions import Fraction

import pytest

from ertkit.kernel import State, XReal
from ertkit.parser import parse_program, parse_rt
from ertkit.invariants import (
    DomainEscape,
    OmegaInvariantSpec,
    PreconditionFailed,
    StateDomain,
    UpperInvariantSpec,
    check_limit,
    check_omega_invariant,
    check_upper_invariant,
    refine,
)
from ertkit.semantics import harmonic_number, rw_coefficient
from ertkit.transformer import expected_runtime, kleene_iterates
from references import rw_coefficients

GEO = parse_program("while (c = 1) { c :~ 1/2*<0> + 1/2*<1> }")
DRAIN = parse_program("while (x > 0) { x := x - 1 }")
ZERO_RT = parse_rt("0")
GEO_DOM = StateDomain.product({"c": (0, 1)})
# the limit probe's tolerance and divergence threshold, as a spec file's
# `tol` and `big` default to
TOL, BIG = Fraction(1, 10**12), Fraction(10**6)


def test_state_domain_product():
    dom = StateDomain.product({"b": (0, 1), "x": range(1, 4)})
    assert len(dom) == 6
    assert State({"b": 0, "x": 1}) in list(dom)
    with pytest.raises(ValueError):
        StateDomain(())


def test_upper_invariant_holds_on_the_exact_value():
    v = check_upper_invariant(
        GEO, ZERO_RT, UpperInvariantSpec(parse_rt("1 + [c = 1] * 4")), GEO_DOM
    )
    assert v.status == "Holds"
    assert v.holds


def test_upper_invariant_fails_below_the_fixed_point():
    v = check_upper_invariant(
        GEO, ZERO_RT, UpperInvariantSpec(parse_rt("1 + [c = 1] * 3")), GEO_DOM
    )
    assert v.status == "Fails"
    assert v.witness == State({"c": 1})
    assert v.lhs == XReal(Fraction(9, 2))
    assert v.rhs == XReal(4)
    assert not v.holds


def test_infinite_invariant_always_holds():
    v = check_upper_invariant(
        GEO, ZERO_RT, UpperInvariantSpec(parse_rt("inf")), GEO_DOM
    )
    assert v.status == "Holds"


def test_upper_invariant_inconclusive_when_body_is_cut_off():
    # the body hides an unbounded geometric loop, so F cannot be computed
    # exactly and a one-sided comparison may be unsound to conclude from
    nested = parse_program(
        "while (x > 0) { c := 1; while (c = 1) { c :~ 1/2*<0> + 1/2*<1> }; x := x - 1 }"
    )
    v = check_upper_invariant(
        nested,
        ZERO_RT,
        UpperInvariantSpec(parse_rt("1 + [x > 0] * 9 * x")),
        StateDomain.product({"x": (0, 1, 2), "c": (0, 1)}),
    )
    assert v.status == "Inconclusive"
    assert "cut off" in v.reason


def test_upper_invariant_dominates_the_loop_value_on_the_domain():
    # soundness face of Park's rule on the strictly terminating drain loop
    dom = StateDomain.product({"x": range(0, 7)})
    inv = parse_rt("1 + [x > 0] * 2 * x")
    assert check_upper_invariant(DRAIN, ZERO_RT, UpperInvariantSpec(inv), dom).holds
    for sigma in dom:
        r = expected_runtime(DRAIN, ZERO_RT, sigma)
        assert r.kind == "exact"
        assert r.value <= XReal(1 + 2 * sigma.get("x"))


GEO_OMEGA = parse_rt("1 + [c = 1] * (4 - 3 * (1/2)^n)")


def test_omega_invariant_holds_in_both_directions():
    for direction in ("lower", "upper"):
        spec = OmegaInvariantSpec(GEO_OMEGA, direction)
        v = check_omega_invariant(GEO, ZERO_RT, spec, n_max=50, D=GEO_DOM)
        assert v.status == "Holds", direction


def test_omega_invariant_fails_with_indexed_witness():
    too_big = parse_rt("1 + [c = 1] * 5")
    v = check_omega_invariant(
        GEO, ZERO_RT, OmegaInvariantSpec(too_big, "lower"), n_max=10, D=GEO_DOM
    )
    assert v.status == "Fails"
    assert v.witness == State({"c": 1})
    assert v.n == 0
    # the base case F(0) against I_0, checked before any step
    assert (v.lhs, v.rhs) == (XReal(2), XReal(6))


def test_omega_invariant_reports_the_failing_step():
    # F(I_n)(c=1) = 3 + min(n, 4) / 2 falls below I_{n+1} first at n = 3
    capped = parse_rt("1 + [c = 1] * min(n, 4)")
    v = check_omega_invariant(
        GEO, ZERO_RT, OmegaInvariantSpec(capped, "lower"), n_max=10, D=GEO_DOM
    )
    assert (v.status, v.witness, v.n) == ("Fails", State({"c": 1}), 3)
    assert (v.lhs, v.rhs) == (XReal(Fraction(9, 2)), XReal(5))


def test_omega_iterates_dominate_lower_invariant_sequence():
    # I_n is exactly F^(n+1)(0) here, the tightest possible witness sequence
    states = list(GEO_DOM)
    gen = kleene_iterates(GEO, ZERO_RT, states)
    next(gen)  # drop the zero table
    for n in range(0, 12):
        table = next(gen)
        for sigma in states:
            i_n = parse_rt("1 + [c = 1] * (4 - 3 * (1/2)^n)")
            from ertkit.semantics import eval_rt

            assert eval_rt(i_n, sigma, {"n": n}) == table[sigma]


def test_limit_probe_consistent_and_inconsistent():
    limit = parse_rt("1 + [c = 1] * 4")
    v = check_limit(GEO_OMEGA, limit, GEO_DOM, n_probe=60, tol=TOL, big=BIG)
    assert v.status == "Inconclusive"
    assert "consistent" in v.reason

    wrong = parse_rt("1 + [c = 1] * 9")
    v = check_limit(GEO_OMEGA, wrong, GEO_DOM, n_probe=60, tol=TOL, big=BIG)
    assert v.status == "Fails"
    assert v.witness == State({"c": 1})


def test_limit_probe_handles_divergent_limits():
    # I_n growing without bound against a declared infinite limit
    v = check_limit(
        parse_rt("[c = 1] * n"), parse_rt("[c = 1] * inf"), GEO_DOM,
        n_probe=10**6, tol=TOL, big=BIG,
    )
    assert v.status == "Inconclusive"
    assert "consistent" in v.reason


def test_refine_one_round_from_a_loose_bound():
    table = refine(GEO, ZERO_RT, parse_rt("1 + [c = 1] * 6"), GEO_DOM, rounds=1)
    assert table == {State({"c": 0}): XReal(1), State({"c": 1}): XReal(6)}


def test_refine_rounds_descend_toward_the_fixed_point():
    prev = None
    for rounds in (1, 2, 3, 4):
        table = refine(GEO, ZERO_RT, parse_rt("1 + [c = 1] * 6"), GEO_DOM, rounds=rounds)
        if prev is not None:
            for sigma, v in table.items():
                assert v <= prev[sigma]
        for sigma in GEO_DOM:
            exact = XReal(5 if sigma.get("c") == 1 else 1)
            assert exact <= table[sigma]
        prev = table
    assert prev[State({"c": 1})] == XReal(Fraction(41, 8))


def test_refine_requires_an_invariant_to_start_from():
    with pytest.raises(PreconditionFailed) as exc:
        refine(GEO, ZERO_RT, parse_rt("1 + [c = 1] * 3"), GEO_DOM, rounds=1)
    assert exc.value.state == State({"c": 1})
    assert exc.value.round_index == 0


def test_refine_names_the_state_a_round_needs_outside_the_domain():
    loop = parse_program("while (x < 5) { x := x + 1 }")
    bound = parse_rt("1 + 2 * (5 - x) + 3")
    dom = StateDomain.product({"x": range(0, 4)})
    assert len(refine(loop, ZERO_RT, bound, dom, rounds=1)) == 4
    with pytest.raises(DomainEscape) as exc:
        refine(loop, ZERO_RT, bound, dom, rounds=2)
    assert exc.value.state == State({"x": 4})
    assert exc.value.round_index == 1
    # closed once the domain holds every state the body reaches
    closed = StateDomain.product({"x": range(0, 6)})
    assert len(refine(loop, ZERO_RT, bound, closed, rounds=2)) == 6


def test_rw_coefficients_base_cases_and_closed_form():
    assert rw_coefficients(0, 0) == Fraction(1)
    assert rw_coefficients(1, 0) == Fraction(5, 2)
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert rw_coefficients(n, k) == rw_coefficient(n, k), (n, k)


def test_rw_coefficients_harmonic_lower_bound():
    for n in range(2, 41):
        assert rw_coefficients(n, 0) >= 1 + harmonic_number(n // 2), n


def test_rw_coefficients_vanish_above_the_diagonal():
    for n in range(0, 10):
        assert rw_coefficients(n, n + 1) == 0
        assert rw_coefficients(n, n + 5) == 0


def test_ert_table_is_a_fixed_point_invariant():
    # completeness face: the exact value itself passes the upper check
    inv = parse_rt("1 + [x > 0] * 2 * x")
    dom = StateDomain.product({"x": range(0, 30)})
    assert check_upper_invariant(DRAIN, ZERO_RT, UpperInvariantSpec(inv), dom).holds
    # and any slack above it also passes
    loose = parse_rt("2 + [x > 0] * 3 * x")
    assert check_upper_invariant(DRAIN, ZERO_RT, UpperInvariantSpec(loose), dom).holds


def test_invariant_checks_respect_the_continuation():
    f = parse_rt("10")
    inv = parse_rt("10 + 1 + [x > 0] * 2 * x")
    dom = StateDomain.product({"x": range(0, 10)})
    assert check_upper_invariant(DRAIN, f, UpperInvariantSpec(inv), dom).holds
    short = parse_rt("1 + [x > 0] * 2 * x")
    assert check_upper_invariant(DRAIN, f, UpperInvariantSpec(short), dom).status == "Fails"


def test_checkers_evaluate_bounds_on_a_deep_stack():
    # a bound of 3000 terms nests deeper than the default recursion limit
    ones = " + 1" * 2999
    bound = parse_rt("[c = 1] * 4" + ones)
    spec = OmegaInvariantSpec(bound, "upper")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        calls = [
            lambda: check_upper_invariant(GEO, ZERO_RT, UpperInvariantSpec(bound), GEO_DOM),
            lambda: check_omega_invariant(GEO, ZERO_RT, spec, 3, GEO_DOM),
            lambda: check_limit(bound, bound, GEO_DOM, n_probe=60, tol=TOL, big=BIG),
            lambda: refine(GEO, ZERO_RT, bound, GEO_DOM, rounds=1),
        ]
        out = []
        for call in calls:
            out.append(call())
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)
    assert [v.status for v in out[:3]] == ["Holds", "Holds", "Inconclusive"]
    assert out[3] == {State({"c": 0}): XReal(1), State({"c": 1}): XReal(3003)}
