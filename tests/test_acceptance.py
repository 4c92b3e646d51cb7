"""End-to-end acceptance checks, one criterion per test.

Every numeric target below is frozen from independent hand computation;
the time budgets are part of the criteria.  Each test appends one
PASS/FAIL line to RESULTS, which the conftest summary hook prints after
the run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from ertkit.corpus import ENTRIES, coupon_closed_form
from ertkit.invariants import (
    OmegaInvariantSpec,
    StateDomain,
    UpperInvariantSpec,
    check_limit,
    check_omega_invariant,
    check_upper_invariant,
)
from ertkit.kernel import State, XReal
from ertkit.mdp import MdpConfig, build_mdp, cross_check, expected_reward
from ertkit.parser import parse_program, parse_rt
from ertkit.props import run_property_suite, run_soundness_sweep
from ertkit.semantics import harmonic_number, rw_coefficient
from ertkit.syntax import (
    Annotated,
    Seq,
    replace_whiles,
    while_loops,
)
from ertkit.transformer import expected_runtime, kleene_iterates
from references import run_det_sweep, rw_coefficients
from test_mutants import drop_if_tick

RESULTS = []


@contextmanager
def criterion(name, budget_s, detail=""):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append((name, False, time.perf_counter() - start, detail))
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    RESULTS.append((name, ok, elapsed, detail))
    assert ok, f"{name} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_01_truncated_coin_exact():
    with criterion("1 truncated coin", 1.0, "ert = 5/2 exact, model agrees"):
        program = ENTRIES["trunc"].program()
        r = expected_runtime(program)
        assert r.kind == "exact"
        assert r.value == XReal(Fraction(5, 2))
        report = cross_check(program)
        assert report.status == "pass"
        assert report.detail == "exact equality"
        assert report.mdp_value == XReal(Fraction(5, 2))


def test_criterion_02_geometric_bound_and_model():
    with criterion(
        "2 geometric loop", 1.0, "lower bound 5 - 3/2^63, model exactly 5 and 1"
    ):
        program = ENTRIES["geo"].program()
        r = expected_runtime(program, None, State({"c": 1}))
        assert r.kind == "lower"
        assert r.value == XReal(Fraction(5) - Fraction(3, 2**63))
        assert r.value >= XReal(Fraction(5) - Fraction(1, 2**50))
        for c, expect in ((1, 5), (0, 1)):
            m = build_mdp(program, State({"c": c}), parse_rt("0"), 10_000)
            analysis = expected_reward(m)
            assert analysis.method == "ExactLinearSolve"
            assert analysis.value == XReal(expect)


def test_criterion_03_invariant_checks():
    with criterion(
        "3 invariant suite", 1.0, "upper holds, omega holds both ways, limit within 1e-12"
    ):
        loop = ENTRIES["geo"].program()
        dom = StateDomain.product({"c": (0, 1)})
        zero = parse_rt("0")
        upper = check_upper_invariant(
            loop, zero, UpperInvariantSpec(parse_rt("1 + [c = 1] * 4")), dom
        )
        assert upper.status == "Holds"
        seq = parse_rt("1 + [c = 1] * (4 - 3 * (1/2)^n)")
        for direction in ("lower", "upper"):
            v = check_omega_invariant(
                loop, zero, OmegaInvariantSpec(seq, direction), n_max=50, D=dom
            )
            assert v.status == "Holds", direction
        limit = check_limit(
            seq,
            parse_rt("1 + [c = 1] * 4"),
            dom,
            n_probe=60,
            tol=Fraction(1, 10**12),
            big=Fraction(10**6),
        )
        assert limit.status == "Inconclusive" and "consistent" in limit.reason
        # the probe sequence really is inside the tolerance at n = 60
        assert Fraction(3, 2**60) < Fraction(1, 10**12)


def test_criterion_04_coupon_collection():
    with criterion(
        "4 coupon collection", 30.0, "model = closed form (16, 25); bounds climb to it"
    ):
        entry = ENTRIES["coupon"]
        for n in (2, 3):
            program = entry.program(N=n)
            closed = coupon_closed_form(n)
            assert (n, closed) in ((2, Fraction(16)), (3, Fraction(25)))
            m = build_mdp(program, State(), parse_rt("0"), 10_000)
            analysis = expected_reward(m)
            assert analysis.method == "ExactLinearSolve"
            assert analysis.value == XReal(closed)

            prev = XReal(0)
            depth = 1
            values = []
            while depth <= 128:  # within the allowed depth budget of 500
                bounded = replace_whiles(program, depth)
                r = expected_runtime(bounded, None, State())
                assert r.kind in ("exact", "lower")
                assert prev <= r.value
                assert r.value <= XReal(closed)
                values.append(r.value)
                prev = r.value
                depth *= 2
            gap = closed - values[-1].q
            assert gap < Fraction(1, 10**6), float(gap)


def test_criterion_05_random_walk():
    with criterion(
        "5 symmetric walk", 10.0, "iterates pass 10 at n = 12; coefficients check out"
    ):
        loop = while_loops(ENTRIES["rwalk"].program())[0]
        states = [State({"x": v}) for v in range(0, 36)]
        gen = kleene_iterates(loop, parse_rt("0"), states)
        next(gen)
        at1 = State({"x": 1})
        prev = XReal(0)
        hit_n = None
        for n in range(1, 2001):
            table = next(gen)
            v = table[at1]
            assert prev <= v
            assert prev < v or n == 1  # strictly increasing at x = 1
            prev = v
            if v > XReal(10):
                hit_n = n
                break
        assert hit_n == 12
        assert prev == XReal(Fraction(10295, 1024))

        for n in range(0, 21):
            for k in range(0, n + 1):
                assert rw_coefficients(n, k) == rw_coefficient(n, k)
        for n in range(2, 41):
            assert rw_coefficients(n, 0) >= 1 + harmonic_number(n // 2)


NPAST_PART_ONE = """\
x := 1;
b := 1;
while (b = 1) {
  b :~ 1/2*<0> + 1/2*<1>;
  x := 2 * x
}"""
NPAST_PART_TWO = "while (x > 0) { x := x - 1 }"


def test_criterion_06_two_phase_composition():
    with criterion(
        "6 two-phase program", 10.0, "certified 9 and 3 exactly; composition above 100"
    ):
        part_one = parse_program(NPAST_PART_ONE)
        part_two = parse_program(NPAST_PART_TWO)
        sigma = State({"x": 1, "b": 1})

        # part one: the engine alone only produces a lower bound, but a
        # two-sided certificate pins the loop value to exactly 7, so the
        # program value is exactly 2 + 7 = 9
        engine = expected_runtime(part_one, None, sigma)
        assert engine.kind == "lower"
        assert engine.value == XReal(Fraction(9) - Fraction(1, 2**61))

        loop = while_loops(part_one)[0]
        dom = StateDomain.product({"b": (0, 1), "x": (1, 2)})
        zero = parse_rt("0")
        upper = check_upper_invariant(
            loop, zero, UpperInvariantSpec(parse_rt("1 + [b = 1] * 6")), dom
        )
        assert upper.status == "Holds"
        seq = parse_rt("[not (b = 1)] * 1 + [b = 1] * (7 - 7 * (1/2)^n)")
        lim = parse_rt("[not (b = 1)] * 1 + [b = 1] * 7")
        lower = check_omega_invariant(
            loop, zero, OmegaInvariantSpec(seq, "lower"), n_max=50, D=dom
        )
        assert lower.status == "Holds"
        consistent = check_limit(
            seq,
            lim,
            dom,
            n_probe=60,
            tol=Fraction(1, 10**12),
            big=Fraction(10**6),
        )
        assert "consistent" in consistent.reason
        # upper bound 1 + 6 = 7 meets the lower limit 7: value certified
        certified = XReal(2) + XReal(7)
        assert certified == XReal(9)

        # part two is exact on its own
        r2 = expected_runtime(part_two, None, State({"x": 1}))
        assert r2.kind == "exact"
        assert r2.value == XReal(3)

        # the composition needs the annotation to clear 100
        drain = while_loops(part_two)[0]
        annotated = Annotated(drain, parse_rt("1 + [x > 0] * 2 * x"))
        composed = Seq(part_one, annotated)
        rc = expected_runtime(composed, None, sigma)
        assert rc.kind == "lower"
        assert rc.value == XReal(Fraction(136) - Fraction(5, 2**63))
        assert rc.value > XReal(100)
        assert rc.annotations_used == ("1 + [x > 0] * 2 * x",)


def test_criterion_07_operational_agreement():
    with criterion(
        "7 model agreement", 120.0, "corpus plus 500 generated programs cross-check"
    ):
        for name, kwargs in (
            ("trunc", {}),
            ("geo", {"sigma": State({"c": 1})}),
            ("rwalk", {"sigma": State({"x": 1}),
                       "cfg": MdpConfig(node_cap=20_000), "fallback_unroll": 32}),
            ("race", {"cfg": MdpConfig(node_cap=150_000), "fallback_unroll": 40}),
            ("coupon", {}),
        ):
            report = cross_check(ENTRIES[name].program(), **kwargs)
            assert report.status == "pass", (name, report.detail)

        sweep = run_soundness_sweep(seed=11, count=500)
        assert sweep.ok, sweep.failures[:3]
        assert sweep.passed == 500
        assert sweep.exact >= 400  # the overwhelming majority settle exactly


def test_criterion_08_algebraic_laws_and_mutant(monkeypatch):
    with criterion(
        "8 algebraic laws", 120.0, "500-program suite clean; seeded mutant caught"
    ):
        report = run_property_suite(seed=42, count=500)
        assert report.ok, report.failures[:3]
        assert report.requested == 500

        drop_if_tick(monkeypatch)
        mutated = run_property_suite(seed=42, count=40)
        assert not mutated.ok, "the tick-dropping mutant must be caught"


def test_criterion_09_deterministic_agreement():
    with criterion(
        "9 deterministic runs", 30.0, "step counts equal the transformer on 200 programs"
    ):
        sweep = run_det_sweep(seed=7, count=200)
        assert sweep.ok, sweep.failures[:3]
        assert sweep.passed == 200
