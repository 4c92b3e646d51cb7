"""Randomized checking of the transformer's algebraic laws.

Each law is checked on freshly generated programs, run-times, and
states.  Profiles restrict samples to the class a law is stated for:
constant propagation and preservation of infinity need halt-free
programs, sub-additivity needs fully probabilistic ones, and the
deterministic correspondence compares against the step-counting
interpreter.  A fixed canary program guards the harness itself: a
transformer that miscounts the if-guard tick fails on it at every seed.

Each law is stated once, in a case: a function of a program and a state
that gives, for each law it checks, None where the law holds or the
failure's detail.  The same function checks the drawn program and
shrinks a failing one.  A case that evaluates its program more than once
evaluates it against one step table, so the guard weights, supports and
successor states it computes, which no post-run-time changes, are shared.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .generator import (
    PROFILES,
    _countdown,
    _guard,
    random_program,
    random_runtime,
    random_state,
    shrink,
)
from .kernel import INF, Record, State, XReal
from .mdp import MdpConfig, cross_check
from .parser import parse_program
from .syntax import (
    Program,
    RAdd,
    RInf,
    RLit,
    RMul,
    RtExpr,
    RT_ZERO,
    program_to_text,
    rt_to_text,
    unfold_once,
    While,
    WhileBounded,
)
from .transformer import StepTable, char_functional, det_step_count, expected_runtime

CANARY_TEXT = "if (x > 0) { skip } else { skip }"

# (program, state) -> {law: None where it holds, else the failure's detail}
Case = Callable[[Program, State], Dict[str, Optional[str]]]
# a case with the program, the run-time f (None for the zero run-time of
# the step counter) and the states it is checked on
Sample = Tuple[Case, Program, Optional[RtExpr], List[State]]


class PropFailure(Record):
    __slots__ = ("prop", "program", "f", "state", "detail")  # each a str


class PropReport(Record, frozen=False):
    __slots__ = (
        "requested",  # int
        "checked",  # int
        "per_property",  # Dict[str, int]
        "failures",  # List[PropFailure]
    )
    _defaults = {"checked": 0, "per_property": {}, "failures": []}

    @property
    def ok(self) -> bool:
        return not self.failures

    def _count(self, prop: str) -> None:
        self.checked += 1
        self.per_property[prop] = self.per_property.get(prop, 0) + 1


def _check(report: PropReport, sample: Sample) -> None:
    """Count each law the sample's case checks on its program at each of
    its states.  A failing program is shrunk while the same law fails on it
    (`shrink` skips a candidate on which the case raises a `KernelError`),
    and is reported with the detail the case gives for the shrunk program."""
    case, program, f, states = sample
    for sigma in states:
        for prop, detail in case(program, sigma).items():
            report._count(prop)
            if detail is None:
                continue

            def law(p: Program) -> Optional[str]:
                return case(p, sigma).get(prop)

            small = shrink(program, lambda p: law(p) is not None)
            text = rt_to_text(f) if f is not None else "-"
            report.failures.append(
                PropFailure(prop, program_to_text(small), text, repr(sigma), law(small))
            )


def _states(rng: random.Random, k: int = 2) -> List[State]:
    return [random_state(rng) for _ in range(k)]


def _det_case(program: Program) -> Case:
    """The deterministic correspondence: the step count equals the
    transformer's exact value for the zero run-time."""

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        res = expected_runtime(p, None, sigma)
        if p is not program and not res.is_exact:
            # a shrink candidate with a cut-off value may have lost its
            # loop's decrease: skipped before the step counter runs on it
            return {}
        counted, _ = det_step_count(p, sigma)
        return {
            "deterministic-correspondence": None if res.is_exact and counted == res.value
            else f"step count {counted} but transformer value {res.value} ({res.kind})"
        }

    return case


def _canary() -> Sample:
    program = parse_program(CANARY_TEXT)
    return _det_case(program), program, None, [State({"x": 1, "y": 0, "z": 0})]


def _monotone_scaling(rng: random.Random) -> Sample:
    program = random_program(rng, PROFILES["general"])
    f = random_runtime(rng)
    h = random_runtime(rng, terms=1)
    r = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(3)])

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        ert = StepTable().expected_runtime
        lo = ert(p, f, sigma).value
        hi = ert(p, RAdd(f, h), sigma).value
        scaled = ert(p, RMul(RLit(r), f), sigma).value
        lower = XReal(min(Fraction(1), r)) * lo
        upper = XReal(max(Fraction(1), r)) * lo
        scaled_ok = lower <= scaled <= upper
        return {
            "monotonicity": None if lo <= hi
            else f"value {lo} for f exceeds value {hi} for f + ({rt_to_text(h)})",
            "scaling": None if scaled_ok
            else f"r = {r}: value {scaled} outside [{lower}, {upper}]",
        }

    return case, program, f, _states(rng)


def _const_prop(rng: random.Random) -> Sample:
    program = random_program(rng, PROFILES["halt-free"])
    f = random_runtime(rng)
    k = Fraction(rng.randint(0, 5), rng.randint(1, 4))

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        ert = StepTable().expected_runtime
        base = ert(p, f, sigma).value
        moved = ert(p, RAdd(f, RLit(k)), sigma).value
        return {
            "constant-propagation": None if moved == base + XReal(k)
            else f"value for f + {k} is {moved}, expected {base} + {k}"
        }

    return case, program, f, _states(rng)


def _infinity(rng: random.Random) -> Sample:
    program = random_program(rng, PROFILES["halt-free"])

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        value = expected_runtime(p, RInf(), sigma).value
        return {
            "infinity-preservation": None if value == INF
            else f"finite value {value} for the infinite run-time"
        }

    return case, program, RInf(), _states(rng, 1)


def _subadditive(rng: random.Random) -> Sample:
    program = random_program(rng, PROFILES["probabilistic"])
    f = random_runtime(rng)
    g = random_runtime(rng)

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        ert = StepTable().expected_runtime
        joint = ert(p, RAdd(f, g), sigma).value
        split = ert(p, f, sigma).value + ert(p, g, sigma).value
        return {
            "sub-additivity": None if joint <= split
            else f"value {joint} for f + g exceeds the sum {split}"
        }

    return case, program, f, _states(rng)


def _unrolling(rng: random.Random) -> Sample:
    inner = random_program(rng, PROFILES["loop-free"], max_depth=1)
    loop = WhileBounded(rng.randint(1, 4), _guard(rng, PROFILES["general"]), inner)
    f = random_runtime(rng)

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        if not isinstance(p, WhileBounded):
            return {}  # a shrink candidate that is no longer a bounded loop
        # the expansion shares the loop's guard and body, and so their entries
        ert = StepTable().expected_runtime
        lhs = ert(p, f, sigma).value
        rhs = ert(unfold_once(p), f, sigma).value
        return {
            "loop-unrolling": None if lhs == rhs
            else f"bounded loop gives {lhs} but its one-step expansion gives {rhs}"
        }

    return case, loop, f, _states(rng)


def _fixed_point(rng: random.Random) -> Sample:
    """Where the loop's run-time is computed exactly, it is a fixed point
    of the characteristic functional."""
    loop = _countdown(rng, PROFILES["general"], 1)
    f = random_runtime(rng)
    # the last loop checked with its step table, its functional and its
    # table of run-times, which its states share, so that they share one
    # engine and its memo of table lookups
    last: list = [None, None, None, None]

    def case(p: Program, sigma: State) -> Dict[str, Optional[str]]:
        if not isinstance(p, While):
            return {}  # a shrink candidate that is no longer a loop
        if last[0] is not p:
            ert = StepTable().expected_runtime
            table = lambda s: ert(p, f, s).value  # noqa: E731
            last[:] = p, ert, char_functional(p, f), table
        _, run, apply_F, table = last
        res = run(p, f, sigma)
        if not res.is_exact:
            return {}  # a cut-off value is only a lower bound, not a fixed point
        image, tainted = apply_F(table, sigma)
        return {
            "fixed-point": None if not tainted and image == res.value
            else f"F applied to the computed run-time gives {image}, table has {res.value}"
        }

    return case, loop, f, _states(rng)


def _deterministic(rng: random.Random) -> Sample:
    program = random_program(rng, PROFILES["deterministic"])
    return _det_case(program), program, None, _states(rng, 1)


_SAMPLERS = (
    _monotone_scaling,
    _const_prop,
    _infinity,
    _subadditive,
    _unrolling,
    _fixed_point,
    _deterministic,
)


def run_property_suite(seed: int, count: int) -> PropReport:
    """Check the algebraic laws on `count` generated programs, after the
    canary."""
    rng = random.Random(seed)
    report = PropReport(requested=count)
    _check(report, _canary())
    for i in range(count):
        _check(report, _SAMPLERS[i % len(_SAMPLERS)](rng))
    return report


class SweepFailure(Record):
    __slots__ = ("program", "f", "state", "detail")  # each a str


class SweepReport(Record, frozen=False):
    __slots__ = (
        "passed",  # int
        "exact",  # int
        "failures",  # List[SweepFailure]
    )
    _defaults = {"passed": 0, "exact": 0, "failures": []}

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep_triples(seed: int, count: int = 500) -> Iterator[Tuple[Program, RtExpr, State]]:
    """The `(program, f, state)` triples of the soundness sweep: programs
    cycle through all generator profiles, and every third one gets a
    random continuation run-time."""
    rng = random.Random(seed)
    names = list(PROFILES)
    for i in range(count):
        program = random_program(rng, PROFILES[names[i % len(names)]])
        f = random_runtime(rng, terms=1) if i % 3 == 0 else RT_ZERO
        yield program, f, random_state(rng)


def run_soundness_sweep(seed: int, count: int) -> SweepReport:
    """Cross-check the transformer against the operational model on the
    `count` triples of `sweep_triples(seed)`, with a node cap of 30 000
    and a fallback unrolling of 32."""
    report = SweepReport()
    cfg = MdpConfig(node_cap=30_000)
    for program, f, sigma in sweep_triples(seed, count):
        res = cross_check(program, f, sigma, cfg, fallback_unroll=32)
        if res.status == "pass":
            report.passed += 1
            if res.detail == "exact equality":
                report.exact += 1
        else:
            report.failures.append(
                SweepFailure(
                    program_to_text(program),
                    rt_to_text(f),
                    repr(sigma),
                    f"{res.detail}: transformer {res.ert_value} ({res.ert_kind}), "
                    f"model {res.mdp_value} via {res.method}",
                )
            )
    return report

