"""Randomized checking of the transformer's algebraic laws.

Each law is checked on freshly generated programs, run-times, and
states.  Profiles restrict samples to the class a law is stated for:
constant propagation and preservation of infinity need halt-free
programs, sub-additivity needs fully probabilistic ones, and the
deterministic correspondence compares against the step-counting
interpreter.  A fixed canary program guards the harness itself: any
mutation of the if-guard tick is caught by it deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .generator import (
    PROFILES,
    random_program,
    random_runtime,
    random_state,
    shrink,
)
from .kernel import INF, State, XReal, x_add, x_leq, x_mul
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
    expand_bounded_once,
    program_to_text,
    rt_to_text,
    WhileBounded,
)
from .transformer import (
    ErtConfig,
    char_functional,
    det_step_count,
    expected_runtime,
)

CANARY_TEXT = "if (x > 0) { skip } else { skip }"


@dataclass(frozen=True)
class PropFailure:
    prop: str
    program: str
    f: str
    state: str
    detail: str


@dataclass
class PropReport:
    seed: int
    requested: int
    checked: int = 0
    per_property: dict = field(default_factory=dict)
    failures: List[PropFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _count(self, prop: str) -> None:
        self.checked += 1
        self.per_property[prop] = self.per_property.get(prop, 0) + 1


def _fail(
    report: PropReport,
    prop: str,
    program: Program,
    f: Optional[RtExpr],
    sigma: State,
    detail: str,
    still_fails: Optional[Callable[[Program], bool]] = None,
) -> None:
    if still_fails is not None:
        program = shrink(program, still_fails)
    report.failures.append(
        PropFailure(
            prop,
            program_to_text(program),
            rt_to_text(f) if f is not None else "-",
            repr(sigma),
            detail,
        )
    )


def _states(rng: random.Random, k: int = 2) -> List[State]:
    return [random_state(rng) for _ in range(k)]


def _check_canary(report: PropReport, cfg: Optional[ErtConfig]) -> None:
    program = parse_program(CANARY_TEXT)
    sigma = State({"x": 1, "y": 0, "z": 0})
    counted, _ = det_step_count(program, sigma)
    val = expected_runtime(program, None, sigma, cfg).value
    report._count("deterministic-correspondence")
    if counted != val:
        _fail(
            report,
            "deterministic-correspondence",
            program,
            None,
            sigma,
            f"step count {counted} but transformer value {val}",
        )


def _check_monotone_scaling(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    program = random_program(rng, PROFILES["general"])
    f = random_runtime(rng)
    h = random_runtime(rng, terms=1)
    r = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(3)])
    for sigma in _states(rng):
        lo = expected_runtime(program, f, sigma, cfg).value
        hi = expected_runtime(program, RAdd(f, h), sigma, cfg).value
        report._count("monotonicity")
        if not x_leq(lo, hi):
            _fail(
                report,
                "monotonicity",
                program,
                f,
                sigma,
                f"value {lo} for f exceeds value {hi} for f + ({rt_to_text(h)})",
                lambda p: not x_leq(
                    expected_runtime(p, f, sigma, cfg).value,
                    expected_runtime(p, RAdd(f, h), sigma, cfg).value,
                ),
            )
        scaled = expected_runtime(program, RMul(RLit(r), f), sigma, cfg).value
        lower = x_mul(XReal(min(Fraction(1), r)), lo)
        upper = x_mul(XReal(max(Fraction(1), r)), lo)
        report._count("scaling")
        if not (x_leq(lower, scaled) and x_leq(scaled, upper)):
            _fail(
                report,
                "scaling",
                program,
                f,
                sigma,
                f"r = {r}: value {scaled} outside [{lower}, {upper}]",
            )


def _check_const_prop(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    program = random_program(rng, PROFILES["halt-free"])
    f = random_runtime(rng)
    k = Fraction(rng.randint(0, 5), rng.randint(1, 4))
    shifted = RAdd(f, RLit(k))
    for sigma in _states(rng):
        base = expected_runtime(program, f, sigma, cfg).value
        moved = expected_runtime(program, shifted, sigma, cfg).value
        report._count("constant-propagation")
        if moved != x_add(base, XReal(k)):
            _fail(
                report,
                "constant-propagation",
                program,
                f,
                sigma,
                f"value for f + {k} is {moved}, expected {base} + {k}",
                lambda p: expected_runtime(p, shifted, sigma, cfg).value
                != x_add(expected_runtime(p, f, sigma, cfg).value, XReal(k)),
            )


def _check_infinity(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    program = random_program(rng, PROFILES["halt-free"])
    for sigma in _states(rng, 1):
        value = expected_runtime(program, RInf(), sigma, cfg).value
        report._count("infinity-preservation")
        if value != INF:
            _fail(
                report,
                "infinity-preservation",
                program,
                RInf(),
                sigma,
                f"finite value {value} for the infinite run-time",
                lambda p: expected_runtime(p, RInf(), sigma, cfg).value != INF,
            )


def _check_subadditive(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    program = random_program(rng, PROFILES["probabilistic"])
    f = random_runtime(rng)
    g = random_runtime(rng)
    for sigma in _states(rng):
        joint = expected_runtime(program, RAdd(f, g), sigma, cfg).value
        split = x_add(
            expected_runtime(program, f, sigma, cfg).value,
            expected_runtime(program, g, sigma, cfg).value,
        )
        report._count("sub-additivity")
        if not x_leq(joint, split):
            _fail(
                report,
                "sub-additivity",
                program,
                f,
                sigma,
                f"value {joint} for f + g exceeds the sum {split}",
                lambda p: not x_leq(
                    expected_runtime(p, RAdd(f, g), sigma, cfg).value,
                    x_add(
                        expected_runtime(p, f, sigma, cfg).value,
                        expected_runtime(p, g, sigma, cfg).value,
                    ),
                ),
            )


def _random_bounded_loop(rng: random.Random) -> WhileBounded:
    inner = random_program(rng, PROFILES["loop-free"], max_depth=1)
    from .generator import _guard  # menu shared with statement generation

    return WhileBounded(rng.randint(1, 4), _guard(rng, PROFILES["general"]), inner)


def _check_unrolling(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    loop = _random_bounded_loop(rng)
    unrolled = expand_bounded_once(loop)
    f = random_runtime(rng)
    for sigma in _states(rng):
        lhs = expected_runtime(loop, f, sigma, cfg).value
        rhs = expected_runtime(unrolled, f, sigma, cfg).value
        report._count("loop-unrolling")
        if lhs != rhs:
            _fail(
                report,
                "loop-unrolling",
                loop,
                f,
                sigma,
                f"bounded loop gives {lhs} but its one-step expansion gives {rhs}",
            )


def _check_fixed_point(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    """Where the loop's run-time is computed exactly, it is a fixed point
    of the characteristic functional."""
    from .generator import _countdown

    loop = _countdown(rng, PROFILES["general"], 1)
    f = random_runtime(rng)
    apply_F = char_functional(loop, f, cfg)

    def table(sigma: State) -> XReal:
        return expected_runtime(loop, f, sigma, cfg).value

    for sigma in _states(rng):
        res = expected_runtime(loop, f, sigma, cfg)
        if not res.is_exact:
            continue  # a cut-off value is only a lower bound, not a fixed point
        image, tainted = apply_F(table, sigma)
        report._count("fixed-point")
        if tainted or image != res.value:
            _fail(
                report,
                "fixed-point",
                loop,
                f,
                sigma,
                f"F applied to the computed run-time gives {image}, table has {res.value}",
            )


def _check_det(
    report: PropReport, rng: random.Random, cfg: Optional[ErtConfig]
) -> None:
    program = random_program(rng, PROFILES["deterministic"])
    for sigma in _states(rng, 1):
        counted, _ = det_step_count(program, sigma)
        res = expected_runtime(program, None, sigma, cfg)
        report._count("deterministic-correspondence")
        if not res.is_exact or counted != res.value:
            _fail(
                report,
                "deterministic-correspondence",
                program,
                None,
                sigma,
                f"step count {counted} but transformer value {res.value} ({res.kind})",
                # small fuel: a shrink candidate may have lost its decrease
                lambda p: det_step_count(p, sigma, fuel=50_000)[0]
                != expected_runtime(p, None, sigma, cfg).value,
            )


_BUNDLES = (
    _check_monotone_scaling,
    _check_const_prop,
    _check_infinity,
    _check_subadditive,
    _check_unrolling,
    _check_fixed_point,
    _check_det,
)


def run_property_suite(
    seed: int,
    count: int = 500,
    config: Optional[ErtConfig] = None,
) -> PropReport:
    """Check the algebraic laws on `count` generated programs.

    `config` is the transformer configuration under test; passing a
    mutated one must make the suite fail (the canary guarantees it).
    """
    rng = random.Random(seed)
    report = PropReport(seed=seed, requested=count)
    _check_canary(report, config)
    for i in range(count):
        _BUNDLES[i % len(_BUNDLES)](report, rng, config)
    return report


@dataclass(frozen=True)
class SweepFailure:
    program: str
    f: str
    state: str
    detail: str


@dataclass
class SweepReport:
    seed: int
    requested: int
    passed: int = 0
    exact: int = 0
    failures: List[SweepFailure] = field(default_factory=list)

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


def run_soundness_sweep(
    seed: int,
    count: int = 500,
    node_cap: int = 30_000,
    fallback_unroll: int = 32,
) -> SweepReport:
    """Cross-check the transformer against the operational model on the
    `count` triples of `sweep_triples(seed)`."""
    report = SweepReport(seed=seed, requested=count)
    cfg = MdpConfig(node_cap=node_cap)
    for program, f, sigma in sweep_triples(seed, count):
        res = cross_check(program, f, sigma, cfg, fallback_unroll=fallback_unroll)
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

