import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import ertkit.props
import ertkit.transformer
from ertkit.generator import (
    PROFILES,
    random_program,
    random_runtime,
    random_state,
    shrink,
    shrink_candidates,
)
from ertkit.kernel import State
from ertkit.parser import parse_program, parse_rt
from ertkit.props import (
    CANARY_TEXT,
    run_property_suite,
    run_soundness_sweep,
)
from ertkit.semantics import eval_rt
from ertkit.syntax import (
    Annotated,
    Dirac,
    Halt,
    If,
    NdChoice,
    ProbAssign,
    While,
    WhileBounded,
    children,
    program_to_text,
)
from ertkit.transformer import (
    FuelExhausted,
    char_functional,
    det_step_count,
    expected_runtime,
)
from references import run_det_sweep
from test_mutants import drop_if_tick


def preorder(p):
    yield p
    for c in children(p):
        yield from preorder(c)


def contains_halt(p) -> bool:
    return any(isinstance(n, Halt) for n in preorder(p))


def contains_ndchoice(p) -> bool:
    return any(isinstance(n, NdChoice) for n in preorder(p))


def contains_while(p) -> bool:
    return any(isinstance(n, (While, WhileBounded, Annotated)) for n in preorder(p))


def is_deterministic(p) -> bool:
    """No nondeterministic choice and every distribution is a point mass."""
    for n in preorder(p):
        if isinstance(n, NdChoice):
            return False
        dists = []
        if isinstance(n, ProbAssign):
            dists.append(n.dist)
        if isinstance(n, (If, While, WhileBounded)):
            dists.append(n.guard)
        if isinstance(n, Annotated):
            dists.append(n.loop.guard)
        for d in dists:
            if not isinstance(d, Dirac):
                return False
    return True


def test_profiles_respect_their_contracts():
    rng = random.Random(99)
    for _ in range(200):
        assert not contains_halt(random_program(rng, PROFILES["halt-free"]))
        det = random_program(rng, PROFILES["deterministic"])
        assert is_deterministic(det)
        assert not contains_ndchoice(random_program(rng, PROFILES["probabilistic"]))
        lf = random_program(rng, PROFILES["loop-free"])
        assert not contains_while(lf)
        assert not any(isinstance(n, While) for n in preorder(lf))


def test_generated_runtimes_are_total_on_generated_states():
    rng = random.Random(5)
    for _ in range(300):
        f = random_runtime(rng)
        sigma = random_state(rng)
        eval_rt(f, sigma)  # must not raise


def test_property_suite_clean_run():
    report = run_property_suite(seed=42, count=120)
    assert report.ok, report.failures[:3]
    assert report.checked >= report.requested
    assert set(report.per_property) >= {
        "monotonicity",
        "scaling",
        "constant-propagation",
        "infinity-preservation",
        "sub-additivity",
        "loop-unrolling",
        "fixed-point",
        "deterministic-correspondence",
    }


def test_a_law_case_reads_each_guard_and_support_once(monkeypatch):
    # the three evaluations of one monotonicity-and-scaling case share one
    # step table, so none of them evaluates a guard or a support again
    calls = Counter()

    def counted(name):
        original = getattr(ertkit.transformer, name)

        def wrapper(expr, sigma):
            calls[id(expr), sigma] += 1
            return original(expr, sigma)

        return wrapper

    for name in ("eval_dist", "eval_guard"):
        monkeypatch.setattr(ertkit.transformer, name, counted(name))
    rng = random.Random(5)
    read = 0
    for _ in range(12):
        case, program, _, states = ertkit.props._monotone_scaling(rng)
        for sigma in states:
            calls.clear()
            case(program, sigma)
            assert set(calls.values()) <= {1}
            read += len(calls)
    assert read > 100


def test_property_suite_is_reproducible():
    a = run_property_suite(seed=7, count=60)
    b = run_property_suite(seed=7, count=60)
    assert a.per_property == b.per_property
    assert a.checked == b.checked


def test_mutant_is_caught(monkeypatch):
    drop_if_tick(monkeypatch)
    report = run_property_suite(seed=42, count=40)
    assert not report.ok
    props = {f.prop for f in report.failures}
    assert "deterministic-correspondence" in props or "fixed-point" in props


def test_mutant_gives_the_readme_failure_counts(monkeypatch):
    # README, "Property suite": at seed 42 with count 500, 171 failures; 136
    # come from the fixed-point law, each off by the one tick that
    # `char_functional` still charges, and 35 from the deterministic law
    drop_if_tick(monkeypatch)
    failures = run_property_suite(seed=42, count=500).failures
    assert len(failures) == 171
    assert Counter(f.prop for f in failures) == {
        "fixed-point": 136, "deterministic-correspondence": 35
    }
    pattern = r"F applied to the computed run-time gives (\S+), table has (\S+)"
    for failure in failures:
        if failure.prop == "fixed-point":
            image, table = re.fullmatch(pattern, failure.detail).groups()
            assert Fraction(image) - Fraction(table) == 1, failure


def test_canary_catches_the_mutant_at_any_seed(monkeypatch):
    # the deterministic canary makes the catch independent of generator luck
    drop_if_tick(monkeypatch)
    for seed in (0, 1, 99):
        report = run_property_suite(seed=seed, count=8)
        assert not report.ok
    assert "if" in CANARY_TEXT


def test_det_sweep():
    report = run_det_sweep(seed=3, count=60)
    assert report.ok
    assert report.passed == 60


def test_soundness_sweep():
    report = run_soundness_sweep(seed=11, count=60)
    assert report.ok, report.failures[:3]
    assert report.passed == 60
    assert report.exact > 0


def test_shrink_keeps_failure_and_never_grows():
    rng = random.Random(12)
    p = random_program(rng, PROFILES["general"])

    def too_long(q):
        return len(program_to_text(q)) > 0  # everything "fails"

    small = shrink(p, too_long)
    assert too_long(small)
    assert len(program_to_text(small)) <= len(program_to_text(p))


def test_mutant_shrinking_never_runs_the_step_counter_out(monkeypatch):
    # a shrink candidate whose transformer value is a cut-off is skipped
    # before the step counter runs on it
    calls, exhausted = [0], [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        try:
            return det_step_count(*args, **kwargs)
        except FuelExhausted:
            exhausted[0] += 1
            raise

    monkeypatch.setattr(ertkit.props, "det_step_count", counting)
    drop_if_tick(monkeypatch)
    report = run_property_suite(seed=42, count=40)
    assert not report.ok
    assert calls[0] > 0
    assert exhausted[0] == 0


def _parse_state(text):
    return State({k: int(v) for k, v in (kv.split("=") for kv in text.strip("{}").split(", "))})


def _det_numbers(p, sigma):
    """(step count, transformer value) as text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ertkit.transformer, "STEP_BUDGET", 50_000)
        counted, _ = det_step_count(p, sigma)
    return str(counted), str(expected_runtime(p, None, sigma).value)


def _fixed_point_numbers(p, f, sigma):
    """(F applied to the table, table value) as text, or None where the law
    does not apply: no loop, or a cut-off value."""
    if not isinstance(p, While):
        return None
    res = expected_runtime(p, f, sigma)
    if not res.is_exact:
        return None
    image, tainted = char_functional(p, f)(
        lambda s: expected_runtime(p, f, s).value, sigma
    )
    assert not tainted
    return str(image), str(res.value)


def _mutant_failures(monkeypatch):
    """The failures the suite reports under the mutant, which stays applied
    for the rest of the calling test."""
    drop_if_tick(monkeypatch)
    for seed, count in ((5, 14), (42, 40)):
        for failure in run_property_suite(seed, count).failures:
            f = None if failure.f == "-" else parse_rt(failure.f)
            yield failure, parse_program(failure.program), f, _parse_state(failure.state)


def _fails(prop, p, f, sigma):
    """Whether law `prop` fails on `p`, stated here apart from props.py;
    a candidate the law does not apply to, or that diverges, does not fail."""
    try:
        if prop == "deterministic-correspondence":
            counted, value = _det_numbers(p, sigma)
            return counted != value
        numbers = _fixed_point_numbers(p, f, sigma)
        return numbers is not None and numbers[0] != numbers[1]
    except FuelExhausted:
        return False


def test_mutant_failures_report_the_reported_programs_numbers(monkeypatch):
    seen = set()
    for failure, p, f, sigma in _mutant_failures(monkeypatch):
        seen.add(failure.prop)
        if failure.prop == "deterministic-correspondence":
            pattern = r"step count (\S+) but transformer value (\S+) \(exact\)"
            assert re.fullmatch(pattern, failure.detail).groups() == _det_numbers(p, sigma)
        else:
            assert failure.prop == "fixed-point"
            pattern = r"F applied to the computed run-time gives (\S+), table has (\S+)"
            numbers = re.fullmatch(pattern, failure.detail).groups()
            assert numbers == _fixed_point_numbers(p, f, sigma)
    assert seen == {"deterministic-correspondence", "fixed-point"}


def test_mutant_failures_are_shrunk_to_a_local_minimum_of_their_law(monkeypatch):
    failures = list(_mutant_failures(monkeypatch))
    # the canary, shrunk: its branches' ticks are what the mutant miscounts
    canary = program_to_text(parse_program("if (x > 0) { empty } else { empty }"))
    assert canary in {failure.program for failure, _, _, _ in failures}
    for failure, p, f, sigma in failures:
        assert _fails(failure.prop, p, f, sigma)
        for candidate in shrink_candidates(p):
            assert not _fails(failure.prop, candidate, f, sigma), (failure, candidate)
