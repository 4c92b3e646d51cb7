"""Every evaluation frees what it built when it returns.

Nothing an evaluation builds (memo, guard and distribution tables, states,
models, closures) may form a reference cycle, so reference counting frees
all of it as soon as the call returns.  With the cyclic collector off, a
call that keeps to this leaves nothing for `gc.collect()` to find.
"""
import gc
import itertools

import pytest

from ertkit.corpus import ENTRIES
from ertkit.kernel import State, XReal
from ertkit.mdp import MdpConfig, build_mdp, cross_check, expected_reward
from ertkit.parser import parse_program, parse_rt
from ertkit.props import run_property_suite
from ertkit.transformer import StepTable, char_functional, expected_runtime, kleene_iterates

GEO = parse_program("while (c = 1) { c :~ 1/2*<0> + 1/2*<1>; skip }")
CHOICE = parse_program(
    "while (x > 0) { { x := x - 1 } [] { x :~ 1/2*<x - 1> + 1/2*<x> } }; skip"
)
WALK = parse_program("while (x > 0) { x :~ 1/2*<x - 1> + 1/2*<x + 1> }")
F = parse_rt("[c = 1] * 2")
DRAW = parse_program("x :~ unif[0 .. 60]")
SERIES = parse_rt("harmonic(x) + rwcoef(x, 1)")


def _char_functional_twice():
    apply_F = char_functional(GEO, F)
    # a new X replaces the engine of the last one
    for X in (parse_rt("3"), lambda s: XReal(s.get("c"))):
        for c in (0, 1):
            apply_F(X, State({"c": c}))


def _kleene():
    states = [State({"c": 0}), State({"c": 1})]
    list(itertools.islice(kleene_iterates(GEO, F, states), 5))


def _eval():
    # as `ertkit eval` runs: two states and, for each, two depths, all
    # against one step table
    ert = StepTable().expected_runtime
    for x in (4, 2):
        for depth in (8, 4):
            ert(CHOICE, None, State({"x": x}), depth)


def _model():
    m = build_mdp(CHOICE, State({"x": 3}), parse_rt("0"))
    expected_reward(m)


def _fallback():
    report = cross_check(WALK, sigma=State({"x": 1}), cfg=MdpConfig(node_cap=500), fallback_unroll=8)
    assert report.bounded_at == 8


CALLS = {
    "expected_runtime": lambda: expected_runtime(CHOICE, None, State({"x": 4})),
    "harmonic_and_rwcoef": lambda: expected_runtime(DRAW, SERIES, State()),
    "eval_one_table": _eval,
    "char_functional": _char_functional_twice,
    "kleene_iterates": _kleene,
    "build_mdp": _model,
    "cross_check_fallback": _fallback,
    "run_property_suite": lambda: run_property_suite(seed=1, count=14),
    **{
        f"corpus_{name}": (lambda e=entry: e.run_checks())
        for name, entry in ENTRIES.items()
        if name != "race"
    },
}


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cycle(name, collector_off):
    call = CALLS[name]
    gc.collect()
    call()
    assert gc.collect() == 0
