"""Self-test of the benchmark on short counts.

    python3 perfbench/selftest.py

Checks three things: the sweep loop the benchmark replicates draws the same
triples and reaches the same counts as `run_soundness_sweep`; the tracing
wrappers return exactly what the wrapped functions return; and the per-layer
self times of a traced pass add up to its wall time within the remainder no
wrapper covers.  Exits 0 when every check holds.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ertkit import corpus, generator, invariants, mdp, parser, props, transformer  # noqa: E402
from ertkit.kernel import State  # noqa: E402
from ertkit.syntax import RT_ZERO, program_to_text, rt_to_text, while_loops  # noqa: E402

import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SHORT = 25


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok    {what}")


def _text(triple) -> tuple:
    program, f, sigma = triple
    return program_to_text(program), rt_to_text(f), repr(sigma)


def sweep_matches_run_soundness_sweep() -> None:
    for seed in (11, 12):
        seen = []
        original = props.cross_check
        props.cross_check = lambda C, f, sigma, *a, **k: (seen.append((C, f, sigma)), original(C, f, sigma, *a, **k))[1]
        try:
            report = props.run_soundness_sweep(seed, count=SHORT)
        finally:
            props.cross_check = original
        triples = workloads.sweep_triples(seed, SHORT)
        check([_text(t) for t in triples] == [_text(t) for t in seen],
              f"seed {seed}: the replicated loop draws run_soundness_sweep's {SHORT} triples")
        cfg = mdp.MdpConfig(node_cap=workloads.SWEEP_NODE_CAP)
        outcomes = [workloads._sweep_item(*t, cfg) for t in triples]
        passed = sum(ok for ok, _, _ in outcomes)
        exact = sum(ok and ex for ok, ex, _ in outcomes)
        check((passed, exact) == (report.passed, report.exact),
              f"seed {seed}: passed {passed} and exact {exact} equal run_soundness_sweep's")


def _samples() -> list:
    """(module, attribute, argument factory) calls covering every wrapped
    entry point; a factory makes fresh arguments for each call."""
    geo = parser.parse_program(corpus.ENTRIES["geo"].source())
    det = parser.parse_program("x := 3; while (x > 0) { x := x - 1 }")
    m = mdp.build_mdp(geo, State({"c": 1}))
    loop = while_loops(parser.parse_program("while (b = 1) { b :~ 1/2*<0> + 1/2*<1>; x := 2 * x }"))[0]
    domain = invariants.StateDomain.product({"b": (0, 1), "x": (1, 2)})
    upper = invariants.UpperInvariantSpec(parser.parse_rt("1 + [b = 1] * 6"))
    omega = invariants.OmegaInvariantSpec(
        parser.parse_rt("[not (b = 1)] * 1 + [b = 1] * (7 - 7 * (1/2)^n)"), "lower")
    return [
        (generator, "random_program", lambda: (random.Random(1),)),
        (generator, "random_runtime", lambda: (random.Random(2),)),
        (generator, "random_state", lambda: (random.Random(3),)),
        (parser, "parse_program", lambda: (corpus.ENTRIES["race"].source(),)),
        (parser, "parse_rt", lambda: ("1 + [x > 0] * 2 * x",)),
        (transformer, "expected_runtime", lambda: (geo, None, State({"c": 1}))),
        (transformer, "det_step_count", lambda: (det,)),
        (mdp, "build_mdp", lambda: (geo, State({"c": 1}))),
        (mdp, "qualitative_check", lambda: (m,)),
        (mdp, "expected_reward", lambda: (m,)),
        (mdp, "cross_check", lambda: (geo, RT_ZERO, State({"c": 1}))),
        (invariants, "check_upper_invariant", lambda: (loop, RT_ZERO, upper, domain)),
        (invariants, "check_omega_invariant", lambda: (loop, RT_ZERO, omega, 10, domain)),
    ]


def wrappers_are_transparent() -> None:
    samples = _samples()
    check({(m.__name__, a) for m, a, _ in samples} == {(m, a) for m, a, _, _ in TARGETS},
          "the samples cover every wrapped entry point")
    plain = [getattr(m, a)(*args()) for m, a, args in samples]
    tracer = Tracer()
    sentinel = object()
    check(tracer.wrap(lambda: sentinel, "probe", None)() is sentinel, "a wrapper returns the very object")
    tracer.install()
    try:
        for (m, a, args), want in zip(samples, plain):
            check(hasattr(getattr(m, a), "__wrapped__") and getattr(m, a)(*args()) == want,
                  f"wrapped {m.__name__}.{a} returns what {a} returns")
        check(corpus.expected_runtime is transformer.expected_runtime
              and all(getattr(corpus, n) is getattr(mdp, n) for n in ("cross_check", "build_mdp", "expected_reward")),
              "ertkit.corpus's imported names are wrapped too")
        try:
            mdp.build_mdp(corpus.ENTRIES["race"].program(), State(), RT_ZERO, 100)
            raised = None
        except mdp.NodeCapExceeded as exc:
            raised = exc
        check(raised is not None and raised.cap == 100, "a wrapper re-raises what the wrapped function raises")
    finally:
        tracer.uninstall()
    check(not any(hasattr(getattr(m, a), "__wrapped__") for m, a, _ in samples)
          and not hasattr(corpus.build_mdp, "__wrapped__"),
          "uninstall restores every entry point")


def self_times_add_up() -> None:
    for workload, keep in (("sweep", SHORT), ("props", 6), ("corpus", None)):
        items = workloads.make_items(workload, workloads.DATA_SEEDS[workload], 0)
        if workload == "corpus":
            items = [i for i in items if i.name != "corpus.race"]  # the 6 s entry
        items = items[:keep]
        plain = [i.run()[2] for i in items]
        tracer = Tracer()
        tracer.install()
        try:
            start = perf_counter()
            traced = [tracer.run_item(i.name, i.run)[2] for i in items]
            wall = perf_counter() - start
        finally:
            tracer.uninstall()
        check(traced == plain, f"{workload}: tracing changes no verdict or value on {len(items)} items")
        m = tracer.metrics([i.name for i in items])
        check(min(tracer.self_times()) >= -1e-6, f"{workload}: no span has a negative self time")
        covered = m["trace.layers_s"] + m["trace.unwrapped_s"] + m.get("trace.annotate_s", 0)
        check(m["trace.layers_s"] > 0 and 0 <= wall - covered < 0.01 * wall + 1e-3,
              f"{workload}: layer self times {m['trace.layers_s']:.4f} s + unwrapped "
              f"{m['trace.unwrapped_s']:.4f} s add up to the traced wall {wall:.4f} s")


def main() -> int:
    sweep_matches_run_soundness_sweep()
    wrappers_are_transparent()
    self_times_add_up()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
