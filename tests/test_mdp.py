import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ertkit.corpus import ENTRIES, coupon_closed_form
from ertkit.generator import PROFILES, random_program, random_runtime, random_state
from ertkit.kernel import INF, State, XReal
from ertkit.mdp import (
    Mdp,
    MdpConfig,
    MdpNode,
    NodeCapExceeded,
    Qualitative,
    _sccs,
    _solve_chain,
    build_mdp,
    cross_check,
    expected_reward,
    mdp_to_dot,
    qualitative_check,
    recompute_rewards,
)
from ertkit.parser import parse_program, parse_rt
from ertkit.syntax import (
    RT_ZERO,
    Annotated,
    BoolLit,
    Dirac,
    Halt,
    InvariantAnnotation,
    NdChoice,
    Seq,
    Skip,
    While,
    WhileBounded,
    program_to_text,
)
from ertkit.transformer import expected_runtime


def build(src, sigma=None, f="0", node_cap=200_000):
    return build_mdp(parse_program(src), sigma or State(), parse_rt(f), node_cap)


def test_empty_program_has_three_distinct_nodes():
    # the run visits exec-empty, the terminal configuration, and the sink;
    # re-entering the sink is a self-loop, not a fourth node
    m = build("empty")
    assert m.node_count == 3
    kinds = sorted(n.kind for n in m.nodes)
    assert kinds == ["exec", "sink", "term"]


def test_every_action_row_is_a_distribution():
    m = build("if (1/2*<true> + 1/2*<false>) { x := 0 } else { x :~ unif[1 .. 3] }")
    for rows in m.transitions:
        assert rows, "every node needs at least one action"
        for action, row in rows.items():
            assert sum(p for p, _ in row) == 1
            assert all(p > 0 for p, _ in row)


def test_markov_chain_exactly_when_no_choice():
    assert build("skip; x :~ unif[0 .. 5]").is_markov_chain()
    m = build("{ skip } [] { skip; skip }")
    assert not m.is_markov_chain()
    widths = sorted(len(rows) for rows in m.transitions)
    assert widths[-1] == 2


def test_tick_rewards_sit_on_the_charging_statements():
    m = build("skip", f="0")
    by_kind = {n.kind: r for n, r in zip(m.nodes, m.rewards)}
    assert by_kind["exec"] == XReal(1)
    assert by_kind["sink"] == XReal(0)
    assert by_kind["term"] == XReal(0)


def test_terminal_node_collects_the_runtime():
    m = build("x := 2", f="10 * x")
    term = [i for i, n in enumerate(m.nodes) if n.kind == "term"]
    assert len(term) == 1
    assert m.rewards[term[0]] == XReal(20)
    assert expected_reward(m).value == XReal(21)


def test_halt_bypasses_the_runtime_collection():
    m = build("skip; halt", f="100")
    assert expected_reward(m).value == XReal(1)
    plain = build("skip", f="100")
    assert expected_reward(plain).value == XReal(101)


def test_reward_audit_matches():
    m = build(ENTRIES["trunc"].source(), f="3/2")
    assert recompute_rewards(m) == m.rewards


def test_truncated_coin_value():
    m = build(ENTRIES["trunc"].source())
    analysis = expected_reward(m)
    assert analysis.method == "ExactLinearSolve"
    assert analysis.value == XReal(Fraction(5, 2))


def test_geometric_loop_value_is_exact_in_the_model():
    entry = ENTRIES["geo"]
    m = build_mdp(entry.program(), State({"c": 1}), parse_rt("0"), 10_000)
    analysis = expected_reward(m)
    assert analysis.method == "ExactLinearSolve"
    assert analysis.value == XReal(5)
    m0 = build_mdp(entry.program(), State({"c": 0}), parse_rt("0"), 10_000)
    assert expected_reward(m0).value == XReal(1)


def test_annotated_loop_builds_the_model_of_the_plain_loop():
    geo = ENTRIES["geo"].program()
    ann = Annotated(geo, InvariantAnnotation("upper", parse_rt("1 + [c = 1] * 4")))
    plain = build_mdp(geo, State({"c": 1}), RT_ZERO)
    m = build_mdp(ann, State({"c": 1}), RT_ZERO)
    assert m.node_count == plain.node_count
    assert expected_reward(m).value == expected_reward(plain).value == XReal(5)
    assert mdp_to_dot(m) == mdp_to_dot(plain)


def test_bounded_loop_builds_the_model_of_its_unrolled_text():
    geo = ENTRIES["geo"].program()
    drain = parse_program("while (x > 0) { x := x - 1 }")
    inner = WhileBounded(2, drain.guard, drain.body)
    cases = [
        (WhileBounded(4, geo.guard, geo.body), State({"c": 1})),
        (WhileBounded(3, geo.guard, Seq(inner, geo.body)), State({"c": 1, "x": 3})),
    ]
    for wb, sigma in cases:
        unrolled = parse_program(program_to_text(wb))
        m = build_mdp(wb, sigma, parse_rt("c"))
        expect = build_mdp(unrolled, sigma, parse_rt("c"))
        assert m.node_count == expect.node_count
        assert mdp_to_dot(m) == mdp_to_dot(expect)
        assert expected_reward(m).value == expected_reward(expect).value


def test_coupon_values_match_the_closed_form():
    for n in (2, 3):
        entry = ENTRIES["coupon"]
        m = build_mdp(entry.program(N=n), entry.initial_state(), parse_rt("0"), 10_000)
        analysis = expected_reward(m)
        assert analysis.method == "ExactLinearSolve"
        assert analysis.value == XReal(coupon_closed_form(n))
    assert coupon_closed_form(2) == 16
    assert coupon_closed_form(3) == 25


def test_nondeterminism_takes_the_worst_branch():
    src = "{ skip } [] { skip; skip; skip }"
    m = build(src)
    analysis = expected_reward(m)
    assert analysis.method == "PolicyIteration"
    assert analysis.schedulers == 2
    assert analysis.value == XReal(3)
    assert analysis.value == expected_runtime(parse_program(src)).value


def brute_force_value(m):
    """Best value over every memoryless scheduler, each solved exactly."""
    nd = [i for i, rows in enumerate(m.transitions) if len(rows) > 1]
    choices = [sorted(m.transitions[i]) for i in nd]
    return max(
        _solve_chain(m, dict(zip(nd, pick)))[m.initial]
        for pick in itertools.product(*choices)
    )


def test_policy_iteration_matches_scheduler_enumeration():
    rng = random.Random(3)
    names = ("general", "loop-free", "halt-free")
    checked = improved = 0
    for k in range(160):
        program = random_program(rng, PROFILES[names[k % len(names)]])
        f = random_runtime(rng, terms=1) if k % 3 == 0 else RT_ZERO
        sigma = random_state(rng)
        try:
            m = build_mdp(program, sigma, f, 500)
        except NodeCapExceeded:
            continue
        widths = [len(rows) for rows in m.transitions if len(rows) > 1]
        if not widths or math.prod(widths) > 256:
            continue
        if qualitative_check(m).kind != "AllSchedulersReachSink":
            continue
        analysis = expected_reward(m)
        assert analysis.method == "PolicyIteration"
        assert analysis.value == XReal(brute_force_value(m))
        checked += 1
        improved += analysis.schedulers > 1
    assert checked >= 20
    assert improved >= 1


def test_policy_iteration_repeats_until_no_action_improves():
    # the outer choice only pays off once the inner one has switched, so the
    # best scheduler is the third one evaluated
    m = build("{ skip } [] { { skip } [] { skip; skip; skip } }")
    analysis = expected_reward(m)
    assert analysis.method == "PolicyIteration"
    assert analysis.schedulers == 3
    assert analysis.value == XReal(brute_force_value(m)) == XReal(3)


def test_cross_check_is_exact_on_a_model_with_many_schedulers():
    # a generated program (soundness sweep seed 11) whose 115-node model has
    # 18 choice nodes, so 2^18 schedulers; the check still settles exactly
    src = (
        "z :~ unif[2 .. 2 + 3]; x :~ 1/2*<x> + 1/4*<0 - 3> + 1/4*<y>; "
        "{ z :~ 3/5*<2> + 2/5*<3 * 0>; { x := -2 } [] { z := 0 } } "
        "[] { skip; z :~ 1/3*<(-1) * 0> + 1/3*<x> + 1/3*<y> }"
    )
    report = cross_check(
        parse_program(src), parse_rt("1"), State({"x": 0, "y": 3, "z": 1})
    )
    assert report.node_count == 115
    assert report.method == "PolicyIteration"
    assert report.status == "pass"
    assert report.detail == "exact equality"
    assert report.mdp_value == XReal(5)


def end_components_avoiding_the_sink(m):
    """The maximal end component decomposition by repeated SCC refinement:
    sub-MDPs a scheduler can keep forever, in which every node has an action
    whose whole support stays inside, strongly connected through those
    actions.  Returns those without the sink."""
    groups = [list(range(m.node_count))]
    changed = True
    while changed:
        changed = False
        new_groups = []
        for grp in groups:
            inside = set(grp)
            succ, keep = {}, {}
            for v in grp:
                outs, acts = [], []
                for action, rows in m.transitions[v].items():
                    if all(j in inside for _, j in rows):
                        acts.append(action)
                        outs.extend(j for _, j in rows)
                if acts:
                    succ[v] = outs
                    keep[v] = acts
            vertices = [v for v in grp if v in keep]
            for comp in _sccs(vertices, succ):
                cs = set(comp)
                if len(comp) == 1 and not any(
                    all(j in cs for _, j in m.transitions[comp[0]][a])
                    for a in keep.get(comp[0], [])
                ):
                    changed = True
                    continue  # trivial component, drop the state
                if len(cs) != len(inside):
                    changed = True
                new_groups.append(comp)
            if len(vertices) != len(grp):
                changed = True
        groups = new_groups
    return [grp for grp in groups if m.sink not in grp]


def _diverging_variants(rng, k):
    """A generated program, bare or wrapped so that it may run forever."""
    names = list(PROFILES)
    body = random_program(rng, PROFILES[names[k % len(names)]])
    forever = Dirac(BoolLit(True))
    return [
        body,
        While(forever, body),
        While(forever, NdChoice(Halt(), body)),
        Seq(body, While(forever, NdChoice(Halt(), Skip()))),
    ][k % 4]


def test_qualitative_check_matches_end_component_decomposition():
    rng = random.Random(5)
    verdicts = {"AllSchedulersReachSink": 0, "SomeSchedulerAvoids": 0}
    for k in range(240):
        program = _diverging_variants(rng, k)
        try:
            m = build_mdp(program, random_state(rng), RT_ZERO, 2_000)
        except NodeCapExceeded:
            continue
        q = qualitative_check(m)
        assert (q.kind == "SomeSchedulerAvoids") == bool(
            end_components_avoiding_the_sink(m)
        ), program_to_text(program)
        verdicts[q.kind] += 1
        if q.witness:
            # the witness is a memoryless scheduler that never leaves it
            inside = {v for v, _ in q.witness}
            assert m.sink not in inside
            assert all(
                j in inside for v, a in q.witness for _, j in m.transitions[v][a]
            )
    assert verdicts["SomeSchedulerAvoids"] >= 20
    assert verdicts["AllSchedulersReachSink"] >= 20


def test_only_a_larger_action_avoids_the_sink():
    # node 1 may step to the sink ("L", the smallest action) or stay ("R")
    m = Mdp(
        nodes=[MdpNode("sink"), MdpNode("exec")],
        transitions=[
            {"t": [(Fraction(1), 0)]},
            {"L": [(Fraction(1), 0)], "R": [(Fraction(1), 1)]},
        ],
        rewards=[XReal(0), XReal(1)],
        initial=1,
        sink=0,
        f=RT_ZERO,
    )
    q = qualitative_check(m)
    assert q == Qualitative("SomeSchedulerAvoids", ((1, "R"),))
    assert end_components_avoiding_the_sink(m) == [[1]]
    assert expected_reward(m).value == INF
    # the same shape from a program: the left branch halts, the right loops
    m = build("while (true) { { halt } [] { skip } }")
    q = qualitative_check(m)
    assert q.kind == "SomeSchedulerAvoids"
    assert all(a == "R" for v, a in q.witness if len(m.transitions[v]) > 1)
    assert end_components_avoiding_the_sink(m)


def test_qualitative_detects_sink_avoidance():
    m = build("while (true) { skip }")
    q = qualitative_check(m)
    assert q.kind == "SomeSchedulerAvoids"
    assert q.witness
    analysis = expected_reward(m)
    assert analysis.value == INF
    assert analysis.method == "Qualitative"


def test_qualitative_all_reach_on_terminating_programs():
    m = build("x := 3; while (x > 0) { x := x - 1 }", State({"x": 0}))
    assert qualitative_check(m).kind == "AllSchedulersReachSink"


def test_infinite_reward_on_a_reachable_node():
    m = build("x := 0; skip", f="[x = 0] * inf", sigma=State({"x": 1}))
    analysis = expected_reward(m)
    assert analysis.method == "InfiniteReward"
    assert analysis.value == INF


def test_node_cap_is_enforced():
    with pytest.raises(NodeCapExceeded):
        build("while (x > 0) { x := x + 1 }", State({"x": 1}), node_cap=50)


def test_cross_check_exact_on_loop_free_programs():
    report = cross_check(parse_program(ENTRIES["trunc"].source()))
    assert report.status == "pass"
    assert report.detail == "exact equality"
    assert report.bounded_at is None
    assert report.ert_value == report.mdp_value == XReal(Fraction(5, 2))


def test_cross_check_lower_bound_against_exact_model():
    report = cross_check(parse_program(ENTRIES["geo"].source()), sigma=State({"c": 1}))
    assert report.status == "pass"
    assert report.ert_kind == "lower"
    assert report.mdp_value == XReal(5)
    assert report.ert_value <= report.mdp_value


def test_cross_check_falls_back_to_the_bounded_program():
    walk = parse_program("while (x > 0) { x :~ 1/2*<x - 1> + 1/2*<x + 1> }")
    report = cross_check(
        walk,
        sigma=State({"x": 1}),
        cfg=MdpConfig(node_cap=500),
        fallback_unroll=8,
    )
    assert report.bounded_at == 8
    assert report.status == "pass"
    assert report.detail == "exact equality"


def test_dot_export_mentions_every_node():
    m = build("skip; skip")
    dot = mdp_to_dot(m)
    assert dot.startswith("digraph")
    for i in range(m.node_count):
        assert f"n{i} " in dot or f"n{i} [" in dot
    assert "->" in dot


# ---------------------------------------------------------------------------
# golden DOT output: the builder's node set, numbering and labels are pinned


DATA = Path(__file__).resolve().parent / "data"


def _golden_models():
    geo = ENTRIES["geo"].program()
    drain = parse_program("while (x > 0) { x := x - 1 }")
    annotated = Seq(
        Annotated(geo, InvariantAnnotation("upper", parse_rt("1 + [c = 1] * 4"))),
        WhileBounded(4, drain.guard, drain.body),
    )
    coupon = ENTRIES["coupon"]
    return {
        "geo": (geo, State({"c": 1}), RT_ZERO),
        "coupon2": (coupon.program(N=2), coupon.initial_state(), RT_ZERO),
        "ndchoice": (
            parse_program(
                "z :~ unif[2 .. 2 + 3]; x :~ 1/2*<x> + 1/4*<0 - 3> + 1/4*<y>; "
                "{ z :~ 3/5*<2> + 2/5*<3 * 0>; { x := -2 } [] { z := 0 } } "
                "[] { skip; z :~ 1/3*<(-1) * 0> + 1/3*<x> + 1/3*<y> }"
            ),
            State({"x": 0, "y": 3, "z": 1}),
            parse_rt("1"),
        ),
        "annotated": (annotated, State({"c": 1, "x": 2}), parse_rt("c + x")),
    }


@pytest.mark.parametrize("name", ["geo", "coupon2", "ndchoice", "annotated"])
def test_dot_export_matches_golden_output(name):
    program, sigma, f = _golden_models()[name]
    dot = mdp_to_dot(build_mdp(program, sigma, f))
    assert dot == (DATA / f"mdp_{name}.dot").read_text(encoding="utf-8")


# sha256 over the DOT of the first 100 sweep models of data seed 11 that fit
# the sweep's node cap, joined by newlines
SWEEP_DOT_SHA256 = "c1b87981f0186fd09a3c64c25eed264a61c09846632202d583c25cd21583d548"


def _sweep_dot_digest(seed=11, count=100):
    rng = random.Random(seed)
    names = list(PROFILES)
    digest = hashlib.sha256()
    i = built = 0
    while built < count:
        program = random_program(rng, PROFILES[names[i % len(names)]])
        f = random_runtime(rng, terms=1) if i % 3 == 0 else RT_ZERO
        sigma = random_state(rng)
        i += 1
        try:
            m = build_mdp(program, sigma, f, 30_000)
        except NodeCapExceeded:
            continue
        digest.update(mdp_to_dot(m).encode() + b"\n")
        built += 1
    return digest.hexdigest()


def test_sweep_dot_export_matches_golden_digest():
    assert _sweep_dot_digest() == SWEEP_DOT_SHA256
