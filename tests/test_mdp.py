import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

import ertkit.mdp as mdp_module
import mdp_oracle
from ertkit.corpus import ENTRIES, coupon_closed_form
from ertkit.generator import PROFILES, random_program, random_runtime, random_state
from ertkit.kernel import INF, ZERO, State, XReal
from ertkit.mdp import (
    Mdp,
    MdpConfig,
    MdpNode,
    NodeCapExceeded,
    Qualitative,
    SingularSystem,
    _condense,
    build_mdp,
    cross_check,
    expected_reward,
    mdp_to_dot,
    qualitative_check,
)
from ertkit.parser import parse_program, parse_rt
from ertkit.props import sweep_triples
from ertkit.semantics import eval_rt
from ertkit.syntax import (
    RT_ZERO,
    Annotated,
    BoolLit,
    Dirac,
    Halt,
    If,
    NdChoice,
    Seq,
    Skip,
    While,
    WhileBounded,
    program_to_text,
    replace_whiles,
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


def is_markov_chain(m: Mdp) -> bool:
    return all(len(t) == 1 for t in m.transitions)


def test_markov_chain_exactly_when_no_choice():
    assert is_markov_chain(build("skip; x :~ unif[0 .. 5]"))
    m = build("{ skip } [] { skip; skip }")
    assert not is_markov_chain(m)
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


def node_reward(node: MdpNode, f) -> XReal:
    if node.kind == "term":
        return eval_rt(f, node.state)
    if node.kind == "exec":
        return mdp_oracle.head_reward(node.program)
    return ZERO


def recompute_rewards(m: Mdp, f) -> List[XReal]:
    """Independent second pass over the reward table, for auditing: the
    oracle's charge of each exec node's whole program."""
    return [node_reward(node, f) for node in m.nodes]


def test_reward_audit_matches():
    m = build(ENTRIES["trunc"].source(), f="3/2")
    assert recompute_rewards(m, parse_rt("3/2")) == m.rewards


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
    ann = Annotated(geo, parse_rt("1 + [c = 1] * 4"))
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


# ---------------------------------------------------------------------------
# oracle: an independent per-policy solve, with its own Tarjan over each
# policy's chain and dense elimination of each of that chain's components


def _sccs(vertices: Sequence[int], succ: Dict[int, List[int]]) -> List[List[int]]:
    # iterative Tarjan
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on: set = set()
    stack: List[int] = []
    out: List[List[int]] = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on.add(v)
            recurse = False
            edges = succ.get(v, [])
            while pi < len(edges):
                w = edges[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return out


def _solve_chain(
    m: Mdp, pick: Optional[Dict[int, str]] = None
) -> List[Fraction]:
    """Exact expected reward-to-sink for a chain (or a scheduler's chain).

    Condenses strongly connected components and solves them in reverse
    topological order, each by Gaussian elimination over rationals.
    """
    n = m.node_count
    row_of: List[List[Tuple[Fraction, int]]] = []
    for i in range(n):
        t = m.transitions[i]
        if pick is not None and i in pick:
            row_of.append(t[pick[i]])
        else:
            row_of.append(next(iter(t.values())))
    succ = {i: [j for _, j in row_of[i]] for i in range(n)}
    comps = _sccs(list(range(n)), succ)  # reverse topological order
    x: List[Optional[Fraction]] = [None] * n
    x[m.sink] = Fraction(0)
    for comp in comps:
        if comp == [m.sink]:
            continue
        if len(comp) == 1 and comp[0] not in succ.get(comp[0], []):
            i = comp[0]
            rew = m.rewards[i]
            acc = rew.q if rew.is_finite else None
            if acc is None:
                raise SingularSystem("infinite reward in finite solve")
            total = acc
            for prob, j in row_of[i]:
                total += prob * x[j]
            x[i] = total
            continue
        # general component: Gaussian elimination on the local unknowns
        local = {v: k for k, v in enumerate(comp)}
        size = len(comp)
        A = [[Fraction(0)] * (size + 1) for _ in range(size)]
        for v in comp:
            r = local[v]
            A[r][r] += 1
            rew = m.rewards[v]
            if not rew.is_finite:
                raise SingularSystem("infinite reward in finite solve")
            A[r][size] += rew.q
            for prob, j in row_of[v]:
                if j in local:
                    A[r][local[j]] -= prob
                else:
                    A[r][size] += prob * x[j]
        for col in range(size):
            piv = next(
                (r for r in range(col, size) if A[r][col] != 0), None
            )
            if piv is None:
                raise SingularSystem(
                    "no unique solution; a diverging component slipped past "
                    "the qualitative check"
                )
            A[col], A[piv] = A[piv], A[col]
            inv = A[col][col]
            A[col] = [a / inv for a in A[col]]
            for r in range(size):
                if r != col and A[r][col] != 0:
                    factor = A[r][col]
                    A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
        for v in comp:
            x[v] = A[local[v]][size]
    return [q if q is not None else Fraction(0) for q in x]


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



def _checked_policies(m):
    """`expected_reward(m)`, and every policy it evaluates as (pick, values).

    Wraps whatever `_evaluate` the solver has, and puts it back after.
    Asserts that each policy's values are the per-policy solve's, and that
    the result is the last policy's value at the initial node."""
    seen = []
    evaluate = mdp_module._evaluate

    def recording(comps, reward, rows, x):
        evaluate(comps, reward, rows, x)
        pick = {
            i: next(a for a, row in t.items() if row is rows[i])
            for i, t in enumerate(m.transitions)
            if len(t) > 1
        }
        seen.append((pick, list(x)))

    mdp_module._evaluate = recording
    try:
        analysis = expected_reward(m)
    finally:
        mdp_module._evaluate = evaluate
    for pick, values in seen:
        assert values == _solve_chain(m, pick)
    if seen:
        assert analysis.value == XReal(seen[-1][1][m.initial])
        assert len(seen) == (analysis.schedulers or 1)
    return analysis, seen


def _union_successors(m):
    return {
        v: [j for rows in t.values() for _, j in rows]
        for v, t in enumerate(m.transitions)
    }


def _check_condensation(m):
    """`_condense` against the oracle Tarjan on the union graph: the same
    components without the sink, singles exactly the nodes without a
    self-loop, and every successor settled before its component."""
    succ = _union_successors(m)
    comps = _condense(m)
    blocks = [[c] if isinstance(c, int) else c for c in comps]
    expect = [c for c in _sccs(list(range(m.node_count)), succ) if c != [m.sink]]
    assert sorted(map(sorted, blocks)) == sorted(map(sorted, expect))
    settled = {m.sink}
    for c, block in zip(comps, blocks):
        assert isinstance(c, int) == (len(block) == 1 and block[0] not in succ[block[0]])
        inside = set(block)
        assert all(j in settled or j in inside for v in block for j in succ[v])
        settled |= inside
    return [b for c, b in zip(comps, blocks) if not isinstance(c, int)]


def _policy_splits(m, blocks, pick):
    """How many union blocks the chain of `pick` breaks into several of its
    own components, and how many of those it leaves acyclic."""
    split = acyclic = 0
    for block in blocks:
        inside = set(block)
        succ = {}
        for v in block:
            t = m.transitions[v]
            succ[v] = [j for _, j in t[pick.get(v) or min(t)] if j in inside]
        comps = _sccs(block, succ)
        if len(comps) > 1:
            split += 1
            acyclic += all(len(c) == 1 and c[0] not in succ[c[0]] for c in comps)
    return split, acyclic


def _counter_loop(body):
    """`body` inside a loop on a fresh counter that a choice at the end of
    each round decrements, surely or with probability 1/2."""
    return parse_program(
        "n := 2; while (n > 0) { %s; { n := n - 1 } [] { n :~ 1/2*<n - 1> + 1/2*<n> } }"
        % program_to_text(body)
    )


def test_one_condensation_matches_the_per_policy_solve():
    rng = random.Random(8)
    names = ("general", "halt-free", "probabilistic")
    checked = policies = split = acyclic = 0
    for k in range(120):
        body = random_program(rng, PROFILES[names[k % len(names)]], max_depth=2)
        program = _counter_loop(body) if k % 2 else body
        f = random_runtime(rng, terms=1) if k % 3 == 0 else RT_ZERO
        try:
            m = build_mdp(program, random_state(rng), f, 400)
        except NodeCapExceeded:
            continue
        if qualitative_check(m).kind != "AllSchedulersReachSink":
            continue
        if any(not r.is_finite for r in m.rewards):
            continue
        blocks = _check_condensation(m)
        _, seen = _checked_policies(m)
        for pick, _ in seen:
            s, a = _policy_splits(m, blocks, pick)
            split += s
            acyclic += a
        checked += 1
        policies += len(seen)
    assert checked >= 80
    assert policies > checked
    # union blocks that a visited policy splits, most of them into an
    # acyclic chain
    assert split >= 50 and acyclic >= 50


@pytest.mark.parametrize(
    "src, sigma",
    [
        # a choice inside a loop: the first policy's chain is acyclic, the
        # second one loops at each value of x
        ("while (x > 0) { { x := x - 1 } [] { x :~ 1/2*<x - 1> + 1/2*<x> } }", {"x": 3}),
        ("while (c = 1) { { c := 0 } [] { c :~ 1/2*<0> + 1/2*<1> } }", {"c": 1}),
        (
            "while (x > 0) { { x := x - 1 } [] { x :~ 1/3*<x - 1> + 2/3*<x> }; "
            "{ skip } [] { skip; skip } }",
            {"x": 2},
        ),
    ],
)
def test_choice_inside_a_loop_matches_the_per_policy_solve(src, sigma):
    m = build(src, State(sigma), f="1")
    blocks = _check_condensation(m)
    assert blocks
    analysis, seen = _checked_policies(m)
    assert analysis.method == "PolicyIteration"
    assert analysis.value == XReal(brute_force_value(m))
    assert any(_policy_splits(m, blocks, pick)[0] for pick, _ in seen)


def test_acyclic_policies_in_a_cyclic_union_block():
    # sink 0, a = 1, b = 2, c = 3; a: L -> sink, R -> b; b: L -> c,
    # R -> a or the sink by a fair coin.  The union graph has the cycle
    # a -> b -> a, but both policies evaluated, (L, L) and then (R, L),
    # have acyclic chains; only the unvisited (R, R) loops.
    half = Fraction(1, 2)
    m = Mdp(
        nodes=[MdpNode("sink"), MdpNode("exec"), MdpNode("exec"), MdpNode("exec")],
        transitions=[
            {"t": [(Fraction(1), 0)]},
            {"L": [(Fraction(1), 0)], "R": [(Fraction(1), 2)]},
            {"L": [(Fraction(1), 3)], "R": [(half, 1), (half, 0)]},
            {"t": [(Fraction(1), 0)]},
        ],
        rewards=[XReal(0), XReal(1), XReal(1), XReal(5)],
        initial=1,
        sink=0,
    )
    assert _condense(m) == [3, [2, 1]] or _condense(m) == [3, [1, 2]]
    assert _check_condensation(m)
    analysis, seen = _checked_policies(m)
    assert [pick for pick, _ in seen] == [{1: "L", 2: "L"}, {1: "R", 2: "L"}]
    for pick, _ in seen:
        assert _policy_splits(m, [[1, 2]], pick) == (1, 1)
    assert analysis == expected_reward(m)
    assert analysis.method == "PolicyIteration"
    assert analysis.schedulers == 2
    assert analysis.value == XReal(7) == XReal(brute_force_value(m))
    # the looping policy is worth less: 4 from a
    assert _solve_chain(m, {1: "R", 2: "R"})[1] == 4



def test_a_self_loop_is_a_block():
    # built models have no self-loop besides the sink's, so this one is
    # hand-built: a stays with probability 1/3, and pays 1 on every visit
    m = Mdp(
        nodes=[MdpNode("sink"), MdpNode("exec")],
        transitions=[
            {"t": [(Fraction(1), 0)]},
            {"t": [(Fraction(1, 3), 1), (Fraction(2, 3), 0)]},
        ],
        rewards=[XReal(0), XReal(1)],
        initial=1,
        sink=0,
    )
    assert _condense(m) == [[1]]
    analysis = expected_reward(m)
    assert analysis.method == "ExactLinearSolve"
    assert analysis.value == XReal(Fraction(3, 2)) == XReal(_solve_chain(m)[1])


def _hand_built_chain(succ, sink):
    """A Markov chain with its sink at index `sink`: every other node `v`
    pays 1 and steps to each node of `succ[v]` with equal probability.  It
    starts at the first node that is not the sink."""
    n = len(succ)
    return Mdp(
        nodes=[MdpNode("sink" if v == sink else "exec") for v in range(n)],
        transitions=[
            {"t": [(Fraction(1, len(s)), j) for j in s]} for s in succ
        ],
        rewards=[XReal(0 if v == sink else 1) for v in range(n)],
        initial=0 if sink else 1,
        sink=sink,
    )


def _numbered_forward(m):
    """Whether every edge runs to a higher index or to the sink."""
    succ = _union_successors(m)
    return all(j > v or j == m.sink for v in succ for j in succ[v])


@pytest.mark.parametrize(
    "succ, sink, forward, comps, value",
    [
        # every edge runs forward, or back to the sink at node 2: condensed
        # by the numbering, where Tarjan would list node 1 before node 3, in
        # the order of node 0's row
        ([[1, 3], [2], [2], [2]], 2, True, [3, 1, 0], 2),
        # 3 -> 2 runs backwards without closing a cycle: by the numbering,
        # node 3 would be summed before node 2 is settled
        ([[0], [3], [0], [2]], 0, False, [2, 3, 1], 3),
        # a self-loop on node 1, every other edge forward, the sink last
        ([[1], [1, 2], [3], [3]], 3, False, [2, [1], 0], 4),
    ],
)
def test_a_model_is_condensed_by_its_numbering_when_every_edge_runs_forward(
    succ, sink, forward, comps, value
):
    m = _hand_built_chain(succ, sink)
    assert _numbered_forward(m) == forward
    assert _condense(m) == comps
    _check_condensation(m)
    analysis = expected_reward(m)
    assert analysis.method == "ExactLinearSolve"
    assert analysis.value == XReal(value) == XReal(_solve_chain(m)[m.initial])


@pytest.mark.parametrize("src, method", [
    ("empty", "ExactLinearSolve"),
    ("{ empty } [] { halt }", "PolicyIteration"),
])
def test_a_zero_value_is_an_exact_zero(src, method):
    analysis = expected_reward(build(src))
    assert analysis.method == method
    assert analysis.value == XReal(0) == ZERO
    assert type(analysis.value.q) is Fraction


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
            assert inside <= _cyclic_nodes(m)
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


def _cyclic_nodes(m):
    """The nodes of the union graph's cyclic blocks, by the oracle Tarjan,
    without the sink's."""
    succ = _union_successors(m)
    return {
        v
        for c in _sccs(range(m.node_count), succ)
        if m.sink not in c and (len(c) > 1 or c[0] in succ[c[0]])
        for v in c
    }


def _hand_built(transitions):
    """A model from node 1 over the sink 0 and one exec node per entry of
    `transitions` (action -> [(probability, successor)]), each paying 1."""
    return Mdp(
        nodes=[MdpNode("sink")] + [MdpNode("exec")] * len(transitions),
        transitions=[{"t": [(Fraction(1), 0)]}] + [
            {a: [(Fraction(p), j) for p, j in rows] for a, rows in t.items()}
            for t in transitions
        ],
        rewards=[XReal(0)] + [XReal(1)] * len(transitions),
        initial=1,
        sink=0,
    )


@pytest.mark.parametrize(
    "transitions, cyclic, components, method",
    [
        # the end component {2, 3}, entered only through the choice node 1,
        # which lies in no cyclic block
        (
            [{"L": [(1, 0)], "R": [(1, 2)]}, {"t": [(1, 3)]}, {"L": [(1, 2)], "R": [(1, 0)]}],
            {2, 3},
            [[2, 3]],
            "Qualitative",
        ),
        # acyclic, with choices
        (
            [{"L": [(1, 2)], "R": [("1/2", 3), ("1/2", 0)]}, {"L": [(1, 0)], "R": [(1, 3)]},
             {"t": [(1, 0)]}],
            set(),
            [],
            "PolicyIteration",
        ),
        # the block {1, 2}, whose every action leaks to the sink
        (
            [{"L": [("1/2", 2), ("1/2", 0)], "R": [("1/3", 1), ("2/3", 0)]},
             {"t": [("1/2", 1), ("1/2", 0)]}],
            {1, 2},
            [],
            "PolicyIteration",
        ),
    ],
    ids=["entered-through-a-choice", "acyclic-with-choices", "every-action-leaks"],
)
def test_the_search_stays_inside_cyclic_blocks(transitions, cyclic, components, method):
    m = _hand_built(transitions)
    assert _cyclic_nodes(m) == cyclic
    assert sorted(map(sorted, end_components_avoiding_the_sink(m))) == components
    q = qualitative_check(m)
    assert (q.kind == "SomeSchedulerAvoids") == bool(components)
    # the witness is the end component, not the choice node that enters it
    assert {v for v, _ in q.witness or ()} == {v for c in components for v in c}
    analysis = expected_reward(m)
    assert analysis.method == method
    if not components:
        assert analysis.value == XReal(brute_force_value(m))


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


@pytest.mark.parametrize("cap", [0, -5])
def test_node_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="node_cap must be at least 1"):
        MdpConfig(node_cap=cap)
    with pytest.raises(ValueError, match="node_cap must be at least 1"):
        build("skip", node_cap=cap)


@pytest.mark.parametrize("depth", [0, -3])
def test_fallback_unroll_below_one_is_rejected(depth):
    # an unchecked depth would compare the empty unrolling, 0 against 0
    rwalk = ENTRIES["rwalk"].program()
    with pytest.raises(ValueError, match="fallback_unroll must be at least 1"):
        cross_check(
            rwalk, RT_ZERO, State({"x": 1}), MdpConfig(node_cap=100), fallback_unroll=depth
        )


def _counting_builds(monkeypatch) -> list:
    """Record the node cap of each `build_mdp` call `cross_check` makes."""
    calls, real = [], mdp_module.build_mdp
    monkeypatch.setattr(
        mdp_module, "build_mdp", lambda *args: calls.append(args[3]) or real(*args)
    )
    return calls


@pytest.mark.parametrize("depth", [0, -3])
def test_unroll_cap_below_one_is_rejected_before_a_build(monkeypatch, depth):
    builds = _counting_builds(monkeypatch)
    with pytest.raises(ValueError) as caught:
        cross_check(ENTRIES["trunc"].program(), max_unroll_depth=depth)
    assert str(caught.value) == "max_unroll_depth must be at least 1, got %d" % depth
    assert builds == []


def test_a_model_without_loops_over_the_cap_is_built_once(monkeypatch):
    # replacing the loops of a program that has none gives the same model,
    # so the fallback would only build it again
    builds = _counting_builds(monkeypatch)
    pairs = parse_program("x :~ unif[0 .. 30]; y :~ unif[0 .. 30]")
    with pytest.raises(NodeCapExceeded, match="^reachable node count exceeded the cap of 100$"):
        cross_check(pairs, cfg=MdpConfig(node_cap=100))
    assert builds == [100]
    # a program with a loop still falls back to its bounded form
    rwalk = ENTRIES["rwalk"].program()
    report = cross_check(rwalk, RT_ZERO, State({"x": 1}), MdpConfig(100), fallback_unroll=8)
    assert report.bounded_at == 8
    assert builds == [100] * 3


def test_a_model_config_is_frozen():
    cfg = MdpConfig(node_cap=100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.node_cap = -5
    assert cfg.node_cap == 100


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
        Annotated(geo, parse_rt("1 + [c = 1] * 4")),
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


def test_dot_export_prints_each_program_head_once(monkeypatch):
    # a node's label prints only its program's head, once per program object
    # of the export, not once per node
    program, sigma, f = _golden_models()["coupon2"]
    m = build_mdp(program, sigma, f)
    printed = []
    real = mdp_module.program_to_text
    monkeypatch.setattr(
        mdp_module, "program_to_text", lambda p: printed.append(p) or real(p)
    )
    dot = mdp_to_dot(m)
    programs = {id(n.program) for n in m.nodes if n.program is not None}
    assert len(printed) == len(programs) < m.node_count
    assert dot == (DATA / "mdp_coupon2.dot").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the parent's builder as an oracle: the same models, and every policy the
# solver evaluates on them equal to the per-policy solve


def _assert_matches_oracle(program, sigma, f, node_cap):
    """Build with both builders, and check each policy that `expected_reward`
    evaluates against the per-policy solve; returns the model, its DOT, the
    analysis and those policies, or None if the model exceeds the cap."""
    try:
        old = mdp_oracle.build_mdp(program, sigma, f, node_cap)
    except NodeCapExceeded as exc:
        with pytest.raises(NodeCapExceeded, match="^%s$" % exc):
            build_mdp(program, sigma, f, node_cap)
        return None
    new = build_mdp(program, sigma, f, node_cap)
    assert [(n.kind, n.state) for n in new.nodes] == [
        (n.kind, n.state) for n in old.nodes
    ]
    assert new.transitions == old.transitions
    assert new.rewards == old.rewards
    assert (new.initial, new.sink) == (old.initial, old.sink)
    dot = mdp_to_dot(new)
    assert dot == mdp_to_dot(old)
    return (new, dot, *_checked_policies(new))


# One pass over the 500 models `run_soundness_sweep(11)` builds (node cap
# 30 000, falling back to the depth-32 bounded program) feeds three checks
# besides the oracle comparison: sha256 over (str(value), method,
# schedulers) of `expected_reward`, one line per model; sha256 over the DOT
# of the first 100 models that fit without the fallback, each followed by a
# newline; and the count of models whose numbering is a topological order.
SWEEP_REWARD_SHA256 = "517a47ceb528272ca6133465199a948d4e6dcb70c706db38651067a46415ba25"
SWEEP_DOT_SHA256 = "c1b87981f0186fd09a3c64c25eed264a61c09846632202d583c25cd21583d548"
SWEEP_FORWARD = 447


def test_sweep_models_match_the_oracle():
    rewards, dots = hashlib.sha256(), hashlib.sha256()
    dotted = forward = 0
    for program, f, sigma in sweep_triples(11):
        checked = _assert_matches_oracle(program, sigma, f, 30_000)
        if not checked:
            checked = _assert_matches_oracle(replace_whiles(program, 32), sigma, f, 30_000)
            assert checked
        elif dotted < 100:
            dots.update(checked[1].encode() + b"\n")
            dotted += 1
        m, _, a, _ = checked
        rewards.update(repr((str(a.value), a.method, a.schedulers)).encode() + b"\n")
        _check_condensation(m)
        if _numbered_forward(m):
            # condensed by its numbering, from the highest index down
            assert _condense(m) == [
                v for v in range(m.node_count - 1, -1, -1) if v != m.sink
            ]
            forward += 1
    assert rewards.hexdigest() == SWEEP_REWARD_SHA256
    assert dots.hexdigest() == SWEEP_DOT_SHA256
    # both ways to condense are checked
    assert forward == SWEEP_FORWARD


def _corpus_and_golden_models():
    """(program, state, post-run-time) of every case study, the three
    without a finite model at bounded depths, and of the golden models,
    with three more shapes."""
    # the three case studies without a finite model, at bounded depths
    depths = {"race": 40, "rwalk": 32, "npast": 8}
    models = []
    for name, entry in ENTRIES.items():
        program = entry.program()
        if name in depths:
            program = replace_whiles(program, depths[name])
        models.append((program, entry.initial_state(), RT_ZERO))
    models += list(_golden_models().values())
    # one branch object on both sides of an `if` and of a `[]`
    step = parse_program("x := x + 1")
    coin = parse_program("if (1/3*<true> + 2/3*<false>) { skip } else { skip }").guard
    models += [
        (If(coin, step, step), State({"x": 0}), RT_ZERO),
        (NdChoice(step, step), State({"x": 0}), parse_rt("x")),
    ]
    # a choice inside a loop, whose second policy loops at each value of x
    loop = parse_program("while (x > 0) { { x := x - 1 } [] { x :~ 1/2*<x - 1> + 1/2*<x> } }")
    models.append((loop, State({"x": 3}), parse_rt("1")))
    return models


def test_corpus_and_golden_models_match_the_oracle():
    cyclic = several = 0
    for program, sigma, f in _corpus_and_golden_models():
        checked = _assert_matches_oracle(program, sigma, f, 200_000)
        assert checked
        m, _, _, seen = checked
        blocks = _sccs(range(m.node_count), _union_successors(m))
        cyclic += any(len(block) > 1 for block in blocks)
        several += len(seen) > 1
    # the comparison stays meaningful: some model has a cyclic union block,
    # and some model takes policy iteration past its first policy
    assert cyclic and several


def test_a_loop_body_reached_before_its_loop_shares_the_unfolding():
    # a branch that is the loop's own body object, followed by the loop,
    # composes the same sequence as the loop's unfolding: one exec target
    W = parse_program("while (x > 0) { x := x - 1 }")
    program = Seq(NdChoice(W.body, Skip()), W)
    sigma = State({"x": 3})
    assert _assert_matches_oracle(program, sigma, RT_ZERO, 1_000)
    assert build_mdp(program, sigma, RT_ZERO).node_count == 20
    assert expected_runtime(program, None, sigma).value == XReal(8)


def test_equal_node_states_are_one_object():
    # the builder interns each state once per build and keys its node
    # tables by the state's id
    for program, sigma, f in _corpus_and_golden_models():
        m = build_mdp(program, sigma, f)
        states = [n.state for n in m.nodes if n.state is not None]
        assert len({id(s) for s in states}) == len(set(states)) < len(states)


def test_a_bool_and_an_int_of_equal_value_are_two_nodes():
    # 1 == True and the two states hash alike, but a state compares kinds
    m = build("if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := true }")
    terms = [n.state for n in m.nodes if n.kind == "term"]
    assert len(terms) == 2 and hash(terms[0]) == hash(terms[1])
    assert sorted(type(s.get("x")).__name__ for s in terms) == ["bool", "int"]


def test_node_cap_admits_exactly_the_reachable_nodes():
    trunc = ENTRIES["trunc"].program()
    assert build_mdp(trunc, State(), RT_ZERO, node_cap=8).node_count == 8
    with pytest.raises(NodeCapExceeded, match="^reachable node count exceeded the cap of 7$"):
        build_mdp(trunc, State(), RT_ZERO, node_cap=7)
