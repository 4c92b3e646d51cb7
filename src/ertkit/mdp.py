"""Operational model: the reachable reward decision process of a program.

Built independently of the transformer, from small-step rules over
configuration nodes: a running program with a state, a terminated marker
(which collects the post-run-time as reward), a terminated-then-continue
marker for sequencing, and an absorbing sink.  Halting steps straight to the
sink, so the post-run-time is not collected on halted runs.  Loops of all
three forms (plain, depth-bounded, annotated) are unfolded one step at a time
by `syntax.unfold_once` when they are reached; annotations are ignored.  The
step of each program object is compiled once per build into a table entry:
the head statement, and each branch's successor program with its own table
of nodes by state.  A node then evaluates only its head on its state, and
finds each successor with one lookup.

States are interned once per build (`_Builder.states`): the initial state
and each successor of an assignment, the only steps that make a new state.
Every other step passes its node's state object on.  So the node tables key
a state by its `id()`, and `State.__hash__` and `__eq__` run only when a
state is interned.  This rests on one invariant: every state whose id is a
key is held by the build's intern table for as long as the build runs, and
no node table outlives its build.  A dropped state's id could be reused by
another state, which would then find the dropped one's node.  The tables
are the builder's own; the transformer interns its states in its own
`StepTable`.

The expected total reward to the sink, maximized over schedulers, is the
quantity the transformer computes; `cross_check` compares the two.  The
model is condensed once, over the union of all actions; a model whose every
edge runs to a later node or to the sink is condensed by its numbering
alone, without Tarjan's search.  A search confined
to the cyclic blocks of that condensation decides whether some scheduler
can avoid the sink (then the value is infinite): an end component is
strongly connected, so it lies inside one cyclic block.  Otherwise Howard
policy iteration finds the best scheduler, and every policy is evaluated
exactly by one pass over the same condensation in reverse topological
order, acyclic nodes in integer pair sums and cyclic blocks by elimination
over `Fraction`s.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .kernel import INF, ONE, ZERO, KernelError, Record, State, XReal, _deep_stack
from .semantics import eval_dist, eval_expr, eval_guard, eval_rt
from .syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr, RT_ZERO,
    Seq, Skip, VarTarget, While, WhileBounded, program_to_text, replace_whiles,
    unfold_once, while_loops,
)


_ONE = Fraction(1)


class NodeCapExceeded(KernelError):
    def __init__(self, cap: int):
        super().__init__("reachable node count exceeded the cap of %d" % cap)
        self.cap = cap


class SingularSystem(KernelError):
    pass


# ---------------------------------------------------------------------------
# model


class MdpNode(NamedTuple):
    kind: str  # "exec" | "term" | "termseq" | "sink"
    program: Optional[Program] = None
    state: Optional[State] = None


class Mdp(Record, frozen=False):
    __slots__ = (
        "nodes",  # List[MdpNode]
        # per node: action -> list of (probability, successor index)
        "transitions",  # List[Dict[str, List[Tuple[Fraction, int]]]]
        "rewards",  # List[XReal]
        "initial",  # int
        "sink",  # int
    )

    @property
    def node_count(self) -> int:
        return len(self.nodes)


class Qualitative(Record):
    __slots__ = (
        "kind",  # "AllSchedulersReachSink" | "SomeSchedulerAvoids"
        "witness",  # Optional[Tuple[Tuple[int, str], ...]]: (node, action)
    )
    _defaults = {"witness": None}


class RewardAnalysis(Record):
    __slots__ = (
        "value",  # XReal
        "method",  # "ExactLinearSolve" | "PolicyIteration" | "Qualitative" | "InfiniteReward"
        "schedulers",  # Optional[int]: policies evaluated by PolicyIteration
        "iterations",  # always None; perfbench/tracer.py reads it
    )
    _defaults = {"schedulers": None, "iterations": None}


class MdpConfig(Record):
    __slots__ = ("node_cap",)
    _defaults = {"node_cap": 200_000}

    def _validate(self):
        _check_node_cap(self.node_cap)


def _check_node_cap(node_cap: int) -> None:
    if node_cap < 1:
        raise ValueError("node_cap must be at least 1, got %r" % (node_cap,))


# the configuration `cross_check` uses when it is given none
_DEFAULT_CONFIG = MdpConfig()

# the loop bound `cross_check` falls back to when the node cap is hit
FALLBACK_UNROLL = 40


# ---------------------------------------------------------------------------
# construction


class _Target:
    """The nodes of one kind over one program object, by the id of their
    interned state.

    An exec target also holds its compiled step, filled when its first node
    is expanded: the head statement (with `Seq` chains and depth-bounded
    loops unfolded), the head's reward, and the target of each branch of
    the head, already composed with the continuation that follows it.  A
    termseq target holds the exec target of its program.  Every node of a
    target steps the same way, so a node evaluates its head on its state
    and finds each successor with one lookup in the successor's `nodes`.
    """

    __slots__ = ("kind", "program", "nodes", "head", "reward", "succ")

    def __init__(self, kind: str, program: Optional[Program]):
        self.kind = kind
        self.program = program
        self.nodes: Dict[int, int] = {}
        self.head: Optional[Program] = None
        self.reward: XReal = ZERO
        self.succ: Tuple[_Target, ...] = ()


# node 0 of every build
_SINK = MdpNode("sink")


class _Builder:
    def __init__(self, cap: int):
        self.cap = cap
        self.nodes: List[MdpNode] = [_SINK]
        self.owner: List[Optional[_Target]] = [None]  # per node: its target
        self.states: Dict[State, State] = {}  # each state of the build, interned
        self.term = _Target("term", None)
        self.execs: Dict[int, _Target] = {}
        self.termseqs: Dict[int, _Target] = {}
        self.seq_cache: Dict[Tuple[int, int], Seq] = {}
        self.unfold_cache: Dict[int, Program] = {}

    def node(self, t: _Target, sigma: State) -> int:
        """The node of `t` at `sigma`, numbered when first reached.

        `sigma` must be the build's interned object (`states`): the node
        table keys it by `id()`, so no state is hashed or compared here.
        """
        n = len(self.nodes)
        i = t.nodes.setdefault(id(sigma), n)
        if i == n:
            if n >= self.cap:
                raise NodeCapExceeded(self.cap)
            self.nodes.append(MdpNode(t.kind, t.program, sigma))
            self.owner.append(t)
        return i

    def exec_target(self, p: Program) -> _Target:
        t = self.execs.get(id(p))
        if t is None:
            t = self.execs[id(p)] = _Target("exec", p)
        return t

    def termseq_target(self, p: Program) -> _Target:
        t = self.termseqs.get(id(p))
        if t is None:
            t = self.termseqs[id(p)] = _Target("termseq", p)
            t.succ = (self.exec_target(p),)
        return t

    def compose(self, first: Program, second: Program) -> Seq:
        key = (id(first), id(second))
        c = self.seq_cache.get(key)
        if c is None:
            c = Seq(first, second)
            self.seq_cache[key] = c
        return c

    def unfold(self, w: Union[While, WhileBounded, Annotated]) -> Program:
        """`unfold_once(w)`, one object per loop per build.

        Its sequence `body; w'` is made by `compose`, so a path that reaches
        the same sequence another way (a branch that is the loop's own body
        object, followed by the loop) reaches the same exec target.
        """
        c = self.unfold_cache.get(id(w))
        if c is None:
            c = unfold_once(w)
            if isinstance(c, If):
                c = If(c.guard, self.compose(c.then.first, c.then.second), c.orelse)
            self.unfold_cache[id(w)] = c
        return c

    def compile(self, t: _Target) -> Program:
        """Fill in the step of an exec target; returns its head.

        A sequence steps as its first component, with each successor
        composed with the second; a depth-bounded loop steps as its one-step
        expansion.  So a successor `q` of the head becomes `q; k1; ...; kn`
        for the continuations `k1 ... kn` peeled off on the way down, and
        the head's termination becomes `k1; ...; kn` after a termseq node.
        """
        h = t.program
        conts: List[Program] = []
        while True:
            if isinstance(h, Seq):
                conts.append(h.second)
                h = h.first
            elif isinstance(h, WhileBounded):
                h = self.unfold(h)
            else:
                break
        conts.reverse()  # innermost first

        def then(q: Program) -> _Target:
            for k in conts:
                q = self.compose(q, k)
            return self.exec_target(q)

        if isinstance(h, (Empty, Skip, ProbAssign)):
            if conts:
                k = conts[0]
                for c in conts[1:]:
                    k = self.compose(k, c)
                t.succ = (self.termseq_target(k),)
            else:
                t.succ = (self.term,)
        elif isinstance(h, NdChoice):
            t.succ = (then(h.left), then(h.right))
        elif isinstance(h, If):
            t.succ = (then(h.then), then(h.orelse))
        elif isinstance(h, (While, Annotated)):
            t.succ = (then(self.unfold(h)),)
        elif not isinstance(h, Halt):
            raise TypeError(h)
        t.reward = head_reward(h)
        t.head = h
        return h

    def assign(
        self, p: ProbAssign, sigma: State, term: _Target
    ) -> List[Tuple[Fraction, int]]:
        """The rows of a probabilistic assignment, one per support entry.

        `eval_dist` merges equal values, and distinct values give distinct
        next states, so no two rows share a node.  Every next state is
        computed before any is interned and numbered.
        """
        target = p.target
        support = eval_dist(p.dist, sigma)
        if isinstance(target, VarTarget):
            nexts = [(prob, sigma.set(target.name, v)) for prob, v in support]
        else:
            nexts = [
                (prob, sigma.set_cell(target.name, eval_expr(target.index, sigma), v))
                for prob, v in support
            ]
        intern = self.states.setdefault
        return [(prob, self.node(term, intern(nxt, nxt))) for prob, nxt in nexts]

    def closure(self, C: Program, sigma0: State, f: RtExpr) -> Mdp:
        """Number and expand every node reachable from `C` at `sigma0`."""
        sink = 0
        transitions: List[Dict[str, List[Tuple[Fraction, int]]]] = [
            {"t": [(_ONE, sink)]}
        ]
        rewards: List[XReal] = [ZERO]
        initial = self.node(self.exec_target(C), self.states.setdefault(sigma0, sigma0))
        nodes, owner, node = self.nodes, self.owner, self.node
        i = initial
        while i < len(nodes):
            t = owner[i]
            sigma = nodes[i].state
            if t.kind == "exec":
                h = t.head
                if h is None:
                    h = self.compile(t)
                rewards.append(t.reward)
                if isinstance(h, If):
                    p_true = eval_guard(h.guard, sigma)
                    then, orelse = t.succ
                    if p_true == 1 or h.then is h.orelse:
                        rows = [(_ONE, node(then, sigma))]
                    elif p_true == 0:
                        rows = [(_ONE, node(orelse, sigma))]
                    else:
                        rows = [
                            (p_true, node(then, sigma)),
                            (1 - p_true, node(orelse, sigma)),
                        ]
                    transitions.append({"t": rows})
                elif isinstance(h, ProbAssign):
                    transitions.append({"t": self.assign(h, sigma, t.succ[0])})
                elif isinstance(h, NdChoice):
                    left, right = t.succ
                    transitions.append({
                        "L": [(_ONE, node(left, sigma))],
                        "R": [(_ONE, node(right, sigma))],
                    })
                elif isinstance(h, Halt):
                    transitions.append({"t": [(_ONE, sink)]})
                else:
                    transitions.append({"t": [(_ONE, node(t.succ[0], sigma))]})
            elif t.kind == "term":
                rewards.append(eval_rt(f, sigma))
                transitions.append({"t": [(_ONE, sink)]})
            else:
                rewards.append(ZERO)
                transitions.append({"t": [(_ONE, node(t.succ[0], sigma))]})
            i += 1
        return Mdp(nodes, transitions, rewards, initial, sink)


def head_reward(h: Program) -> XReal:
    """Reward of a running node, by its head statement as `compile` finds
    it (no `Seq`, no depth-bounded loop).

    Guard evaluations and assignments consume one unit of time; structural
    steps are free.
    """
    return ONE if isinstance(h, (Skip, ProbAssign, If)) else ZERO


def build_mdp(
    C: Program, sigma0: State, f: RtExpr = RT_ZERO, node_cap: int = MdpConfig().node_cap
) -> Mdp:
    """Breadth-first closure of the step rules from the initial configuration.

    Nodes are numbered when first reached, so expanding them in index order
    is the breadth-first order.  Each program object's step is compiled
    once per build into its `_Target`; a node then evaluates only its head
    statement (a guard, a distribution or an assignment) on its state.  Runs
    under a raised recursion limit, since evaluating a long operator chain
    recurses once per operator.
    """
    _check_node_cap(node_cap)
    b = _Builder(node_cap)
    try:
        with _deep_stack():
            return b.closure(C, sigma0, f)
    finally:
        # the targets of a loop point at each other: unlink them, so that
        # their node tables go when the build ends, not at the next cycle
        # collection
        for t in b.execs.values():
            t.succ = ()


# ---------------------------------------------------------------------------
# qualitative analysis: can some scheduler avoid the sink?


def qualitative_check(m: Mdp) -> Qualitative:
    """Whether every scheduler reaches the sink almost surely.

    Condenses the model and searches its cyclic blocks (`_staying`).  Some
    scheduler avoids the sink with positive probability exactly when some
    node can stay in its block forever: every node of the model is
    reachable by construction, and every end component without the sink is
    strongly connected, so it lies inside one cyclic block, where the
    search keeps it.  The witness pairs each node that can stay with its
    first action that stays; a scheduler that plays these never leaves the
    witness.  It lists only nodes inside cyclic blocks.
    """
    witness = _staying(m, _condense(m))
    if not witness:
        return Qualitative("AllSchedulersReachSink")
    return Qualitative("SomeSchedulerAvoids", tuple(witness))


def _staying(
    m: Mdp, comps: List[Union[int, List[int]]]
) -> List[Tuple[int, str]]:
    """The nodes that some scheduler can keep in their cyclic block forever,
    each with its first action that stays, in node order.

    Per cyclic block of the condensation `comps`, the greatest set of the
    block's nodes in which every node has an action whose whole support
    stays in the set: an action with a successor outside the block is dead
    from the start, a node with no live action is dead, and a worklist
    kills every action that leads to a dead node.  A single node without a
    self-loop can stay nowhere, so an acyclic model costs nothing here.
    """
    transitions = m.transitions
    witness: List[Tuple[int, str]] = []
    for comp in comps:
        if comp.__class__ is int:
            continue
        inside = set(comp)
        preds: Dict[int, List[Tuple[int, str]]] = {v: [] for v in comp}
        live: Dict[int, int] = {}
        dead: set = set()
        work: List[int] = []
        for v in comp:
            count = 0
            for action, rows in transitions[v].items():
                if all(j in inside for _, j in rows):
                    count += 1
                    for _, j in rows:
                        preds[j].append((v, action))
                else:
                    dead.add((v, action))
            live[v] = count
            if not count:
                work.append(v)
        while work:
            for pair in preds[work.pop()]:
                if pair in dead:
                    continue
                dead.add(pair)
                v = pair[0]
                live[v] -= 1
                if not live[v]:
                    work.append(v)
        witness += [
            (v, next(a for a in transitions[v] if (v, a) not in dead))
            for v in comp
            if live[v]
        ]
    witness.sort()
    return witness


# ---------------------------------------------------------------------------
# expected total reward


def _condense(m: Mdp) -> List[Union[int, List[int]]]:
    """Strongly connected components of the union of all actions' graphs.

    One iterative Tarjan over plain lists; the sink is settled up front and
    left out.  The components come in reverse topological order, a single
    node without a self-loop as its index and a cyclic block (a self-loop
    included) as a list.  Every scheduler's chain is a subgraph of this
    union graph, so the order is a valid evaluation order for every policy,
    and every end component lies inside one of the lists.  When every edge
    runs to a higher index or to the sink, the numbering itself is a
    topological order and every component a single, so the nodes come from
    the highest index down and Tarjan does not run, as on most models of
    the soundness sweep.
    """
    n = m.node_count
    sink = m.sink
    if _runs_forward(m.transitions, sink):
        return [v for v in range(n - 1, -1, -1) if v != sink]
    succ = [[j for rows in t.values() for _, j in rows] for t in m.transitions]
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    index[sink] = 0
    counter = 1
    stack: List[int] = []
    out: List[Union[int, List[int]]] = []
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        on[w] = False
                        comp.append(w)
                    out.append(comp if len(comp) > 1 or v in succ[v] else v)
    return out


def _runs_forward(
    transitions: List[Dict[str, List[Tuple[Fraction, int]]]], sink: int
) -> bool:
    """Whether every edge runs to a higher index or to the sink."""
    for v, t in enumerate(transitions):
        for rows in t.values():
            for _, j in rows:
                if j <= v and j != sink:
                    return False
    return True


def _evaluate(
    comps: List[Union[int, List[int]]],
    reward: List[Fraction],
    rows: List[List[Tuple[Fraction, int]]],
    x: List[Fraction],
) -> None:
    """Exact expected reward-to-sink of the chain that plays `rows`, into `x`.

    One pass over the union condensation.  A single node takes a lone
    successor's value or its own reward as is when the other is 0;
    otherwise it sums its reward and its successors' weighted values as an
    unreduced integer pair over the lcm of the denominators, skipping zeros,
    and builds one `Fraction` from the sum, whose one gcd reduces it.  A
    cyclic block gets sparse Gaussian
    elimination without pivoting, then back substitution, so a policy whose
    chain is acyclic inside a large union block costs about one pass over
    its rows; the pivots are positive once every scheduler reaches the sink
    almost surely.  The sink's entry stays 0.
    """
    for comp in comps:
        if comp.__class__ is int:
            r = reward[comp]
            row = rows[comp]
            if len(row) == 1:
                v = x[row[0][1]]
                if not v:
                    x[comp] = r
                    continue
                if not r:
                    x[comp] = v
                    continue
            n, d = r.numerator, r.denominator
            for prob, j in row:
                v = x[j]
                if not v:
                    continue
                vn = prob.numerator * v.numerator
                vd = prob.denominator * v.denominator
                if vd == d:
                    n += vn
                elif d == 1:
                    n = n * vd + vn
                    d = vd
                else:
                    # add over the lcm: a long sum over many distinct
                    # denominators grows like their lcm, not their product
                    g = gcd(d, vd)
                    s = d // g
                    n = n * (vd // g) + vn * s
                    d = s * vd
            x[comp] = Fraction(n, d) if n else 0
            continue
        # sparse elimination in the block's own order: row k keeps only
        # the unknowns after k; every coefficient stays non-negative
        pos = {v: k for k, v in enumerate(comp)}
        eqs: List[Tuple[Fraction, Dict[int, Fraction]]] = []
        for k, v in enumerate(comp):
            const = reward[v]
            coef: Dict[int, Fraction] = {}
            for prob, j in rows[v]:
                t = pos.get(j)
                if t is None:
                    const += prob * x[j]
                else:
                    coef[t] = coef.get(t, 0) + prob
            earlier = [t for t in coef if t < k]
            heapify(earlier)
            while earlier:
                t = heappop(earlier)
                c = coef.pop(t)
                t_const, t_coef = eqs[t]
                const += c * t_const
                for u, a in t_coef.items():
                    if u in coef:
                        coef[u] += c * a
                    else:
                        coef[u] = c * a
                        if u < k:
                            heappush(earlier, u)
            stay = coef.pop(k, 0)
            if stay:
                if stay == 1:
                    raise SingularSystem("a block of the chain never exits")
                scale = 1 / (1 - stay)
                const *= scale
                coef = {u: a * scale for u, a in coef.items()}
            eqs.append((const, coef))
        for k in range(len(comp) - 1, -1, -1):
            const, coef = eqs[k]
            for u, a in coef.items():
                const += a * x[comp[u]]
            x[comp[k]] = const


def expected_reward(m: Mdp) -> RewardAnalysis:
    """Supremum over schedulers of the expected total reward to the sink.

    The model is condensed once.  The qualitative search (`_staying`, as in
    `qualitative_check`) runs over the cyclic blocks of that condensation:
    if some node can stay in its block forever, the value is infinite.
    Otherwise every scheduler reaches the sink almost surely, and Howard
    policy iteration over memoryless schedulers evaluates every policy
    exactly by one pass of `_evaluate` over the same condensation, into one
    value list.  The iteration is exact and finite: it starts from the
    smallest action at each choice node and switches an action only on a
    strict rational improvement.  A model without choice nodes is a single
    evaluation.
    """
    comps = _condense(m)
    if _staying(m, comps):
        return RewardAnalysis(INF, "Qualitative")
    if any(r.q is None for r in m.rewards):
        # an infinite reward sits on a reachable node, and every node is
        # reached with positive probability by construction
        return RewardAnalysis(INF, "InfiniteReward")
    reward = [r.q or 0 for r in m.rewards]  # int 0 tests fast
    # the choice nodes, each with its action, and the policy's row per node
    nd: List[int] = []
    pick: Dict[int, str] = {}
    rows: List[List[Tuple[Fraction, int]]] = []
    for i, t in enumerate(m.transitions):
        if len(t) > 1:
            a = pick[i] = min(t)
            nd.append(i)
            rows.append(t[a])
        else:
            (row,) = t.values()
            rows.append(row)
    vals: List[Fraction] = [0] * m.node_count
    evaluated = 0
    improved = True
    while improved:
        _evaluate(comps, reward, rows, vals)
        evaluated += 1
        improved = False
        for i in nd:
            gain = {
                a: sum(p * vals[j] for p, j in row)
                for a, row in m.transitions[i].items()
            }
            best = max(gain, key=gain.__getitem__)
            if gain[best] > gain[pick[i]]:
                pick[i] = best
                rows[i] = m.transitions[i][best]
                improved = True
    # a value is a Fraction, or int 0 where `_evaluate` found nothing to sum
    v = vals[m.initial]
    value = XReal._of(v) if v else ZERO
    if not nd:
        return RewardAnalysis(value, "ExactLinearSolve")
    return RewardAnalysis(value, "PolicyIteration", schedulers=evaluated)


# ---------------------------------------------------------------------------
# cross-checking against the transformer


class CrossCheckReport(Record):
    __slots__ = (
        "status",  # "pass" | "fail"
        "ert_kind",  # str
        "ert_value",  # XReal
        "mdp_value",  # XReal
        "method",  # str
        "node_count",  # int
        "bounded_at",  # Optional[int]
        "detail",  # str
    )
    _defaults = {"bounded_at": None, "detail": ""}


def cross_check(
    C: Program,
    f: RtExpr = RT_ZERO,
    sigma: Optional[State] = None,
    cfg: Optional[MdpConfig] = None,
    max_unroll_depth: Optional[int] = None,
    fallback_unroll: int = FALLBACK_UNROLL,
) -> CrossCheckReport:
    """Compute the transformer and the operational value and compare.

    The transformer unrolls each `while` at most `max_unroll_depth` times
    (None for `transformer.MAX_UNROLL_DEPTH`).  Programs whose reachable
    model does not fit the node cap are compared on their form with each
    `while` bounded at `fallback_unroll` (default `FALLBACK_UNROLL`, 40)
    instead: both sides are exact on that program, so the comparison is an
    exact equality, at the price of speaking about the bounded program only.
    A program without `while` loops is its own fallback, so it raises
    `NodeCapExceeded` without a second build.

    Both values are exact: an exact transformer result must equal the model
    value, and a lower one must not exceed it.
    """
    from .transformer import MAX_UNROLL_DEPTH, check_unroll_depth, expected_runtime

    if max_unroll_depth is None:
        max_unroll_depth = MAX_UNROLL_DEPTH
    check_unroll_depth(max_unroll_depth)
    if fallback_unroll < 1:
        raise ValueError("fallback_unroll must be at least 1, got %r" % (fallback_unroll,))
    sigma = sigma or State()
    cfg = cfg or _DEFAULT_CONFIG
    bounded_at = None
    program = C
    try:
        m = build_mdp(program, sigma, f, cfg.node_cap)
    except NodeCapExceeded:
        if not while_loops(C):
            raise
        bounded_at = fallback_unroll
        program = replace_whiles(C, fallback_unroll)
        m = build_mdp(program, sigma, f, cfg.node_cap)
    analysis = expected_reward(m)
    # free the model before the transformer builds its own tables
    node_count = m.node_count
    del m
    ert = expected_runtime(program, f, sigma, max_unroll_depth)

    ev, mv = ert.value, analysis.value
    if ert.is_exact:
        ok = ev == mv
        detail = "exact equality" if ok else "values differ"
    else:
        ok = ev <= mv
        detail = (
            "lower bound consistent" if ok else "lower bound exceeds the value"
        )
    return CrossCheckReport(
        status="pass" if ok else "fail",
        ert_kind=ert.kind,
        ert_value=ev,
        mdp_value=mv,
        method=analysis.method,
        node_count=node_count,
        bounded_at=bounded_at,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# exports


def _label_head(program: Program) -> str:
    # the first line of the program's text, without printing all of it: a
    # sequence's text is its leftmost statement's, then ";" and a newline
    first = program
    while isinstance(first, Seq):
        first = first.first
    text = program_to_text(first)
    head = text.split("\n", 1)[0]
    if first is not program and "\n" not in text:
        head += ";"
    head = head.strip()
    if len(head) > 40:
        head = head[:37] + "..."
    return head


def _node_label(node: MdpNode, heads: Dict[int, str]) -> str:
    # `heads` holds each program object's head, by id, for one export
    if node.kind == "sink":
        return "sink"
    if node.kind == "term":
        return "[down] %s" % node.state
    head = heads.get(id(node.program))
    if head is None:
        head = heads[id(node.program)] = _label_head(node.program)
    if node.kind == "termseq":
        return "[down; %s] %s" % (head, node.state)
    return "%s %s" % (head, node.state)


def mdp_to_dot(m: Mdp) -> str:
    lines = ["digraph mdp {", '  rankdir=TB;', '  node [shape=box, fontsize=10];']
    heads: Dict[int, str] = {}
    for i, node in enumerate(m.nodes):
        rew = m.rewards[i]
        extra = "" if rew == ZERO else '\\nreward %s' % rew
        shape = ', shape=doublecircle' if node.kind == "sink" else ""
        lines.append(
            '  n%d [label="%s%s", fontcolor=black, color=gray40%s];'
            % (i, _escape(_node_label(node, heads)), extra, shape)
        )
    for i, trans in enumerate(m.transitions):
        for action, rows in sorted(trans.items()):
            for prob, j in rows:
                label = "" if prob == 1 else str(prob)
                if action != "t":
                    label = ("%s %s" % (action, label)).strip()
                attr = ' [label="%s", fontcolor=gray30]' % _escape(label) if label else ""
                lines.append("  n%d -> n%d%s;" % (i, j, attr))
    lines.append("}")
    return "\n".join(lines)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
