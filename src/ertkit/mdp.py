"""Operational model: the reachable reward decision process of a program.

Built independently of the transformer, from small-step rules over
configuration nodes: a running program with a state, a terminated marker
(which collects the post-run-time as reward), a terminated-then-continue
marker for sequencing, and an absorbing sink.  Halting steps straight to the
sink, so the post-run-time is not collected on halted runs.  Loops of all
three forms (plain, depth-bounded, annotated) are unfolded one step at a time
when they are reached; annotations are ignored.

The expected total reward to the sink, maximized over schedulers, is the
quantity the transformer computes; `cross_check` compares the two.  It is
solved in two steps: a safety fixed point decides whether some scheduler can
avoid the sink (then the value is infinite), and otherwise Howard policy
iteration finds the best scheduler.  The model is condensed once, over the
union of all actions, and every policy is evaluated exactly by one pass over
that condensation in reverse topological order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple, Union

from .kernel import INF, ONE, ZERO, KernelError, State, XReal, _deep_stack
from .semantics import eval_dist, eval_expr, eval_guard, eval_rt
from .syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr, RT_ZERO,
    Seq, Skip, VarTarget, While, WhileBounded, expand_bounded_once,
    program_to_text,
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


@dataclass(frozen=True)
class MdpNode:
    kind: str  # "exec" | "term" | "termseq" | "sink"
    program: Optional[Program] = None
    state: Optional[State] = None


@dataclass
class Mdp:
    nodes: List[MdpNode]
    # per node: action -> list of (probability, successor index)
    transitions: List[Dict[str, List[Tuple[Fraction, int]]]]
    rewards: List[XReal]
    initial: int
    sink: int
    f: RtExpr

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Qualitative:
    kind: str  # "AllSchedulersReachSink" | "SomeSchedulerAvoids"
    witness: Optional[Tuple[Tuple[int, str], ...]] = None  # (node, action)


@dataclass(frozen=True)
class RewardAnalysis:
    qualitative: Qualitative
    value: XReal
    method: str  # "ExactLinearSolve" | "PolicyIteration" | "Qualitative" | "InfiniteReward"
    schedulers: Optional[int] = None  # policies evaluated by PolicyIteration
    iterations: Optional[int] = None  # always None; perfbench/tracer.py reads it


@dataclass
class MdpConfig:
    node_cap: int = 200_000


# ---------------------------------------------------------------------------
# construction


class _Builder:
    def __init__(self, f: RtExpr, cap: int):
        self.f = f
        self.cap = cap
        self.nodes: List[MdpNode] = []
        self.transitions: List[Dict[str, List[Tuple[Fraction, int]]]] = []
        self.rewards: List[XReal] = []
        self.index: Dict[tuple, int] = {}
        self.seq_cache: Dict[Tuple[int, int], Seq] = {}
        self.unfold_cache: Dict[int, Program] = {}
        self.reward_cache: Dict[int, XReal] = {}
        self.sink = self._intern("sink", None, None, ("sink",))

    def _intern(
        self, kind: str, program: Optional[Program], state: Optional[State], key: tuple
    ) -> int:
        """The node of `key`, numbered when first reached."""
        i = self.index.get(key)
        if i is not None:
            return i
        if len(self.nodes) >= self.cap:
            raise NodeCapExceeded(self.cap)
        i = len(self.nodes)
        self.index[key] = i
        self.nodes.append(MdpNode(kind, program, state))
        self.transitions.append({})
        self.rewards.append(ZERO)
        return i

    def exec_node(self, p: Program, sigma: State) -> int:
        return self._intern("exec", p, sigma, ("exec", id(p), sigma))

    def term_node(self, sigma: State) -> int:
        return self._intern("term", None, sigma, ("term", sigma))

    def termseq_node(self, p: Program, sigma: State) -> int:
        return self._intern("termseq", p, sigma, ("termseq", id(p), sigma))

    def compose(self, first: Program, second: Program) -> Seq:
        key = (id(first), id(second))
        c = self.seq_cache.get(key)
        if c is None:
            c = Seq(first, second)
            self.seq_cache[key] = c
        return c

    def unfold(self, w: Union[While, WhileBounded, Annotated]) -> Program:
        """One step of a loop's defining expansion, one object per loop.

        An annotated loop re-enters through the annotated node itself, not
        through its inner loop, so its model is node for node that of the
        plain loop.
        """
        c = self.unfold_cache.get(id(w))
        if c is None:
            if isinstance(w, WhileBounded):
                c = expand_bounded_once(w)
            else:
                loop = w.loop if isinstance(w, Annotated) else w
                c = If(loop.guard, self.compose(loop.body, w), Empty())
            self.unfold_cache[id(w)] = c
        return c

    def head_reward(self, p: Program) -> XReal:
        """`head_reward`, once per program object."""
        r = self.reward_cache.get(id(p))
        if r is None:
            r = self.reward_cache[id(p)] = head_reward(p)
        return r

    # successor descriptors: ("exec", p, σ) | ("term", σ) | ("termseq", p, σ) | ("sink",)

    def step(self, p: Program, sigma: State) -> Dict[str, List[Tuple[Fraction, tuple]]]:
        if isinstance(p, (Empty, Skip)):
            return {"t": [(_ONE, ("term", sigma))]}
        if isinstance(p, Halt):
            return {"t": [(_ONE, ("sink",))]}
        if isinstance(p, ProbAssign):
            acc: Dict[tuple, Fraction] = {}
            for prob, v in eval_dist(p.dist, sigma):
                if isinstance(p.target, VarTarget):
                    if isinstance(v, tuple):
                        nxt = sigma.set_array(p.target.name, v)
                    else:
                        nxt = sigma.set(p.target.name, v)
                else:
                    idx = eval_expr(p.target.index, sigma)
                    nxt = sigma.set_cell(p.target.name, idx, v)
                d = ("term", nxt)
                prev = acc.get(d)
                acc[d] = prob if prev is None else prev + prob
            return {"t": [(prob, d) for d, prob in acc.items()]}
        if isinstance(p, NdChoice):
            return {
                "L": [(_ONE, ("exec", p.left, sigma))],
                "R": [(_ONE, ("exec", p.right, sigma))],
            }
        if isinstance(p, If):
            p_true = eval_guard(p.guard, sigma)
            if p_true == 1 or p.then is p.orelse:
                return {"t": [(_ONE, ("exec", p.then, sigma))]}
            if p_true == 0:
                return {"t": [(_ONE, ("exec", p.orelse, sigma))]}
            return {"t": [
                (p_true, ("exec", p.then, sigma)),
                (1 - p_true, ("exec", p.orelse, sigma)),
            ]}
        if isinstance(p, While):
            return {"t": [(_ONE, ("exec", self.unfold(p), sigma))]}
        if isinstance(p, Seq):
            inner = self.step(p.first, sigma)
            out: Dict[str, List[Tuple[Fraction, tuple]]] = {}
            for action, rows in inner.items():
                lifted = []
                for prob, d in rows:
                    if d[0] == "term":
                        lifted.append((prob, ("termseq", p.second, d[1])))
                    elif d[0] == "termseq":
                        lifted.append(
                            (prob, ("termseq", self.compose(d[1], p.second), d[2]))
                        )
                    elif d[0] == "exec":
                        lifted.append(
                            (prob, ("exec", self.compose(d[1], p.second), d[2]))
                        )
                    else:
                        lifted.append((prob, d))
                out[action] = lifted
            return out
        if isinstance(p, Annotated):
            return {"t": [(_ONE, ("exec", self.unfold(p), sigma))]}
        if isinstance(p, WhileBounded):
            return self.step(self.unfold(p), sigma)
        raise TypeError(p)

    def resolve(self, d: tuple) -> int:
        if d[0] == "sink":
            return self.sink
        if d[0] == "term":
            return self.term_node(d[1])
        if d[0] == "termseq":
            return self.termseq_node(d[1], d[2])
        return self.exec_node(d[1], d[2])


def head_reward(p: Program) -> XReal:
    """Reward of a running node, by the head statement.

    Guard evaluations and assignments consume one unit of time; structural
    steps are free; a sequence inherits the charge of its first component.
    """
    if isinstance(p, (Skip, ProbAssign, If)):
        return ONE
    if isinstance(p, Seq):
        return head_reward(p.first)
    if isinstance(p, WhileBounded):
        return head_reward(expand_bounded_once(p))
    return ZERO


def build_mdp(
    C: Program, sigma0: State, f: RtExpr = RT_ZERO, node_cap: int = 200_000
) -> Mdp:
    """Breadth-first closure of the step rules from the initial configuration.

    Nodes are numbered when first reached, so expanding them in index order
    is the breadth-first order.  Runs under a raised recursion limit, since
    evaluating a long operator chain recurses once per operator.
    """
    b = _Builder(f, node_cap)
    b.transitions[b.sink]["t"] = [(_ONE, b.sink)]
    initial = b.exec_node(C, sigma0)
    nodes = b.nodes
    with _deep_stack():
        i = initial
        while i < len(nodes):
            node = nodes[i]
            if node.kind == "term":
                b.rewards[i] = eval_rt(f, node.state)
                b.transitions[i] = {"t": [(_ONE, b.sink)]}
            elif node.kind == "termseq":
                j = b.exec_node(node.program, node.state)
                b.transitions[i] = {"t": [(_ONE, j)]}
            else:
                b.rewards[i] = b.head_reward(node.program)
                b.transitions[i] = {
                    action: [(prob, b.resolve(d)) for prob, d in rows]
                    for action, rows in b.step(node.program, node.state).items()
                }
            i += 1
    return Mdp(b.nodes, b.transitions, b.rewards, initial, b.sink, f)


# ---------------------------------------------------------------------------
# qualitative analysis: can some scheduler avoid the sink?


def qualitative_check(m: Mdp) -> Qualitative:
    """Whether every scheduler reaches the sink almost surely.

    Computes Z, the greatest set of nodes without the sink in which every
    node has an action whose whole support stays in Z: a worklist runs
    backwards from the sink, kills each action with a successor outside Z,
    and drops a node once all of its actions are dead.  A scheduler that
    plays the surviving actions never leaves Z, and every node of the model
    is reachable by construction, so some scheduler avoids the sink with
    positive probability exactly when Z is non-empty.  Conversely, every end
    component without the sink lies inside Z.  The witness pairs each node
    of Z with its first surviving action.
    """
    n = m.node_count
    preds: List[List[Tuple[int, str]]] = [[] for _ in range(n)]
    for v, trans in enumerate(m.transitions):
        for action, rows in trans.items():
            for _, j in rows:
                preds[j].append((v, action))
    live = [len(trans) for trans in m.transitions]
    dead: set = set()
    out = [False] * n
    out[m.sink] = True
    work = [m.sink]
    while work:
        for pair in preds[work.pop()]:
            if pair in dead:
                continue
            dead.add(pair)
            v = pair[0]
            live[v] -= 1
            if not live[v]:
                out[v] = True
                work.append(v)
    if all(out):
        return Qualitative("AllSchedulersReachSink")
    witness = tuple(
        (v, next(a for a in m.transitions[v] if (v, a) not in dead))
        for v in range(n)
        if not out[v]
    )
    return Qualitative("SomeSchedulerAvoids", witness)


# ---------------------------------------------------------------------------
# expected total reward


def _condense(m: Mdp) -> List[Union[int, List[int]]]:
    """Strongly connected components of the union of all actions' graphs.

    One iterative Tarjan over plain lists; the sink is settled up front and
    left out.  The components come in reverse topological order, a single
    node without a self-loop as its index and a cyclic block as a list.
    Every scheduler's chain is a subgraph of this union graph, so the order
    is a valid evaluation order for every policy.
    """
    n = m.node_count
    succ = [[j for rows in t.values() for _, j in rows] for t in m.transitions]
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    index[m.sink] = 0
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


def _evaluate(
    comps: List[Union[int, List[int]]],
    reward: List[Fraction],
    rows: List[List[Tuple[Fraction, int]]],
    x: List[Fraction],
) -> None:
    """Exact expected reward-to-sink of the chain that plays `rows`, into `x`.

    One pass over the union condensation.  A single node adds up its
    successors' values, skipping zeros, without a multiplication on a single
    successor (probability 1).  A cyclic block gets sparse Gaussian
    elimination without pivoting, then back substitution, so a policy whose
    chain is acyclic inside a large union block costs about one pass over
    its rows; the pivots are positive once every scheduler reaches the sink
    almost surely.  The sink's entry stays 0.
    """
    for comp in comps:
        if comp.__class__ is int:
            total = reward[comp]
            row = rows[comp]
            if len(row) == 1:
                v = x[row[0][1]]
                if not total:
                    total = v
                elif v:
                    total += v
            else:
                for prob, j in row:
                    v = x[j]
                    if v:
                        total += prob * v
            x[comp] = total
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

    Howard policy iteration over memoryless schedulers.  The model is
    condensed once, and every policy is evaluated exactly by one pass of
    `_evaluate` over that condensation, into one value list.  Once the
    qualitative check has passed, every scheduler reaches the sink almost
    surely, so the iteration is exact and finite: it starts from the
    smallest action at each choice node and switches an action only on a
    strict rational improvement.  A model without choice nodes is a single
    evaluation.
    """
    qual = qualitative_check(m)
    if qual.kind == "SomeSchedulerAvoids":
        return RewardAnalysis(qual, INF, "Qualitative")
    if any(not r.is_finite for r in m.rewards):
        # an infinite reward sits on a reachable node, and every node is
        # reached with positive probability by construction
        return RewardAnalysis(qual, INF, "InfiniteReward")
    comps = _condense(m)
    reward = [r.q or 0 for r in m.rewards]  # int 0 tests fast
    nd = [i for i, t in enumerate(m.transitions) if len(t) > 1]
    pick = {i: min(m.transitions[i]) for i in nd}
    rows = [t[min(t)] for t in m.transitions]  # the policy's row per node
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
    if not nd:
        return RewardAnalysis(qual, XReal(vals[m.initial]), "ExactLinearSolve")
    return RewardAnalysis(
        qual, XReal(vals[m.initial]), "PolicyIteration", schedulers=evaluated
    )


# ---------------------------------------------------------------------------
# cross-checking against the transformer


@dataclass(frozen=True)
class CrossCheckReport:
    status: str  # "pass" | "fail"
    ert_kind: str
    ert_value: XReal
    mdp_value: XReal
    method: str
    node_count: int
    bounded_at: Optional[int] = None
    detail: str = ""


def cross_check(
    C: Program,
    f: RtExpr = RT_ZERO,
    sigma: Optional[State] = None,
    cfg: Optional[MdpConfig] = None,
    ert_config=None,
    fallback_unroll: int = 64,
) -> CrossCheckReport:
    """Compute the transformer and the operational value and compare.

    Programs whose reachable model does not fit the node cap are compared on
    their depth-bounded form instead: both sides are exact on that program,
    so the comparison is an exact equality, at the price of speaking about
    the bounded program only.

    Both values are exact: an exact transformer result must equal the model
    value, and a lower one must not exceed it.
    """
    from .syntax import replace_whiles
    from .transformer import ErtConfig, expected_runtime

    sigma = sigma or State()
    cfg = cfg or MdpConfig()
    bounded_at = None
    program = C
    try:
        m = build_mdp(program, sigma, f, cfg.node_cap)
    except NodeCapExceeded:
        bounded_at = fallback_unroll
        program = replace_whiles(C, fallback_unroll)
        m = build_mdp(program, sigma, f, cfg.node_cap)
    analysis = expected_reward(m)
    e_cfg = ert_config or ErtConfig()
    ert = expected_runtime(program, f, sigma, e_cfg)

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
        node_count=m.node_count,
        bounded_at=bounded_at,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# exports


def _node_label(node: MdpNode) -> str:
    if node.kind == "sink":
        return "sink"
    if node.kind == "term":
        return "[down] %s" % node.state
    # the first line of the program's text, without printing all of it: a
    # sequence's text is its leftmost statement's, then ";" and a newline
    first = node.program
    while isinstance(first, Seq):
        first = first.first
    text = program_to_text(first)
    head = text.split("\n", 1)[0]
    if first is not node.program and "\n" not in text:
        head += ";"
    head = head.strip()
    if len(head) > 40:
        head = head[:37] + "..."
    if node.kind == "termseq":
        return "[down; %s] %s" % (head, node.state)
    return "%s %s" % (head, node.state)


def mdp_to_dot(m: Mdp) -> str:
    lines = ["digraph mdp {", '  rankdir=TB;', '  node [shape=box, fontsize=10];']
    for i, node in enumerate(m.nodes):
        rew = m.rewards[i]
        extra = "" if rew == ZERO else '\\nreward %s' % rew
        shape = ', shape=doublecircle' if node.kind == "sink" else ""
        lines.append(
            '  n%d [label="%s%s", fontcolor=black, color=gray40%s];'
            % (i, _escape(_node_label(node)), extra, shape)
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
