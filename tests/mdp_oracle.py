"""The parent's model builder, kept as a test-only oracle.

These are `_Builder` and `build_mdp` as they were when the builder stepped
a program one `Seq` level at a time, lifting successor descriptor tuples
through each level and resolving them to nodes keyed
`(kind, id(program), state)`.  `ertkit.mdp` now compiles one successor
table per program object per build; the tests compare the two model for
model.  The oracle also keeps its own loop expansion (`expand_bounded_once`
and the plain-loop unfolding in `_Builder.unfold`) and its own
`head_reward`, which charges a whole program by its first statement, so a
defect in the model's step rules or charges shows in the comparison.  Only
the model classes are shared with the production module; the solver's
reference is the per-policy solve in `test_mdp`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from ertkit.kernel import ONE, ZERO, State, XReal, _deep_stack
from ertkit.mdp import Mdp, MdpNode, NodeCapExceeded
from ertkit.semantics import eval_dist, eval_expr, eval_guard, eval_rt
from ertkit.syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr, RT_ZERO,
    Seq, Skip, VarTarget, While, WhileBounded,
)


_ONE = Fraction(1)


def expand_bounded_once(p: WhileBounded) -> Program:
    """One step of the defining expansion of a depth-bounded loop."""
    if p.bound <= 0:
        return Halt()
    return If(
        p.guard,
        Seq(p.body, WhileBounded(p.bound - 1, p.guard, p.body)),
        Empty(),
    )


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
                        nxt = sigma.set(p.target.name, v)
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
