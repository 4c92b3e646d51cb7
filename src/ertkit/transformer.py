"""Expected run-time transformer.

The transformer is evaluated pointwise: `expected_runtime` computes the
expected number of ticks of a program from one initial state, applied to a
post-run-time `f`.  Compound statements are handled with continuations, so a
sequence is literally the transformer of its head applied to the transformer
of its tail.  The engine walks a chain of sequences down to its head,
interning the continuation of each tail, and looks the head's rule up in the
table `_RULES` by its exact class; every statement class but `Seq` has one
rule there.  The engine memoizes a value per statement head, state and
continuation: a sequence's value is its head's under the interned
continuation of its tail, so only the head gets a memo entry.

Unbounded loops are approximated from below by one depth-bounded unrolling,
evaluated once at the cap `max_unroll_depth`.  A loop is identified by its
node, so `while` and `while^{<k}` share one unrolling rule and differ only
at depth 0.  An evaluation that never reaches a `while`'s cutoff at depth 0
is exact: every path it explored left the loop before the cutoff, so every
deeper unrolling explores the same paths and computes the same value, and so
does the loop's least fixed point.  One that does reach the cutoff is
reported as a lower bound, which is always sound since bounded unrollings
approximate the fixed point from below.

Inside the engine a value is an int pair `(n, d)` of `kernel` in lowest
terms, with `n = None` for infinity, plus the taint flag.  What the engine
computes that depends on neither the post-run-time, nor the continuation,
nor the unroll depth lives in a step table (`StepTable`): each guard's pair
of branch weights per state, and each assignment's support per state, as
int pairs, with the successor state of each entry, one object per distinct
state.  Every evaluation that is given the table shares it: the
evaluations of one program's algebraic laws in `props`, the states and the
half-depth run of `ertkit eval`, and all the engines of one
`char_functional`.  Each evaluation still has an engine of its own, with
its own memo, continuations and annotation record.
The table's keys hold `id()`s of program nodes, so they are valid only
while those nodes live; the table keeps every program evaluated against it
for that reason.

States are keyed by identity too.  Every state an engine sees is the
table's interned object (`StepTable.states`): `StepTable.expected_runtime`
and `char_functional`'s `apply` intern the state they are given, and
`_assign` interns each successor before a continuation reads it (a
successor given only to the zero run-time, which reads no state, is not
kept).  So the memo, the loop memo, the guard and support rows and a
post-run-time's values key a state by its `id()`, and `State.__hash__` and
`__eq__` run only when a state is interned.  This rests on one invariant:
every state whose id is a key is held by `StepTable.states` for as long as
the table lives, and nothing that keys states outlives the table it was
used with.  A dropped state's id could be reused by another state, which
would then find the dropped one's entries.

A side whose weight has numerator 0 is impossible and never evaluated.
Each node sums its weighted successors unreduced with `kernel.pair_sum`
and reduces the sum with one gcd at its end (`kernel.pair_lowest`); the
pair format and its arithmetic live in `kernel`, shared with the run-time
evaluator of `semantics`.  A zero successor value adds nothing, a weight
with denominator 1 (certain, since weights lie in (0, 1]) is not
multiplied, a term over the sum's own denominator, or a sum or term that is
a whole number, adds without a gcd, and infinity absorbs the rest of the
sum; since zero-weight branches are skipped, the product 0 * inf never
arises.  A run-time expression (a post-run-time or an annotation's bound)
enters the engine as an int pair, from `semantics.eval_rt_pair`; a
`Fraction` enters only from the step semantics (guard weights and
supports), and an `XReal` only from a post-run-time given as a function
(`XReal.pair`).  An `XReal` leaves at the three entry points
(`XReal.of_pair`).  A post-run-time enters once per state: its
continuation keeps each state's value for as long as it lives.

An annotated loop is replaced by its certified lower bound when it is
applied to the zero post-run-time, the one the bound was certified against.
All contexts of the transformer are monotone, so the result then remains a
lower bound for the whole program.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from .kernel import (
    ZERO, KernelError, Record, State, XReal, _deep_stack, pair_le, pair_lowest,
    pair_sum,
)
from .semantics import eval_dist, eval_expr, eval_guard, eval_rt_pair
from .syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr,
    RT_ZERO, Seq, Skip, VarTarget, While, WhileBounded, unfold_once,
    rt_to_text,
)


# An engine value: numerator, denominator and taint; the numerator is None
# for infinity, and a finite value is in lowest terms with d > 0.
Val = Tuple[Optional[int], int, bool]

# A loop node, which is also the loop's identity in the memo table.
Loop = Union[While, WhileBounded]

# A run-time as the entry points take it: an expression, a function from
# states to XReal, or None for the zero run-time.
RunTime = Union[RtExpr, Callable[[State], XReal], None]


class FuelExhausted(KernelError):
    pass


# the most statements `det_step_count` executes before it gives a run up
STEP_BUDGET = 10_000_000

# the unrolling cap of an evaluation given none
MAX_UNROLL_DEPTH = 64


class NotDeterministic(KernelError):
    pass


class ErtResult(Record):
    __slots__ = (
        "kind",  # "exact" | "lower"
        "value",  # XReal
        "annotations_used",  # Tuple[str, ...]
    )
    _defaults = {"annotations_used": ()}

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


# ---------------------------------------------------------------------------
# continuations
#
# A continuation stands for the run-time function applied after a program
# fragment: a post-run-time, the rest of a sequence, or the rest of a loop
# unrolling.  One class covers all of them, holding a function of
# `(engine, sigma)` that gives an engine value.  The engine passes itself
# in, so a continuation holds no reference to it and nothing an evaluation
# builds points back at its engine: once the engine is dropped, reference
# counting frees its memo and its continuations, and once its step table is
# dropped too, the table and its states.  The memo table compares
# continuations by identity, so the engine interns the ones it creates and
# identical tails share one object.  `eval` interns the tail of
# each sequence it walks down, so a sequence needs no memo entry of its own.
# A post-run-time's continuation keeps its value at each state it was asked
# about, so paths that end in one state compute f there once.


class _Cont:
    __slots__ = ("eval",)

    def __init__(self, fn: Callable[["_Engine", State], Val]):
        self.eval = fn


# the zero run-time, the one an annotated loop's bound was certified against
ZERO_CONT = _Cont(lambda engine, sigma: (0, 1, False))


def _as_cont(f: RunTime) -> _Cont:
    """A post-run-time as a continuation that computes f's engine value
    once per state and keeps it for as long as the continuation lives."""
    if f is None or f is RT_ZERO or f == RT_ZERO:
        return ZERO_CONT
    # keyed by the id of an interned state, which the step table keeps alive
    values: Dict[int, Val] = {}

    def value(engine: "_Engine", sigma: State) -> Val:
        v = values.get(id(sigma))
        if v is None:
            if callable(f):
                n, d = f(sigma).pair
                v = (n, d, False)
            else:
                # the module's eval_rt_pair is read at each call, so a
                # patched one is seen
                n, d = eval_rt_pair(f, sigma)
                v = (n, d, False)
            values[id(sigma)] = v
        return v

    return _Cont(value)


# ---------------------------------------------------------------------------
# engine


class StepTable:
    """The step semantics of the programs evaluated against the table.

    It holds each guard's branch weights `(tn, fn, d)`, keyed by
    `(id(guard), id(state))`, and each assignment's support, keyed by
    `(id(assignment), id(state))`: one `[pn, pd, value, successor]` entry
    per point of the support, whose successor state `_assign` fills in just
    before its continuation first runs (unless that is the zero run-time).
    `states` interns every state an engine keys, so that a state reached
    from many others is held once and its id stays its own for the table's
    lifetime.  None of it depends
    on the post-run-time, the continuation or the unroll depth, so any
    number of evaluations may share one table.  The keys are valid only
    while the nodes they name live, so the table keeps every program
    evaluated against it; nothing in it points back at an engine.
    """

    __slots__ = ("programs", "guards", "supports", "states")

    def __init__(self):
        self.programs: Dict[int, Program] = {}
        self.guards: Dict[tuple, Tuple[int, int, int]] = {}
        self.supports: Dict[tuple, List[list]] = {}
        self.states: Dict[State, State] = {}

    def engine(self, program: Program, max_unroll_depth: int = MAX_UNROLL_DEPTH) -> "_Engine":
        """A fresh engine that evaluates `program` against this table."""
        check_unroll_depth(max_unroll_depth)
        self.programs[id(program)] = program
        return _Engine(max_unroll_depth, self)

    def expected_runtime(
        self,
        program: Program,
        f: RunTime = None,
        sigma: Optional[State] = None,
        max_unroll_depth: int = MAX_UNROLL_DEPTH,
    ) -> ErtResult:
        """`expected_runtime`, in an engine of its own that shares this
        table."""
        engine = self.engine(program, max_unroll_depth)
        sigma = sigma or State()
        sigma = self.states.setdefault(sigma, sigma)
        with _deep_stack():
            n, d, tainted = engine.eval(program, sigma, _as_cont(f))
        if n is None:
            tainted = False
        # one entry per distinct bound, not one per substitution site
        return ErtResult(
            kind="lower" if tainted else "exact",
            value=XReal.of_pair(n, d),
            annotations_used=tuple(dict.fromkeys(engine.annotations_used)),
        )


class _Engine:
    def __init__(self, max_unroll_depth: int, steps: StepTable):
        self.max_unroll_depth = max_unroll_depth
        self.memo: Dict[tuple, Val] = {}
        # interned for the engine's lifetime, so that ids in memo keys never
        # get recycled
        self.conts: Dict[tuple, _Cont] = {}
        # the step table's own dicts, not the table, are read on the hot path
        self.guards = steps.guards
        self.supports = steps.supports
        self.states = steps.states
        self.annotations_used: List[str] = []

    def seq_cont(self, program: Program, after: _Cont) -> _Cont:
        """Run `program`, then `after`."""
        key = (id(program), id(after))
        c = self.conts.get(key)
        if c is None:
            c = self.conts[key] = _Cont(
                lambda engine, sigma: engine.eval(program, sigma, after)
            )
        return c

    def loop_cont(self, loop: Loop, depth: int, after: _Cont) -> _Cont:
        """Resume `loop` unrolled `depth` more times, then `after`."""
        key = (id(loop), depth, id(after))
        c = self.conts.get(key)
        if c is None:
            c = self.conts[key] = _Cont(
                lambda engine, sigma: engine._bounded(loop, depth, sigma, after)
            )
        return c

    def guard(self, g, sigma: State) -> Tuple[int, int, int]:
        """The branch weights (tn, fn, d) of Pr[true] = tn/d and
        Pr[false] = fn/d; a zero numerator marks an impossible side."""
        key = (id(g), id(sigma))
        w = self.guards.get(key)
        if w is None:
            p = eval_guard(g, sigma)
            tn, d = p.numerator, p.denominator
            w = self.guards[key] = (tn, d - tn, d)
        return w

    def support(self, p: ProbAssign, sigma: State) -> List[list]:
        """The support of an assignment as [pn, pd, value, successor]
        entries, each successor None until `_assign` makes it."""
        key = (id(p), id(sigma))
        entries = self.supports.get(key)
        if entries is None:
            entries = self.supports[key] = [
                [q.numerator, q.denominator, v, None] for q, v in eval_dist(p.dist, sigma)
            ]
        return entries

    def eval(self, p: Program, sigma: State, cont: _Cont) -> Val:
        # a sequence's value is its head's under the interned tail, so only
        # the head of a chain of sequences gets a memo entry
        while p.__class__ is Seq:
            cont = self.seq_cont(p.second, cont)
            p = p.first
        key = (id(p), id(sigma), id(cont))
        hit = self.memo.get(key)
        if hit is None:
            rule = _RULES.get(p.__class__)
            if rule is None:
                raise TypeError(p)
            hit = self.memo[key] = rule(self, p, sigma, cont)
        return hit

    def _bounded(self, loop: Loop, depth: int, sigma: State, cont: _Cont) -> Val:
        """Lazy evaluation of a loop unrolled `depth` more times.

        Depth zero behaves like halt.  A `While` cut off there may not have
        reached its fixed point, which taints the result; a `WhileBounded`
        that runs out is just the program's own semantics.
        """
        key = (id(loop), depth, id(sigma), id(cont))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if depth <= 0:
            out: Val = (0, 1, loop.__class__ is While)
        else:
            rest = self.loop_cont(loop, depth - 1, cont)
            out = self.step(loop.guard, loop.body, sigma, rest, cont)
        self.memo[key] = out
        return out

    def step(self, guard, body: Program, sigma: State, rest: _Cont, other: _Cont) -> Val:
        """1 + Pr[guard] * ert[body](rest)(sigma) + Pr[not guard] * other(sigma).

        For a conditional, `body` is the then-branch, `rest` the
        conditional's continuation and `other` the else-branch followed by
        that continuation.  For a loop round, `body` is the loop body,
        `rest` the rest of the unrolling and `other` the run-time after the
        loop.  A side whose weight is zero is never evaluated.
        """
        tn, fn, wd = self.guard(guard, sigma)
        n, d, tainted = 1, 1, False
        if tn:
            vn, vd, tainted = self.eval(body, sigma, rest)
            n, d = pair_sum(n, d, tn, wd, vn, vd)
        if fn:
            vn, vd, t = other.eval(self, sigma)
            n, d = pair_sum(n, d, fn, wd, vn, vd)
            tainted = tainted or t
        n, d = pair_lowest(n, d)
        return n, d, tainted


# ---------------------------------------------------------------------------
# rules
#
# One rule per statement class, `rule(engine, p, sigma, cont)`, looked up by
# the exact class of `p` on a memo miss.  `Seq` has none: `eval` walks a
# sequence itself.


def _empty(engine: _Engine, p: Empty, sigma: State, cont: _Cont) -> Val:
    return cont.eval(engine, sigma)


def _skip(engine: _Engine, p: Skip, sigma: State, cont: _Cont) -> Val:
    n, d, t = cont.eval(engine, sigma)
    return (None if n is None else n + d), d, t


def _halt(engine: _Engine, p: Halt, sigma: State, cont: _Cont) -> Val:
    return 0, 1, False


def _assign(engine: _Engine, p: ProbAssign, sigma: State, cont: _Cont) -> Val:
    target = p.target
    index = None
    n, d, tainted = 1, 1, False
    # each successor state is made just before its continuation first runs,
    # so errors are raised in the order of the support, and a visit of the
    # same assignment and state from inside that continuation finds the
    # entries made so far and makes the rest itself.  The zero run-time
    # never reads its state, so a successor made for it is not kept.
    for entry in engine.support(p, sigma):
        pn, pd, v, nxt = entry
        if nxt is None:
            if target.__class__ is VarTarget:
                nxt = sigma.set(target.name, v)
            else:
                if index is None:
                    index = eval_expr(target.index, sigma)
                nxt = sigma.set_cell(target.name, index, v)
            if cont is not ZERO_CONT:
                nxt = entry[3] = engine.states.setdefault(nxt, nxt)
        vn, vd, t = cont.eval(engine, nxt)
        n, d = pair_sum(n, d, pn, pd, vn, vd)
        tainted = tainted or t
    n, d = pair_lowest(n, d)
    return n, d, tainted


def _choice(engine: _Engine, p: NdChoice, sigma: State, cont: _Cont) -> Val:
    ln, ld, lt = engine.eval(p.left, sigma, cont)
    rn, rd, rt_ = engine.eval(p.right, sigma, cont)
    # the larger value, infinity on top; on a tie either will do
    if pair_le(ln, ld, rn, rd):
        return rn, rd, lt or rt_
    return ln, ld, lt or rt_


def _if(engine: _Engine, p: If, sigma: State, cont: _Cont) -> Val:
    return engine.step(p.guard, p.then, sigma, cont, engine.seq_cont(p.orelse, cont))


def _while(engine: _Engine, p: While, sigma: State, cont: _Cont) -> Val:
    return engine._bounded(p, engine.max_unroll_depth, sigma, cont)


def _while_bounded(engine: _Engine, p: WhileBounded, sigma: State, cont: _Cont) -> Val:
    return engine._bounded(p, p.bound, sigma, cont)


def _annotated(engine: _Engine, p: Annotated, sigma: State, cont: _Cont) -> Val:
    if cont is ZERO_CONT:
        engine.annotations_used.append(rt_to_text(p.bound))
        n, d = eval_rt_pair(p.bound, sigma)
        return n, d, True
    return engine._bounded(p.loop, engine.max_unroll_depth, sigma, cont)


_RULES: Dict[type, Callable[[_Engine, Program, State, _Cont], Val]] = {
    Empty: _empty,
    Skip: _skip,
    Halt: _halt,
    ProbAssign: _assign,
    NdChoice: _choice,
    If: _if,
    While: _while,
    WhileBounded: _while_bounded,
    Annotated: _annotated,
}


# ---------------------------------------------------------------------------
# public entry points


def expected_runtime(
    program: Program,
    f: RunTime = None,
    sigma: Optional[State] = None,
    max_unroll_depth: int = MAX_UNROLL_DEPTH,
) -> ErtResult:
    """Expected run-time of `program` applied to `f`, from state `sigma`,
    with each `while` unrolled at most `max_unroll_depth` times.

    The result is exact unless a loop had to be cut off or a lower-bound
    annotation was substituted, in which case it is a lower bound.  An
    infinite lower bound is promoted back to exact, since nothing exceeds it.
    """
    return StepTable().expected_runtime(program, f, sigma, max_unroll_depth)


def check_unroll_depth(max_unroll_depth: int) -> None:
    """Refuse an unrolling cap below 1."""
    if max_unroll_depth < 1:
        raise ValueError("max_unroll_depth must be at least 1, got %r" % (max_unroll_depth,))


def char_functional(loop: Union[While, Annotated], f: RunTime):
    """The characteristic functional F of a loop with respect to `f`.

    Returns apply(X, sigma) -> (value, tainted) computing

        F(X)(sigma) = 1 + Pr[guard false] * f(sigma)
                           + Pr[guard true] * ert[body](X)(sigma)

    where X is a run-time expression or a function of the state.  The
    tainted flag is set when the body itself contained a loop that was cut
    off, in which case the value is only a lower bound on F(X)(sigma).

    Consecutive applications to one X object share one engine, so the
    states of one iterate share its memo; every engine of the functional
    shares one step table.  The engine is kept with X itself, so X's id
    cannot be reused by another object while the engine's memo is keyed on
    it.  Continuations take the engine as an argument and hold no reference
    to it, so when a new X replaces the engine, or `apply` itself is
    dropped, reference counting frees the old engine at once.
    """
    if isinstance(loop, Annotated):
        loop = loop.loop
    f_cont = _as_cont(f)
    steps = StepTable()
    # (X, its continuation, the engine applying F to it)
    last: list = [None, None, None]

    def apply(X, sigma: State) -> Tuple[XReal, bool]:
        if last[2] is None or last[0] is not X:
            last[:] = X, _as_cont(X), steps.engine(loop)
        _, x_cont, engine = last
        sigma = steps.states.setdefault(sigma, sigma)
        with _deep_stack():
            n, d, tainted = engine.step(loop.guard, loop.body, sigma, x_cont, f_cont)
        return XReal.of_pair(n, d), tainted

    return apply


def kleene_iterates(
    loop: Union[While, Annotated],
    f: RunTime,
    states: List[State],
):
    """Yield the fixed-point iterates of a loop as state tables.

    The first yielded table is the zero run-time; each following table
    applies the characteristic functional once.  States missing from the
    table read as zero, the same base the iteration starts from, so every
    entry is a sound approximation from below; an entry is exact whenever
    its dependence cone across the computed iterates stays inside the table.
    """
    apply_F = char_functional(loop, f)
    table: Dict[State, XReal] = {s: ZERO for s in states}
    yield dict(table)
    while True:
        lookup = lambda q, t=table: t.get(q, ZERO)  # noqa: E731
        table = {s: apply_F(lookup, s)[0] for s in states}
        yield dict(table)


def det_step_count(program: Program, sigma: Optional[State] = None) -> Tuple[XReal, State]:
    """Run a deterministic program, counting ticks.

    Equals the transformer applied to the zero run-time on programs where
    every distribution is a point mass and no nondeterministic choice
    occurs.  Returns the tick count and the final state; a halt statement
    stops the run keeping the count accumulated so far.  A run that executes
    more than `STEP_BUDGET` statements raises `FuelExhausted`.
    """
    sigma = sigma or State()
    fuel = STEP_BUDGET
    ticks = 0
    stack: List[Program] = [program]
    while stack:
        if fuel <= 0:
            raise FuelExhausted("step budget exhausted; the run may diverge")
        fuel -= 1
        node = stack.pop()
        if isinstance(node, Empty):
            continue
        if isinstance(node, Skip):
            ticks += 1
            continue
        if isinstance(node, Halt):
            break
        if isinstance(node, ProbAssign):
            support = _det_support(node.dist, sigma)
            ticks += 1
            if isinstance(node.target, VarTarget):
                sigma = sigma.set(node.target.name, support)
            else:
                idx = eval_expr(node.target.index, sigma)
                sigma = sigma.set_cell(node.target.name, idx, support)
            continue
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
            continue
        if isinstance(node, NdChoice):
            raise NotDeterministic("nondeterministic choice in a deterministic run")
        if isinstance(node, If):
            ticks += 1
            taken = node.then if _det_guard(node.guard, sigma) else node.orelse
            stack.append(taken)
            continue
        if isinstance(node, While):
            ticks += 1
            if _det_guard(node.guard, sigma):
                stack.append(node)
                stack.append(node.body)
            continue
        if isinstance(node, WhileBounded):
            stack.append(unfold_once(node))
            continue
        if isinstance(node, Annotated):
            stack.append(node.loop)
            continue
        raise TypeError(node)
    return XReal(ticks), sigma


def _det_support(dist, sigma):
    entries = eval_dist(dist, sigma)
    if len(entries) != 1:
        raise NotDeterministic("random assignment in a deterministic run")
    return entries[0][1]


def _det_guard(guard, sigma) -> bool:
    p = eval_guard(guard, sigma)
    if p == 1:
        return True
    if p == 0:
        return False
    raise NotDeterministic("probabilistic guard in a deterministic run")
