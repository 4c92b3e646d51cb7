"""Seeded random generation of programs, states, and run-time expressions.

Samples are deliberately small: distribution supports of at most four
points, probabilities with denominators up to eight, a pool of three
scalar variables, and loop bodies that are themselves loop-free with the
guard variable reassigned inside the body.  Small samples keep the
operational models tiny and make counterexamples readable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .kernel import KernelError, Record, State
from .syntax import (
    And,
    BinOp,
    BoolLit,
    Cmp,
    Dirac,
    DistExpr,
    Empty,
    Expr,
    Halt,
    If,
    Indicator,
    IntLit,
    NdChoice,
    Not,
    ProbAssign,
    Program,
    RAdd,
    RLit,
    RMul,
    RtExpr,
    RVar,
    Seq,
    Skip,
    Uniform,
    VarRef,
    VarTarget,
    WeightedList,
    While,
    WhileBounded,
)

POOL: Tuple[str, ...] = ("x", "y", "z")

MAX_SUPPORT = 4
MAX_DENOMINATOR = 8
MAX_SHRINK_TRIES = 300


class GenProfile(Record):
    """Knobs restricting which constructs a sample may contain.

    loops is one of "none", "bounded" (while^{<k} only, so every result
    is exact), or "countdown" (real while loops built as terminating
    countdowns over one variable; strict ones without halt or probability).
    """

    __slots__ = ("name", "allow_halt", "allow_ndchoice", "allow_prob", "loops")
    _defaults = {
        "allow_halt": True, "allow_ndchoice": True, "allow_prob": True, "loops": "bounded",
    }


PROFILES: Dict[str, GenProfile] = {
    "general": GenProfile("general", loops="countdown"),
    "loop-free": GenProfile("loop-free", loops="none"),
    "halt-free": GenProfile("halt-free", allow_halt=False, loops="countdown"),
    "probabilistic": GenProfile("probabilistic", allow_ndchoice=False),
    "deterministic": GenProfile(
        "deterministic",
        allow_ndchoice=False,
        allow_prob=False,
        loops="countdown",
    ),
}


def random_state(rng: random.Random) -> State:
    # Non-negative values so that run-time expressions over the pool
    # always evaluate.
    return State({v: rng.randint(0, 3) for v in POOL})


def _int_expr(rng: random.Random, depth: int = 1) -> Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return IntLit(rng.randint(-2, 3))
    if roll < 0.7:
        return VarRef(rng.choice(POOL))
    op = rng.choice(("+", "-", "*"))
    left = _int_expr(rng, depth - 1)
    right = IntLit(rng.randint(0, 2)) if op == "*" else _int_expr(rng, depth - 1)
    return BinOp(op, left, right)


def _cmp(rng: random.Random) -> Expr:
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    return Cmp(op, VarRef(rng.choice(POOL)), _int_expr(rng, 1))


def _bool_expr(rng: random.Random) -> Expr:
    roll = rng.random()
    if roll < 0.65:
        return _cmp(rng)
    if roll < 0.8:
        return Not(_cmp(rng))
    if roll < 0.9:
        return And(_cmp(rng), _cmp(rng))
    return BoolLit(rng.random() < 0.5)


def _probabilities(rng: random.Random) -> List[Fraction]:
    """A partition of 1 into at most MAX_SUPPORT positive parts p/d, d <= 8."""
    d = rng.randint(2, MAX_DENOMINATOR)
    k = rng.randint(2, min(MAX_SUPPORT, d))
    cuts = sorted(rng.sample(range(1, d), k - 1))
    edges = [0] + cuts + [d]
    return [Fraction(b - a, d) for a, b in zip(edges, edges[1:])]


def _dist(rng: random.Random, profile: GenProfile) -> DistExpr:
    if not profile.allow_prob or rng.random() < 0.4:
        return Dirac(_int_expr(rng, 2))
    if rng.random() < 0.3:
        lo = _int_expr(rng, 1)
        return Uniform(lo, BinOp("+", lo, IntLit(rng.randint(0, 3))))
    ps = _probabilities(rng)
    return WeightedList(tuple((p, _int_expr(rng, 1)) for p in ps))


def _guard(rng: random.Random, profile: GenProfile) -> DistExpr:
    if profile.allow_prob and rng.random() < 0.3:
        p = Fraction(rng.randint(1, MAX_DENOMINATOR - 1), MAX_DENOMINATOR)
        return WeightedList(((p, BoolLit(True)), (1 - p, BoolLit(False))))
    return Dirac(_bool_expr(rng))


def _countdown(rng: random.Random, profile: GenProfile, depth: int) -> Program:
    """A terminating while loop: the guard variable only ever decreases.

    The guard is v > 0 and the last body statement reassigns v from a
    menu that never increases it and decreases it with probability at
    least 1/2, so the loop terminates and, when other body statements
    leave v alone, does so in finite expected time.
    """
    v = rng.choice(POOL)
    rest = [name for name in POOL if name != v]
    with_prefix = depth > 0 and rng.random() < 0.7
    # An unrolled loop halts at its cutoff, so the halt-free laws need loops
    # that provably run off their guard: strict countdowns.  Without
    # probability, strict decrease is the only menu.
    if not profile.allow_halt or not profile.allow_prob:
        dec: DistExpr = Dirac(BinOp("-", VarRef(v), IntLit(1)))
    elif with_prefix or rng.random() < 0.6:
        # Strictly decreasing menus only next to state-changing prefixes:
        # a stay probability makes the iteration count unbounded, which
        # multiplied by a drifting prefix blows up the reachable states.
        if rng.random() < 0.5:
            dec = Dirac(BinOp("-", VarRef(v), IntLit(1)))
        else:
            # guard v > 0 keeps the range nonempty
            dec = Uniform(IntLit(0), BinOp("-", VarRef(v), IntLit(1)))
    else:
        p = Fraction(rng.randint(4, MAX_DENOMINATOR - 1), MAX_DENOMINATOR)
        dec = WeightedList(
            ((p, BinOp("-", VarRef(v), IntLit(1))), (1 - p, VarRef(v)))
        )
    body: Program = ProbAssign(VarTarget(v), dec)
    if with_prefix:
        inner = GenProfile(
            profile.name, allow_halt=False, allow_ndchoice=profile.allow_ndchoice,
            allow_prob=profile.allow_prob, loops="none",
        )
        prefix = _block(rng, depth - 1, inner, pool=rest)
        body = Seq(prefix, body)
    return While(Dirac(Cmp(">", VarRef(v), IntLit(0))), body)


def _stmt(rng: random.Random, depth: int, profile: GenProfile, pool) -> Program:
    roll = rng.random()
    if profile.allow_halt and roll < 0.04:
        return Halt()
    if roll < 0.1:
        return Skip()
    if depth > 0 and roll < 0.22:
        then = _block(rng, depth - 1, profile, pool)
        orelse = _block(rng, depth - 1, profile, pool) if rng.random() < 0.7 else Empty()
        return If(_guard(rng, profile), then, orelse)
    if depth > 0 and profile.allow_ndchoice and roll < 0.3:
        return NdChoice(_block(rng, depth - 1, profile, pool), _block(rng, depth - 1, profile, pool))
    if depth > 0 and profile.loops == "bounded" and roll < 0.4:
        inner = GenProfile(
            profile.name, profile.allow_halt, profile.allow_ndchoice, profile.allow_prob, "none"
        )
        return WhileBounded(
            rng.randint(1, 4), _guard(rng, profile), _block(rng, depth - 1, inner, pool)
        )
    if depth > 0 and profile.loops == "countdown" and roll < 0.4:
        return _countdown(rng, profile, depth - 1)
    return ProbAssign(VarTarget(rng.choice(pool)), _dist(rng, profile))


def _block(rng: random.Random, depth: int, profile: GenProfile, pool=POOL) -> Program:
    stmts = [_stmt(rng, depth, profile, pool) for _ in range(rng.randint(1, 3))]
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def random_program(
    rng: random.Random, profile: GenProfile = PROFILES["general"], max_depth: int = 3
) -> Program:
    return _block(rng, max_depth, profile)


def random_runtime(rng: random.Random, terms: Optional[int] = None) -> RtExpr:
    """A non-negative run-time expression that is total on every state.

    Variable occurrences are guarded by a positivity indicator, so the
    expression never reads a negative value bare.
    """
    k = terms if terms is not None else rng.randint(1, 3)
    out: Optional[RtExpr] = None
    for _ in range(k):
        roll = rng.random()
        if roll < 0.4:
            atom: RtExpr = RLit(
                Fraction(rng.randint(0, 6), rng.randint(1, MAX_DENOMINATOR))
            )
        elif roll < 0.7:
            atom = Indicator(_cmp(rng))
        else:
            v = rng.choice(POOL)
            c = rng.randint(0, 2)
            atom = RMul(Indicator(Cmp(">", VarRef(v), IntLit(c))), RVar(v))
        out = atom if out is None else RAdd(out, atom)
    assert out is not None
    return out


def shrink_candidates(p: Program):
    """Structurally smaller variants of p, for counterexample reporting."""
    if isinstance(p, Seq):
        yield p.first
        yield p.second
        for c in shrink_candidates(p.first):
            yield Seq(c, p.second)
        for c in shrink_candidates(p.second):
            yield Seq(p.first, c)
    elif isinstance(p, If):
        yield p.then
        yield p.orelse
        for c in shrink_candidates(p.then):
            yield If(p.guard, c, p.orelse)
        for c in shrink_candidates(p.orelse):
            yield If(p.guard, p.then, c)
    elif isinstance(p, NdChoice):
        yield p.left
        yield p.right
    elif isinstance(p, While):
        yield p.body
        for c in shrink_candidates(p.body):
            yield While(p.guard, c)
    elif isinstance(p, WhileBounded):
        yield p.body
        if p.bound > 1:
            yield WhileBounded(p.bound - 1, p.guard, p.body)
        for c in shrink_candidates(p.body):
            yield WhileBounded(p.bound, p.guard, c)
    elif not isinstance(p, Empty):
        yield Empty()


def shrink(p: Program, still_fails) -> Program:
    """Greedily minimize p while still_fails(candidate) stays true.

    Candidates on which still_fails raises a `KernelError` are skipped; at
    most 300 candidates are evaluated in total, so that pathological
    candidates (say, a countdown loop whose decrease got removed) cannot
    stall reporting.
    """
    current = p
    tries = 0
    progress = True
    while progress and tries < MAX_SHRINK_TRIES:
        progress = False
        for cand in shrink_candidates(current):
            tries += 1
            if tries > MAX_SHRINK_TRIES:
                break
            try:
                bad = still_fails(cand)
            except KernelError:
                continue
            if bad:
                current = cand
                progress = True
                break
    return current
