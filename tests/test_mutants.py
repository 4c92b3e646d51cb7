"""Seeded defects that the checks must catch.

Each mutant breaks one rule of the model or of the transformer through a
monkeypatch.  The sweep mutants make a small fixed sweep (seed 11, 200
triples) report a failure; the seed and the count were fixed before the
mutants were run.  Every transformer mutant makes the comparison with the
reference transformer fail (`test_transformer`), and every model mutant the
comparison with the model oracle (`test_mdp`): `model-skip-is-free` fails
its node-for-node comparison with the oracle's builder, which charges with
its own `head_reward`; `block-as-singles` and `block-value-drift` fail its
check of each evaluated policy against the per-policy solve; and
`improvement-never-switches` fails its guard that some compared model takes
policy iteration past its first policy.  The sweep misses
`block-value-drift`.  `self-loop-as-single` changes only models with a
self-loop besides the sink's, which the builder never makes, so the sweep
and the oracle comparison miss it and hand-built models catch it: its
condensation feeds both the search for nodes that can avoid the sink and
the evaluation.  `drop_if_tick` is also the mutant that the property
suite's tests and acceptance criterion 8 must catch.  `guard_drift`,
`short_unfold` and `pair_sum_drift` break helpers that the legs share.
"""

import math
import sys
from fractions import Fraction

import pytest

import test_mdp
from ertkit import kernel, mdp, semantics, syntax, transformer
from ertkit.kernel import ZERO, XReal
from ertkit.props import run_soundness_sweep
from ertkit.syntax import Annotated, Empty, Halt, If, NdChoice, Seq, Skip, WhileBounded
from ertkit.transformer import ZERO_CONT, _as_cont, _Engine

SEED, COUNT = 11, 200


def _free_skip(monkeypatch):
    """Model: a `skip` step earns no reward."""
    head_reward = mdp.head_reward
    monkeypatch.setattr(
        mdp, "head_reward", lambda p: ZERO if isinstance(p, Skip) else head_reward(p)
    )


def _block_as_singles(monkeypatch):
    """Model solver: the condensation lists a cyclic block's nodes as
    singles, so each sums values that its block has not settled yet."""
    condense = mdp._condense
    monkeypatch.setattr(mdp, "_condense", lambda m: [
        v for c in condense(m) for v in ([c] if c.__class__ is int else c)
    ])


def _self_loop_as_single(monkeypatch):
    """Model solver: the condensation lists a one-node block with a
    self-loop as a single, so the search skips it and the evaluation sums
    its value before it is settled."""
    condense = mdp._condense
    monkeypatch.setattr(mdp, "_condense", lambda m: [
        c[0] if c.__class__ is not int and len(c) == 1 else c for c in condense(m)
    ])


def _block_value_drift(monkeypatch):
    """Model solver: each node of a cyclic block comes out 1/1024 high."""
    evaluate = mdp._evaluate

    def drifted(comps, reward, rows, x):
        evaluate(comps, reward, rows, x)
        for c in comps:
            if c.__class__ is not int:
                for v in c:
                    x[v] += Fraction(1, 1024)

    monkeypatch.setattr(mdp, "_evaluate", drifted)


def _patch_eval(monkeypatch, kind, mutated):
    """Transformer: statements of `kind` are evaluated by `mutated`, which
    is passed the rule it replaces, so that mutants compose."""
    rule = transformer._RULES[kind]
    monkeypatch.setitem(
        transformer._RULES, kind,
        lambda engine, p, sigma, cont: mutated(rule, engine, p, sigma, cont),
    )


def _choice_takes_the_minimum(rule, engine, p, sigma, cont):
    ln, ld, lt = engine.eval(p.left, sigma, cont)
    rn, rd, rt_ = engine.eval(p.right, sigma, cont)
    if rn is None or (ln is not None and ln * rd < rn * ld):
        return ln, ld, lt or rt_
    return rn, rd, lt or rt_


def _untick(val):
    """An engine value less the tick its node charged: a finite (n, d) in
    lowest terms becomes (n - d, d), still in lowest terms."""
    n, d, tainted = val
    return (None if n is None else n - d), d, tainted


def drop_if_tick(monkeypatch):
    """Transformer: neither a conditional nor a step of an unrolled loop
    charges the tick of its guard.  `char_functional` still charges the loop
    guard's tick, so it maps a loop's exactly computed run-time under the
    mutant to that run-time plus 1."""
    bounded = _Engine._bounded

    def _bounded(engine, loop, depth, sigma, cont):
        out = bounded(engine, loop, depth, sigma, cont)
        return out if depth <= 0 else _untick(out)

    _patch_eval(
        monkeypatch, If, lambda rule, e, p, sigma, cont: _untick(rule(e, p, sigma, cont))
    )
    monkeypatch.setattr(_Engine, "_bounded", _bounded)


def cut_off_does_not_taint(monkeypatch, engine=_Engine, cut_off=(0, 1, False)):
    """Transformer: a `while` cut off at the unroll cap counts as exact.
    Given another engine class and its untainted zero, the defect goes
    there instead."""
    bounded = engine._bounded
    monkeypatch.setattr(
        engine, "_bounded",
        lambda e, loop, depth, sigma, cont:
            cut_off if depth <= 0 else bounded(e, loop, depth, sigma, cont),
    )


def _loop_exit_drops_taint(monkeypatch):
    """Transformer: a loop step drops the taint of what runs after the loop.
    A conditional takes the same step with its else-branch as the other
    side, and keeps that side's taint."""
    step = _Engine.step

    def untainted(engine, guard, body, sigma, rest, other):
        exit_ = _as_cont(lambda s: XReal.of_pair(*other.eval(engine, s)[:2]))
        return step(engine, guard, body, sigma, rest, exit_)

    monkeypatch.setattr(_Engine, "step", untainted)
    _patch_eval(monkeypatch, If, lambda rule, e, p, sigma, cont: step(
        e, p.guard, p.then, sigma, cont, e.seq_cont(p.orelse, cont)
    ))


TRANSFORMER_MUTANTS = {
    "drop-if-tick": drop_if_tick,
    "choice-takes-the-minimum": lambda mp: _patch_eval(
        mp, NdChoice, _choice_takes_the_minimum
    ),
    "bounded-loop-runs-one-time-less": lambda mp: _patch_eval(
        mp, WhileBounded,
        lambda rule, e, p, sigma, cont: e._bounded(p, p.bound - 1, sigma, cont),
    ),
    "halt-keeps-its-continuation": lambda mp: _patch_eval(
        mp, Halt, lambda rule, e, p, sigma, cont: cont.eval(e, sigma)
    ),
    "cut-off-does-not-taint": cut_off_does_not_taint,
    # the bound, certified under the zero run-time, stands in under any
    "annotation-under-any-continuation": lambda mp: _patch_eval(
        mp, Annotated, lambda rule, e, p, sigma, cont: rule(e, p, sigma, ZERO_CONT)
    ),
    "loop-exit-drops-taint": _loop_exit_drops_taint,
}

MODEL_MUTANTS = {
    "model-skip-is-free": _free_skip,
    "block-as-singles": _block_as_singles,
    "block-value-drift": _block_value_drift,
    # the best action is always the smallest, where the iteration starts
    "improvement-never-switches": lambda mp: mp.setattr(
        mdp, "max", lambda gain, key: min(gain), raising=False
    ),
}

# the sweep catches every mutant but these three, which the comparisons
# with the reference transformer and with the model oracle catch
SWEEP_MISSES = (
    "annotation-under-any-continuation", "loop-exit-drops-taint", "block-value-drift",
)
MUTANTS = {
    k: v for k, v in {**TRANSFORMER_MUTANTS, **MODEL_MUTANTS}.items()
    if k not in SWEEP_MISSES
}


def _patch_shared(monkeypatch, helper, mutated):
    """Replace the shared `helper` in its module and in every module that
    imported it by name, as a defect in its source would be."""
    for module in list(sys.modules.values()):
        if getattr(module, helper.__name__, None) is helper:
            monkeypatch.setattr(module, helper.__name__, mutated)


def guard_drift(monkeypatch):
    """Shared semantics: every strictly probabilistic guard moves 1/8 of
    the way towards true, in all three legs and the references."""
    eval_guard = semantics.eval_guard

    def drifted(g, sigma):
        p = eval_guard(g, sigma)
        return p + (1 - p) / 8 if 0 < p < 1 else p

    _patch_shared(monkeypatch, eval_guard, drifted)


def short_unfold(monkeypatch):
    """Shared syntax: the one-step unfolding of a depth-bounded loop
    re-enters with two rounds less.  The model and the step counter unfold
    bounded loops this way; the transformer unrolls them itself."""
    unfold_once = syntax.unfold_once

    def short(w):
        if isinstance(w, WhileBounded) and w.bound > 0:
            again = WhileBounded(w.bound - 2, w.guard, w.body)
            return If(w.guard, Seq(w.body, again), Empty())
        return unfold_once(w)

    _patch_shared(monkeypatch, unfold_once, short)


def pair_sum_drift(monkeypatch):
    """Shared kernel: the int-pair sum over the lcm of two denominators
    (the general case: they differ and neither is 1) scales only the left
    numerator.  The transformer's engine and the run-time
    evaluator sum this way; the model's solver keeps its own sum."""
    pair_sum = kernel.pair_sum

    def drifted(n, d, pn, pd, vn, vd):
        if n is None or vn is None or not vn:
            return pair_sum(n, d, pn, pd, vn, vd)
        vn, vd = vn * pn, vd * pd
        if vd == d or d == 1 or vd == 1:
            return pair_sum(n, d, 1, 1, vn, vd)
        g = math.gcd(d, vd)
        return n * (vd // g) + vn, d // g * vd

    _patch_shared(monkeypatch, pair_sum, drifted)


MUTANTS["short-unfold"] = short_unfold
MUTANTS["pair-sum-drift"] = pair_sum_drift


def test_the_unmutated_sweep_is_clean():
    report = run_soundness_sweep(SEED, count=COUNT)
    assert report.failures == []


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_sweep_catches_the_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    report = run_soundness_sweep(SEED, count=COUNT)
    assert report.failures


@pytest.mark.parametrize("mutate", MODEL_MUTANTS.values(), ids=MODEL_MUTANTS.keys())
def test_the_oracle_comparison_catches_the_model_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        test_mdp.test_corpus_and_golden_models_match_the_oracle()


def test_the_hand_built_models_catch_the_self_loop_mutant(monkeypatch):
    _self_loop_as_single(monkeypatch)
    for test in (
        test_mdp.test_a_self_loop_is_a_block,
        test_mdp.test_only_a_larger_action_avoids_the_sink,
    ):
        with pytest.raises(AssertionError):
            test()
