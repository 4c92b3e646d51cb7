"""Seeded defects that the soundness sweep must catch.

Each mutant breaks one rule of the model or of the transformer through a
monkeypatch, and a small fixed sweep (seed 11, 200 triples) must then report
a failure.  The seed and the count were fixed before the mutants were run.
`drop_if_tick` is also the mutant that the property suite's tests and
acceptance criterion 8 must catch.
"""

import pytest

from ertkit import mdp
from ertkit.kernel import ZERO
from ertkit.props import run_soundness_sweep
from ertkit.syntax import Halt, NdChoice, Skip, WhileBounded
from ertkit.transformer import _Engine

SEED, COUNT = 11, 200


def _free_skip(monkeypatch):
    """Model: a `skip` step earns no reward."""
    head_reward = mdp.head_reward
    monkeypatch.setattr(
        mdp, "head_reward", lambda p: ZERO if isinstance(p, Skip) else head_reward(p)
    )


def _patch_eval(monkeypatch, kind, mutated):
    """Transformer: statements of `kind` are evaluated by `mutated`."""
    _eval = _Engine._eval

    def patched(engine, p, sigma, cont):
        if isinstance(p, kind):
            return mutated(engine, p, sigma, cont)
        return _eval(engine, p, sigma, cont)

    monkeypatch.setattr(_Engine, "_eval", patched)


def _choice_takes_the_minimum(engine, p, sigma, cont):
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
    branch, bounded = _Engine._branch, _Engine._bounded

    def _branch(engine, guard, then, orelse, sigma, cont):
        return _untick(branch(engine, guard, then, orelse, sigma, cont))

    def _bounded(engine, loop, depth, sigma, cont):
        out = bounded(engine, loop, depth, sigma, cont)
        return out if depth <= 0 else _untick(out)

    monkeypatch.setattr(_Engine, "_branch", _branch)
    monkeypatch.setattr(_Engine, "_bounded", _bounded)


MUTANTS = {
    "drop-if-tick": drop_if_tick,
    "model-skip-is-free": _free_skip,
    "choice-takes-the-minimum": lambda mp: _patch_eval(
        mp, NdChoice, _choice_takes_the_minimum
    ),
    "bounded-loop-runs-one-time-less": lambda mp: _patch_eval(
        mp, WhileBounded, lambda e, p, sigma, cont: e._bounded(p, p.bound - 1, sigma, cont)
    ),
    "halt-keeps-its-continuation": lambda mp: _patch_eval(
        mp, Halt, lambda e, p, sigma, cont: cont.eval(e, sigma)
    ),
}


def test_the_unmutated_sweep_is_clean():
    report = run_soundness_sweep(SEED, count=COUNT)
    assert report.failures == []


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_sweep_catches_the_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    report = run_soundness_sweep(SEED, count=COUNT)
    assert report.failures
