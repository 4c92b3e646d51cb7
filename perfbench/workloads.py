"""The benchmark's three workloads: their inputs, and one item's verdict.

Every workload is a fixed list of items.  An item runs one public ertkit
call and returns `(ok, exact, fingerprint)`: whether the call's own check
passed, whether a cross-check settled by exact equality (None where no
cross-check is the verdict), and a tuple of everything the verdict rests on,
so that two runs of one item can be compared value for value.

Why these inputs:

- sweep: the soundness sweep of acceptance criterion 7.  The triples come
  from the same public-generator loop as `run_soundness_sweep`, and each item
  is one `cross_check`.  It exercises the MDP reward solve (scheduler
  enumeration on a few models dominates it).
- props: the algebraic-law suite of acceptance criterion 8, cut into items of
  one sample per law bundle.  It exercises the transformer and the kernel and
  never builds a model, so model-side changes should leave it unchanged.
- corpus: the scripted case studies as `ertkit corpus` runs them.  It
  exercises model construction (the `race` model hits its node cap and is
  discarded); every solve is an exact linear solve, so solver changes bypass
  it.

The data seed fixes which programs are generated; the order seed only draws
the order the items run in.  The generated data is held at the acceptance
criteria's seeds by default because the cost of a generated sweep varies
about tenfold from one data seed to the next (a handful of models with up to
4096 schedulers decide it), which no run length here could average out.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ertkit import corpus, generator, mdp, props, syntax

WORKLOADS = ("sweep", "props", "corpus")

# default data seeds: those of acceptance criteria 7 and 8 (the corpus has
# no generated data)
DATA_SEEDS = {"sweep": 11, "props": 42, "corpus": 0}

# run_soundness_sweep's defaults
SWEEP_COUNT = 500
SWEEP_NODE_CAP = 30_000
SWEEP_FALLBACK_UNROLL = 32

# 72 items of one sample per bundle: 504 law samples, the size of the
# 500-sample suite of criterion 8 in whole bundles
PROPS_ITEMS = 72
PROPS_PER_ITEM = 7

CORPUS_ENTRIES = (
    ("trunc", {}),
    ("geo", {}),
    ("race", {}),
    ("rwalk", {}),
    ("coupon", {"N": 3}),
    ("npast", {}),
)

Outcome = Tuple[bool, Optional[bool], tuple]


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], Outcome]


def sweep_triples(seed: int, count: int = SWEEP_COUNT) -> list:
    """The `(program, f, state)` triples `run_soundness_sweep(seed, count)`
    cross-checks, drawn by the same loop from the public generators."""
    rng = random.Random(seed)
    names = list(generator.PROFILES)
    out = []
    for i in range(count):
        program = generator.random_program(rng, generator.PROFILES[names[i % len(names)]])
        f = generator.random_runtime(rng, terms=1) if i % 3 == 0 else syntax.RT_ZERO
        sigma = generator.random_state(rng)
        out.append((program, f, sigma))
    return out


def _sweep_item(program, f, sigma, cfg: mdp.MdpConfig) -> Outcome:
    res = mdp.cross_check(program, f, sigma, cfg, fallback_unroll=SWEEP_FALLBACK_UNROLL)
    fingerprint = (
        res.status, res.detail, res.ert_kind, str(res.ert_value),
        str(res.mdp_value), res.method, res.node_count, res.bounded_at,
    )
    return res.status == "pass", res.detail == "exact equality", fingerprint


def _props_item(seed: int) -> Outcome:
    report = props.run_property_suite(seed=seed, count=PROPS_PER_ITEM)
    fingerprint = (
        report.ok,
        report.checked,
        tuple(sorted(report.per_property.items())),
        tuple((f.prop, f.detail) for f in report.failures),
    )
    return report.ok, None, fingerprint


def _corpus_item(name: str, params: dict) -> Outcome:
    outcomes = corpus.ENTRIES[name].run_checks(**params)
    fingerprint = tuple((o.name, o.ok, o.detail) for o in outcomes)
    return bool(outcomes) and all(o.ok for o in outcomes), None, fingerprint


def make_items(workload: str, data_seed: int, order_seed: int) -> List[Item]:
    """Generate a workload's inputs and shuffle them with the order seed."""
    if workload == "sweep":
        cfg = mdp.MdpConfig(node_cap=SWEEP_NODE_CAP)
        items = [
            Item(f"sweep.{i}", lambda t=t: _sweep_item(*t, cfg))
            for i, t in enumerate(sweep_triples(data_seed))
        ]
    elif workload == "props":
        rng = random.Random(data_seed)
        items = [
            Item(f"props.{i}", lambda s=rng.randrange(2**31): _props_item(s))
            for i in range(PROPS_ITEMS)
        ]
    elif workload == "corpus":
        items = [
            Item(f"corpus.{name}", lambda n=name, p=params: _corpus_item(n, p))
            for name, params in CORPUS_ENTRIES
        ]
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    random.Random(order_seed).shuffle(items)
    return items
