"""Spans around ertkit's public layer entry points, recorded from outside.

`Tracer.install` replaces each entry point by a wrapper at every ertkit
module attribute that holds it, which is where callers look it up:
`ertkit.props` and `ertkit.corpus` import `expected_runtime`, `cross_check`,
`build_mdp` and `expected_reward` by name, `cross_check` imports
`expected_runtime` lazily from `ertkit.transformer`, and `ertkit.corpus`
imports the invariant checkers lazily from `ertkit.invariants`.  A wrapper
returns exactly what it wraps returns and re-raises what it raises.

Spans are kept in memory and turned into per-layer metrics at the end.  A
span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _parse_attrs(out, args, kwargs) -> dict:
    src = args[0] if args else kwargs["src"]
    return {"bytes": len(src.encode())}


def _ert_attrs(out, args, kwargs) -> dict:
    return {"lower": out.kind == "lower"}


def _build_attrs(out, args, kwargs) -> dict:
    return {"nodes": out.node_count, "kinds": Counter(n.kind for n in out.nodes)}


def _solve_attrs(out, args, kwargs) -> dict:
    return {"method": out.method, "schedulers": out.schedulers or 0, "iterations": out.iterations or 0}


def _crosscheck_attrs(out, args, kwargs) -> dict:
    return {"bounded": out.bounded_at is not None, "exact": out.detail == "exact equality"}


# (module, attribute, layer, attributes read from the result)
TARGETS = (
    ("ertkit.generator", "random_program", "generator", None),
    ("ertkit.generator", "random_runtime", "generator", None),
    ("ertkit.generator", "random_state", "generator", None),
    ("ertkit.parser", "parse_program", "parser", _parse_attrs),
    ("ertkit.parser", "parse_rt", "parser", _parse_attrs),
    ("ertkit.transformer", "expected_runtime", "transformer", _ert_attrs),
    ("ertkit.transformer", "det_step_count", "transformer.det", None),
    ("ertkit.mdp", "build_mdp", "mdp.build", _build_attrs),
    ("ertkit.mdp", "qualitative_check", "mdp.mec", None),
    ("ertkit.mdp", "expected_reward", "mdp.solve", _solve_attrs),
    ("ertkit.mdp", "cross_check", "mdp.crosscheck", _crosscheck_attrs),
    ("ertkit.invariants", "check_upper_invariant", "invariants", None),
    ("ertkit.invariants", "check_omega_invariant", "invariants", None),
)

SOLVE_METHODS = {
    "ExactLinearSolve": "exact_linear",
    "SchedulerEnumeration": "scheduler_enum",
    "ValueIteration": "value_iteration",
    "Qualitative": "qualitative",
    "InfiniteReward": "infinite_reward",
}


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "cover_end", "attrs")

    def __init__(self, name: str, item: Optional[str], parent: int, start: float):
        self.name = name
        self.item = item
        self.parent = parent
        self.start = start
        self.end = start
        self.cover_end = start  # end plus the time spent reading the result
        self.attrs: dict = {}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._item: Optional[str] = None
        self._patched: list = []

    # recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._item, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def run_item(self, name: str, fn: Callable):
        """Run one workload item inside its own root span."""
        self._item = name
        span = self.open(name)
        try:
            return fn()
        finally:
            span.end = span.cover_end = perf_counter()
            self._stack.pop()
            self._item = None

    def wrap(self, fn: Callable, layer: str, read: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = span.cover_end = perf_counter()
                span.attrs = {"error": type(exc).__name__, "cap": getattr(exc, "cap", 0)}
                self._stack.pop()
                raise
            span.end = perf_counter()
            if read is not None:
                span.attrs = read(out, args, kwargs)
            span.cover_end = perf_counter()
            self._stack.pop()
            return out

        return traced

    # installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ertkit" or n.startswith("ertkit.")]
        for module_name, attr, layer, read in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(original, layer, read)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # reading -----------------------------------------------------------

    def self_times(self) -> List[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.cover_end - s.start
        return out

    def metrics(self, items: List[str]) -> Dict[str, float]:
        """Per-layer metrics over every span; `items` are the item span
        names, whose self time is the part no wrapper covers."""
        selfs = self.self_times()
        item_names = set(items)
        m: Dict[str, float] = Counter()
        kinds: Counter = Counter()
        for s, t in zip(self.spans, selfs):
            a = s.attrs
            if s.name in item_names:
                m["trace.unwrapped_s"] += t
                if s.name.startswith("corpus."):
                    m[f"{s.name}.s"] += s.end - s.start
                continue
            if s.item is not None:
                m["trace.layers_s"] += t
                m["trace.annotate_s"] += s.cover_end - s.end
            if s.name == "mdp.solve":
                method = SOLVE_METHODS.get(a.get("method"), "other")
                m[f"mdp.solve.{method}.calls"] += 1
                m[f"mdp.solve.{method}.s"] += t
                m["mdp.solve.schedulers"] += a.get("schedulers", 0)
                m["mdp.solve.vi_iterations"] += a.get("iterations", 0)
            elif s.name == "mdp.crosscheck":
                m["mdp.crosscheck.self_s"] += t
                m["mdp.crosscheck.bounded"] += a.get("bounded", False)
                m["mdp.crosscheck.exact"] += a.get("exact", False)
            elif s.name == "mdp.build":
                if a.get("error") == "NodeCapExceeded":
                    m["mdp.build.capped"] += 1
                    m["mdp.build.capped_s"] += t
                    m["mdp.build.created"] += a["cap"]
                elif "nodes" in a:
                    m["mdp.build.nodes"] += a["nodes"]
                    m["mdp.build.created"] += a["nodes"]
                    kinds.update(a["kinds"])
            elif s.name == "transformer":
                m["transformer.lower"] += a.get("lower", False)
            elif s.name == "parser":
                m["parser.bytes"] += a.get("bytes", 0)
            m[f"{s.name}.calls"] += 1
            m[f"{s.name}.s"] += t
        for kind in ("exec", "term", "termseq", "sink"):
            m[f"mdp.build.nodes.{kind}"] = kinds[kind]
        builds = m["mdp.build.calls"]
        m["mdp.build.useful_share"] = (builds - m["mdp.build.capped"]) / builds if builds else 0.0
        m["mdp.build.nodes_per_s"] = m.pop("mdp.build.created", 0) / m["mdp.build.s"] if m["mdp.build.s"] else 0.0
        ert = m["transformer.calls"]
        m["transformer.lower_share"] = m.pop("transformer.lower", 0) / ert if ert else 0.0
        checks = m["mdp.crosscheck.calls"]
        m["mdp.crosscheck.exact_share"] = m.pop("mdp.crosscheck.exact", 0) / checks if checks else 0.0
        m["trace.spans"] = len(self.spans)
        return dict(m)

    def dump(self, path) -> None:
        """Write the spans out, one JSON object a line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "item": s.item, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": _plain(s.attrs),
                }) + "\n")


def _plain(attrs: dict) -> dict:
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in attrs.items()}
