"""Command-line interface.

Commands: eval, crosscheck, check-inv, check-omega, refine, props,
corpus, export-mdp.  Machine-readable output with --format json is
byte-identical across runs for fixed inputs and seed; timing data is
only emitted under --timings (to stderr in text mode) so that the
default output stays deterministic.

Exit codes: 0 success or Holds, 1 a check failed, 2 input error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import __version__
from .corpus import ENTRIES, lookup
from .invariants import (
    OmegaInvariantSpec,
    PreconditionFailed,
    UpperInvariantSpec,
    Verdict,
    check_limit,
    check_omega_invariant,
    check_upper_invariant,
    refine,
)
from .kernel import KernelError, State, XReal
from .mdp import (
    FALLBACK_UNROLL, MdpConfig, NodeCapExceeded, build_mdp, cross_check, mdp_to_dot,
)
from .parser import _KEYWORDS, ParseError, parse_program, parse_rt, read_int
from .props import run_property_suite
from .specfile import InvariantSpecFile, SpecError, parse_spec
from .syntax import Program, RtExpr, RT_ZERO, while_loops
from .transformer import MAX_UNROLL_DEPTH, StepTable

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3

_SCHEMA = "ertkit-report/1"


class CliError(Exception):
    """Input or usage error; maps to exit code 2."""


class _TooManyDigits(CliError):
    """A value with more digits than Python prints."""

    def __init__(self, depth_hint: bool = False):
        hint = "use a smaller --depth, or " if depth_hint else ""
        super().__init__(
            "the exact value has more digits than Python prints "
            f"({sys.get_int_max_str_digits()}); {hint}"
            "raise the limit with PYTHONINTMAXSTRDIGITS"
        )


def _q_str(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:
        # Python refuses to print an integer of more than
        # sys.get_int_max_str_digits() digits
        raise _TooManyDigits()


def _rational_str(x: XReal) -> str:
    if x.is_infinite:
        return "inf"
    return _q_str(x.q)


def _float_or_none(q: Optional[Fraction]) -> Optional[float]:
    """q as a float; None for infinity (q is None) and for a value beyond
    the range of a double."""
    if q is None:
        return None
    try:
        return float(q)
    except OverflowError:
        return None


def _rounded(q: Fraction, digits: int) -> str:
    """q as a decimal of `digits` significant digits, or the exact rational
    when q is beyond the range of a double."""
    f = _float_or_none(q)
    return _q_str(q) if f is None else f"{f:.{digits}g}"


def _nice(x: XReal) -> str:
    """Short human form: integers plain, small denominators as p/q,
    everything else as a rounded decimal."""
    if x.is_infinite:
        return "inf"
    if x.q.denominator <= 1000:
        return _q_str(x.q)
    return _rounded(x.q, 12)


# a name a program can read: the parser's identifier token, not a keyword
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _bindings(
    chunks: List[str], flag: str, what: str, read: Callable[[str, str, str], object]
) -> Dict[str, object]:
    """The comma-separated `name=value` items of all `chunks`, each name
    bound once, and each value given by `read(name, value, item)`."""
    out: Dict[str, object] = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise CliError(f"{what} look like name=value, found {item!r}")
            name, _, value = item.partition("=")
            name = name.strip()
            if name in out:
                raise CliError(f"{name} is bound twice in {flag}")
            out[name] = read(name, value.strip(), item)
    return out


def _int(text: str, what: str, error: str) -> int:
    try:
        return read_int(text, what, error)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _state_value(name: str, value: str, item: str):
    if not _NAME_RE.match(name) or name in _KEYWORDS:
        raise CliError(f"{name!r} is not a variable name in --state")
    if value.startswith("["):
        # array cells are separated by ; so that , can separate bindings
        if not value.endswith("]"):
            raise CliError(f"unterminated array value in {item!r}")
        cell = f"a cell of {name!r} in --state"
        error = f"array cells must be integers in {item!r}"
        return tuple(_int(c, cell, error) for c in value[1:-1].split(";") if c.strip())
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return _int(
        value, f"the value of {name!r} in --state",
        f"state values must be integers or booleans, found {value!r}",
    )


def _parse_state(chunks: List[str]) -> State:
    """One state from all `chunks`."""
    return State(_bindings(chunks, "--state", "state bindings", _state_value))


def _param_value(name: str, value: str, item: str) -> int:
    return _int(value, f"parameter {name!r}", f"parameter {name!r} must be an integer")


def _program_inputs(args) -> Tuple[Program, str, RtExpr, State]:
    """The program of `args` with its source text, the continuation
    run-time `--f`, and the initial state used when no `--state` is given."""
    params = _bindings(args.param, "--param", "parameters", _param_value)
    entry = None
    if not args.program.startswith("corpus:"):
        if params:
            raise CliError("--param only applies to corpus: programs")
        source = _read_text(args.program, "program")
    else:
        name = args.program[len("corpus:") :]
        try:
            entry = lookup(name)
            source = entry.source(**params)
        except (KeyError, ValueError) as exc:
            raise CliError(str(exc.args[0]))
        used = entry.template_names()
        for k in params:
            if k not in used:
                raise CliError(
                    f"parameter {k} does not occur in the program of corpus entry "
                    f"{name}; it applies to `ertkit corpus {name}` only"
                )
    program = parse_program(source)
    # a smaller --depth shortens only the unrolling of a loop
    args.depth_helps = hasattr(args, "depth") and bool(while_loops(program))
    f = _load_runtime(args.f)
    return program, source, f, entry.initial_state() if entry else State()


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(
            f"cannot read {what} {path!r}: not UTF-8 text (byte {exc.start})"
        )


def _load_runtime(text: Optional[str]) -> RtExpr:
    if text is None:
        return RT_ZERO
    # no run-time expression ends in ".rt", so the argument names a file
    if text.endswith(".rt"):
        text = _read_text(text, "run-time")
    return parse_rt(text)


def _sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        if args.timings:
            payload = dict(payload)
            payload["timings"] = {"total_s": round(time.monotonic() - args.started, 6)}
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)
        if args.timings:
            print(f"time: {time.monotonic() - args.started:.3f}s", file=sys.stderr)


def _base_report(args, command: str) -> dict:
    return {
        "schema": _SCHEMA,
        "tool": {"name": "ertkit", "version": __version__},
        "command": command,
        "argv": args.argv_echo,
        # a fixed key of the report's schema: 0 for the commands without --seed
        "seed": getattr(args, "seed", 0),
    }


# -- eval --------------------------------------------------------------


def _cmd_eval(args) -> int:
    program, source, f, default = _program_inputs(args)
    states = [_parse_state([s]) for s in args.state] or [default]

    results = []
    text = [f"program sha256 {_sha256(source)[:12]}"]
    # every state and every half-depth run share the program's step table
    ert = StepTable().expected_runtime
    for sigma in states:
        res = ert(program, f, sigma, args.depth)
        try:
            entry = {
                "state": repr(sigma),
                "rational": _rational_str(res.value),
                "float": _float_or_none(res.value.q),
                "kind": res.kind,
            }
            if res.kind == "lower":
                entry["depth"] = args.depth
                half = ert(program, f, sigma, max(1, args.depth // 2))
                if res.value.is_finite and half.value.is_finite:
                    gain = res.value.q - half.value.q
                    entry["last_doubling_gain"] = _q_str(gain)
                    gap_note = f"; refinement from depth {max(1, args.depth // 2)}: +{_rounded(gain, 6)}"
                else:
                    gap_note = ""
                text.append(
                    f"{sigma!r}: {_nice(res.value)} (lower bound, depth {args.depth})"
                    + gap_note
                )
                text.append(f"  exact rational: {_rational_str(res.value)}")
            else:
                text.append(f"{sigma!r}: {_rational_str(res.value)} (exact)")
        except _TooManyDigits:
            if res.kind == "lower":
                # a cut-off value's digits grow with the unroll depth
                raise _TooManyDigits(depth_hint=True)
            raise
        results.append(entry)

    payload = _base_report(args, "eval")
    payload["program_sha256"] = _sha256(source)
    payload["results"] = results
    _emit(args, payload, text)
    return EXIT_OK


# -- crosscheck --------------------------------------------------------


def _cmd_crosscheck(args) -> int:
    program, source, f, default = _program_inputs(args)
    sigma = _parse_state(args.state) if args.state else default
    report = cross_check(
        program,
        f,
        sigma,
        MdpConfig(node_cap=args.node_cap),
        max_unroll_depth=args.depth,
        fallback_unroll=args.fallback_depth,
    )

    payload = _base_report(args, "crosscheck")
    payload["program_sha256"] = _sha256(source)
    payload["result"] = {
        "status": report.status,
        "detail": report.detail,
        "transformer": {
            "rational": _rational_str(report.ert_value),
            "float": _float_or_none(report.ert_value.q),
            "kind": report.ert_kind,
        },
        "model": {
            "rational": _rational_str(report.mdp_value),
            "float": _float_or_none(report.mdp_value.q),
            "method": report.method,
        },
        "nodes": report.node_count,
        "bounded_at": report.bounded_at,
    }
    where = f" (bounded at depth {report.bounded_at})" if report.bounded_at else ""
    text = [
        f"program sha256 {_sha256(source)[:12]}",
        f"{report.status}: {report.detail}{where}",
        f"  transformer: {_nice(report.ert_value)} ({report.ert_kind})",
        f"  model:       {_nice(report.mdp_value)} via {report.method}, "
        f"{report.node_count} nodes",
    ]
    _emit(args, payload, text)
    return EXIT_OK if report.status == "pass" else EXIT_CHECK_FAILED


# -- invariant checks --------------------------------------------------


def _verdict_json(v: Verdict) -> dict:
    out: Dict[str, object] = {"status": v.status}
    if v.witness is not None:
        out["witness"] = repr(v.witness)
    if v.n is not None:
        out["n"] = v.n
    if v.lhs is not None:
        out["lhs"] = _rational_str(v.lhs)
    if v.rhs is not None:
        out["rhs"] = _rational_str(v.rhs)
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def _verdict_text(label: str, v: Verdict) -> List[str]:
    lines = [f"{label}: {v.status}"]
    if v.status == "Fails":
        where = f" at n = {v.n}" if v.n is not None else ""
        lines.append(
            f"  witness {v.witness!r}{where}: lhs {_nice(v.lhs)} vs rhs {_nice(v.rhs)}"
        )
    elif v.reason is not None:
        lines.append(f"  {v.reason}")
    return lines


def _load_spec(args, kind: str) -> Tuple[InvariantSpecFile, dict]:
    """The spec file of a spec command, and the start of its report."""
    spec = parse_spec(_read_text(args.spec, "spec"))
    if spec.check != kind:
        raise CliError(f"{args.spec} declares `check: {spec.check}`, expected {kind}")
    payload = _base_report(args, args.command)
    payload["program_sha256"] = _sha256(spec.program_source)
    return spec, payload


def _verdicts_exit(verdicts: List[Verdict], rules: List[Verdict]) -> int:
    """1 if any verdict fails, else 0 when every rule verdict holds, else 3."""
    if any(v.status == "Fails" for v in verdicts):
        return EXIT_CHECK_FAILED
    return EXIT_OK if all(v.holds for v in rules) else EXIT_INCONCLUSIVE


def _cmd_check_inv(args) -> int:
    spec, payload = _load_spec(args, "upper")
    verdict = check_upper_invariant(
        spec.loop, spec.f, UpperInvariantSpec(spec.invariant), spec.domain
    )
    payload["verdicts"] = [_verdict_json(verdict)]
    _emit(args, payload, _verdict_text("upper invariant", verdict))
    return _verdicts_exit([verdict], [verdict])


def _cmd_check_omega(args) -> int:
    spec, payload = _load_spec(args, "omega")
    directions = ("lower", "upper") if spec.direction == "both" else (spec.direction,)
    rules = [
        check_omega_invariant(
            spec.loop, spec.f, OmegaInvariantSpec(spec.invariant_n, d),
            n_max=spec.n_max, D=spec.domain,
        )
        for d in directions
    ]
    verdicts = [(f"omega invariant ({d})", v) for d, v in zip(directions, rules)]
    if spec.limit is not None:
        # the limit probe is numeric evidence only: it never holds, and only
        # its failure changes the exit code
        verdicts.append(
            (
                f"limit consistency (probe {spec.probe})",
                check_limit(
                    spec.invariant_n, spec.limit, spec.domain,
                    n_probe=spec.probe, tol=spec.tol, big=spec.big,
                ),
            )
        )

    payload["verdicts"] = [dict(_verdict_json(v), part=label) for label, v in verdicts]
    text: List[str] = []
    for label, v in verdicts:
        text.extend(_verdict_text(label, v))
    _emit(args, payload, text)
    return _verdicts_exit([v for _, v in verdicts], rules)


def _cmd_refine(args) -> int:
    spec, payload = _load_spec(args, "refine")
    try:
        table = refine(
            spec.loop,
            spec.f,
            spec.invariant,
            spec.domain,
            rounds=spec.rounds,
        )
    except PreconditionFailed as exc:
        payload["error"] = {
            "kind": "PreconditionFailed",
            "state": repr(exc.state),
            "round": exc.round_index,
            "message": str(exc),
        }
        _emit(args, payload, [f"precondition failed: {exc}"])
        return EXIT_CHECK_FAILED

    ordered = sorted(table.items(), key=lambda kv: repr(kv[0]))
    payload["table"] = [
        {"state": repr(sigma), "rational": _rational_str(value)}
        for sigma, value in ordered
    ]
    text = [f"refined bound after {spec.rounds} round(s):"]
    text.extend(f"  {sigma!r}: {_nice(value)}" for sigma, value in ordered)
    _emit(args, payload, text)
    return EXIT_OK


# -- props -------------------------------------------------------------


def _cmd_props(args) -> int:
    report = run_property_suite(args.seed, count=args.count)
    payload = _base_report(args, "props")
    payload["requested"] = report.requested
    payload["checked"] = report.checked
    payload["per_property"] = dict(sorted(report.per_property.items()))
    # a fixed key of the report's schema: the suite checks the shipped transformer
    payload["mutant"] = False
    payload["failures"] = [
        {
            "property": f.prop,
            "program": f.program,
            "f": f.f,
            "state": f.state,
            "detail": f.detail,
        }
        for f in report.failures
    ]
    text = [
        f"checked {report.checked} cases over {report.requested} programs "
        f"(seed {args.seed})"
    ]
    for name, n in sorted(report.per_property.items()):
        text.append(f"  {name}: {n}")
    if report.failures:
        text.append(f"{len(report.failures)} failure(s):")
        for f in report.failures[:10]:
            text.append(f"  [{f.prop}] {f.detail}")
            text.append("    program: " + " ".join(f.program.split()))
            text.append(f"    f: {f.f}  state: {f.state}")
        if len(report.failures) > 10:
            text.append(f"  ... and {len(report.failures) - 10} more")
    else:
        text.append("all properties hold")
    _emit(args, payload, text)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# -- corpus ------------------------------------------------------------


def _cmd_corpus(args) -> int:
    try:
        entry = lookup(args.name)
    except KeyError as exc:
        raise CliError(exc.args[0])
    params = _bindings(args.param, "--param", "parameters", _param_value)
    try:
        resolved = entry.resolved(**params)
    except (KeyError, ValueError) as exc:
        raise CliError(str(exc.args[0]))
    outcomes = entry.run_checks(**params)

    payload = _base_report(args, "corpus")
    payload["entry"] = entry.name
    payload["params"] = dict(sorted(resolved.items()))
    payload["notes"] = entry.notes
    payload["checks"] = [
        {"name": o.name, "ok": o.ok, "detail": o.detail} for o in outcomes
    ]
    ok = all(o.ok for o in outcomes)
    text = [f"corpus entry {entry.name}: {entry.notes}"]
    for o in outcomes:
        text.append(f"  {'ok  ' if o.ok else 'FAIL'} {o.name}: {o.detail}")
    text.append("all checks passed" if ok else "some checks FAILED")
    _emit(args, payload, text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- export-mdp --------------------------------------------------------


def _cmd_export_mdp(args) -> int:
    program, source, f, default = _program_inputs(args)
    sigma = _parse_state(args.state) if args.state else default
    try:
        m = build_mdp(program, sigma, f, node_cap=args.node_cap)
    except NodeCapExceeded as exc:
        raise CliError(
            f"{exc}; raise --node-cap or export a bounded variant of the program"
        )
    dot = mdp_to_dot(m)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc.strerror or exc}")
        print(f"wrote {m.node_count} nodes to {args.out}")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


# -- wiring ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="ertkit",
        description="Expected run-time analysis for probabilistic programs.",
    )
    parser.add_argument("--version", action="version", version=f"ertkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timings", action="store_true", help="emit timing data")

    def program_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="program file or corpus:NAME")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="K=V",
            help="corpus parameter override (repeatable)",
        )
        p.add_argument(
            "--f",
            default=None,
            metavar="RT",
            help="continuation run-time: inline text or an .rt file (default 0)",
        )

    p = sub.add_parser("eval", help="expected run-time of a program")
    program_args(p)
    p.add_argument(
        "--state",
        action="append",
        default=[],
        metavar="BINDINGS",
        help="initial state, e.g. c=1 or x=2,y=0 (repeatable for several states)",
    )
    p.add_argument("--depth", type=int, default=MAX_UNROLL_DEPTH, help="loop unrolling cap")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "crosscheck", help="compare the transformer with the operational model"
    )
    program_args(p)
    p.add_argument("--state", action="append", default=[], metavar="BINDINGS")
    p.add_argument("--depth", type=int, default=MAX_UNROLL_DEPTH)
    p.add_argument("--node-cap", type=int, default=MdpConfig().node_cap)
    p.add_argument(
        "--fallback-depth",
        type=int,
        default=FALLBACK_UNROLL,
        help="loop bound used when the full model exceeds the node cap",
    )
    common(p)
    p.set_defaults(func=_cmd_crosscheck)

    for name, help_, func in (
        ("check-inv", "check an upper invariant spec", _cmd_check_inv),
        ("check-omega", "check an omega-invariant spec", _cmd_check_omega),
        ("refine", "tighten a bound by applying the loop functional", _cmd_refine),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("spec")
        common(p)
        p.set_defaults(func=func)

    # the property suite is the one command that draws random programs
    p = sub.add_parser("props", help="randomized algebraic-law suite")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("corpus", help="run a case study's scripted checks")
    p.add_argument("name", help=", ".join(sorted(ENTRIES)))
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    common(p)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("export-mdp", help="write the operational model as DOT")
    program_args(p)
    p.add_argument("--state", action="append", default=[], metavar="BINDINGS")
    p.add_argument("--node-cap", type=int, default=MdpConfig().node_cap)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_export_mdp)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv_echo = argv
    args.started = time.monotonic()
    try:
        for flag in ("depth", "fallback_depth", "node_cap", "count"):
            if getattr(args, flag, 1) < 1:
                raise CliError(f"--{flag.replace('_', '-')} must be at least 1")
        code = args.func(args)
        # a reader that went away is reported here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # keep the interpreter's own final flush of stdout quiet as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        hint = "; use a smaller --depth" if getattr(args, "depth_helps", False) else ""
        print(
            f"error: the evaluation nests deeper than the recursion limit{hint}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
