"""One fresh interpreter running one benchmark workload.

    python3 perfbench/worker.py --workload W --seed N --mode M [--seconds S] [--data-seed D]

Modes:
- setup: import ertkit and generate the inputs, nothing else;
- timed: then run passes over the items until --seconds is used up (at
  least one pass), then re-run each item that takes under a second until it
  has five timings, in rounds, so that its timings are spread over the run;
- plain: then run exactly one pass;
- traced: then run exactly one pass with every layer entry point wrapped,
  and write the spans to .perfbench-out/.

Between items, at least every 0.1 s, a fixed probe that does not use
ertkit is timed; each item's result carries the median probe time near it.

Prints one JSON object on its last line of standard output.  Set-up time is
measured from before `import ertkit` to the last generated input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


MIN_TIMINGS = 5
REPEAT_UNDER_S = 1.0
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 2.0


def probe() -> float:
    """Time a fixed piece of pure-Python work, rational arithmetic on
    tuple-keyed dictionaries as in ertkit's inner loops.  It does not use
    ertkit, so a change to ertkit cannot move it; it moves with the speed the
    machine gives this process."""
    t = perf_counter()
    memo: dict = {}
    acc = Fraction(0)
    for i in range(600):
        key = (i % 97, i % 13, "x")
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        memo[key] = memo.get(key, 0) + 1
    return perf_counter() - t


def _local_speed(probes: list, start: float, end: float) -> float:
    """Median probe time within PROBE_WINDOW_S of [start, end]."""
    near = [dt for t, dt in probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
    return statistics.median(near)


def _run_round(items, index, full: bool, tracer=None) -> dict:
    """Run items[i] for i in index, in that order, timing each, with a probe
    between items at least every PROBE_EVERY_S."""
    times, spans, oks, exact, prints = [], [], [], [], []
    probes = [(perf_counter(), probe())]
    for i in index:
        item = items[i]
        if perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((perf_counter(), probe()))
        t = perf_counter()
        try:
            ok, ex, fingerprint = tracer.run_item(item.name, item.run) if tracer else item.run()
        except Exception as exc:  # an item that raises is a failed verdict
            traceback.print_exc()
            ok, ex, fingerprint = False, False, ("raised", type(exc).__name__, str(exc))
        end = perf_counter()
        times.append(end - t)
        spans.append((t, end))
        oks.append(ok)
        exact.append(ex)
        prints.append(hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16])
    probes.append((perf_counter(), probe()))
    return {
        "full": full,
        "index": list(index),
        "wall_s": sum(times),
        "item_s": times,
        "probe_s": [_local_speed(probes, a, b) for a, b in spans],
        "ok": oks,
        "exact": exact,
        "fingerprint": prints,
    }


def _timed_rounds(items, seconds: float) -> list:
    n = len(items)
    rounds = []
    begin = perf_counter()
    while True:
        rounds.append(_run_round(items, range(n), True))
        mean = statistics.fmean(r["wall_s"] for r in rounds)
        if perf_counter() - begin + mean > seconds:
            break
    counts = [len(rounds)] * n
    slowest = [max(r["item_s"][i] for r in rounds) for i in range(n)]
    while True:
        todo = [i for i in range(n) if counts[i] < MIN_TIMINGS and slowest[i] < REPEAT_UNDER_S]
        if not todo:
            return rounds
        rounds.append(_run_round(items, todo, False))
        for i, t in zip(todo, rounds[-1]["item_s"]):
            counts[i] += 1
            slowest[i] = max(slowest[i], t)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="order seed")
    ap.add_argument("--data-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "plain", "traced"), required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import ertkit

    if Path(ertkit.__file__).resolve().parent != SRC / "ertkit":
        print(f"ertkit imported from {ertkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import DATA_SEEDS, make_items

    data_seed = DATA_SEEDS[args.workload] if args.data_seed is None else args.data_seed
    items = make_items(args.workload, data_seed, args.seed)
    setup_s = perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "setup_probe_s": statistics.median(probe() for _ in range(20)),
        "items": [i.name for i in items],
        "rounds": [],
    }
    if args.mode == "timed":
        out["rounds"] = _timed_rounds(items, args.seconds)
    elif args.mode in ("plain", "traced"):
        out["rounds"] = [_run_round(items, range(len(items)), True, tracer)]
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(out["items"])
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
