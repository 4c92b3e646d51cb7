"""ertkit benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload {sweep,props,corpus} --seed N --seconds S --trace {0,1}
                             [--data-seed D]

Run from the root of a checkout; ertkit is imported from its src/.  Every
pass runs in a fresh single-threaded interpreter (perfbench/worker.py).

--trace 0 reports the end-to-end metrics: set-up is timed in five fresh
interpreters after one warm-up, then one interpreter runs passes over the
workload's items until --seconds is used up, and re-runs the items that take
under a second until each has five timings spread over the run.  --trace 1
reports the
per-layer metrics: one untraced pass and one traced pass, each in a fresh
interpreter; the traced pass must reproduce every verdict and value of the
untraced one, and the difference of their times is the tracing overhead.

Times are reported in seconds at a reference machine speed.  The worker
times a fixed probe that does not use ertkit between items, at least every
0.1 s, and scales each item's time by REF_PROBE_S over the median probe time
within 2 s of it.  The unscaled figures are printed in the notes.

--seed draws the order the items run in; --data-seed (default: 11 for sweep
and 42 for props, as in acceptance criteria 7 and 8) draws the generated
programs.  Every verdict is checked; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # a run ends within 180 s
SETUP_SAMPLES = 5
# the probe's time on the machine the benchmark was defined on, in its fast
# periods; times are reported as seconds at that speed
REF_PROBE_S = 0.0013


class WorkerFailed(Exception):
    pass


def _worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerFailed("time budget used up")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
        raise WorkerFailed("worker timed out")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return json.loads(lines[-1])


def tail_rank(n: int) -> int:
    """Index into n sorted values of the highest percentile with at least
    ten values beyond it; with fewer than eleven values, the largest."""
    return n - 11 if n >= 11 else n - 1


def verdicts(result: dict) -> tuple:
    """(attempted, failed) over every round, and the exact count of the first
    pass; an item run whose values differ from its first run's counts as
    failed."""
    first = result["rounds"][0]
    reference = dict(zip(first["index"], first["fingerprint"]))
    attempted = failed = 0
    for r in result["rounds"]:
        for i, ok, fp in zip(r["index"], r["ok"], r["fingerprint"]):
            attempted += 1
            failed += (not ok) or fp != reference[i]
    return attempted, failed, sum(bool(ex) for ex in first["exact"])


def _common(args) -> list:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.data_seed is not None:
        common += ["--data-seed", str(args.data_seed)]
    return common


def end_to_end(args, deadline: float) -> tuple:
    common = _common(args)
    setups = [_worker(deadline, *common, "--mode", "setup") for _ in range(SETUP_SAMPLES + 1)][1:]
    run = _worker(deadline, *common, "--mode", "timed", "--seconds", str(args.seconds))
    setups.append(run)

    n = len(run["items"])
    passes = [r for r in run["rounds"] if r["full"]]
    rank = tail_rank(n)
    attempted, failed, exact = verdicts(run)

    def summary(scaled: bool) -> dict:
        timings = [[] for _ in range(n)]
        walls = []
        for r in run["rounds"]:
            ts = [t * REF_PROBE_S / p if scaled else t for t, p in zip(r["item_s"], r["probe_s"])]
            for i, t in zip(r["index"], ts):
                timings[i].append(t)
            if r["full"]:
                walls.append(sum(ts))
        per_item = sorted(statistics.median(t) for t in timings)
        return {
            "wall_s": statistics.median(walls),
            "verdict_p50_ms": 1000 * statistics.median(per_item),
            "verdict_tail_ms": 1000 * per_item[rank],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(
                s["setup_s"] * (REF_PROBE_S / s["setup_probe_s"] if scaled else 1) for s in setups
            ),
        }

    values = summary(True)
    raw = summary(False)
    counts = Counter(i for r in run["rounds"] for i in r["index"]).values()
    notes = [
        f"{len(passes)} pass(es) of {n} items, {len(run['rounds']) - len(passes)} re-run round(s); "
        f"timings per item {min(counts)} to {max(counts)}",
        "unscaled: " + ", ".join(f"{k} {raw[k]:.4f}" for k in ("wall_s", "verdict_p50_ms", "verdict_tail_ms", "setup_s")),
        f"verdict_tail_ms is p{100 * (rank + 1) / n:.1f} ({n - rank - 1} items beyond it)",
        f"fail_share {failed / attempted:.4f} ({failed}/{attempted})",
    ]
    if args.workload == "sweep":
        notes.append(f"exact_share {exact / n:.4f} ({exact}/{n})")
    # criterion 7's gate: the overwhelming majority of the sweep settles exactly
    correct = failed == 0 and (args.workload != "sweep" or 5 * exact >= 4 * n)
    return correct, attempted, failed, values, notes


def per_layer(args, deadline: float) -> tuple:
    common = _common(args)
    plain = _worker(deadline, *common, "--mode", "plain")
    traced = _worker(deadline, *common, "--mode", "traced")
    a1, f1, _ = verdicts(plain)
    a2, f2, _ = verdicts(traced)
    before, after = plain["rounds"][0], traced["rounds"][0]
    changed = sum(x != y for x, y in zip(before["fingerprint"], after["fingerprint"]))
    layers = traced["layers"]
    wall = after["wall_s"]
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = before["wall_s"]
    layers["trace.overhead_s"] = wall - before["wall_s"]
    layers["trace.changed"] = changed
    notes = [
        f"traced wall {wall:.3f} s = layers {layers.get('trace.layers_s', 0):.3f} s"
        f" + unwrapped {layers.get('trace.unwrapped_s', 0):.3f} s"
        f" + reading results {layers.get('trace.annotate_s', 0):.3f} s"
        f" + loop {wall - sum(layers.get(k, 0) for k in ('trace.layers_s', 'trace.unwrapped_s', 'trace.annotate_s')):.4f} s",
        f"tracing changed {changed} of {len(traced['items'])} verdicts",
    ]
    return changed == 0 and f1 + f2 == 0, a1 + a2, f1 + f2 + changed, layers, notes


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--data-seed", type=int, default=None)
    args = ap.parse_args(argv)
    deadline = monotonic() + BUDGET_S

    try:
        if args.trace:
            correct, attempted, failed, values, notes = per_layer(args, deadline)
            metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
        else:
            correct, attempted, failed, values, notes = end_to_end(args, deadline)
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    except (WorkerFailed, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, order seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
