"""Benchmark of loopchart: one workload, measured for a given time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

A run is a sequence of rounds.  Each round is a fresh worker process
(``worker.py``) that imports the program, builds the inputs and runs every
operation of the workload once, so memo tables and peak memory belong to
one round of one workload.  Rounds repeat until ``--seconds`` have passed
and at least MIN_ROUNDS have run; every round of a run runs the same
operations in the same order.  The latency percentiles are taken over the
samples of all rounds; which percentile is the tail is set by the number of
operations in a round.

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` it is the per-layer metrics of traced rounds, plus the tracing
overhead against one untraced round of the same run.  The worker processes
run with a pinned PYTHONHASHSEED: ``semantics.normedness`` iterates over a
set to a fixpoint, so its pass count depends on the hash seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

HASH_SEED = "0"
MIN_ROUNDS = 3
DEADLINE_S = 170  # a run must end within 180 s

PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def rank(p: float, n: int) -> int:
    """The 1-based nearest rank of percentile `p` among `n` values."""
    return max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least ten of `n` values beyond it."""
    return max((p for p in PERCENTILES if n - rank(p, n) >= 10), default=50)


def run_round(workload: str, traced: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--trace", str(int(traced))],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict]) -> dict:
    failed = {i for r in rounds for i in r["failed_ops"]}
    completed = sum(len(r["latencies_s"]) - len(r["failed_ops"]) for r in rounds)
    busy = sum(sum(r["latencies_s"]) for r in rounds)
    samples = sorted(t for r in rounds for i, t in enumerate(r["latencies_s"])
                     if i not in failed)
    tail = tail_percentile(len(rounds[0]["latencies_s"]) - len(failed))
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in rounds), "s"),
        "items_per_s": metric(completed / busy, "1/s"),
        "latency_p50_ms": metric(samples[rank(50, len(samples)) - 1] * 1e3, "ms"),
        "latency_tail_ms": metric(samples[rank(tail, len(samples)) - 1] * 1e3, "ms"),
        "peak_rss_mb": metric(statistics.median(r["maxrss_kb"] for r in rounds) / 1024, "MB"),
    }


def per_layer(traced: list[dict], untraced: dict) -> dict:
    """The per-layer metrics BENCHMARK.json names, as per-round averages of
    the traced rounds' totals."""
    totals: dict[str, float] = {}
    for r in traced:
        for key, value in r["counts"].items():
            totals[key] = totals.get(key, 0) + value
    steps = totals["semantics.steps.calls"]
    checks = totals["lee.check_loop_chart.calls"]
    ratios = {
        "semantics.steps.repeat_ratio": totals["semantics.steps.repeats"] / steps if steps else 0.0,
        "lee.check_loop_chart.ok_ratio": totals["lee.check_loop_chart.ok"] / checks if checks else 0.0,
        "trace.overhead_ratio": (statistics.mean(sum(r["latencies_s"]) for r in traced)
                                 / sum(untraced["latencies_s"])),
    }
    return {m["name"]: metric(ratios[m["name"]] if m["name"] in ratios
                              else totals[m["name"]] / len(traced), m["unit"])
            for m in load_spec()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True,
                        help="accepted and not used: the inputs are fixed sets")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "loopchart", "__init__.py")):
        print(f"error: no loopchart sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # ends the worker too
    began = time.monotonic()
    deadline = began + DEADLINE_S
    try:
        untraced = run_round(args.workload, False, deadline) if args.trace else None
        rounds: list[dict] = []
        while (len(rounds) < (1 if args.trace else MIN_ROUNDS)
               or time.monotonic() - began < args.seconds):
            rounds.append(run_round(args.workload, bool(args.trace), deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(len(r["failed_ops"]) for r in rounds)
    for line in (problems + failures)[:20]:
        print(line, file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed, "
          f"{time.monotonic() - began:.1f} s")
    metrics = (per_layer(rounds, untraced) if args.trace
               else end_to_end(rounds))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
