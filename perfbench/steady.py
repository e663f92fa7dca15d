"""Steadiness check: run workloads N times with N seeds and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --workload ladder --runs 5

Each run lasts ``run_seconds`` of BENCHMARK.json and gets seed 1 to N.  For
each workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the metric's bound; a spread under a third of the bound is marked "steady".
Before each run it times a fixed pure-Python loop, so CPU drift between runs
shows next to the figures.  Each workload's results are written to
``perfbench/results/steady-<workload>-<UTC time>.json`` with machine info.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def calibration_ms() -> float:
    """Milliseconds for a fixed pure-Python loop; its run-to-run change is
    the CPU drift the benchmark's figures are subject to."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], spec: dict) -> list[dict]:
    rows = []
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        rows.append({"metric": m["name"], "unit": m["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                     "steady": spread < m["bound"] / 3})
    return rows


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # ends the run too
    info = machine_info()
    print(f"python {info['python']}, nproc {info['nproc']}, {info['cpu_model']}")
    os.makedirs(RESULTS, exist_ok=True)
    for workload in args.workload:
        runs = []
        for seed in range(1, args.runs + 1):
            calibration = calibration_ms()
            result = one_run(spec["command"], workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "calibration_ms": calibration, "result": result})
            print(f"  {workload} seed {seed}: loop {calibration:.1f} ms, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = summarize(runs, spec)
        loops = [r["calibration_ms"] for r in runs]
        print(f"{workload}: {args.runs} runs, fixed loop {min(loops):.1f}-{max(loops):.1f} ms, "
              f"failed {sorted({r['result']['failed'] for r in runs})} of "
              f"{sorted({r['result']['attempted'] for r in runs})}, "
              f"correct {all(r['result']['correct'] for r in runs)}")
        for row in rows:
            print(f"  {row['metric']:16s} median {row['median']:10.4g} {row['unit']:4s} "
                  f"Q1 {row['q1']:10.4g}  Q3 {row['q3']:10.4g}  spread {row['spread']:6.1%}  "
                  f"bound {row['bound']:.0%}  {'steady' if row['steady'] else 'NOT STEADY'}")
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        path = os.path.join(RESULTS, f"steady-{workload}-{stamp}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"machine": info, "workload": workload, "seconds": spec["run_seconds"],
                       "summary": rows, "runs": runs}, handle, indent=1)
        print(f"  wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
