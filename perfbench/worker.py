"""One round of one workload, in a fresh process.

A round imports the program, builds the workload's inputs (set-up), then
runs every operation once in a closed loop with one caller: the next
operation starts when the previous one returns.  What the checks need of
each output is kept, and checked after the last operation once peak memory
has been read, so the oracles neither allocate nor collect garbage between
timed operations and their memory is not in the peak.  The round prints one
JSON object: set-up time, per-operation latencies in input order, the
operations that raised, problems found by the checks, peak resident memory
and, when traced, per-layer totals.

    python3 perfbench/worker.py --workload corpus --trace 0
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up starts before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

TRACE_LENGTH = 4  # words up to this length are compared with the language oracle


def load_program():
    """Import loopchart from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    import loopchart
    import loopchart.bisim
    import loopchart.charts
    import loopchart.cli
    import loopchart.lee
    import loopchart.semantics
    import loopchart.syntax
    if not os.path.abspath(loopchart.__file__).startswith(SRC + os.sep):
        raise ImportError(f"loopchart imported from {loopchart.__file__}, not {SRC}")
    return loopchart


# ---------------------------------------------------------------------------
# operations and their checks

def verify_op(lc, text):
    """``loopchart corpus`` for one expression: parse, P1, P2."""
    e = lc.syntax.parse_star_expr(text)
    return e, lc.cli.verify_p1(e), lc.cli.verify_p2(e)


def ladder_op(lc, text):
    e, p1, p2 = verify_op(lc, text)
    chart = lc.semantics.chart_of(e)
    induced = lc.charts.reachable(lc.charts.induced_of(lc.semantics.onechart_of(e)))
    collapsed, qmap = lc.bisim.collapse(chart)
    relation = lc.bisim.bisimilar(chart, induced)
    return e, p1, p2, chart, induced, collapsed, qmap, relation


def lee_op(lc, item):
    return lc.lee.decide_lee(item[1])


def verdict_problems(lc, text, e, p1, p2):
    """The checks that need a parse's and P1/P2's full outputs.  They run
    right after the operation, so that only their findings are kept: the
    full reports of the 4236 corpus operations would add 3.4 MB to the peak."""
    problems = []
    if lc.syntax.render(e) != text:
        problems.append("parse does not round-trip")
    if not p1.passed:
        problems.append(f"P1 fails: {p1.failure}")
    if not p2.passed:
        problems.append(f"P2 fails: {p2.failure}")
    return problems


def keep_corpus(lc, text, out):
    return verdict_problems(lc, text, *out)


def keep_ladder(lc, text, out):
    return (verdict_problems(lc, text, *out[:3]),) + out[3:]


def trace_problems(lc, text, chart, induced):
    problems = []
    words = oracles.language_upto(text, TRACE_LENGTH)
    if oracles.chart_traces_upto(chart, TRACE_LENGTH) != words:
        problems.append("chart traces differ from the language oracle")
    if oracles.chart_traces_upto(induced, TRACE_LENGTH) != words:
        problems.append("induced 1-chart traces differ from the language oracle")
    return problems


def check_corpus(lc, text, problems):
    e = lc.syntax.parse_star_expr(text)
    chart = lc.semantics.chart_of(e)
    induced = lc.charts.reachable(lc.charts.induced_of(lc.semantics.onechart_of(e)))
    return problems + trace_problems(lc, text, chart, induced)


def check_ladder(lc, text, kept):
    problems, chart, induced, collapsed, qmap, relation = kept
    problems = problems + trace_problems(lc, text, chart, induced)
    if relation is None or not oracles.is_bisimulation(chart, induced, relation):
        problems.append("bisimilar(chart, induced) is not a bisimulation of the starts")
    if not oracles.is_bisimulation(chart, collapsed, qmap.items()):
        problems.append("collapse map is not a bisimulation")
    if len(collapsed.vertices) > len(chart.vertices):
        problems.append("collapse is larger than the chart")
    return problems


def check_lee(lc, item, result):
    _, chart, expected = item
    if expected == "search":
        expected = "holds" if oracles.lee_exhaustive(chart) else "fails"
    if result.holds != (expected == "holds"):
        return [f"decide_lee says {'holds' if result.holds else 'fails'}, expected {expected}"]
    if not result.holds:
        return []
    current = chart
    for step in result.trace.steps:
        current = lc.lee.eliminate_loop(current, step.vertex, step.entry_set)
    if oracles.has_infinite_path(current.start, current.transitions):
        return ["the elimination trace does not end in an acyclic chart"]
    labeling = lc.lee.recording_labeling(chart, result.trace)
    if not (lc.lee.validate_llee(labeling).valid and lc.lee.validate_llee_alt(labeling).valid):
        return ["the recorded labeling is not a layered witness"]
    return []


WORKLOADS = {
    # name: (inputs, operation, what is kept of an output, check of what is
    # kept, label of an input in messages)
    "corpus": (workloads.corpus_texts, verify_op, keep_corpus, check_corpus, lambda x: x),
    "ladder": (workloads.ladder_texts, ladder_op, keep_ladder, check_ladder, lambda x: x),
    "lee": (workloads.lee_inputs, lee_op, lambda lc, item, out: out, check_lee, lambda x: x[0]),
}


def run_round(name: str, traced: bool) -> dict:
    make_inputs, operation, keep, check, label = WORKLOADS[name]
    lc = load_program()
    inputs = make_inputs(lc)
    setup_s = time.perf_counter() - START

    tracer = Tracer()
    if traced:
        tracer.install(lc)
    latencies, outputs = [], []
    for item in inputs:
        tracer.active = traced
        start = time.perf_counter()
        try:
            out = operation(lc, item)
        except Exception as err:  # an operation that raises counts as failed
            out = err
        finally:
            latencies.append(time.perf_counter() - start)
            tracer.active = False
        outputs.append(out if isinstance(out, Exception) else keep(lc, item, out))
    tracer.uninstall()
    # Read before the checks, so the oracles' memory is not in the peak.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed_ops, failures, problems = [], [], []
    for index, (item, out) in enumerate(zip(inputs, outputs)):
        if isinstance(out, Exception):
            failed_ops.append(index)
            failures.append(f"{label(item)}: {type(out).__name__}: {out}")
            continue
        try:
            problems.extend(f"{label(item)}: {p}" for p in check(lc, item, out))
        except Exception as err:
            problems.append(f"{label(item)}: check raised {type(err).__name__}: {err}")
    return {
        "setup_s": setup_s,
        "attempted": len(inputs),
        "failed_ops": failed_ops,
        "failures": failures,
        "latencies_s": latencies,
        "problems": problems,
        "maxrss_kb": maxrss_kb,
        "counts": tracer.counts() if traced else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_round(args.workload, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
