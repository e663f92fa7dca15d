"""The seeded LEE sweep: `decide_lee` on random charts and on the charts of
random expressions, against the exhaustive search `lee_exhaustive` of
perfbench/oracles.py where that search is small enough to run, with the
layering of every "holds" recording checked.

    PYTHONPATH=src python tests/lee_sweep.py

It prints one JSON object: the number of inputs, of "holds" verdicts and
of oracle runs, the inputs whose verdict differs from the oracle's, the
inputs whose recording is not a layered witness, a sha256 over every
verdict in input order, one over every verdict, trace and search counter,
one over every report (the first cycle `find_cycle` meets on all vertices,
the L1-L3 violations of `check_loop_chart`, and for a "holds" verdict both
validators' violations on the recording), and one over both validators'
violations on random markings of random charts, most of which are not
layered witnesses, so that two versions of the program can be compared,
and the seconds spent inside `decide_lee`.
pytest does not collect this file; `tests/test_lee.py` runs a slice of it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from loopchart import semantics, syntax
from loopchart.charts import Chart, EntryBodyLabeling, find_cycle
from loopchart.cli import sample_exprs
from loopchart.lee import (
    check_loop_chart, decide_lee, recording_labeling, validate_llee, validate_llee_alt,
)

from conftest import load_perfbench

oracles = load_perfbench("oracles")

RANDOM_CHARTS = 20_000
RANDOM_EXPRS = 3_000
RANDOM_LABELINGS = 20_000
LARGE = (400, 12, 2990400)  # exact size, count and seed of the large expressions


def random_charts(count: int):
    """(name, chart, run the oracle) for `count` charts of 1 to 7 vertices
    from `random.Random(11)`; the oracle runs on at most 5 vertices and 10
    transitions."""
    rng = random.Random(11)
    for i in range(count):
        n = rng.randint(1, 7)
        transitions = frozenset(
            (rng.randrange(n), rng.choice("ab"), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n)))
        terminating = frozenset(v for v in range(n) if rng.random() < 0.2)
        chart = Chart(frozenset("ab"), 0, frozenset(range(n)), transitions, terminating)
        yield f"chart #{i}", chart, n <= 5 and len(transitions) <= 10


def random_labelings(count: int):
    """`count` labelings from `random.Random(5)`: a chart of 1 to 8 vertices
    with labels a, b and 1, a random start and terminating set, and a
    marking of 0 to 3 on each transition in sorted order."""
    rng = random.Random(5)
    for _ in range(count):
        n = rng.randint(1, 8)
        transitions = sorted({
            (rng.randrange(n), rng.choice(["a", "b", "1"]), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))})
        terminating = frozenset(v for v in range(n) if rng.random() < 0.2)
        chart = Chart(frozenset("ab"), rng.randrange(n), frozenset(range(n)),
                      frozenset(transitions), terminating)
        yield EntryBodyLabeling(chart, {t: rng.randint(0, 3) for t in transitions})


def expression_charts(exprs):
    """(name, chart, False) for the chart and the 1-chart of each expression."""
    for e in exprs:
        text = syntax.render(e)
        yield text, semantics.chart_of(e), False
        yield f"1-chart of {text}", semantics.onechart_of(e), False


def large_exprs():
    """The exact-size expressions drawn by the benchmark's generator."""
    workloads = load_perfbench("workloads")
    size, count, seed = LARGE
    rng = random.Random(seed)
    return [workloads.random_expr(syntax, rng, size, ("a", "b", "c")) for _ in range(count)]


def sweep(charts: int = RANDOM_CHARTS, exprs: int = RANDOM_EXPRS, large: bool = True,
          labelings: int = RANDOM_LABELINGS) -> dict:
    """The counts over the first `charts` random charts and `exprs` random
    expressions, and over the large expressions when `large` is set, and
    the validators' digest over the first `labelings` random labelings."""
    inputs = [random_charts(charts),
              expression_charts(sample_exprs(["a", "b", "c"], exprs, 40, 5))]
    if large:
        inputs.append(expression_charts(large_exprs()))
    counts = {"inputs": 0, "holds": 0, "oracle_runs": 0,
              "oracle_disagreements": [], "unlayered": []}
    verdicts, traces, reports = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    decide_lee_s = 0.0
    for group in inputs:
        for name, c, oracle in group:
            began = time.perf_counter()
            result = decide_lee(c)
            decide_lee_s += time.perf_counter() - began
            counts["inputs"] += 1
            verdicts.update(b"1" if result.holds else b"0")
            traces.update(json.dumps([
                result.holds, result.trace and result.trace.to_json(), result.rounds,
                result.vertex_passes, result.eliminations]).encode())
            reports.update(json.dumps([
                find_cycle(c, c.vertices), check_loop_chart(c).violations]).encode())
            if oracle:
                counts["oracle_runs"] += 1
                if oracles.lee_exhaustive(c) != result.holds:
                    counts["oracle_disagreements"].append(name)
            if result.holds:
                counts["holds"] += 1
                labeling = recording_labeling(c, result.trace)
                direct, alt = validate_llee(labeling), validate_llee_alt(labeling)
                reports.update(json.dumps([direct.violations, alt.violations]).encode())
                if not (direct.valid and alt.valid):
                    counts["unlayered"].append(name)
    validators = hashlib.sha256()
    for labeling in random_labelings(labelings):
        validators.update(json.dumps([validate_llee(labeling).violations,
                                      validate_llee_alt(labeling).violations]).encode())
    counts["verdicts_sha256"] = verdicts.hexdigest()
    counts["traces_sha256"] = traces.hexdigest()
    counts["reports_sha256"] = reports.hexdigest()
    counts["validators_sha256"] = validators.hexdigest()
    counts["decide_lee_s"] = round(decide_lee_s, 3)
    return counts


if __name__ == "__main__":
    print(json.dumps(sweep(), indent=1))
