"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
capture) and then asserts.  The expensive corpus pass is computed once per
module and shared.
"""

import hashlib
import random
import time
from dataclasses import dataclass, field

import pytest

from loopchart import bisim, charts, cli, lee, semantics
from loopchart.charts import from_json, reachable, to_json
from loopchart.syntax import parse_star_expr, render, star_height


def report(capfd, number, description, ok):
    with capfd.disabled():
        print(f"ACCEPTANCE {number:2d} ({description}): "
              f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


@dataclass
class CorpusResults:
    expressions: list = field(default_factory=list)
    p1_failures: list = field(default_factory=list)
    p2_failures: list = field(default_factory=list)
    law_violations: list = field(default_factory=list)
    round_trip_failures: list = field(default_factory=list)
    small_charts: list = field(default_factory=list)  # <= 40 vertices
    e_bisim_ok: bool = False


def _structural_laws(e, labeling, stacked):
    """Laws (a)-(e) for one expression; returns violation descriptions."""
    bad = []
    chart = labeling.chart
    for t in chart.transitions:
        source, label, target = t
        level = labeling.marking[t]
        if label == charts.EMPTY and level != 0:
            bad.append(("a", render(e), t))
        if level >= 1 and not semantics.entry_shape_ok(
                stacked[source], label, level, stacked[target]):
            bad.append(("b", render(e), t))
        if star_height(stacked[target]) > star_height(stacked[source]):
            bad.append(("d", render(e), t))
    body = charts.Chart(
        chart.alphabet, chart.start, chart.vertices,
        frozenset(t for t in chart.transitions if labeling.marking[t] == 0),
        chart.terminating)
    if charts.find_cycle(body, body.vertices) is not None:
        bad.append(("c", render(e)))
    for E in stacked.values():
        via_step = any(semantics.normedness(G)["normed"]
                       for _, G in semantics.steps_stacked(E))
        if semantics.normedness(E)["normed_plus"] != via_step:
            bad.append(("e", render(e), render(E)))
    return bad


@pytest.fixture(scope="module")
def corpus_results():
    results = CorpusResults()
    for e in cli.default_corpus():
        results.expressions.append(e)
        r1 = cli.verify_p1(e)
        if not r1.passed:
            results.p1_failures.append(r1)
        r2 = cli.verify_p2(e)
        if not r2.passed:
            results.p2_failures.append(r2)

        labeling, stacked = semantics.labeled_onechart_of_with_exprs(e)
        results.law_violations.extend(_structural_laws(e, labeling, stacked))

        chart = semantics.chart_of(e)
        if parse_star_expr(render(e)) != e:
            results.round_trip_failures.append(("parse-render", render(e)))
        if from_json(to_json(chart)) != chart:
            results.round_trip_failures.append(("chart-json", render(e)))
        restored = from_json(to_json(labeling))
        if labeling.chart.transitions:
            same = (restored.chart == labeling.chart
                    and restored.marking == labeling.marking)
        else:
            same = restored == labeling.chart  # no markings to carry
        if not same:
            results.round_trip_failures.append(("labeling-json", render(e)))
        if len(chart.vertices) <= 40:
            results.small_charts.append(chart)

    e_expr = parse_star_expr("(a*.b*)*")
    induced = reachable(charts.induced_of(semantics.onechart_of(e_expr)))
    results.e_bisim_ok = (
        bisim.bisimilar(induced, semantics.chart_of(e_expr)) is not None)
    return results


def test_criterion_1_fixture_exactness(capfd, chart_g0, chart_e, chart_f,
                                       e_expr, f_expr):
    shape = lambda c: (len(c.vertices), len(c.transitions),
                       len(c.one_transitions), len(c.terminating))
    ok = (shape(chart_g0) == (3, 5, 0, 0)
          and shape(chart_e) == (3, 6, 0, 3)
          and shape(chart_f) == (5, 15, 0, 0)
          and shape(semantics.onechart_of(e_expr)) == (5, 9, 4, 1)
          and shape(semantics.onechart_of(f_expr)) == (5, 9, 3, 0))
    report(capfd, 1, "fixture exactness", ok)


def test_criterion_2_lee_verdicts(capfd, chart_g0, chart_e, chart_f, ne1, ne2):
    ok = True
    for chart, expected in [(chart_g0, True), (chart_e, False),
                            (chart_f, False), (ne1, False), (ne2, False)]:
        started = time.perf_counter()
        result = lee.decide_lee(chart)
        elapsed = time.perf_counter() - started
        ok = ok and result.holds == expected and elapsed < 1.0
    report(capfd, 2, "LEE verdicts under 1s", ok)


def test_criterion_3_recorded_witnesses(capfd, chart_g0):
    runs = [
        [(1, [(1, "c", 0)]), (2, [(2, "b", 1)]), (2, [(2, "b", 0)])],
        [(1, [(1, "a", 2)]), (1, [(1, "c", 0)])],
        [(1, [(1, "a", 2), (1, "c", 0)])],
    ]
    ok = True
    for run in runs:
        trace = lee.EliminationTrace(
            [lee.EliminationStep(v, frozenset(u)) for v, u in run])
        labeling = lee.recording_labeling(chart_g0, trace)
        ok = ok and lee.validate_llee(labeling).valid
        ok = ok and lee.validate_llee_alt(labeling).valid
    report(capfd, 3, "recorded labelings are witnesses", ok)


def test_criterion_4_theorem_p2(capfd, corpus_results):
    ok = (len(corpus_results.expressions) == 4236
          and not corpus_results.p2_failures)
    report(capfd, 4, "theorem P2 on the corpus", ok)


def test_criterion_5_theorem_p1(capfd, corpus_results):
    ok = not corpus_results.p1_failures and corpus_results.e_bisim_ok
    report(capfd, 5, "theorem P1 on the corpus", ok)


def test_criterion_6_oracle_agreement(capfd, corpus_results):
    small = corpus_results.small_charts
    rng = random.Random(97)
    pairs = [(c, c) for c in small]
    pairs += [(rng.choice(small), rng.choice(small)) for _ in range(200)]
    disagreements = 0
    for c1, c2 in pairs:
        fast = bisim.bisimilar(c1, c2) is not None
        slow = (c1.start, c2.start) in bisim.naive_bisim_oracle(c1, c2, cap=80)
        if fast != slow:
            disagreements += 1
    report(capfd, 6, "refinement agrees with the oracle", disagreements == 0)


def test_criterion_7_collapse(capfd, chart_g0, chart_e, chart_f, ne1, ne2):
    collapsed, qmap = bisim.collapse(chart_e)
    ok = (len(collapsed.vertices) == 1
          and collapsed.terminating == frozenset({0})
          and collapsed.transitions == frozenset({(0, "a", 0), (0, "b", 0)})
          and bisim.check_functional_bisim(chart_e, collapsed, qmap).ok)
    for chart in (chart_g0, chart_f, ne1, ne2):
        quotient, qmap = bisim.collapse(chart)
        r = reachable(chart)
        ok = ok and len(quotient.vertices) == len(r.vertices)
        ok = ok and len(quotient.transitions) == len(r.transitions)
        ok = ok and len(quotient.terminating) == len(r.terminating)
        ok = ok and bisim.check_functional_bisim(chart, quotient, qmap).ok
    report(capfd, 7, "collapse fixtures", ok)


def test_criterion_8_structural_laws(capfd, corpus_results):
    report(capfd, 8, "structural laws (a)-(e)",
           not corpus_results.law_violations)


def test_criterion_9_round_trips(capfd, corpus_results, ne1, ne2):
    ok = not corpus_results.round_trip_failures
    for fixture in (ne1, ne2):
        ok = ok and from_json(to_json(fixture)) == fixture
    report(capfd, 9, "round trips", ok)


def test_criterion_10_witness_implies_lee(capfd, chart_g0, e_expr, f_expr):
    """Everything validate_llee accepts in this suite must satisfy LEE."""
    accepted = []
    runs = [
        [(1, [(1, "c", 0)]), (2, [(2, "b", 1)]), (2, [(2, "b", 0)])],
        [(1, [(1, "a", 2)]), (1, [(1, "c", 0)])],
        [(1, [(1, "a", 2), (1, "c", 0)])],
    ]
    for run in runs:
        trace = lee.EliminationTrace(
            [lee.EliminationStep(v, frozenset(u)) for v, u in run])
        accepted.append(lee.recording_labeling(chart_g0, trace))
    accepted.append(semantics.labeled_onechart_of(e_expr))
    accepted.append(semantics.labeled_onechart_of(f_expr))
    for e in cli.enumerate_exprs(["a", "b"], 4):
        accepted.append(semantics.labeled_onechart_of(e))
    counterexamples = 0
    for labeling in accepted:
        if lee.validate_llee(labeling).valid:
            if not lee.decide_lee(labeling.chart).holds:
                counterexamples += 1
    report(capfd, 10, "accepted witnesses satisfy LEE", counterexamples == 0)


# sha256 over to_json(chart_of(e)) and to_json(labeled_onechart_of(e)) for
# every corpus expression in order, recorded before expression nodes were
# hash-consed; it does not depend on PYTHONHASHSEED
CORPUS_JSON_SHA256 = "3e2fd0624fb1551244aeb0f75026a7aaab0dad285874fbd26290823b5183147b"


def test_corpus_chart_json_is_unchanged(corpus_results):
    """Vertex numbering and chart JSON are part of the output contract."""
    digest = hashlib.sha256()
    for e in corpus_results.expressions:
        digest.update(to_json(semantics.chart_of(e)).encode())
        digest.update(to_json(semantics.labeled_onechart_of(e)).encode())
    assert digest.hexdigest() == CORPUS_JSON_SHA256
