"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
capture) and then asserts.  The expensive corpus pass is computed once per
module and shared.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

import pytest

from loopchart import bisim, charts, cli, lee, semantics
from loopchart.charts import from_json, reachable, to_json
from loopchart.syntax import (
    Prod, SProd, SStack, Star, Stacked, StarExpr, parse_star_expr, render, sprod,
)

from test_bisim import naive_bisim_oracle


def report(capfd, number, description, ok):
    with capfd.disabled():
        print(f"ACCEPTANCE {number:2d} ({description}): "
              f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def star_decompositions(E: Stacked):
    """All ways to write E as layers around a plain star: peel the stacked
    layers, then left factors of the plain core (a product layer over a
    plain head is itself a plain product)."""
    layers: list[tuple[str, StarExpr]] = []
    while isinstance(E, (SProd, SStack)):
        layers.append(("stack" if isinstance(E, SStack) else "prod", E.tail))
        E = E.head
    core = E
    results = []
    while True:
        if isinstance(core, Star):
            results.append((list(layers), core))
        if isinstance(core, Prod):
            layers.append(("prod", core.right))
            core = core.left
        else:
            return results


def _refill(layers, core: Stacked) -> Stacked:
    for kind, tail in reversed(layers):
        core = SStack(core, tail) if kind == "stack" else sprod(core, tail)
    return core


def entry_shape_ok(E: Stacked, label: str, level: int, target: Stacked) -> bool:
    """An entry of level n from E must unfold some star g* inside E with
    n = |g| + 1, the body g normed+, and the target the same position
    descended into the star body."""
    for layers, star in star_decompositions(E):
        if star.star_height != level or not star.body.normed_plus:
            continue
        for l2, H in semantics.steps_stacked(star.body):
            if l2 == label and _refill(layers, SStack(H, star)) == target:
                return True
    return False


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
        if level >= 1 and not entry_shape_ok(
                stacked[source], label, level, stacked[target]):
            bad.append(("b", render(e), t))
        if stacked[target].star_height > stacked[source].star_height:
            bad.append(("d", render(e), t))
    body = charts.Chart(
        chart.alphabet, chart.start, chart.vertices,
        frozenset(t for t in chart.transitions if labeling.marking[t] == 0),
        chart.terminating)
    if charts.find_cycle(body, body.vertices) is not None:
        bad.append(("c", render(e)))
    oracle = semantics.normedness(e)
    for E in stacked.values():
        if (E.normed, E.normed_plus) != oracle[E]:
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
        slow = (c1.start, c2.start) in naive_bisim_oracle(c1, c2, cap=80)
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


# sha256 over to_dot(chart_of(e)) and to_dot(labeled_onechart_of(e)) for
# every corpus expression in order, recorded while every closure still built
# its chart and annotations
CORPUS_DOT_SHA256 = "13da5216239b8cda82427113ad6cb141a1ea74b5dec6070d3b1362427930fdc6"


def test_corpus_chart_dot_is_unchanged(corpus_results):
    """DOT output, annotations and markings included, is part of the output
    contract."""
    digest = hashlib.sha256()
    for e in corpus_results.expressions:
        digest.update(charts.to_dot(semantics.chart_of(e)).encode())
        digest.update(charts.to_dot(semantics.labeled_onechart_of(e)).encode())
    assert digest.hexdigest() == CORPUS_DOT_SHA256


# sha256 over to_json of the collapse of chart_of(e) and its sorted vertex
# map, for every corpus expression in order, re-recorded (from af608ecd…)
# when a merged vertex took its annotation from its block's first vertex in
# breadth-first order instead of its highest-id member; with annotations
# stripped, the quotients and vertex maps are as before
CORPUS_COLLAPSE_SHA256 = "d309d5647eea0d41e3333abc07103c4ea636293f660c7aa66db989bb6e933e58"


def test_corpus_collapse_is_unchanged(corpus_results):
    """The numbering of collapsed vertices is part of the output contract."""
    digest = hashlib.sha256()
    for e in corpus_results.expressions:
        quotient, qmap = bisim.collapse(semantics.chart_of(e))
        digest.update(to_json(quotient).encode())
        digest.update(json.dumps(sorted(qmap.items())).encode())
    assert digest.hexdigest() == CORPUS_COLLAPSE_SHA256


# sha256 over the verdict and trace JSON of decide_lee on chart_of(e) and on
# onechart_of(e), for every corpus expression in order, recorded once a scan
# eliminated the maximal loop at every vertex no earlier loop's body retired;
# 20 of the 8,472 traces differ from those of the innermost-first rule, and
# no verdict does
CORPUS_LEE_SHA256 = "207289703e22ec8d6605cc0f71a5a693838d1d829a8a85010bb9989f89d50e3d"


def test_corpus_lee_traces_are_unchanged(corpus_results):
    """The elimination trace `loopchart lee` prints is part of the output
    contract."""
    digest = hashlib.sha256()
    for e in corpus_results.expressions:
        for c in (semantics.chart_of(e), semantics.onechart_of(e)):
            result = lee.decide_lee(c)
            digest.update(json.dumps(result.holds).encode())
            digest.update((result.trace.to_json() if result.trace else "null").encode())
    assert digest.hexdigest() == CORPUS_LEE_SHA256


# sha256 over json.dumps([rounds, vertex_passes, eliminations]) of
# decide_lee on chart_of(e) and on onechart_of(e), for every corpus
# expression in order, recorded once a scan eliminated the maximal loop at
# every vertex no earlier loop's body retired; the totals are 4,361 rounds,
# 11,697 vertex passes and 4,818 eliminations (eliminating only innermost
# loops made 4,731 rounds, 13,557 passes and 4,824 eliminations)
CORPUS_LEE_COUNTERS_SHA256 = "a39646c03470dfe5d2b8fd0f52c4c71007be472e21753a6ce507912e88f7c10d"


def test_corpus_lee_counters_are_unchanged(corpus_results):
    """The search counters, and so the work a run does, are part of the
    output contract: a search that makes other passes or rounds changes
    this digest on purpose, and says so."""
    digest = hashlib.sha256()
    for e in corpus_results.expressions:
        for c in (semantics.chart_of(e), semantics.onechart_of(e)):
            r = lee.decide_lee(c)
            digest.update(json.dumps(
                [r.rounds, r.vertex_passes, r.eliminations]).encode())
    assert digest.hexdigest() == CORPUS_LEE_COUNTERS_SHA256


# sha256 over json.dumps(closure_of(e, labeled_steps_stacked).structure) for
# 200 seeded random expressions of size up to 60, in order, recorded while
# the marked step rules still checked each step's marking at run time
LARGE_MARKED_SHA256 = "28cadb66240065b4b77a58b3bba21abd030c59e2723a86be328e034aadd28a02"


def test_large_marked_structures_are_unchanged():
    """The marked 1-chart structures of expressions larger than the
    corpus's are part of the output contract."""
    digest = hashlib.sha256()
    for e in cli.sample_exprs(["a", "b", "c"], 200, 60, 27):
        digest.update(json.dumps(
            semantics.closure_of(e, semantics.labeled_steps_stacked).structure).encode())
    assert digest.hexdigest() == LARGE_MARKED_SHA256
