"""Loop charts, elimination, the LEE decision, and witness validation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from loopchart import bisim, semantics
from loopchart.charts import (
    Chart, find_cycle, has_infinite_path, reach, reachable, walk,
)
from loopchart.cli import corpus_exprs, enumerate_exprs, sample_exprs
from loopchart.lee import (
    EliminationStep, EliminationTrace, EmptyEntrySet, LoopReport,
    NotALoopSubchart, SearchBudgetExceeded, TraceReplayError, _loop_report,
    _maximal_loop, check_loop_chart, decide_lee, eliminate_loop,
    entries_of, loop_subchart_generated, recording_labeling,
    validate_llee, validate_llee_alt,
)
from loopchart.syntax import Act, One, Prod, Star, parse_star_expr, render

import lee_sweep
from conftest import load_fixture, load_perfbench
from test_charts import naive_has_cycle_within

oracles = load_perfbench("oracles")


def trace(*steps):
    return EliminationTrace(
        [EliminationStep(v, frozenset(u)) for v, u in steps])


# the paper-style recorded runs on the chart of g0, against its transitions
# (0,a,1) (1,a,2) (1,c,0) (2,b,0) (2,b,1)
RUN1 = [(1, [(1, "c", 0)]), (2, [(2, "b", 1)]), (2, [(2, "b", 0)])]
RUN2 = [(1, [(1, "a", 2)]), (1, [(1, "c", 0)])]
RUN3 = [(1, [(1, "a", 2), (1, "c", 0)])]


def test_check_loop_chart_on_ne_charts(ne1, ne2):
    report1 = check_loop_chart(ne1)
    assert [v["condition"] for v in report1.violations] == ["L3"]
    report2 = check_loop_chart(ne2)
    assert [v["condition"] for v in report2.violations] == ["L2"]


def test_check_loop_chart_l1():
    c = Chart(frozenset(), 0, frozenset({0}), frozenset(), frozenset({0}))
    assert [v["condition"] for v in check_loop_chart(c).violations] == ["L1"]


def test_loop_subchart_on_g0(chart_g0):
    sub = loop_subchart_generated(chart_g0, 1, frozenset({(1, "c", 0)}))
    assert sub.vertices == frozenset({0, 1})
    assert sub.transitions == frozenset({(1, "c", 0), (0, "a", 1)})
    assert check_loop_chart(sub).ok


def test_loop_subchart_not_loop_on_e(chart_e):
    # from e1, entering via b reaches the terminating non-start vertex e2
    sub = loop_subchart_generated(chart_e, 1, frozenset({(1, "b", 2)}))
    assert any(v["condition"] == "L3" for v in check_loop_chart(sub).violations)


def test_loop_subchart_self_loop():
    c = Chart(frozenset({"a"}), 0, frozenset({0}),
              frozenset({(0, "a", 0)}), frozenset())
    sub = loop_subchart_generated(c, 0, frozenset({(0, "a", 0)}))
    assert sub.vertices == frozenset({0})
    assert check_loop_chart(sub).ok


def test_loop_subchart_input_errors(chart_g0):
    with pytest.raises(EmptyEntrySet):
        loop_subchart_generated(chart_g0, 1, frozenset())


def test_eliminate_first_run_step_by_step(chart_g0):
    c1 = eliminate_loop(chart_g0, 1, frozenset({(1, "c", 0)}))
    assert c1.transitions == frozenset(
        {(0, "a", 1), (1, "a", 2), (2, "b", 1), (2, "b", 0)})
    c2 = eliminate_loop(c1, 2, frozenset({(2, "b", 1)}))
    assert c2.transitions == frozenset({(0, "a", 1), (1, "a", 2), (2, "b", 0)})
    c3 = eliminate_loop(c2, 2, frozenset({(2, "b", 0)}))
    assert c3.transitions == frozenset({(0, "a", 1), (1, "a", 2)})
    assert not has_infinite_path(c3)


def test_eliminate_rejects_non_loop(chart_e):
    with pytest.raises(NotALoopSubchart):
        eliminate_loop(chart_e, 1, frozenset({(1, "b", 2)}))


def test_decide_lee_verdicts(chart_g0, chart_e, chart_f, ne1, ne2):
    assert decide_lee(chart_g0).holds
    for c in (chart_e, chart_f, ne1, ne2):
        assert not decide_lee(c).holds


def test_decide_lee_trace_replays(chart_g0):
    result = decide_lee(chart_g0)
    current = chart_g0
    for step in result.trace.steps:
        current = eliminate_loop(current, step.vertex, step.entry_set)
    assert not has_infinite_path(current)


def test_decide_lee_budget(chart_f):
    with pytest.raises(SearchBudgetExceeded):
        decide_lee(chart_f, budget=1)


def test_decide_lee_ignores_the_budget_variable(monkeypatch, chart_f):
    """Only `loopchart lee` reads LOOPCHART_BUDGET; a library call takes
    its budget from its argument."""
    expected = decide_lee(chart_f)
    for value in ("1", "abc"):
        monkeypatch.setenv("LOOPCHART_BUDGET", value)
        assert decide_lee(chart_f) == expected


def assert_counters_hold_together(result, c):
    """Every round but the last eliminates a loop, one pass at most per
    live vertex and round, and the budget is the passes plus the
    eliminations."""
    if result.holds:
        assert result.eliminations == len(result.trace.steps)
        assert result.eliminations >= result.rounds
    else:
        assert result.eliminations >= result.rounds - 1
    assert result.vertex_passes <= result.rounds * len(c.vertices)
    assert result.checks == result.vertex_passes + result.eliminations


def test_decide_lee_counts_its_search(chart_g0):
    assert_counters_hold_together(decide_lee(chart_g0), chart_g0)
    # a size-100 sample: a 12-vertex, 122-transition chart without LEE
    c = semantics.chart_of(next(sample_exprs(["a", "b"], 1, 100, 10)))
    result = decide_lee(c)
    assert not result.holds
    assert_counters_hold_together(result, c)


def test_decide_lee_eliminates_every_maximal_loop_a_scan_meets():
    """One scan of the chart of a*.b* eliminates both self-loops, in vertex
    order."""
    c = semantics.chart_of(parse_star_expr("a*.b*"))
    result = decide_lee(c)
    assert result.holds and result.rounds == 1
    assert result.trace == trace((1, [(1, "a", 1)]), (2, [(2, "b", 2)]))
    assert_counters_hold_together(result, c)


def test_recording_labelings_of_g0(chart_g0):
    lab1 = recording_labeling(chart_g0, trace(*RUN1))
    entries1 = {t: m for t, m in lab1.marking.items() if m}
    assert entries1 == {(1, "c", 0): 1, (2, "b", 1): 2, (2, "b", 0): 3}
    lab3 = recording_labeling(chart_g0, trace(*RUN3))
    entries3 = {t: m for t, m in lab3.marking.items() if m}
    assert entries3 == {(1, "a", 2): 1, (1, "c", 0): 1}


def test_recording_empty_trace_on_acyclic():
    c = semantics.chart_of(Act("a"))
    labeling = recording_labeling(c, trace())
    assert set(labeling.marking.values()) <= {0}


def test_recording_replay_error(chart_g0):
    bad = trace((1, [(1, "c", 0)]), (1, [(1, "c", 0)]))
    with pytest.raises(TraceReplayError) as info:
        recording_labeling(chart_g0, bad)
    assert info.value.step_index == 2


def test_all_three_recordings_are_witnesses(chart_g0):
    for run in (RUN1, RUN2, RUN3):
        labeling = recording_labeling(chart_g0, trace(*run))
        assert validate_llee(labeling).valid
        assert validate_llee_alt(labeling).valid


def test_interpretation_witnesses(e_expr, f_expr):
    for expr in (e_expr, f_expr):
        labeling = semantics.labeled_onechart_of(expr)
        assert validate_llee(labeling).valid
        assert validate_llee_alt(labeling).valid


def test_all_body_labeling_of_ne1_fails_w1(ne1):
    from loopchart.charts import EntryBodyLabeling
    labeling_all_body = EntryBodyLabeling(ne1, {t: 0 for t in ne1.transitions})
    report = validate_llee(labeling_all_body)
    assert not report.valid
    assert any(v["condition"] == "W1" for v in report.violations)
    assert not validate_llee_alt(labeling_all_body).valid


def test_two_loop_recording_of_e_rejected(chart_e):
    """Eliminating the two self-loops of the chart of e leaves a body cycle;
    the recording is replayable but is not a witness."""
    labeling = recording_labeling(
        chart_e, trace((1, [(1, "a", 1)]), (2, [(2, "b", 2)])))
    entries = {t: m for t, m in labeling.marking.items() if m}
    assert entries == {(1, "a", 1): 1, (2, "b", 2): 2}
    direct = validate_llee(labeling)
    alt = validate_llee_alt(labeling)
    assert not direct.valid and not alt.valid
    assert any(v["condition"] == "W1" for v in direct.violations)
    assert any(v["condition"] == "LLEE2" for v in alt.violations)


def test_entries_of(e_expr, f_expr):
    lab_e = semantics.labeled_onechart_of(e_expr)
    assert entries_of(lab_e) == {(0, 2), (3, 1), (4, 1)}
    lab_f = semantics.labeled_onechart_of(f_expr)
    assert entries_of(lab_f) == {(0, 1)}


def test_decide_lee_on_one_charts(e_expr, f_expr):
    """Empty steps are ordinary labels for the elimination procedure; the
    marked interpretations have witnesses, so the decision must hold."""
    for expr in (e_expr, f_expr):
        assert decide_lee(semantics.onechart_of(expr)).holds


def assert_agrees_with_oracle(c):
    """decide_lee's verdict is the exhaustive search's, and a "holds" trace
    eliminates every infinite path and records to a layered witness."""
    result = decide_lee(c)
    assert result.holds == oracles.lee_exhaustive(c)
    if not result.holds:
        return
    current = c
    for step in result.trace.steps:
        current = eliminate_loop(current, step.vertex, step.entry_set)
    assert not has_infinite_path(current)
    labeling = recording_labeling(c, result.trace)
    assert validate_llee(labeling).valid
    assert validate_llee_alt(labeling).valid


def test_decide_lee_agrees_with_exhaustive_on_small_expressions():
    for e in enumerate_exprs(["a", "b"], 4):
        assert_agrees_with_oracle(semantics.chart_of(e))
        assert_agrees_with_oracle(semantics.onechart_of(e))


@st.composite
def small_charts(draw, min_vertices=2, max_vertices=6):
    n = draw(st.integers(min_vertices, max_vertices))
    vertex = st.integers(0, n - 1)
    transitions = draw(st.frozensets(
        st.tuples(vertex, st.sampled_from("ab"), vertex), max_size=3 * n))
    terminating = draw(st.frozensets(vertex))
    return Chart(frozenset("ab"), 0, frozenset(range(n)), transitions, terminating)


@settings(max_examples=200, deadline=None)
@given(small_charts())
def test_decide_lee_agrees_with_exhaustive_on_random_charts(c):
    assert_agrees_with_oracle(c)


def test_decide_lee_records_a_witness_where_the_first_loop_does_not():
    """The first loop in vertex order is at 1 with body {0}.  Eliminating it
    first leaves 0 on the cycle 0-1-4-0, and the later loop at 0 then enters
    the first loop from inside: the recording violates W2/W3 and LLEE1/LLEE4.
    Retiring 0 with the first loop's body keeps every later step away from
    it, and the recording is a layered witness."""
    c = Chart(frozenset("ab"), 0, frozenset(range(5)), frozenset({
        (0, "b", 1), (1, "a", 0), (1, "b", 0), (1, "b", 4), (2, "a", 2),
        (2, "b", 3), (3, "a", 3), (3, "b", 0), (4, "a", 0), (4, "a", 2),
        (4, "b", 0)}), frozenset())
    assert_agrees_with_oracle(c)


# two charts where decide_lee holds, as the exhaustive search does, and once
# recorded unlayered witnesses: the 1-chart's (W2+W3 / LLEE1+LLEE4) while each
# round eliminated one loop, the 6-vertex chart's (W3 / LLEE4) while a round
# that met no innermost loop eliminated one without retiring its body; both
# are layered since every eliminated loop retires its body
UNLAYERED_CASES = {
    "onechart": lambda: semantics.onechart_of(
        parse_star_expr("(c* + (1*.b + a**.1*))*.0 + 0.b**")),
    "six_vertices": lambda: load_fixture("unlayered_six.json"),
}


@pytest.mark.parametrize("case", sorted(UNLAYERED_CASES))
def test_decide_lee_is_right_where_its_recording_is_unlayered(case):
    c = UNLAYERED_CASES[case]()
    assert decide_lee(c).holds
    assert_agrees_with_oracle(c)


@pytest.mark.parametrize("case", sorted(UNLAYERED_CASES))
def test_decide_lee_records_a_layered_witness_on_the_counterexamples(case):
    c = UNLAYERED_CASES[case]()
    labeling = recording_labeling(c, decide_lee(c).trace)
    assert validate_llee(labeling).valid
    assert validate_llee_alt(labeling).valid


def maximal_loop_by_definition(c, v):
    """The admissible transitions at v and the union of the subcharts they
    generate, or None when none of those meets L1: one loop-subchart check
    per transition."""
    entries, body, loops = set(), set(), False
    for t in c.out(v):
        sub = loop_subchart_generated(c, v, frozenset({t}))
        failing = {x["condition"] for x in check_loop_chart(sub).violations}
        if failing <= {"L1"}:
            entries.add(t)
            body |= sub.vertices
            loops = loops or not failing
    return (frozenset(entries), frozenset(body)) if loops else None


@settings(max_examples=300, deadline=None)
@given(small_charts(1, 8))
def test_maximal_loop_matches_the_definition(c):
    out = c.out_index().get
    for v in sorted(c.vertices):
        assert _maximal_loop(out, c.terminating, v) == maximal_loop_by_definition(c, v)


@settings(max_examples=300, deadline=None)
@given(small_charts(1, 8))
@example(UNLAYERED_CASES["onechart"]())
@example(UNLAYERED_CASES["six_vertices"]())
@example(Chart(frozenset("ab"), 0, frozenset(range(4)), frozenset({
    (0, "a", 3), (0, "b", 1), (1, "a", 2), (2, "a", 0), (2, "a", 1), (2, "a", 3),
    (2, "b", 0), (2, "b", 3), (3, "a", 3)}), frozenset()))  # 1 has a loop once retired
def test_decide_lee_never_eliminates_at_a_retired_vertex(c):
    """The invariant that makes every recording layered: no step of a
    "holds" trace is at a vertex in B \\ {v} for the body B of an earlier
    step's loop at v.  And the lemma that lets a scan that eliminates
    nothing end the run with "fails": after each step, every retired vertex
    that has a loop was retired by a vertex that has one too."""
    result = decide_lee(c)
    if not result.holds:
        return
    current, retired_by = reachable(c), {}
    for step in result.trace.steps:
        assert step.vertex not in retired_by
        body = loop_subchart_generated(current, step.vertex, step.entry_set).vertices
        for u in body - {step.vertex}:
            retired_by.setdefault(u, step.vertex)
        current = eliminate_loop(current, step.vertex, step.entry_set)
        out = current.out_index().get
        for u, v in retired_by.items():
            if _maximal_loop(out, current.terminating, u) is not None:
                assert _maximal_loop(out, current.terminating, v) is not None


def one_label_charts(n):
    """Every chart on vertices 0..n-1 with start 0 and the one label a: each
    set of transitions with each terminating set."""
    pairs = [(v, w) for v in range(n) for w in range(n)]
    for edges in range(1 << len(pairs)):
        transitions = frozenset(
            (v, "a", w) for i, (v, w) in enumerate(pairs) if edges >> i & 1)
        for ends in range(1 << n):
            yield Chart(frozenset("a"), 0, frozenset(range(n)), transitions,
                        frozenset(v for v in range(n) if ends >> v & 1))


def test_decide_lee_agrees_with_exhaustive_on_every_small_one_label_chart():
    """All 4,164 one-label charts on up to 3 vertices: the verdict is the
    exhaustive search's, and every "holds" recording is a layered witness.
    Labels do not change what decide_lee does, since parallel transitions
    to one target are admissible together."""
    for n in (1, 2, 3):
        for c in one_label_charts(n):
            assert_agrees_with_oracle(c)


def check_loop_chart_on_a_chart(c):
    """L1-L3 read off the reachable chart with the chart-level traversals."""
    r = reachable(c)
    violations = []
    if not has_infinite_path(r):
        violations.append({"condition": "L1",
                           "detail": "no cycle reachable from the start"})
    cycle = find_cycle(r, r.vertices - {r.start})
    if cycle is not None:
        violations.append({"condition": "L2", "cycle": cycle,
                           "detail": "cycle avoiding the start vertex"})
    for v in sorted(r.terminating - {r.start}):
        violations.append({"condition": "L3", "vertex": v,
                           "detail": "non-start vertex permits termination"})
    return LoopReport(not violations, violations)


def loop_chart_case(n, transitions, terminating=()):
    return Chart(frozenset("ab"), 0, frozenset(range(n)),
                 frozenset(transitions), frozenset(terminating))


@settings(max_examples=300, deadline=None)
@given(small_charts(1, 8))
@example(loop_chart_case(1, [(0, "a", 0)]))  # a self-loop at the start only
@example(loop_chart_case(2, [(0, "a", 1), (1, "b", 0)], [0]))  # terminating start
@example(loop_chart_case(3, [(0, "a", 1), (1, "a", 0), (0, "b", 2)]))  # dead end
@example(loop_chart_case(3, [(0, "a", 1), (1, "a", 2), (2, "a", 1),
                             (2, "b", 0)]))  # a cycle avoiding the start (L2)
@example(loop_chart_case(2, [(0, "a", 1), (1, "a", 0)], [1]))  # termination behind (L3)
@example(loop_chart_case(3, [(0, "a", 1), (1, "b", 2)]))  # no way back (L1)
def test_loop_report_on_the_adjacency_matches_the_chart(c):
    """check_loop_chart reports what the chart-level check reports, and on
    an adjacency whose steps at v are cut down to an entry set, the report
    is the loop subchart's, as decide_lee reads it."""
    assert check_loop_chart(c) == check_loop_chart_on_a_chart(c)
    out = c.out_index().get
    for v in sorted(c.vertices):
        entry_sets = [frozenset({t}) for t in c.out(v)]
        loop = _maximal_loop(out, c.terminating, v)
        if loop is not None:
            entry_sets.append(loop[0])
        for entry_set in entry_sets:
            entries = sorted(entry_set)
            report = _loop_report(lambda x: entries if x == v else out(x), v,
                                  c.terminating)
            assert report == check_loop_chart(loop_subchart_generated(c, v, entry_set))


def assert_walk_matches_its_definition(c):
    out = c.out_index().get
    live, heads, _ = walk(out, [c.start])
    assert set(live) == set(reach(out, [c.start]))
    assert bool(heads) == naive_has_cycle_within(c, live)
    assert bool(heads - {c.start}) == naive_has_cycle_within(c, live - {c.start})


@settings(max_examples=300, deadline=None)
@given(small_charts(1, 8))
def test_the_round_walk_matches_its_definition(c):
    """The walk that starts each round of decide_lee reaches the vertices a
    breadth-first search reaches, and has a back edge iff a cycle is
    reachable, one with a head other than the start iff a cycle avoids it:
    on the chart and on every chart a "holds" trace passes through."""
    assert_walk_matches_its_definition(c)
    result = decide_lee(c)
    if result.holds:
        current = reachable(c)
        for step in result.trace.steps:
            current = eliminate_loop(current, step.vertex, step.entry_set)
            assert_walk_matches_its_definition(current)


def test_the_seeded_sweep_slice():
    """The first 2,000 random charts and 300 random expressions of
    tests/lee_sweep.py, and its first 2,000 random labelings: every verdict
    is the oracle's, every recording is layered, and the verdicts, traces,
    search counters, reported cycles and violations, and both validators'
    violations on the labelings are the ones recorded."""
    counts = lee_sweep.sweep(charts=2000, exprs=300, large=False, labelings=2000)
    assert counts["oracle_runs"] == 1344
    assert counts["oracle_disagreements"] == []
    assert counts["unlayered"] == []
    assert counts["traces_sha256"] == (
        "a2b88a62f8724f2e9bb18366510428efc50209c581df42db0ef945110e6deed5")
    assert counts["reports_sha256"] == (
        "2eb434e57ca5c6d193694a82e717e5fd5ff67ca29d9ef4fa03c0dd4f2d6c1a96")
    assert counts["validators_sha256"] == (
        "49ff9603eab5337775e3c5d4010808bd977d0e4ff080b4d898c7a31f2f886136")


def test_decide_lee_takes_linear_budget_on_large_one_charts():
    """The 1-charts of the sweep's large expressions hold within four units
    of budget per vertex, with a layered recording."""
    for e in lee_sweep.large_exprs():
        c = semantics.onechart_of(e)
        result = decide_lee(c, budget=4 * len(c.vertices))
        assert result.holds
        labeling = recording_labeling(c, result.trace)
        assert validate_llee(labeling).valid
        assert validate_llee_alt(labeling).valid


def counters(result):
    return [result.rounds, result.vertex_passes, result.eliminations]


@settings(max_examples=200, deadline=None)
@given(small_charts())
def test_decide_lee_spends_exactly_its_checks(c):
    """The budget a run uses is `checks`: that budget suffices and gives the
    same result, one unit less runs out."""
    result = decide_lee(c)
    if result.checks == 0:
        return
    assert decide_lee(c, budget=result.checks) == result
    with pytest.raises(SearchBudgetExceeded):
        decide_lee(c, budget=result.checks - 1)


@settings(max_examples=200, deadline=None)
@given(small_charts())
def test_decide_lee_ignores_the_unreachable_part(c):
    result, restricted = decide_lee(c), decide_lee(reachable(c))
    assert result.holds == restricted.holds
    assert ((result.trace and result.trace.to_json())
            == (restricted.trace and restricted.trace.to_json()))
    assert counters(result) == counters(restricted)


def _one_free_shape(e) -> bool:
    """No `1`, and every star the left factor of a product: the shape of
    1-free expressions, with `e*.f` read as the binary star `e⊛f`."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (One, Star)):
            return False
        if isinstance(node, Prod) and isinstance(node.left, Star):
            stack += [node.left.body, node.right]
        else:
            stack += [getattr(node, name) for name in node._fields if name != "name"]
    return True


def test_the_papers_claims_hold_on_the_corpus():
    plain_fails, one_free = [], 0
    for e in corpus_exprs():
        # the remedy: the 1-chart interpretation of every expression has LEE
        assert decide_lee(semantics.onechart_of(e)).holds, render(e)
        if not decide_lee(semantics.chart_of(e)).holds:
            plain_fails.append(render(e))
            # the chart interpretation of every 1-free expression has LEE
            assert not _one_free_shape(e), render(e)
        if _one_free_shape(e):
            one_free += 1
            # collapse keeps LEE on the charts of 1-free expressions
            collapsed, _ = bisim.collapse(semantics.chart_of(e))
            assert decide_lee(collapsed).holds, render(e)
    assert one_free == 529
    # the plain chart interpretation does not: the smallest examples
    assert len(plain_fails) == 78
    assert sorted(plain_fails, key=lambda text: (len(text), text))[:3] == [
        "(a*.a*)*", "(a*.b*)*", "(a.a**)*"]
