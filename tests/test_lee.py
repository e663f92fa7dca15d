"""Loop charts, elimination, the LEE decision, and witness validation."""

import pytest
from hypothesis import given, settings, strategies as st

from loopchart import semantics
from loopchart.charts import Chart, has_infinite_path, reach, reachable
from loopchart.cli import corpus_exprs, enumerate_exprs, sample_exprs
from loopchart.lee import (
    EliminationStep, EliminationTrace, EmptyEntrySet, NotALoopSubchart,
    SearchBudgetExceeded, TraceReplayError, _innermost, _maximal_loop,
    check_loop_chart, decide_lee, eliminate_loop, entries_of, exhaustive_lee,
    loop_subchart_generated, recording_labeling, validate_llee,
    validate_llee_alt,
)
from loopchart.syntax import Act, One, Prod, Star, parse_star_expr, render


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


def test_decide_lee_counts_its_search(chart_g0):
    result = decide_lee(chart_g0)
    assert result.rounds == len(result.trace.steps)
    # only the loop each round chooses is eliminated
    assert result.eliminations == len(result.trace.steps)
    assert result.checks == result.vertex_passes + result.eliminations
    # a size-100 sample: a 12-vertex, 122-transition chart without LEE
    c = semantics.chart_of(next(sample_exprs(["a", "b"], 1, 100, 10)))
    result = decide_lee(c)
    assert not result.holds and result.rounds >= 5
    # one pass per vertex and round, however many transitions it has
    assert result.vertex_passes <= (result.rounds + 1) * len(c.vertices)
    # the last round finds no loop
    assert result.eliminations == result.rounds - 1
    assert result.checks == result.vertex_passes + result.eliminations
    assert result.fallbacks <= result.rounds


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
    assert result.holds == exhaustive_lee(c).holds
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
    Innermost-first elimination gives a layered witness."""
    c = Chart(frozenset("ab"), 0, frozenset(range(5)), frozenset({
        (0, "b", 1), (1, "a", 0), (1, "b", 0), (1, "b", 4), (2, "a", 2),
        (2, "b", 3), (3, "a", 3), (3, "b", 0), (4, "a", 0), (4, "a", 2),
        (4, "b", 0)}), frozenset())
    assert_agrees_with_oracle(c)


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


def innermost_by_definition(c, v, entries, body):
    """No body vertex other than v lies on a cycle of the chart that
    eliminating the loop leaves."""
    after = eliminate_loop(c, v, entries)
    out = after.out_index().get
    on_cycle = {x for x in after.vertices
                if x in reach(out, [w for _, _, w in after.out(x)])}
    return (body - {v}).isdisjoint(on_cycle)


@settings(max_examples=300, deadline=None)
@given(small_charts(1, 8))
def test_maximal_loop_matches_the_definition(c):
    out = c.out_index().get
    for v in sorted(c.vertices):
        assert _maximal_loop(out, c.terminating, v) == maximal_loop_by_definition(c, v)
    # decide_lee tests loops on charts whose every vertex is reachable
    r = reachable(c)
    out = r.out_index().get
    for v in sorted(r.vertices):
        loop = _maximal_loop(out, r.terminating, v)
        if loop is not None:
            assert _innermost(out, v, *loop) == innermost_by_definition(r, v, *loop)


def counters(result):
    return [result.rounds, result.vertex_passes, result.eliminations, result.fallbacks]


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
        one_free += _one_free_shape(e)
    assert one_free == 529
    # the plain chart interpretation does not: the smallest examples
    assert len(plain_fails) == 78
    assert sorted(plain_fails, key=lambda text: (len(text), text))[:3] == [
        "(a*.a*)*", "(a*.b*)*", "(a.a**)*"]
