"""Bisimulation clauses, refinement vs. the brute-force oracle, collapse."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from loopchart import semantics
from loopchart.bisim import (
    CapExceeded, bisimilar, check_functional_bisim, check_relation_bisim,
    collapse, naive_bisim_oracle,
)
from loopchart.charts import Chart, UnknownVertex, induced_of, reachable
from loopchart.syntax import Act, parse_star_expr

from test_charts import small_charts


def test_identity_is_a_bisimulation():
    c = semantics.chart_of(Act("a"))
    ident = {(v, v) for v in c.vertices}
    assert check_relation_bisim(c, c, ident).ok


def test_all_pairs_on_ne1_fails_forth(ne1):
    report = check_relation_bisim(
        ne1, ne1, {(u, v) for u in ne1.vertices for v in ne1.vertices})
    assert not report.ok
    assert report.clause in ("forth", "back")


def test_failing_step_is_reported_in_label_order():
    """Every label of the left start fails forth; the report names the
    smallest, whatever the hash seed orders the transition set by."""
    left = Chart(frozenset("abcde"), 0, frozenset({0, 1}),
                 frozenset((0, label, 1) for label in "edcba"), frozenset())
    right = Chart(frozenset("abcde"), 0, frozenset({0}), frozenset(), frozenset())
    report = check_relation_bisim(left, right, {(0, 0)})
    assert (report.clause, report.pair) == ("forth", (0, 0))
    assert report.detail == "no matching a-step on the right"


def test_empty_relation_fails():
    c = semantics.chart_of(Act("a"))
    assert check_relation_bisim(c, c, set()).clause == "start"


def test_map_to_an_unknown_vertex_is_rejected():
    c = semantics.chart_of(Act("a"))
    for f in ({0: 0, 1: 5}, {7: 0}):
        with pytest.raises(UnknownVertex):
            check_functional_bisim(c, c, f)


def test_bisimilar_reflexive(chart_g0, chart_e, chart_f, ne1, ne2):
    for c in (chart_g0, chart_e, chart_f, ne1, ne2):
        relation = bisimilar(c, c)
        assert relation is not None
        assert check_relation_bisim(c, c, relation).ok


def test_bisimilar_e_and_its_collapse(chart_e):
    collapsed, _ = collapse(chart_e)
    relation = bisimilar(chart_e, collapsed)
    assert relation == {(v, 0) for v in chart_e.vertices}


def test_ne_charts_not_bisimilar(ne1, ne2):
    assert bisimilar(ne1, ne2) is None


def test_functional_bisim_projection(e_expr, chart_e):
    # identity-shaped map from the reachable induced chart onto the chart
    from loopchart.cli import verify_p1
    assert verify_p1(e_expr).passed


def test_functional_bisim_rejects_constant_map(chart_g0):
    c = semantics.chart_of(Act("a"))
    report = check_functional_bisim(chart_g0, c, {v: 0 for v in chart_g0.vertices})
    assert not report.ok


def test_collapse_of_e(chart_e):
    collapsed, qmap = collapse(chart_e)
    assert len(collapsed.vertices) == 1
    assert collapsed.terminating == frozenset({0})
    assert collapsed.transitions == frozenset({(0, "a", 0), (0, "b", 0)})
    assert check_functional_bisim(chart_e, collapsed, qmap).ok


def test_collapse_numbers_blocks_in_breadth_first_order():
    # from the start 3, breadth-first over sorted transitions meets 3, 4, 0,
    # 1; 4 and 0 are bisimilar, and 2 is unreachable
    c = Chart(frozenset("ab"), 3, frozenset(range(5)),
              frozenset({(3, "a", 4), (3, "b", 0), (4, "a", 1), (0, "a", 1),
                         (2, "a", 3)}), frozenset({1}))
    collapsed, qmap = collapse(c)
    assert qmap == {3: 0, 4: 1, 0: 1, 1: 2}
    assert collapsed.start == 0
    assert collapsed.transitions == frozenset({(0, "a", 1), (0, "b", 1), (1, "a", 2)})
    assert collapsed.terminating == frozenset({2})


def test_collapse_identity_on_minimal_charts(chart_g0, chart_f, ne1, ne2):
    for c in (chart_g0, chart_f, ne1, ne2):
        collapsed, qmap = collapse(c)
        assert len(collapsed.vertices) == len(reachable(c).vertices)
        assert len(collapsed.transitions) == len(reachable(c).transitions)
        assert check_functional_bisim(c, collapsed, qmap).ok


def test_collapse_is_minimal(chart_e, chart_g0):
    for c in (chart_e, chart_g0):
        collapsed, _ = collapse(c)
        greatest = naive_bisim_oracle(collapsed, collapsed)
        assert all(u == v for u, v in greatest)


def test_oracle_examples(chart_e, ne1):
    assert len(naive_bisim_oracle(chart_e, chart_e)) == 9
    a_chart = semantics.chart_of(Act("a"))
    assert (ne1.start, a_chart.start) not in naive_bisim_oracle(ne1, a_chart)


def test_oracle_cap():
    c = semantics.chart_of(Act("a"))
    with pytest.raises(CapExceeded):
        naive_bisim_oracle(c, c, cap=3)


def test_oracle_agrees_with_refinement_on_fixtures(
        chart_g0, chart_e, chart_f, ne1, ne2):
    charts = [chart_g0, chart_e, chart_f, ne1, ne2]
    for c1 in charts:
        for c2 in charts:
            fast = bisimilar(c1, c2) is not None
            slow = (c1.start, c2.start) in naive_bisim_oracle(c1, c2)
            assert fast == slow


def test_composition_of_functional_bisims(e_expr, chart_e):
    """Composing the projection with the collapse map still satisfies the
    bisimulation clauses."""
    from loopchart.cli import verify_p1  # noqa: F401  (map built below)
    from loopchart.syntax import project
    one, stacked = semantics.onechart_of_with_exprs(e_expr)
    chart, chart_exprs = semantics.chart_of_with_exprs(e_expr)
    ids = {expr: vid for vid, expr in chart_exprs.items()}
    ind = reachable(induced_of(one))
    pi = {v: ids[project(stacked[v])] for v in ind.vertices}
    collapsed, qmap = collapse(chart)
    composed = {(v, qmap[pi[v]]) for v in ind.vertices}
    assert check_relation_bisim(ind, collapsed, composed).ok


def _outcome(check, c1, c2, f):
    """The report of `check`, or the vertex pair of the UnknownVertex it
    raised."""
    try:
        return check(c1, c2, f)
    except UnknownVertex as err:
        return ("UnknownVertex", err.args)


def _relational_outcome(c1, c2, f):
    return _outcome(check_relation_bisim, c1, c2, set(f.items()))


def _maps(draw_int, c1, c2):
    """A random partial map from c1's vertices to c2's; about one in five
    also sends a vertex outside c1, or a vertex to one outside c2."""
    n1, n2 = len(c1.vertices), len(c2.vertices)
    f = {v: draw_int(0, n2 - 1) for v in range(n1) if draw_int(0, 3)}
    if not draw_int(0, 9):
        f[n1] = draw_int(0, n2 - 1)
    if not draw_int(0, 9):
        f[draw_int(0, n1 - 1)] = n2
    return f


@st.composite
def charts_with_maps(draw):
    """Random charts with random partial maps, which mostly fail, and
    collapses with their quotient maps, whole, cut down or changed in one
    place, which mostly pass."""
    c1 = draw(small_charts())
    draw_int = lambda low, high: draw(st.integers(low, high))
    if draw(st.booleans()):
        c2 = draw(small_charts())
        return c1, c2, _maps(draw_int, c1, c2)
    c2, f = collapse(c1)
    change = draw(st.sampled_from(["none", "drop", "move"]))
    if change != "none":
        v = draw(st.sampled_from(sorted(f)))
        if change == "drop":
            del f[v]
        else:
            f[v] = draw_int(0, len(c2.vertices))
    return c1, c2, f


@settings(max_examples=300, deadline=None)
@given(charts_with_maps())
def test_functional_bisim_agrees_with_the_relational_check(case):
    c1, c2, f = case
    assert _outcome(check_functional_bisim, c1, c2, f) == _relational_outcome(c1, c2, f)


def test_functional_bisim_agrees_on_seeded_random_maps():
    """Every clause, passing maps and UnknownVertex, from seeded draws."""
    rng = random.Random(20)
    outcomes = []
    for _ in range(3000):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 4)
        c1, c2 = (Chart(frozenset("ab"), rng.randrange(n), frozenset(range(n)),
                        frozenset((rng.randrange(n), rng.choice("ab1"), rng.randrange(n))
                                  for _ in range(rng.randint(0, 2 * n))),
                        frozenset(v for v in range(n) if rng.random() < 0.4))
                  for n in (n1, n2))
        if rng.random() < 0.5:
            c2, f = collapse(c1)
        else:
            f = _maps(rng.randint, c1, c2)
            f[c1.start] = c2.start if rng.random() < 0.8 else f.get(c1.start, 0)
        outcome = _outcome(check_functional_bisim, c1, c2, f)
        assert outcome == _relational_outcome(c1, c2, f)
        outcomes.append(outcome[0] if isinstance(outcome, tuple) else
                        "pass" if outcome.ok else outcome.clause)
    kinds = set(outcomes)
    assert kinds == {"pass", "start", "termination", "forth", "back", "UnknownVertex"}
