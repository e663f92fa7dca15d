"""Chart model: induced charts, reachability, cycles, JSON, and DOT."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from loopchart import semantics
from loopchart.charts import (
    EMPTY, Chart, EntryBodyLabeling, SchemaError, doomed,
    find_cycle, from_json, has_infinite_path, induced_of, reach, reachable,
    to_dot, to_json, walk,
)
from loopchart.syntax import Act, parse_star_expr

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_induced_of_e(e_expr):
    one = semantics.onechart_of(e_expr)
    ind = induced_of(one)
    # same vertex set; garbage collection is separate
    assert ind.vertices == one.vertices
    assert not ind.one_transitions
    assert ind.terminating == ind.vertices  # every vertex reaches e by 1-steps
    r = reachable(ind)
    assert len(r.vertices) == 3
    assert len(r.transitions) == 6


def test_induced_identity_without_empty_steps(chart_g0):
    assert induced_of(chart_g0) == chart_g0
    assert induced_of(induced_of(chart_g0)) == induced_of(chart_g0)


def test_induced_handles_one_cycles():
    c = Chart(frozenset({"a"}), 0, frozenset({0, 1, 2}),
              frozenset({(0, "1", 1), (1, "1", 0), (1, "a", 2)}),
              frozenset({2}))
    ind = induced_of(c)
    assert (0, "a", 2) in ind.transitions
    assert (1, "a", 2) in ind.transitions


def test_reachable_drops_isolated_vertex(chart_g0):
    padded = Chart(chart_g0.alphabet, chart_g0.start,
                   chart_g0.vertices | {99}, chart_g0.transitions,
                   chart_g0.terminating, dict(chart_g0.annotations))
    assert reachable(padded).vertices == chart_g0.vertices
    assert reachable(chart_g0) == chart_g0


def test_has_infinite_path(chart_g0):
    assert has_infinite_path(chart_g0)
    assert not has_infinite_path(semantics.chart_of(Act("a")))
    # a cycle that is unreachable does not count
    c = Chart(frozenset({"a"}), 0, frozenset({0, 1}),
              frozenset({(1, "a", 1)}), frozenset())
    assert not has_infinite_path(c)


def test_json_smallest_chart():
    c = semantics.chart_of(Act("a"))
    doc = to_json(c)
    assert '"alphabet"' in doc and '"label": "a"' in doc
    assert from_json(doc) == c


def test_json_round_trip_onechart(e_expr):
    labeling = semantics.labeled_onechart_of(e_expr)
    restored = from_json(to_json(labeling))
    assert isinstance(restored, EntryBodyLabeling)
    assert restored.chart == labeling.chart
    assert restored.marking == labeling.marking
    plain = from_json(to_json(labeling.chart))
    assert plain == labeling.chart


def test_json_empty_step_encoding(e_expr):
    doc = to_json(semantics.onechart_of(e_expr))
    assert '"kind": "empty"' in doc


def test_schema_error_paths():
    with pytest.raises(SchemaError) as info:
        from_json('{"alphabet": ["a"], "start": 0, "vertices": [], "transitions": []}')
    assert info.value.path == "/start"
    with pytest.raises(SchemaError) as info:
        from_json('{"alphabet": ["1"], "start": 0, "vertices": [], "transitions": []}')
    assert info.value.path == "/alphabet/0"
    with pytest.raises(SchemaError) as info:
        from_json(
            '{"alphabet": ["a"], "start": 0,'
            ' "vertices": [{"id": 0, "terminating": false}],'
            ' "transitions": [{"from": 0, "label": "b", "to": 0}]}')
    assert info.value.path == "/transitions/0/label"
    # true == 1 and 1.0 == 1, but neither is a vertex id; a list is unhashable
    for transition, path in (('{"from": 0, "label": "a", "to": true}', "/transitions/0/to"),
                             ('{"from": 1.0, "label": "a", "to": 0}', "/transitions/0/from"),
                             ('{"from": 0, "label": "a", "to": [1]}', "/transitions/0/to")):
        with pytest.raises(SchemaError) as info:
            from_json(
                '{"alphabet": ["a"], "start": 0,'
                ' "vertices": [{"id": 0, "terminating": false},'
                ' {"id": 1, "terminating": true}],'
                ' "transitions": [' + transition + ']}')
        assert info.value.path == path
    with pytest.raises(SchemaError):
        from_json("not json at all")


def test_dot_output(e_expr):
    labeling = semantics.labeled_onechart_of(e_expr)
    dot = to_dot(labeling)
    assert "digraph" in dot
    assert "style=dotted" in dot  # empty steps
    assert "[2]" in dot  # entry markings
    assert "doublecircle" in dot  # the terminating start vertex


def test_dot_escapes_annotations():
    chart = Chart(frozenset(), 0, frozenset({0, 1}), frozenset(), frozenset(),
                  {0: "x\\", 1: 'say "hi"'})
    dot = to_dot(chart)
    assert r'label="x\\"]' in dot
    assert r'label="say \"hi\""]' in dot


def test_chart_invariants_hold_under_optimize():
    # the invariants are checked by raising, so -O does not remove them
    script = ("from loopchart.charts import Chart\n"
              "from loopchart.lee import EliminationStep\n"
              "try:\n"
              "    Chart(frozenset({'a'}), 5, frozenset({0}), frozenset(), frozenset())\n"
              "except ValueError as err:\n"
              "    print(err)\n"
              "try:\n"
              "    EliminationStep(0, frozenset({(1, 'a', 0)}))\n"
              "except ValueError as err:\n"
              "    print(err)\n")
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["start 5 is not a vertex",
                                        "an entry does not depart from vertex 0"]


def test_chart_invariants_raise_value_error(chart_e):
    with pytest.raises(ValueError, match="endpoint"):
        Chart(frozenset({"a"}), 0, frozenset({0}), frozenset({(0, "a", 1)}),
              frozenset())
    with pytest.raises(ValueError, match="marking"):
        EntryBodyLabeling(chart_e, {})


# ---------------------------------------------------------------------------
# the traversal helpers and the adjacency index

def test_reach_discovery_order():
    steps = {0: [(0, "a", 2), (0, "b", 1)], 1: [(1, "a", 3)], 2: [(2, "a", 0)]}
    assert reach(steps.get, [0]) == [0, 2, 1, 3]
    assert reach(steps.get, [3]) == [3]
    # any callable works, and a step's last item is its target
    assert reach(lambda v: [("x", v + 1)] if v < 3 else [], [0]) == [0, 1, 2, 3]


def test_reach_stop_members_are_reached_not_expanded():
    steps = {0: [(0, "a", 1)], 1: [(1, "a", 2)], 2: [(2, "a", 3)]}
    assert reach(steps.get, [0], {1}) == [0, 1]
    assert reach(steps.get, [1], {1}) == [1]
    assert reach(steps.get, [0], {2}) == [0, 1, 2]


def test_reach_duplicate_roots():
    steps = {0: [(0, "a", 1)], 1: [(1, "a", 0)]}
    assert reach(steps.get, [1, 0, 1, 0]) == [1, 0]
    assert reach(steps.get, []) == []


def test_find_cycle_follows_sorted_transitions():
    c = Chart(frozenset("ab"), 0, frozenset({0, 1, 2}),
              frozenset({(0, "a", 1), (0, "b", 2), (1, "a", 2), (2, "a", 1)}),
              frozenset({0}))
    assert find_cycle(c, c.vertices) == [1, 2]
    assert find_cycle(c, frozenset({0, 1})) is None


@st.composite
def small_charts(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    transitions = draw(st.frozensets(
        st.tuples(vertex, st.sampled_from(["a", "b", EMPTY]), vertex),
        max_size=3 * n))
    terminating = draw(st.frozensets(vertex))
    return Chart(frozenset("ab"), draw(vertex), frozenset(range(n)),
                 transitions, terminating)


def naive_reachable_vertices(c):
    seen = {c.start}
    while True:
        more = {w for v, _, w in c.transitions if v in seen} - seen
        if not more:
            return seen
        seen |= more


def naive_has_cycle_within(c, allowed):
    """Drop vertices without a successor left until none goes; a cycle
    remains iff something is left."""
    left = set(allowed)
    while True:
        sinks = {v for v in left
                 if not any(x == v and w in left for x, _, w in c.transitions)}
        if not sinks:
            return bool(left)
        left -= sinks


@settings(max_examples=300, deadline=None)
@given(small_charts(), st.frozensets(st.integers(0, 7)))
def test_index_and_traversals_agree_with_naive_scans(c, drawn):
    for v in c.vertices:
        assert c.out(v) == sorted(t for t in c.transitions if t[0] == v)
    seen = naive_reachable_vertices(c)
    r = reachable(c)
    assert r.vertices == seen
    assert r.transitions == frozenset(t for t in c.transitions if t[0] in seen)
    assert r.terminating == c.terminating & seen
    assert has_infinite_path(c) == naive_has_cycle_within(c, seen)
    steps = {(v, w) for v, _, w in c.transitions}
    for allowed in (c.vertices, c.vertices & drawn):
        cycle = find_cycle(c, allowed)
        assert (cycle is not None) == naive_has_cycle_within(c, allowed)
        if cycle is not None:
            assert set(cycle) <= allowed
            assert all((v, w) in steps for v, w in zip(cycle, cycle[1:] + cycle[:1]))
    # walk from several roots: its first cycle starts at a back edge's head
    _, heads, cycle = walk(c.out_index().get, sorted(c.vertices))
    assert (cycle is None) == (not heads)
    assert cycle is None or cycle[0] in heads
    # doomed: reaches, without passing a stop, a vertex on a cycle avoiding
    # the stops or a marked vertex other than a stop; with the start as the
    # stop and its targets as roots, as decide_lee calls it, a terminating
    # start dooms none of its predecessors.  doomed decides each root, and
    # visits in full what the roots that are not doomed reach.
    out = c.out_index().get
    for roots, stop in (([c.start], frozenset()),
                        ([w for _, _, w in c.out(c.start)], frozenset({c.start}))):
        for marked in (frozenset(), c.terminating):
            bad = {y for y in c.vertices if y not in stop and (
                y in marked or y in reach(out, [w for _, _, w in c.out(y)], stop))}
            found, visited = doomed(out, roots, stop, marked)
            is_doomed = {x: x not in stop and not bad.isdisjoint(reach(out, [x], stop))
                         for x in roots}
            assert {x for x in roots if x in found} == {x for x in roots if is_doomed[x]}
            assert set(visited) >= set(reach(out, [x for x in roots if not is_doomed[x]], stop))
