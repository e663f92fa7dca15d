"""Chart model: induced charts, reachability, cycles, JSON, and DOT."""

import os
import subprocess
import sys

import pytest

from loopchart import semantics
from loopchart.charts import (
    Chart, EntryBodyLabeling, SchemaError, UnknownVertex, from_json,
    has_infinite_path, induced_of, reachable, rooted_subchart, to_dot, to_json,
)
from loopchart.syntax import Act, parse_star_expr


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


def test_rooted_subchart(chart_g0, chart_f):
    assert len(rooted_subchart(chart_g0, 1).vertices) == 3
    sink = next(v for v in chart_f.vertices if not chart_f.out(v))
    sub = rooted_subchart(chart_f, sink)
    assert sub.vertices == frozenset({sink})
    assert not sub.transitions
    with pytest.raises(UnknownVertex):
        rooted_subchart(chart_g0, 17)


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
    with pytest.raises(SchemaError):
        from_json("not json at all")


def test_dot_output(e_expr):
    labeling = semantics.labeled_onechart_of(e_expr)
    dot = to_dot(labeling)
    assert "digraph" in dot
    assert "style=dotted" in dot  # empty steps
    assert "[2]" in dot  # entry markings
    assert "doublecircle" in dot  # the terminating start vertex


def test_chart_invariants_hold_under_optimize():
    # the invariants are checked by raising, so -O does not remove them
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = ("from loopchart.charts import Chart\n"
              "try:\n"
              "    Chart(frozenset({'a'}), 5, frozenset({0}), frozenset(), frozenset())\n"
              "except ValueError as err:\n"
              "    print(err)\n")
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == "start 5 is not a vertex"


def test_chart_invariants_raise_value_error(chart_e):
    with pytest.raises(ValueError, match="endpoint"):
        Chart(frozenset({"a"}), 0, frozenset({0}), frozenset({(0, "a", 1)}),
              frozenset())
    with pytest.raises(ValueError, match="marking"):
        EntryBodyLabeling(chart_e, {})
