"""Finite rooted labeled transition systems with termination ("charts").

A chart may carry the reserved empty-step label "1" on transitions (a
"1-chart"); "1" is never an action and never part of the alphabet.  The
same data type serves both kinds; operations state which they expect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .syntax import IDENT_RE

EMPTY = "1"  # the reserved empty-step label


class SchemaError(Exception):
    """Invalid chart JSON; `path` is a JSON pointer to the offending value."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


class UnknownVertex(Exception):
    pass


Transition = tuple[int, str, int]


@dataclass
class Chart:
    """Charts are never modified after construction, so operations may
    return their argument, and the adjacency index never goes stale."""

    alphabet: frozenset[str]
    start: int
    vertices: frozenset[int]
    transitions: frozenset[Transition]
    terminating: frozenset[int]
    annotations: dict[int, str] = field(default_factory=dict)
    # vertex -> its outgoing transitions, sorted; built on first use
    _out: Optional[dict[int, list[Transition]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # raised, not asserted, so that running under -O keeps the checks
        if self.start not in self.vertices:
            raise ValueError(f"start {self.start!r} is not a vertex")
        if not self.terminating <= self.vertices:
            raise ValueError("terminating vertices must be vertices")
        for t in self.transitions:
            v, label, w = t
            if v not in self.vertices or w not in self.vertices:
                raise ValueError(f"transition {t!r} has an endpoint that is not a vertex")
            if label != EMPTY and label not in self.alphabet:
                raise ValueError(f"transition {t!r} has a label outside the alphabet")
        if EMPTY in self.alphabet:
            raise ValueError(f"the empty-step label {EMPTY!r} cannot be an action")

    def out_index(self) -> dict[int, list[Transition]]:
        """Each vertex's outgoing transitions in sorted order; vertices
        without any are absent.  The lists are shared: do not modify them."""
        index = self._out
        if index is None:
            index = {}
            for t in self.transitions:
                ts = index.get(t[0])
                if ts is None:
                    index[t[0]] = [t]
                else:
                    ts.append(t)
            for ts in index.values():
                ts.sort()
            self._out = index
        return index

    def out(self, v: int) -> list[Transition]:
        """v's outgoing transitions in sorted order (a shared list)."""
        return self.out_index().get(v, [])

    @property
    def one_transitions(self) -> frozenset[Transition]:
        return frozenset(t for t in self.transitions if t[1] == EMPTY)


@dataclass
class EntryBodyLabeling:
    """A chart whose transitions carry a marking: 0 = body, n >= 1 = entry."""

    chart: Chart
    marking: dict[Transition, int]

    def __post_init__(self):
        if self.marking.keys() != self.chart.transitions:
            raise ValueError("the marking must cover exactly the chart's transitions")
        if any(m < 0 for m in self.marking.values()):
            raise ValueError("markings must be natural numbers")


# ---------------------------------------------------------------------------
# structural operations

def reach(steps, roots, stop=frozenset()) -> list:
    """Breadth-first search: the distinct vertices reachable from `roots`,
    in discovery order, roots first.  `steps(v)` gives v's steps or None,
    and a step's last item is its target, so a chart's `out_index().get`
    and a step-rule function both fit.  Members of `stop` are reached but
    not expanded."""
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for v in order:
        if v in stop:
            continue
        for step in steps(v) or ():
            w = step[-1]
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def doomed(steps, roots, stop, marked):
    """Which of `roots` are doomed: reach, without passing a member of
    `stop`, a cycle or a `marked` vertex.  Returns a set of doomed vertices
    that holds exactly the doomed roots, and a set-like view of the visited
    vertices, which holds all that the roots not doomed reach without
    passing `stop`.  One depth-first search per root: a vertex is doomed
    once reached if it is marked, or once it steps to the search path or
    to a doomed vertex; then the whole path is doomed and finished, and the
    search moves to the next root.  A vertex finished otherwise was fully
    explored.  Members of `stop` are never expanded and never doomed."""
    found = set()
    on_path: dict = {}  # False once a vertex is finished
    for root in roots:
        if root in on_path:
            continue
        if root in marked and root not in stop:
            on_path[root] = False
            found.add(root)
            continue
        on_path[root] = True
        path, iters = [root], [iter(() if root in stop else steps(root) or ())]
        while iters:
            for step in iters[-1]:
                w = step[-1]
                state = on_path.get(w)
                if state is None:
                    on_path[w] = True
                    path.append(w)
                    iters.append(iter(() if w in stop else steps(w) or ()))
                    if w in stop or w not in marked:
                        break
                elif not state and w not in found:
                    continue
                # w is doomed, and so is every vertex on the path to it
                for x in path:
                    on_path[x] = False
                found.update(path)
                iters.clear()
                break
            else:
                on_path[path.pop()] = False
                iters.pop()
    return found, on_path.keys()


def reachable(c: Chart) -> Chart:
    """Restrict to the vertices reachable from the start (all labels).
    Returns c itself when every vertex is reachable: no code modifies a
    chart after construction, so the result may be shared."""
    order = reach(c.out_index().get, [c.start])
    if len(order) == len(c.vertices):
        return c
    seen = frozenset(order)
    return Chart(
        alphabet=c.alphabet,
        start=c.start,
        vertices=seen,
        transitions=frozenset(t for t in c.transitions if t[0] in seen),
        terminating=c.terminating & seen,
        annotations={v: a for v, a in c.annotations.items() if v in seen},
    )


def has_infinite_path(c: Chart) -> bool:
    """True iff a cycle is reachable from the start (finite chart)."""
    return bool(walk(c.out_index().get, [c.start])[1])


def find_cycle(c: Chart, allowed: frozenset[int]) -> Optional[list[int]]:
    """The first cycle within `allowed` that a depth-first search from
    `sorted(allowed)` meets, as a vertex list, or None."""
    out = c.out_index().get
    return walk(lambda v: out(v) if v in allowed else None, sorted(allowed))[2]


def walk(out, roots):
    """One depth-first search from each of `roots` not yet reached, in
    turn, following the steps `out` gives in order.  Returns a set-like
    view of the vertices it reaches; the heads of its back edges, the
    steps to a vertex on the search path; and the first cycle it meets,
    the search path from the head of the first back edge, or None.  A
    cycle is reachable iff there is a back edge, and from a single root,
    one avoids the root iff a back edge has another head."""
    on_path = {}  # False once a vertex is finished
    heads = set()
    cycle = None
    for root in roots:
        if root in on_path:
            continue
        on_path[root] = True
        path, iters = [root], [iter(out(root) or ())]
        while iters:
            for _, _, w in iters[-1]:
                state = on_path.get(w)
                if state is None:
                    on_path[w] = True
                    path.append(w)
                    iters.append(iter(out(w) or ()))
                    break
                if state:
                    if not heads:
                        cycle = path[path.index(w):]
                    heads.add(w)
            else:
                on_path[path.pop()] = False
                iters.pop()
    return on_path.keys(), heads, cycle


def induced_of(c: Chart) -> Chart:
    """Compile the empty steps away: a-transitions after any 1-prefix,
    termination through 1-paths.  Vertex set and start are unchanged
    (garbage collection is a separate `reachable` pass)."""
    out = c.out_index()
    empty_out: dict[int, list[Transition]] = {}
    for t in c.transitions:
        if t[1] == EMPTY:
            empty_out.setdefault(t[0], []).append(t)
    transitions = set()
    terminating = set()
    for v in c.vertices:
        closure = reach(empty_out.get, [v]) if v in empty_out else (v,)
        if not c.terminating.isdisjoint(closure):
            terminating.add(v)
        for x in closure:
            for _, label, w in out.get(x, ()):
                if label != EMPTY:
                    transitions.add((v, label, w))
    return Chart(c.alphabet, c.start, c.vertices, frozenset(transitions),
                 frozenset(terminating), dict(c.annotations))


def canonical_key(c: Chart):
    """Breadth-first renumbering from the start; a deterministic structural
    key of the reachable part.  Nothing in the package calls it; it stays
    because the benchmark's tracer (``perfbench/layers.py``) names it."""
    new = {v: i for i, v in enumerate(reach(c.out_index().get, [c.start]))}
    transitions = frozenset(
        (new[v], label, new[w]) for v, label, w in c.transitions
        if v in new and w in new)
    terminating = frozenset(new[v] for v in c.terminating if v in new)
    return (len(new), transitions, terminating)


# ---------------------------------------------------------------------------
# serialization

def to_json(obj: Union[Chart, EntryBodyLabeling]) -> str:
    if isinstance(obj, EntryBodyLabeling):
        chart, marking = obj.chart, obj.marking
    else:
        chart, marking = obj, None
    doc = {
        "alphabet": sorted(chart.alphabet),
        "start": chart.start,
        "vertices": [
            _vertex_doc(chart, v) for v in sorted(chart.vertices)
        ],
        "transitions": [
            _transition_doc(t, marking) for t in sorted(chart.transitions)
        ],
    }
    return json.dumps(doc, indent=2)


def _vertex_doc(chart: Chart, v: int) -> dict:
    doc = {"id": v, "terminating": v in chart.terminating}
    if v in chart.annotations:
        doc["annotation"] = chart.annotations[v]
    return doc


def _transition_doc(t: Transition, marking) -> dict:
    v, label, w = t
    doc = {"from": v, "label": label, "to": w}
    if label == EMPTY:
        doc["kind"] = "empty"
    if marking is not None:
        doc["marking"] = marking[t]
    return doc


def from_json(text: str) -> Union[Chart, EntryBodyLabeling]:
    """Parse chart JSON; returns a labeling when markings are present."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err.msg}", "") from err
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", "")

    alphabet = _expect_list(doc, "alphabet")
    for i, name in enumerate(alphabet):
        if not isinstance(name, str) or not IDENT_RE.fullmatch(name):
            raise SchemaError("invalid action name", f"/alphabet/{i}")

    vertices: set[int] = set()
    terminating: set[int] = set()
    annotations: dict[int, str] = {}
    for i, entry in enumerate(_expect_list(doc, "vertices")):
        path = f"/vertices/{i}"
        if not isinstance(entry, dict):
            raise SchemaError("expected an object", path)
        vid = entry.get("id")
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise SchemaError("vertex id must be an integer", f"{path}/id")
        if vid in vertices:
            raise SchemaError("duplicate vertex id", f"{path}/id")
        vertices.add(vid)
        if not isinstance(entry.get("terminating"), bool):
            raise SchemaError("terminating must be a boolean", f"{path}/terminating")
        if entry["terminating"]:
            terminating.add(vid)
        if "annotation" in entry:
            if not isinstance(entry["annotation"], str):
                raise SchemaError("annotation must be a string", f"{path}/annotation")
            annotations[vid] = entry["annotation"]

    if "start" not in doc:
        raise SchemaError("missing start vertex", "/start")
    start = doc["start"]
    if not isinstance(start, int) or isinstance(start, bool) or start not in vertices:
        raise SchemaError("start must be a declared vertex id", "/start")

    transitions: set[Transition] = set()
    marking: dict[Transition, int] = {}
    marked = False
    for i, entry in enumerate(_expect_list(doc, "transitions")):
        path = f"/transitions/{i}"
        if not isinstance(entry, dict):
            raise SchemaError("expected an object", path)
        for end in ("from", "to"):
            vid = entry.get(end)
            if not isinstance(vid, int) or isinstance(vid, bool) or vid not in vertices:
                raise SchemaError("endpoint must be a declared vertex id", f"{path}/{end}")
        label = entry.get("label")
        if label == EMPTY:
            if entry.get("kind") != "empty":
                raise SchemaError('label "1" requires "kind": "empty"', f"{path}/kind")
        elif not isinstance(label, str) or label not in alphabet:
            raise SchemaError("label must be in the alphabet", f"{path}/label")
        elif "kind" in entry:
            raise SchemaError('only label "1" takes a "kind"', f"{path}/kind")
        t = (entry["from"], label, entry["to"])
        if t in transitions:
            raise SchemaError("duplicate transition", path)
        transitions.add(t)
        if "marking" in entry:
            marked = True
            m = entry["marking"]
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise SchemaError("marking must be a natural number", f"{path}/marking")
            marking[t] = m

    chart = Chart(frozenset(alphabet), start, frozenset(vertices),
                  frozenset(transitions), frozenset(terminating), annotations)
    if marked:
        if set(marking) != transitions:
            raise SchemaError("markings must cover all transitions or none", "/transitions")
        return EntryBodyLabeling(chart, marking)
    return chart


def _expect_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be an array", f"/{key}")
    return value


# ---------------------------------------------------------------------------
# DOT output

def to_dot(obj: Union[Chart, EntryBodyLabeling]) -> str:
    if isinstance(obj, EntryBodyLabeling):
        chart, marking = obj.chart, obj.marking
    else:
        chart, marking = obj, None
    lines = ["digraph chart {", "  rankdir=TB;",
             '  __start [shape=point, style=invis];']
    for v in sorted(chart.vertices):
        shape = "doublecircle" if v in chart.terminating else "circle"
        label = chart.annotations.get(v, str(v))
        label = label.replace("\\", r"\\").replace('"', r'\"')
        lines.append(f'  v{v} [shape={shape}, label="{label}"];')
    lines.append(f"  __start -> v{chart.start};")
    for t in sorted(chart.transitions):
        v, label, w = t
        attrs = []
        text = label
        if marking is not None and marking[t] >= 1:
            text += f" [{marking[t]}]"
        attrs.append(f'label="{text}"')
        if label == EMPTY:
            attrs.append("style=dotted")
        lines.append(f'  v{v} -> v{w} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
