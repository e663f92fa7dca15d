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
    alphabet: frozenset[str]
    start: int
    vertices: frozenset[int]
    transitions: frozenset[Transition]
    terminating: frozenset[int]
    annotations: dict[int, str] = field(default_factory=dict)

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

    def out(self, v: int) -> list[Transition]:
        return sorted(t for t in self.transitions if t[0] == v)

    @property
    def one_transitions(self) -> frozenset[Transition]:
        return frozenset(t for t in self.transitions if t[1] == EMPTY)


@dataclass
class EntryBodyLabeling:
    """A chart whose transitions carry a marking: 0 = body, n >= 1 = entry."""

    chart: Chart
    marking: dict[Transition, int]

    def __post_init__(self):
        if set(self.marking) != set(self.chart.transitions):
            raise ValueError("the marking must cover exactly the chart's transitions")
        if any(m < 0 for m in self.marking.values()):
            raise ValueError("markings must be natural numbers")


# ---------------------------------------------------------------------------
# structural operations

def reachable(c: Chart) -> Chart:
    """Restrict to the vertices reachable from the start (all labels)."""
    succ: dict[int, list[int]] = {}
    for v, _, w in c.transitions:
        succ.setdefault(v, []).append(w)
    seen = {c.start}
    queue = [c.start]
    while queue:
        v = queue.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return Chart(
        alphabet=c.alphabet,
        start=c.start,
        vertices=frozenset(seen),
        transitions=frozenset(t for t in c.transitions if t[0] in seen),
        terminating=c.terminating & seen,
        annotations={v: a for v, a in c.annotations.items() if v in seen},
    )


def rooted_subchart(c: Chart, v: int) -> Chart:
    """Re-root at v and restrict to what v generates."""
    if v not in c.vertices:
        raise UnknownVertex(v)
    return reachable(Chart(c.alphabet, v, c.vertices, c.transitions,
                           c.terminating, c.annotations))


def has_infinite_path(c: Chart) -> bool:
    """True iff a cycle is reachable from the start (finite chart)."""
    succ: dict[int, list[int]] = {}
    for v, _, w in c.transitions:
        succ.setdefault(v, []).append(w)
    return _has_cycle(succ, [c.start])


def _has_cycle(succ: dict[int, list[int]], roots: list[int]) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for root in roots:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: list[tuple[int, iter]] = [(root, iter(succ.get(root, ())))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                state = color.get(w, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    color[w] = GRAY
                    stack.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return False


def find_cycle(c: Chart, allowed: frozenset[int]) -> Optional[list[int]]:
    """Some cycle lying entirely within `allowed` vertices, as a vertex list."""
    succ: dict[int, list[int]] = {}
    for v, _, w in c.transitions:
        if v in allowed and w in allowed:
            succ.setdefault(v, []).append(w)
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    for root in sorted(allowed):
        if color.get(root, 0) != 0:
            continue
        stack = [(root, iter(succ.get(root, ())))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                state = color.get(w, 0)
                if state == 1:
                    cycle = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    cycle.reverse()
                    return cycle
                if state == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def induced_of(c: Chart) -> Chart:
    """Compile the empty steps away: a-transitions after any 1-prefix,
    termination through 1-paths.  Vertex set and start are unchanged
    (garbage collection is a separate `reachable` pass)."""
    one_succ: dict[int, list[int]] = {}
    for v, label, w in c.transitions:
        if label == EMPTY:
            one_succ.setdefault(v, []).append(w)

    def one_closure(v: int) -> set[int]:
        seen = {v}
        queue = [v]
        while queue:
            x = queue.pop()
            for y in one_succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    proper: dict[int, list[tuple[str, int]]] = {}
    for v, label, w in c.transitions:
        if label != EMPTY:
            proper.setdefault(v, []).append((label, w))

    transitions = set()
    terminating = set()
    for v in c.vertices:
        closure = one_closure(v)
        if closure & c.terminating:
            terminating.add(v)
        for x in closure:
            for label, w in proper.get(x, ()):
                transitions.add((v, label, w))
    return Chart(c.alphabet, c.start, c.vertices, frozenset(transitions),
                 frozenset(terminating), dict(c.annotations))


def canonical_key(c: Chart):
    """Breadth-first renumbering from the start; a deterministic structural
    key of the reachable part, used for memoization."""
    new: dict[int, int] = {c.start: 0}
    order = [c.start]
    index = 0
    while index < len(order):
        v = order[index]
        index += 1
        for _, label, w in sorted(t for t in c.transitions if t[0] == v):
            if w not in new:
                new[w] = len(order)
                order.append(w)
    transitions = frozenset(
        (new[v], label, new[w]) for v, label, w in c.transitions
        if v in new and w in new)
    terminating = frozenset(new[v] for v in c.terminating if v in new)
    return (len(order), transitions, terminating)


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
            if entry.get(end) not in vertices:
                raise SchemaError("endpoint must be a declared vertex id", f"{path}/{end}")
        label = entry.get("label")
        if label == EMPTY:
            if entry.get("kind") != "empty":
                raise SchemaError('label "1" requires "kind": "empty"', f"{path}/kind")
        elif not isinstance(label, str) or label not in alphabet:
            raise SchemaError("label must be in the alphabet", f"{path}/label")
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

def to_dot(obj: Union[Chart, EntryBodyLabeling], name: str = "chart") -> str:
    if isinstance(obj, EntryBodyLabeling):
        chart, marking = obj.chart, obj.marking
    else:
        chart, marking = obj, None
    lines = [f"digraph {name} {{", "  rankdir=TB;",
             '  __start [shape=point, style=invis];']
    for v in sorted(chart.vertices):
        shape = "doublecircle" if v in chart.terminating else "circle"
        label = chart.annotations.get(v, str(v)).replace('"', r'\"')
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
