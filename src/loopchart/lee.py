"""Loop charts, loop-subchart elimination, the LEE decision, and
layered entry/body witness validation (two independent validators).
The tests check `decide_lee` against the exhaustive search in
``perfbench/oracles.py``, which shares no code with this module."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .charts import (
    Chart, EntryBodyLabeling, Transition, UnknownVertex, doomed, reach, reachable, walk,
)

DEFAULT_BUDGET = 200_000


class EmptyEntrySet(Exception):
    pass


class NotALoopSubchart(Exception):
    def __init__(self, report: "LoopReport"):
        super().__init__("; ".join(v["condition"] for v in report.violations))
        self.report = report


class TraceReplayError(Exception):
    def __init__(self, step_index: int, reason: str):
        super().__init__(f"step {step_index}: {reason}")
        self.step_index = step_index


class SearchBudgetExceeded(Exception):
    def __init__(self, budget: int):
        super().__init__(f"more than {budget} vertex passes and loop eliminations")


@dataclass
class LoopReport:
    ok: bool
    violations: list[dict] = field(default_factory=list)


@dataclass
class EliminationStep:
    vertex: int
    entry_set: frozenset[Transition]

    def __post_init__(self):
        if not self.entry_set:
            raise EmptyEntrySet(self.vertex)
        # raised, not asserted, so that running under -O keeps the check
        if any(t[0] != self.vertex for t in self.entry_set):
            raise ValueError(f"an entry does not depart from vertex {self.vertex}")


@dataclass
class EliminationTrace:
    steps: list[EliminationStep]

    def to_json(self) -> str:
        return json.dumps([
            {"vertex": s.vertex, "entries": sorted(list(t) for t in s.entry_set)}
            for s in self.steps
        ])


@dataclass
class LeeResult:
    """The verdict, the trace when LEE holds, and `decide_lee`'s counters:
    rounds, vertex passes (one per vertex and round at most), eliminations."""

    holds: bool
    trace: Optional[EliminationTrace] = None
    rounds: int = 0
    vertex_passes: int = 0
    eliminations: int = 0

    @property
    def checks(self) -> int:
        """The budget used: one unit per vertex pass and per elimination."""
        return self.vertex_passes + self.eliminations


@dataclass
class WitnessReport:
    valid: bool
    violations: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# loop charts

def check_loop_chart(c: Chart) -> LoopReport:
    """L1: some infinite path from the start; L2: every infinite path
    returns to the start; L3: termination only at the start."""
    return _loop_report(c.out_index().get, c.start, c.terminating)


def _loop_report(steps, start: int, terminating: frozenset[int]) -> LoopReport:
    """L1-L3 on the part from `start` of the chart whose transitions
    `steps(v)` gives in sorted order, with terminating vertices
    `terminating`, from one depth-first walk from `start`: L1 holds iff
    the walk has a back edge, L2 iff none has a head other than `start`,
    and L3 iff it reaches no terminating vertex but `start`.  Only a
    failing L2 takes a second walk, from the other vertices in order with
    `start`'s steps cut, for the first cycle that avoids `start`.  The
    walks share no code with the search that finds loops
    (`_maximal_loop`)."""
    seen, heads, _ = walk(steps, [start])
    others = seen - {start}
    violations = []
    if not heads:
        violations.append({"condition": "L1",
                           "detail": "no cycle reachable from the start"})
    if heads - {start}:
        cycle = walk(lambda v: None if v == start else steps(v), sorted(others))[2]
        violations.append({"condition": "L2", "cycle": cycle,
                           "detail": "cycle avoiding the start vertex"})
    for v in sorted(others & terminating):
        violations.append({"condition": "L3", "vertex": v,
                           "detail": "non-start vertex permits termination"})
    return LoopReport(not violations, violations)


def loop_subchart_generated(c: Chart, v: int,
                            entry_set: frozenset[Transition]) -> Chart:
    """The subchart traced by paths that begin with an entry-set transition
    from v and continue until v is first reached again.  Not guaranteed to
    be a loop chart."""
    if v not in c.vertices:
        raise UnknownVertex(v)
    if not entry_set:
        raise EmptyEntrySet(v)
    for t in entry_set:
        if t not in c.transitions or t[0] != v:
            raise UnknownVertex(t)
    return _loop_subchart(c, v, entry_set, c.out_index().get)


def _loop_subchart(c: Chart, v: int, entry_set: frozenset[Transition],
                   steps) -> Chart:
    """v, the entry set, and the transitions that `steps` gives from every
    vertex the entries lead to, up to v."""
    inside = reach(steps, [w for _, _, w in entry_set], {v})
    transitions = set(entry_set)
    for x in inside:
        if x != v:
            transitions.update(steps(x) or ())
    vertices = frozenset(inside) | {v}
    return Chart(
        alphabet=c.alphabet,
        start=v,
        vertices=vertices,
        transitions=frozenset(transitions),
        terminating=c.terminating & vertices,
        annotations={x: c.annotations[x] for x in vertices if x in c.annotations},
    )


def eliminate_loop(c: Chart, v: int, entry_set: frozenset[Transition]) -> Chart:
    """Remove the entry transitions, then garbage-collect from the start."""
    report = check_loop_chart(loop_subchart_generated(c, v, entry_set))
    if not report.ok:
        raise NotALoopSubchart(report)
    return reachable(Chart(
        alphabet=c.alphabet,
        start=c.start,
        vertices=c.vertices,
        transitions=c.transitions - entry_set,
        terminating=c.terminating,
        annotations=dict(c.annotations),
    ))


# ---------------------------------------------------------------------------
# the LEE decision

def decide_lee(c: Chart, budget: int = DEFAULT_BUDGET) -> LeeResult:
    """Decide LEE by greedy elimination of maximal loops, without
    backtracking.  Empty-step labels, if present, are treated as ordinary
    labels.

    Call a transition t from v *admissible* when the subchart generated by
    {t} meets L2 and L3 (only L1 may fail).  The subchart generated by an
    entry set at v is the union of the subcharts generated by its single
    transitions.  A cycle that avoids v, or a terminating vertex other
    than v, lies inside one of those subcharts, since every vertex of such
    a cycle is reached from the others without passing v.  So an entry set
    meets L2 and L3 iff all its transitions are admissible, and the set of
    all admissible transitions at v, the *maximal entry set*, is a loop
    entry iff its subchart also meets L1, that is, iff some admissible
    transition leads back to v.  `_maximal_loop` finds it for all of v's
    transitions in one linear pass.

    Greedy elimination is sound because the order of loop eliminations
    does not affect whether LEE holds (C. Grabmayer and W. Fokkink, "A
    complete proof system for 1-free regular expressions modulo
    bisimilarity", LICS 2020, arXiv:2004.12740): if some elimination run
    ends in a chart without infinite paths, then so does every run that
    goes on eliminating loops while there are any.  So the chart has LEE
    iff the greedy run ends without infinite paths, and LEE fails as soon
    as no vertex has a loop.

    Call a vertex *retired* once it lies in B \\ {v}, where B is the body
    (the vertex set) of a loop eliminated at v.  Each round scans the live
    vertices in order, skips the retired ones, and eliminates the maximal
    loop at every other vertex that has one, retiring its body.  So no step
    eliminates at a retired vertex, and the recording of the trace is a
    layered witness: an entry at a vertex of B \\ {v} was eliminated
    before the loop at v, so its level is lower (W3); every transition from
    B \\ {v} stays a body step, so the subchart the loop generates in the
    recording is the one its elimination checked (W2); and the run ends
    without cycles, while every vertex an elimination cuts off from the
    start lies in B \\ {v}, which holds no cycle avoiding v (W1).

    A scan that eliminates nothing ends the run with "fails", since then no
    live vertex has a loop:
    - Lemma: if the elimination of a loop at v retired u, and u has a loop
      now, so does v.  All that u reaches without passing v lay in that
      loop's body, so it holds no cycle and no terminating vertex but v
      (L2, L3), and it still does, as transitions have only been removed
      since.  So every cycle through u passes v.  Say v steps to x, and x
      reaches, without passing v, a cycle or a terminating vertex other
      than v.  If u lies on that path or cycle, the above excludes it.  If
      not, x lies in the subchart generated by an entry of u's loop that
      leads back to u, since v lies on the way back, and so does the path:
      L2 or L3 of u's loop excludes it.  So every step of v is admissible,
      one leads back to v through u, and v has a loop.
    - Retirement is well-founded: a scan skips retired vertices, so the
      vertex that retired u was not retired then, and can only have been
      retired later.
    - Say a scan eliminated nothing, and a live vertex has a loop.  Going
      from it to the vertex that retired it, while there is one, ends at a
      vertex that is not retired and, by the lemma, has a loop.  It is
      live, as each vertex on the way lies on a cycle through the one
      before.  The scan left the chart as it was, so it met that vertex
      and eliminated its loop, a contradiction.

    A run edits a copy of the chart's adjacency, of which only the part
    reachable from the start counts.  Each elimination checks L1-L3 on it,
    with v's transitions cut down to the entries, as `eliminate_loop`
    checks the loop subchart, and then drops the entries from v's list.
    One depth-first walk from the start per round finds the live vertices
    and whether a cycle remains among them.

    The budget bounds the search: each vertex pass costs one unit, and so
    does each loop elimination, with its check.  Exceeding it raises
    SearchBudgetExceeded."""
    # the lists are replaced, never modified, so the chart's stay intact
    index = dict(c.out_index())
    out = index.get
    terminating = c.terminating
    retired: set[int] = set()
    steps: list[EliminationStep] = []
    rounds = passes = eliminations = 0
    live, cyclic, _ = walk(out, [c.start])
    while cyclic:
        rounds += 1
        eliminated = eliminations
        for v in sorted(live):
            if v in retired:
                continue
            if passes + eliminations >= budget:
                raise SearchBudgetExceeded(budget)
            passes += 1
            loop = _maximal_loop(out, terminating, v)
            if loop is None:
                continue
            if passes + eliminations >= budget:
                raise SearchBudgetExceeded(budget)
            eliminations += 1
            entry_set, body = loop
            kept = index[v]
            # with only the entries left at v, the part from v is the loop subchart
            index[v] = [t for t in kept if t in entry_set]
            report = _loop_report(out, v, terminating)
            if not report.ok:
                raise NotALoopSubchart(report)
            index[v] = [t for t in kept if t not in entry_set]
            steps.append(EliminationStep(v, entry_set))
            retired.update(body - {v})
        if eliminations == eliminated:
            return LeeResult(False, None, rounds, passes, eliminations)
        live, cyclic, _ = walk(out, [c.start])
    return LeeResult(True, EliminationTrace(steps), rounds, passes, eliminations)


def _maximal_loop(out, terminating: frozenset[int], v: int
                  ) -> Optional[tuple[frozenset[Transition], frozenset[int]]]:
    """The maximal entry set at v and its body, the vertex set of the
    subchart it generates, or None when that set is no loop entry, in the
    chart of transitions `out` and terminating vertices `terminating`.

    A transition (v, a, w) with w != v is admissible iff w reaches, without
    passing v, no cycle and no terminating vertex: one `doomed` pass from
    v's targets finds the blocked ones and explores the others in full.
    If it never meets v, v has no loop; if nothing is blocked, it visited
    the body.  At most linear in the region v's targets reach without
    passing v."""
    ts = out(v) or ()
    blocked, met = doomed(out, [w for _, _, w in ts], {v}, terminating)
    if v not in met:
        return None
    entries = frozenset(t for t in ts if t[2] not in blocked)
    if len(entries) == len(ts):
        return entries, frozenset(met)
    body = frozenset(reach(out, [w for _, _, w in entries], {v}))
    return (entries, body) if v in body else None


def recording_labeling(c: Chart, trace: EliminationTrace) -> EntryBodyLabeling:
    """Replay the trace on c; transitions removed at step k are marked k,
    everything else is body."""
    marking = {t: 0 for t in c.transitions}
    current = reachable(c)
    for index, step in enumerate(trace.steps, start=1):
        missing = step.entry_set - current.transitions
        if missing:
            raise TraceReplayError(index, f"transitions no longer present: {sorted(missing)}")
        try:
            current = eliminate_loop(current, step.vertex, step.entry_set)
        except NotALoopSubchart as err:
            raise TraceReplayError(index, str(err)) from err
        for t in step.entry_set:
            marking[t] = index
    return EntryBodyLabeling(c, marking)


# ---------------------------------------------------------------------------
# witness validation

def entries_of(labeling: EntryBodyLabeling) -> set[tuple[int, int]]:
    """All (vertex, level) with an entry transition of that level departing."""
    return {(t[0], m) for t, m in labeling.marking.items() if m >= 1}


def _body_out(c: Chart, marking: dict[Transition, int]) -> dict[int, list[Transition]]:
    """Each vertex's outgoing body (marking 0) transitions, sorted."""
    return {v: [t for t in ts if marking[t] == 0] for v, ts in c.out_index().items()}


def validate_llee(labeling: EntryBodyLabeling) -> WitnessReport:
    """The direct witness conditions: W1 body-step termination, W2 each
    entry identifier generates a loop chart, W3 layeredness.  Empty-step
    transitions participate through their markings."""
    c = reachable(labeling.chart)
    marking = {t: m for t, m in labeling.marking.items() if t in c.transitions}
    violations = []

    body_steps = _body_out(c, marking).get
    cycle = walk(body_steps, sorted(c.vertices))[2]
    if cycle is not None:
        violations.append({"condition": "W1", "cycle": cycle,
                           "detail": "infinite body-step path"})

    # the structure generated by (v, level): a level entry from v, then body
    # transitions only, halting when v is revisited
    for v, level in sorted({(t[0], m) for t, m in marking.items() if m >= 1}):
        entry_set = frozenset(t for t in c.out(v) if marking[t] == level)
        generated = _loop_subchart(c, v, entry_set, body_steps)
        inner = check_loop_chart(generated)
        if not inner.ok:
            violations.append({"condition": "W2", "entry": [v, level],
                               "detail": [x["condition"] for x in inner.violations]})
        for w in sorted(generated.vertices - {v}):
            for t in c.out(w):
                if marking[t] >= level:
                    violations.append({
                        "condition": "W3", "entry": [v, level],
                        "transition": list(t), "level": marking[t],
                        "detail": "inner entry level not below the outer level"})
    return WitnessReport(not violations, violations)


def validate_llee_alt(labeling: EntryBodyLabeling) -> WitnessReport:
    """The four equivalent path-based conditions, checked independently:
    (1) each entry identifier admits an entry that loops back to its source
        through body steps;
    (2) body steps terminate from every vertex;
    (3) vertices reached by an entry then body steps, avoiding the source
        as a target, never permit termination;
    (4) entries departing from such vertices have strictly smaller level."""
    c = reachable(labeling.chart)
    marking = {t: m for t, m in labeling.marking.items() if t in c.transitions}
    violations = []

    body_steps = _body_out(c, marking).get
    if walk(body_steps, sorted(c.vertices))[1]:
        violations.append({"condition": "LLEE2",
                           "detail": "body steps do not terminate"})

    # (1) whenever (source, level) has entries, some level entry followed by
    # body steps leads back to the source
    for source, level in sorted({(t[0], m) for t, m in marking.items() if m >= 1}):
        firsts = [t[2] for t in c.out(source) if marking[t] == level]
        if not any(source in reach(body_steps, [first]) for first in firsts):
            violations.append({"condition": "LLEE1", "entry": [source, level],
                               "detail": "no entry loops back to the source "
                                         "through body steps"})

    for t, level in sorted(marking.items()):
        if level == 0:
            continue
        source, _, first = t

        # vertices reachable from the entry by body steps avoiding the
        # source as a target
        avoiding = set(reach(body_steps, [first], {source}))
        avoiding.discard(source)
        for w in sorted(avoiding):
            if w in c.terminating:
                violations.append({"condition": "LLEE3", "transition": list(t),
                                   "vertex": w,
                                   "detail": "termination strictly inside the loop"})
            for t2 in c.out(w):
                m2 = marking[t2]
                if m2 >= level:
                    violations.append({"condition": "LLEE4", "transition": list(t),
                                       "inner": list(t2), "level": m2,
                                       "detail": "inner entry level not below the outer level"})
    return WitnessReport(not violations, violations)
