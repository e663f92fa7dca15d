"""Operational semantics of star expressions.

Two step systems, both executable:

* plain steps on StarExpr (the classical process semantics);
* marked stacked steps on stacked expressions, plain ones included
  (``labeled_steps_stacked``): leaving a star body back to the iteration
  takes an empty step (label "1"), and unfolding a star whose body is
  normed+ is an entry of level the star's height, every other step a body
  step.  ``steps_stacked`` is this one walker without the markings, so it
  too can raise AmbiguousMarking.

A plain expression is its own 1-chart state, so a plain node carries both
kinds of steps.

Termination, normed, normed+ and star height are measures stored on each
interned node (see ``syntax._Node``).  ``normedness`` computes normed and
normed+ as fixpoints instead: it is the oracle the tests check the stored
measures against, and nothing in the package calls it.

Each node's steps are computed once and kept in a slot, ``_steps`` for the
plain steps and ``_marked`` for the marked ones: ``syntax.bottom_up`` fills
the slots of exactly the nodes a rule reads, dependencies first, so no rule
recurses and nesting depth is unbounded.

Interpretation builders close an expression under the respective steps into
a finite chart (breadth-first, dense vertex ids in discovery order).  The
two most recent closures are kept (``functools.lru_cache(maxsize=2)``): the
1-chart and the labeled 1-chart are one closure, so an expression's chart
and labeled 1-chart, the two closures the P1 and P2 checks read, are each
built once.  The charts and mappings the builders return are shared with
every caller for the same expression: do not modify them.  Once the next
expression has been closed both ways, nothing holds the previous one, and
its nodes die.
"""

from __future__ import annotations

import functools

from .charts import EMPTY, Chart, EntryBodyLabeling, reach
from .syntax import (
    Act, One, Prod, SProd, SStack, Star, Stacked, StarExpr, StackedExpr, Sum,
    actions_of, bottom_up, render, sprod,
)

BODY = 0


class AmbiguousMarking(Exception):
    """Two derivations assign different markings to the same step."""


class StateExplosion(Exception):
    """Interpretation exceeded the vertex cap; indicates a bug."""


# ---------------------------------------------------------------------------
# step rules: each reads the slot it fills on the nodes `_step_deps` lists

def _step_deps(node) -> tuple:
    """The nodes whose steps the step rules for `node` read."""
    if isinstance(node, (SProd, SStack)):
        return (node.head,)
    if isinstance(node, Sum):
        return node.left, node.right
    if isinstance(node, Prod):
        return (node.left, node.right) if node.left.terminates else (node.left,)
    return (node.body,) if isinstance(node, Star) else ()


def _plain_steps(e: StarExpr) -> frozenset[tuple[str, StarExpr]]:
    if isinstance(e, Act):
        return frozenset({(e.name, One())})
    if isinstance(e, Sum):
        return e.left._steps | e.right._steps
    if isinstance(e, Prod):
        out = {(a, Prod(e1, e.right)) for a, e1 in e.left._steps}
        return frozenset(out | e.right._steps if e.left.terminates else out)
    if isinstance(e, Star):
        return frozenset((a, Prod(e1, e)) for a, e1 in e.body._steps)
    return frozenset()


def _marked_steps(E: Stacked) -> frozenset[tuple[str, int, Stacked]]:
    markings: dict[tuple[str, Stacked], int] = {}

    def record(label: str, marking: int, target: Stacked) -> None:
        key = (label, target)
        old = markings.get(key)
        if old is not None and old != marking:
            raise AmbiguousMarking(
                f"step {render(E)} --{label}--> {render(target)} "
                f"marked both {old} and {marking}")
        markings[key] = marking

    if isinstance(E, Act):
        record(E.name, BODY, One())
    elif isinstance(E, Sum):
        # the sum rule discards the premise marking
        for branch in (E.left, E.right):
            for label, _, G in branch._marked:
                record(label, BODY, G)
    elif isinstance(E, Prod):
        for label, m, H in E.left._marked:
            record(label, m, sprod(H, E.right))
        if E.left.terminates:
            for label, _, G in E.right._marked:
                record(label, BODY, G)
    elif isinstance(E, Star):
        level = E.star_height if E.body.normed_plus else BODY
        for label, _, H in E.body._marked:
            record(label, level, SStack(H, E))
    elif isinstance(E, (SProd, SStack)):
        layer = SStack if isinstance(E, SStack) else sprod
        for label, m, H in E.head._marked:
            record(label, m, layer(H, E.tail))
        # a product has no second-argument steps: a non-plain head never
        # terminates
        if isinstance(E, SStack) and E.head.terminates:
            record(EMPTY, BODY, E.tail)
    return frozenset((label, m, G) for (label, G), m in markings.items())


def steps_star(e: StarExpr) -> frozenset[tuple[str, StarExpr]]:
    """Plain steps of e."""
    if not isinstance(e, StarExpr):
        raise TypeError(e)
    return bottom_up(e, "_steps", _step_deps, _plain_steps)


def labeled_steps_stacked(E: Stacked) -> frozenset[tuple[str, int, Stacked]]:
    """Stacked steps with their body/entry markings; label "1" is the empty
    step.

    Raises AmbiguousMarking if one (label, target) pair would carry two
    distinct markings.
    """
    if not isinstance(E, (StarExpr, StackedExpr)):
        raise TypeError(E)
    return bottom_up(E, "_marked", _step_deps, _marked_steps)


def steps_stacked(E: Stacked) -> frozenset[tuple[str, Stacked]]:
    """All steps of E, the marked steps without their markings; label "1" is
    the empty step."""
    return frozenset((label, G) for label, _, G in labeled_steps_stacked(E))


# ---------------------------------------------------------------------------
# normedness oracle

def normedness(E: Stacked) -> dict[Stacked, tuple[bool, bool]]:
    """(normed, normed_plus) of every expression in the sub-system that E
    generates, as fixpoints over its steps: the oracle for the ``normed``
    and ``normed_plus`` measures stored on the nodes, which agree with it on
    every state reachable from a plain expression.

    normed: some step path reaches a terminating expression.

    normed_plus: some induced-transition path of positive length reaches an
    expression with induced termination (termination through empty steps).
    """
    states = set(reach(steps_stacked, [E]))
    term = {F for F in states if F.terminates}

    def least(seed, holds) -> set[Stacked]:
        """The least superset of seed that holds(F, set) adds no state to."""
        found = set(seed)
        changed = True
        while changed:
            changed = False
            for F in states:
                if F not in found and holds(F, found):
                    found.add(F)
                    changed = True
        return found

    # termination / induced termination reachable through empty steps only
    ind_term = least(term, lambda F, found: any(
        label == EMPTY and G in found for label, G in steps_stacked(F)))

    # induced transitions: empty steps, then one proper step
    empty_steps = {F: [s for s in steps_stacked(F) if s[0] == EMPTY] for F in states}
    induced_succ: dict[Stacked, set[Stacked]] = {}
    for F in states:
        closure = reach(empty_steps.get, [F])
        induced_succ[F] = {
            G for F1 in closure for label, G in steps_stacked(F1) if label != EMPTY
        }

    normed = least(term, lambda F, found: any(G in found for _, G in steps_stacked(F)))
    normed_plus = least((), lambda F, found: any(
        G in ind_term or G in found for G in induced_succ[F]))
    return {F: (F in normed, F in normed_plus) for F in states}


# ---------------------------------------------------------------------------
# entry shape

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


def entry_shape_ok(E: Stacked, label: str, level: int,
                   target: Stacked) -> bool:
    """An entry of level n from E must unfold some star g* inside E with
    n = |g| + 1, the body g normed+, and the target the same position
    descended into the star body."""
    for layers, star in star_decompositions(E):
        if star.star_height != level or not star.body.normed_plus:
            continue
        for l2, H in steps_stacked(star.body):
            if l2 == label and _refill(layers, SStack(H, star)) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# interpretations

VERTEX_CAP = 100_000


def _close(start, step_fn, alphabet):
    """Breadth-first closure under `step_fn`, whose steps are (label,
    *middle, target); returns (Chart, id -> expression, transition -> middle)."""
    ids = {start: 0}
    order = [start]
    middles = {}
    index = 0
    while index < len(order):
        source = order[index]
        index += 1
        for label, *middle, target in sorted(step_fn(source), key=lambda s: (s[0], render(s[-1]))):
            if target not in ids:
                if len(ids) >= VERTEX_CAP:
                    raise StateExplosion(f"more than {VERTEX_CAP} vertices")
                ids[target] = len(order)
                order.append(target)
            middles[(ids[source], label, ids[target])] = middle
    chart = Chart(
        alphabet=frozenset(alphabet),
        start=0,
        vertices=frozenset(range(len(order))),
        transitions=frozenset(middles),
        terminating=frozenset(ids[x] for x in order if x.terminates),
        annotations={ids[x]: render(x) for x in order},
    )
    return chart, dict(enumerate(order)), middles


@functools.lru_cache(maxsize=2)
def _closure(e: StarExpr, step_fn):
    """`_close(e, step_fn, ...)`, kept for the two most recent closings."""
    return _close(e, step_fn, actions_of(e))


def chart_of(e: StarExpr) -> Chart:
    return chart_of_with_exprs(e)[0]


def chart_of_with_exprs(e: StarExpr) -> tuple[Chart, dict[int, StarExpr]]:
    """The chart interpretation of `e` and each vertex's expression.  Both
    are shared with the other callers for `e`: do not modify them."""
    return _closure(e, steps_star)[:2]


def onechart_of(e: StarExpr) -> Chart:
    return onechart_of_with_exprs(e)[0]


def onechart_of_with_exprs(e: StarExpr) -> tuple[Chart, dict[int, Stacked]]:
    """The 1-chart interpretation of `e` (the chart of the labeled one) and
    each vertex's stacked expression; shared: do not modify them."""
    return _closure(e, labeled_steps_stacked)[:2]


def labeled_onechart_of(e: StarExpr) -> EntryBodyLabeling:
    return labeled_onechart_of_with_exprs(e)[0]


def labeled_onechart_of_with_exprs(
        e: StarExpr) -> tuple[EntryBodyLabeling, dict[int, Stacked]]:
    """The marked 1-chart interpretation of `e` and each vertex's stacked
    expression.  The chart and the expressions are shared: do not modify
    them."""
    chart, exprs, middles = _closure(e, labeled_steps_stacked)
    return EntryBodyLabeling(chart, {t: m for t, (m,) in middles.items()}), exprs
