"""Operational semantics of star expressions.

Two step systems, both executable:

* plain steps on StarExpr (the classical process semantics);
* marked stacked steps on stacked expressions, plain ones included
  (``labeled_steps_stacked``): leaving a star body back to the iteration
  takes an empty step (label "1"), and unfolding a star whose body is
  normed+ is an entry of level the star's height, every other step a body
  step.  ``steps_stacked`` is this one walker without the markings, which
  mark each (label, target) pair once.

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

Interpretations close an expression under the respective steps
(breadth-first, dense vertex ids in discovery order).  `_close` returns only
each vertex's expression, the expression -> id map and the structure
(``Closure.structure``): ints and label strings, which the P1 and P2 verdict
caches of ``cli`` take as keys and read without any chart.  One function,
`from_structure`, turns a structure into a chart; ``chart_of`` and its
siblings build theirs on first use and keep it with its closure.  The two
most recent closures are kept (``functools.lru_cache(maxsize=2)``); the
1-chart and the labeled 1-chart are one closure.  What they return is shared
with every caller for the same expression: do not modify it.  Once the next
expression has been closed both ways, the previous one's nodes can die.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .charts import EMPTY, Chart, EntryBodyLabeling, reach
from .syntax import (
    Act, One, Prod, SProd, SStack, Star, Stacked, StarExpr, StackedExpr, Sum,
    actions_of, bottom_up, render, sprod,
)

BODY = 0


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
    """E's marked steps, a set with no (label, target) pair marked twice.

    Lemma: if a target of a step of f is a product layer (`Prod` or
    `SProd`), its right factor is a proper subterm of f.  By induction over
    the cases below: `Act` steps to 1, a `Sum` to its branches' targets,
    `Prod(g, h)` to sprod(H, h) or to h's targets, a `Star` to `SStack`s,
    `SStack(H, t)` to `SStack(., t)` or to t, a `Star`, and `SProd(H, t)` to
    sprod(., t).

    Theorem: no (label, target) pair gets two markings.  By induction over
    the same cases: a `Sum` marks every step 0 and a `Star` every step with
    one level; `SStack(., t)`, sprod(., h) and `SStack(., E)` are injective,
    as nodes are interned by their children, and an `SStack`'s empty step
    goes to a `Star`.  In `Prod(g, h)` a right step to G could meet a left
    step only if G is sprod(H, h), but by the lemma the right factor of G,
    a target of h, is a proper subterm of h, so it is not h."""
    if isinstance(E, Act):
        return frozenset({(E.name, BODY, One())})
    if isinstance(E, Sum):
        # the sum rule discards the premise marking
        return frozenset((a, BODY, G) for a, _, G in E.left._marked | E.right._marked)
    if isinstance(E, Prod):
        out = {(a, m, sprod(H, E.right)) for a, m, H in E.left._marked}
        return frozenset(out | {(a, BODY, G) for a, _, G in E.right._marked}
                         if E.left.terminates else out)
    if isinstance(E, Star):
        level = E.star_height if E.body.normed_plus else BODY
        return frozenset((a, level, SStack(H, E)) for a, _, H in E.body._marked)
    if isinstance(E, SStack):
        out = {(a, m, SStack(H, E.tail)) for a, m, H in E.head._marked}
        return frozenset(out | {(EMPTY, BODY, E.tail)} if E.head.terminates else out)
    if isinstance(E, SProd):
        # no second-argument steps: a non-plain head never terminates
        return frozenset((a, m, sprod(H, E.tail)) for a, m, H in E.head._marked)
    return frozenset()


def steps_star(e: StarExpr) -> frozenset[tuple[str, StarExpr]]:
    """Plain steps of e."""
    if not isinstance(e, StarExpr):
        raise TypeError(e)
    return bottom_up(e, "_steps", _step_deps, _plain_steps)


def labeled_steps_stacked(E: Stacked) -> frozenset[tuple[str, int, Stacked]]:
    """Stacked steps with their body/entry markings; label "1" is the empty
    step; no (label, target) pair carries two markings (`_marked_steps`)."""
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


def _close(start, step_fn):
    """Breadth-first closure under `step_fn`, whose steps are (label,
    *middle, target): each vertex's expression in id order, the expression
    -> id map, and the structure that `Closure` describes."""
    ids = {start: 0}
    order = [start]
    laid_out = []
    for source, expr in enumerate(order):
        steps = step_fn(expr)
        if len(steps) > 1:
            steps = sorted(steps, key=lambda s: (s[0], render(s[-1])))
        for label, *middle, target in steps:
            if target not in ids:
                if len(ids) >= VERTEX_CAP:
                    raise StateExplosion(f"more than {VERTEX_CAP} vertices")
                ids[target] = len(order)
                order.append(target)
            laid_out += (source, label, ids[target], *middle)
    terminating = tuple(i for i, x in enumerate(order) if x.terminates)
    return order, ids, (len(order), terminating, tuple(laid_out))


@dataclass(slots=True)
class Closure:
    """What `_close` returns and the chart (or labeling) `_built` makes.  The
    structure is the vertex count, the terminating vertices in order and each
    transition's source, label, target (and marking) end to end, as found."""

    exprs: list
    ids: dict
    structure: tuple
    built: Chart | EntryBodyLabeling | None = None


@functools.lru_cache(maxsize=2)
def closure_of(e: StarExpr, step_fn) -> Closure:
    """`e`'s closure under `step_fn`, kept for the two most recent closings;
    shared with every caller for `e`: do not modify it."""
    return Closure(*_close(e, step_fn))


def from_structure(structure: tuple, marked: bool, alphabet=None,
                   annotations=None) -> Chart | EntryBodyLabeling:
    """The chart on vertices 0..size-1, start 0, of a closure's structure
    (`Closure`), or for a marked closure that chart's labeling by the
    markings.  The alphabet defaults to the labels the transitions carry."""
    size, terminating, laid_out = structure
    items = iter(laid_out)
    if marked:
        marking = {(v, label, w): m for v, label, w, m in zip(items, items, items, items)}
    transitions = frozenset(marking if marked else zip(items, items, items))
    if alphabet is None:
        alphabet = frozenset(laid_out[1::4 if marked else 3]) - {EMPTY}
    chart = Chart(frozenset(alphabet), 0, frozenset(range(size)), transitions,
                  frozenset(terminating), annotations or {})
    return EntryBodyLabeling(chart, marking) if marked else chart


def _built(e: StarExpr, step_fn):
    """The chart, or for marked steps the labeling, of `closure_of(e,
    step_fn)` over the actions of `e`, annotated with the vertices' texts,
    built once and shared: do not modify it."""
    closure = closure_of(e, step_fn)
    if closure.built is None:
        closure.built = from_structure(
            closure.structure, step_fn is labeled_steps_stacked, actions_of(e),
            {v: render(x) for v, x in enumerate(closure.exprs)})
    return closure.built


def chart_of(e: StarExpr) -> Chart:
    return _built(e, steps_star)


def chart_of_with_exprs(e: StarExpr) -> tuple[Chart, dict[int, StarExpr]]:
    """The chart interpretation of `e` and each vertex's expression."""
    return chart_of(e), dict(enumerate(closure_of(e, steps_star).exprs))


def onechart_of(e: StarExpr) -> Chart:
    return _built(e, labeled_steps_stacked).chart


def onechart_of_with_exprs(e: StarExpr) -> tuple[Chart, dict[int, Stacked]]:
    """The 1-chart interpretation of `e` (the chart of the labeled one) and
    each vertex's stacked expression."""
    return onechart_of(e), dict(enumerate(closure_of(e, labeled_steps_stacked).exprs))


def labeled_onechart_of(e: StarExpr) -> EntryBodyLabeling:
    return _built(e, labeled_steps_stacked)


def labeled_onechart_of_with_exprs(
        e: StarExpr) -> tuple[EntryBodyLabeling, dict[int, Stacked]]:
    """The marked 1-chart interpretation of `e` and each vertex's stacked
    expression."""
    return (labeled_onechart_of(e),
            dict(enumerate(closure_of(e, labeled_steps_stacked).exprs)))
