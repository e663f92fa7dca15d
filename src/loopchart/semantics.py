"""Operational semantics of star expressions.

Three step systems, all executable:

* plain steps/termination on StarExpr (the classical process semantics);
* stacked steps/termination on StackedExpr, where leaving a star body back
  to the iteration takes an empty step (label "1");
* the marked variant that decorates each stacked step with a body/entry
  marking (entry level = star height of the star being unfolded), guarded
  by the normed+ side condition.

Interpretation builders close an expression under the respective steps into
a finite chart (breadth-first, dense vertex ids in discovery order).
"""

from __future__ import annotations

from typing import Union

from .charts import EMPTY, Chart, EntryBodyLabeling
from .syntax import (
    Act, One, Plain, Prod, SProd, SStack, Star, StarExpr, StackedExpr, Sum,
    Zero, actions_of, render, sprod, star_height,
)

BODY = 0


class AmbiguousMarking(Exception):
    """Two derivations assign different markings to the same step."""


class StateExplosion(Exception):
    """Interpretation exceeded the vertex cap; indicates a bug."""


# ---------------------------------------------------------------------------
# plain steps (on StarExpr)

_TERM_CACHE: dict[StarExpr, bool] = {}
_STEP_CACHE: dict[StarExpr, frozenset] = {}


def terminates_star(e: StarExpr) -> bool:
    cached = _TERM_CACHE.get(e)
    if cached is not None:
        return cached
    if isinstance(e, (Zero, Act)):
        result = False
    elif isinstance(e, (One, Star)):
        result = True
    elif isinstance(e, Sum):
        result = terminates_star(e.left) or terminates_star(e.right)
    elif isinstance(e, Prod):
        result = terminates_star(e.left) and terminates_star(e.right)
    else:
        raise TypeError(e)
    _TERM_CACHE[e] = result
    return result


def steps_star(e: StarExpr) -> frozenset[tuple[str, StarExpr]]:
    cached = _STEP_CACHE.get(e)
    if cached is not None:
        return cached
    out: set[tuple[str, StarExpr]] = set()
    if isinstance(e, Act):
        out.add((e.name, One()))
    elif isinstance(e, Sum):
        out |= steps_star(e.left)
        out |= steps_star(e.right)
    elif isinstance(e, Prod):
        for a, e1 in steps_star(e.left):
            out.add((a, Prod(e1, e.right)))
        if terminates_star(e.left):
            out |= steps_star(e.right)
    elif isinstance(e, Star):
        for a, e1 in steps_star(e.body):
            out.add((a, Prod(e1, e)))
    result = frozenset(out)
    _STEP_CACHE[e] = result
    return result


# ---------------------------------------------------------------------------
# stacked steps (on StackedExpr)

_SSTEP_CACHE: dict[StackedExpr, frozenset] = {}


def terminates_stacked(E: StackedExpr) -> bool:
    # only plain expressions may terminate; E * e* never does
    return isinstance(E, Plain) and terminates_star(E.expr)


def steps_stacked(E: StackedExpr) -> frozenset[tuple[str, StackedExpr]]:
    """All steps of E; label "1" is the empty step."""
    cached = _SSTEP_CACHE.get(E)
    if cached is not None:
        return cached
    out: set[tuple[str, StackedExpr]] = set()
    if isinstance(E, Plain):
        e = E.expr
        if isinstance(e, Act):
            out.add((e.name, Plain(One())))
        elif isinstance(e, Sum):
            out |= steps_stacked(Plain(e.left))
            out |= steps_stacked(Plain(e.right))
        elif isinstance(e, Prod):
            for label, H in steps_stacked(Plain(e.left)):
                out.add((label, sprod(H, e.right)))
            if terminates_star(e.left):
                out |= steps_stacked(Plain(e.right))
        elif isinstance(e, Star):
            for label, H in steps_stacked(Plain(e.body)):
                out.add((label, SStack(H, e)))
    elif isinstance(E, SProd):
        for label, H in steps_stacked(E.head):
            out.add((label, sprod(H, E.tail)))
        # no second-argument steps: a non-plain head never terminates
    elif isinstance(E, SStack):
        for label, H in steps_stacked(E.head):
            out.add((label, SStack(H, E.tail)))
        if terminates_stacked(E.head):
            out.add((EMPTY, Plain(E.tail)))
    else:
        raise TypeError(E)
    result = frozenset(out)
    _SSTEP_CACHE[E] = result
    return result


# ---------------------------------------------------------------------------
# normedness

_NORMED_CACHE: dict[StackedExpr, dict[str, bool]] = {}


def normedness(E: StackedExpr) -> dict[str, bool]:
    """normed: some step path reaches a terminating expression.

    normed_plus: some induced-transition path of positive length reaches an
    expression with induced termination (termination through empty steps).
    Both are fixpoints over the finite sub-system generated by E.
    """
    cached = _NORMED_CACHE.get(E)
    if cached is not None:
        return cached

    states = _generated(E)
    term = {F for F in states if terminates_stacked(F)}

    # termination / induced termination reachable through empty steps only
    ind_term = set(term)
    changed = True
    while changed:
        changed = False
        for F in states:
            if F not in ind_term and any(
                    label == EMPTY and G in ind_term for label, G in steps_stacked(F)):
                ind_term.add(F)
                changed = True

    # induced transitions: empty steps, then one proper step
    induced_succ: dict[StackedExpr, set[StackedExpr]] = {}
    for F in states:
        closure = _empty_closure(F)
        induced_succ[F] = {
            G for F1 in closure for label, G in steps_stacked(F1) if label != EMPTY
        }

    normed = set(term)
    changed = True
    while changed:
        changed = False
        for F in states:
            if F not in normed and any(G in normed for _, G in steps_stacked(F)):
                normed.add(F)
                changed = True

    normed_plus: set[StackedExpr] = set()
    changed = True
    while changed:
        changed = False
        for F in states:
            if F not in normed_plus and any(
                    G in ind_term or G in normed_plus for G in induced_succ[F]):
                normed_plus.add(F)
                changed = True

    for F in states:
        _NORMED_CACHE[F] = {"normed": F in normed, "normed_plus": F in normed_plus}
    return _NORMED_CACHE[E]


def _generated(E: StackedExpr) -> set[StackedExpr]:
    seen = {E}
    queue = [E]
    while queue:
        F = queue.pop()
        for _, G in steps_stacked(F):
            if G not in seen:
                seen.add(G)
                queue.append(G)
    return seen


def _empty_closure(E: StackedExpr) -> set[StackedExpr]:
    seen = {E}
    queue = [E]
    while queue:
        F = queue.pop()
        for label, G in steps_stacked(F):
            if label == EMPTY and G not in seen:
                seen.add(G)
                queue.append(G)
    return seen


# ---------------------------------------------------------------------------
# marked stacked steps

_LSTEP_CACHE: dict[StackedExpr, frozenset] = {}


def labeled_steps_stacked(E: StackedExpr) -> frozenset[tuple[str, int, StackedExpr]]:
    """Stacked steps with their body/entry markings.

    Raises AmbiguousMarking if one (label, target) pair would carry two
    distinct markings.
    """
    cached = _LSTEP_CACHE.get(E)
    if cached is not None:
        return cached
    markings: dict[tuple[str, StackedExpr], int] = {}

    def record(label: str, marking: int, target: StackedExpr) -> None:
        key = (label, target)
        old = markings.get(key)
        if old is not None and old != marking:
            raise AmbiguousMarking(
                f"step {render(E)} --{label}--> {render(target)} "
                f"marked both {old} and {marking}")
        markings[key] = marking

    if isinstance(E, Plain):
        e = E.expr
        if isinstance(e, Act):
            record(e.name, BODY, Plain(One()))
        elif isinstance(e, Sum):
            # the sum rule discards the premise marking
            for branch in (e.left, e.right):
                for label, _, G in labeled_steps_stacked(Plain(branch)):
                    record(label, BODY, G)
        elif isinstance(e, Prod):
            for label, m, H in labeled_steps_stacked(Plain(e.left)):
                record(label, m, sprod(H, e.right))
            if terminates_star(e.left):
                for label, _, G in labeled_steps_stacked(Plain(e.right)):
                    record(label, BODY, G)
        elif isinstance(e, Star):
            if normedness(Plain(e.body))["normed_plus"]:
                level = star_height(e)
            else:
                level = BODY
            for label, _, H in labeled_steps_stacked(Plain(e.body)):
                record(label, level, SStack(H, e))
    elif isinstance(E, SProd):
        for label, m, H in labeled_steps_stacked(E.head):
            record(label, m, sprod(H, E.tail))
    elif isinstance(E, SStack):
        for label, m, H in labeled_steps_stacked(E.head):
            record(label, m, SStack(H, E.tail))
        if terminates_stacked(E.head):
            record(EMPTY, BODY, Plain(E.tail))
    else:
        raise TypeError(E)

    result = frozenset((label, m, G) for (label, G), m in markings.items())
    unmarked = frozenset((label, G) for label, _, G in result)
    assert unmarked == steps_stacked(E), "marked steps diverge from unmarked steps"
    _LSTEP_CACHE[E] = result
    return result


# ---------------------------------------------------------------------------
# entry shape

def star_decompositions(E: StackedExpr):
    """All ways to write E as layers around a plain star: peel the stacked
    layers, then left factors of the plain core (a product layer over a
    plain head is itself a plain product)."""
    layers: list[tuple[str, StarExpr]] = []
    while isinstance(E, (SProd, SStack)):
        layers.append(("stack" if isinstance(E, SStack) else "prod", E.tail))
        E = E.head
    core = E.expr
    results = []
    while True:
        if isinstance(core, Star):
            results.append((list(layers), core))
        if isinstance(core, Prod):
            layers.append(("prod", core.right))
            core = core.left
        else:
            return results


def _refill(layers, core: StackedExpr) -> StackedExpr:
    for kind, tail in reversed(layers):
        core = SStack(core, tail) if kind == "stack" else sprod(core, tail)
    return core


def entry_shape_ok(E: StackedExpr, label: str, level: int,
                   target: StackedExpr) -> bool:
    """An entry of level n from E must unfold some star g* inside E with
    n = |g| + 1, the body g normed+, and the target the same position
    descended into the star body."""
    for layers, star in star_decompositions(E):
        if star_height(star) != level:
            continue
        if not normedness(Plain(star.body))["normed_plus"]:
            continue
        for l2, H in steps_stacked(Plain(star.body)):
            if l2 == label and _refill(layers, SStack(H, star)) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# interpretations

VERTEX_CAP = 100_000


def _close(start, step_fn, term_fn, alphabet, cap: int):
    """Breadth-first closure; returns (Chart, id -> expression)."""
    ids = {start: 0}
    order = [start]
    transitions = set()
    index = 0
    while index < len(order):
        source = order[index]
        index += 1
        for label, target in sorted(step_fn(source), key=lambda s: (s[0], render(s[1]))):
            if target not in ids:
                if len(ids) >= cap:
                    raise StateExplosion(f"more than {cap} vertices")
                ids[target] = len(order)
                order.append(target)
            transitions.add((ids[source], label, ids[target]))
    chart = Chart(
        alphabet=frozenset(alphabet),
        start=0,
        vertices=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        terminating=frozenset(ids[x] for x in order if term_fn(x)),
        annotations={ids[x]: render(x) for x in order},
    )
    return chart, dict(enumerate(order))


def chart_of(e: StarExpr, cap: int = VERTEX_CAP) -> Chart:
    return chart_of_with_exprs(e, cap)[0]


def chart_of_with_exprs(e: StarExpr, cap: int = VERTEX_CAP) -> tuple[Chart, dict[int, StarExpr]]:
    return _close(e, steps_star, terminates_star, actions_of(e), cap)


def onechart_of(e: StarExpr, cap: int = VERTEX_CAP) -> Chart:
    return onechart_of_with_exprs(e, cap)[0]


def onechart_of_with_exprs(e: StarExpr, cap: int = VERTEX_CAP) -> tuple[Chart, dict[int, StackedExpr]]:
    return _close(Plain(e), steps_stacked, terminates_stacked, actions_of(e), cap)


def labeled_onechart_of(e: StarExpr, cap: int = VERTEX_CAP) -> EntryBodyLabeling:
    return labeled_onechart_of_with_exprs(e, cap)[0]


def labeled_onechart_of_with_exprs(
        e: StarExpr, cap: int = VERTEX_CAP) -> tuple[EntryBodyLabeling, dict[int, StackedExpr]]:
    chart, exprs = onechart_of_with_exprs(e, cap)
    back = {E: vid for vid, E in exprs.items()}
    marking: dict[tuple[int, str, int], int] = {}
    for vid, E in exprs.items():
        for label, m, target in labeled_steps_stacked(E):
            marking[(vid, label, back[target])] = m
    assert set(marking) == set(chart.transitions)
    return EntryBodyLabeling(chart, marking), exprs
