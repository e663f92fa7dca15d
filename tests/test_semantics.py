"""The step systems, normedness, markings, and the interpretation builders."""

import pytest
from hypothesis import given, settings, strategies as st

from loopchart import cli, semantics
from loopchart.charts import EMPTY
from loopchart.semantics import (
    chart_of, labeled_onechart_of, labeled_steps_stacked, normedness,
    onechart_of, steps_stacked, steps_star,
)
from loopchart.syntax import (
    Act, One, Prod, SProd, SStack, Star, StarExpr, Sum, Zero, actions_of,
    parse_star_expr, project, render, sprod,
)


def test_terminates_star():
    assert One().terminates
    assert not Zero().terminates
    assert not Act("a").terminates
    assert parse_star_expr("(a.b)*").terminates
    assert parse_star_expr("0 + 1").terminates
    assert not parse_star_expr("1.0").terminates


def test_steps_star():
    assert steps_star(Act("a")) == {("a", One())}
    assert steps_star(Zero()) == frozenset()
    e = parse_star_expr("(a*.b*)*")
    e1 = parse_star_expr("((1.a*).b*).(a*.b*)*")
    e2 = parse_star_expr("(1.b*).(a*.b*)*")
    assert steps_star(e) == {("a", e1), ("b", e2)}


@pytest.mark.parametrize("plain_first", [True, False])
def test_plain_node_keeps_both_kinds_of_steps(plain_first):
    """A plain expression is its own 1-chart state: its plain and marked
    steps live in two slots of the same node, whichever is filled first,
    and the marked steps project onto the plain ones."""
    # action names of their own, so that no other test has filled the slots
    a, b, c = ("pa", "pb", "pc") if plain_first else ("ma", "mb", "mc")
    texts = [a, f"{a}*.{b}", f"({a}.{b}*)*.({c} + 1)", f"(({a}*)*.{b})*",
             f"(1 + {a}*)*.0"]
    for e in map(parse_star_expr, texts):
        assert e._steps is None and e._marked is None
        if plain_first:
            plain, marked = steps_star(e), labeled_steps_stacked(e)
        else:
            marked, plain = labeled_steps_stacked(e), steps_star(e)
        assert {(label, project(G)) for label, _, G in marked} == plain
    with pytest.raises(TypeError):
        steps_star(SStack(One(), Star(Act("a"))))


def test_plain_expression_is_its_own_onechart_state():
    for text in ("a", "(a*.b*)*", "(a.b*)*.(c + 1)", "((a*)*.b)*"):
        e = parse_star_expr(text)
        _, exprs = semantics.onechart_of_with_exprs(e)
        assert exprs[0] is e
        for x in exprs.values():
            if isinstance(x, StarExpr):
                assert project(x) is x


def test_chart_of_one():
    c = chart_of(One())
    assert len(c.vertices) == 1
    assert c.terminating == frozenset({0})
    assert not c.transitions


def test_chart_of_g0(chart_g0):
    assert len(chart_g0.vertices) == 3
    assert len(chart_g0.transitions) == 5
    assert not chart_g0.terminating
    assert chart_g0.transitions == frozenset(
        {(0, "a", 1), (1, "a", 2), (1, "c", 0), (2, "b", 0), (2, "b", 1)})


def test_chart_of_f(chart_f):
    assert len(chart_f.vertices) == 5
    assert len(chart_f.transitions) == 15
    assert not chart_f.terminating


def test_terminates_stacked():
    assert parse_star_expr("(a*.b*)*").terminates
    assert not SStack(One(), Star(Act("a"))).terminates
    assert not parse_star_expr("1.0").terminates


def test_steps_stacked_sstack_one_rule():
    E = SStack(One(), Star(Act("a")))
    assert steps_stacked(E) == {(EMPTY, Star(Act("a")))}


def test_onechart_of_e(e_expr):
    c = onechart_of(e_expr)
    assert len(c.vertices) == 5
    assert len(c.transitions) == 9
    assert len(c.one_transitions) == 4
    assert c.terminating == frozenset({0})  # only e itself


def test_onechart_of_f(f_expr):
    c = onechart_of(f_expr)
    assert len(c.vertices) == 5
    assert len(c.transitions) == 9
    assert len(c.one_transitions) == 3
    assert not c.terminating


def test_onechart_of_atom():
    c = onechart_of(Act("a"))
    assert len(c.vertices) == 2
    assert c.transitions == frozenset({(0, "a", 1)})
    assert c.terminating == frozenset({1})


def test_normedness():
    for text, expected in [("a", (True, True)), ("1", (True, False)),
                           ("a*.b*", (True, True)), ("0", (False, False)),
                           # 0* terminates but has no transitions at all
                           ("0*", (True, False))]:
        E = parse_star_expr(text)
        assert normedness(E)[E] == expected
        assert (E.normed, E.normed_plus) == expected


def test_labeled_steps_star_entry(e_expr):
    steps = labeled_steps_stacked(e_expr)
    assert {(label, m) for label, m, _ in steps} == {("a", 2), ("b", 2)}


def test_labeled_steps_zero_star():
    assert labeled_steps_stacked(parse_star_expr("0*")) == frozenset()


def test_labeled_steps_of_E1(e_expr):
    E1 = SStack(parse_star_expr("a*.b*"), e_expr)
    by_label = {(label, m) for label, m, _ in labeled_steps_stacked(E1)}
    assert by_label == {(EMPTY, 0), ("a", 1), ("b", 0)}


def test_labeled_onechart_of_e(e_expr):
    labeling = labeled_onechart_of(e_expr)
    levels = sorted(m for m in labeling.marking.values() if m)
    assert levels == [1, 1, 2, 2]
    for t in labeling.chart.one_transitions:
        assert labeling.marking[t] == 0


def test_labeled_onechart_of_f(f_expr):
    labeling = labeled_onechart_of(f_expr)
    entries = {t for t, m in labeling.marking.items() if m}
    assert len(entries) == 3
    assert all(t[0] == labeling.chart.start for t in entries)
    assert all(m == 1 for t, m in labeling.marking.items() if t in entries)


def test_closure_soundness(chart_g0, g0):
    """Outgoing transitions of each vertex match the step relation of its
    expression."""
    chart, exprs = semantics.chart_of_with_exprs(g0)
    for vid, expr in exprs.items():
        expected = {(label, render(target)) for label, target in steps_star(expr)}
        actual = {(label, chart.annotations[w])
                  for v, label, w in chart.transitions if v == vid}
        assert actual == expected


def test_charts_from_structures_equal_the_interpretations():
    """The chart that `from_structure` builds from a closure's structure,
    which is all the P1 and P2 verdict caches see, is the interpretation's
    own chart: the cache keys and the public charts cannot drift apart.
    The labels it collects lie in the expression's actions, as the
    interpretations' alphabets require."""
    exprs = list(cli.corpus_exprs()) + list(cli.sample_exprs(["a", "b", "c"], 200, 40, 7))
    for e in exprs:
        plain = semantics.from_structure(semantics.closure_of(e, steps_star).structure, False)
        marked = semantics.from_structure(
            semantics.closure_of(e, labeled_steps_stacked).structure, True)
        for built, interpreted in ((plain, chart_of(e)),
                                   (marked.chart, labeled_onechart_of(e).chart)):
            assert (built.start, built.vertices, built.transitions, built.terminating) == (
                interpreted.start, interpreted.vertices, interpreted.transitions,
                interpreted.terminating)
            assert built.alphabet <= actions_of(e) == interpreted.alphabet
        assert marked.marking == labeled_onechart_of(e).marking


def test_state_explosion_cap(monkeypatch):
    monkeypatch.setattr(semantics, "VERTEX_CAP", 2)
    with pytest.raises(semantics.StateExplosion):
        chart_of(parse_star_expr("(a.a.a.a)*.(b.b.b.b)*"))


def test_normed_plus_iff_step_to_normed(e_expr, f_expr):
    """normed+ holds exactly when some step reaches a normed expression, and
    the stored measures agree with the fixpoints."""
    for root in (e_expr, f_expr):
        oracle = normedness(root)
        _, exprs = semantics.onechart_of_with_exprs(root)
        assert set(exprs.values()) == set(oracle)
        for E in exprs.values():
            viastep = any(oracle[G][0] for _, G in steps_stacked(E))
            assert oracle[E] == (E.normed, viastep)
            assert oracle[E] == (E.normed, E.normed_plus)


def expr_of(codes):
    """The star expression with one node per code, built in prefix order."""
    stream = iter(codes)

    def build(size):
        code = next(stream)
        if size == 1:
            return [Zero(), One(), Act("a"), Act("b")][code % 4]
        # 0: a star; -k / +k: a sum / product with k nodes on the left
        split = code % (2 * size - 3) - (size - 2)
        if split == 0:
            return Star(build(size - 1))
        left = build(abs(split))
        right = build(size - 1 - abs(split))
        return Sum(left, right) if split < 0 else Prod(left, right)
    return build(len(codes))


@settings(deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda size: st.lists(st.integers(0, 80), min_size=size, max_size=size)))
def test_stored_normedness_matches_fixpoint(codes):
    """Every state of a random expression's 1-chart carries the normed and
    normed+ measures that the fixpoint oracle computes."""
    for E, expected in normedness(expr_of(codes)).items():
        assert (E.normed, E.normed_plus) == expected


def check_marked_steps(E):
    """`_marked_steps`'s theorem and lemma at E: no two marked steps share a
    label and a target, and every product-shaped target's right factor is a
    proper subterm of E."""
    steps = labeled_steps_stacked(E)
    assert len({(label, G) for label, _, G in steps}) == len(steps), E
    subterms, todo = set(), [E]
    while todo:
        node = todo.pop()
        for name in node._fields:
            child = getattr(node, name)
            if not isinstance(child, str) and child not in subterms:
                subterms.add(child)
                todo.append(child)
    for _, _, G in steps:
        if isinstance(G, (Prod, SProd)):
            assert (G.right if isinstance(G, Prod) else G.tail) in subterms, E


plain_exprs = st.integers(1, 12).flatmap(
    lambda size: st.lists(st.integers(0, 80), min_size=size, max_size=size)).map(expr_of)
# arbitrary stacked nodes, beyond the states a plain expression reaches:
# sums of any nodes, product layers, stacks over any head, and a plain
# product over a stacked head
stacked_nodes = st.recursive(plain_exprs, lambda inner: st.one_of(
    st.builds(Sum, inner, inner), st.builds(sprod, inner, plain_exprs),
    st.builds(SStack, inner, plain_exprs.map(Star)), st.builds(Prod, inner, plain_exprs)),
    max_leaves=6)


@settings(deadline=None)
@given(stacked_nodes)
def test_no_step_is_marked_twice(E):
    check_marked_steps(E)


def test_no_corpus_onechart_state_has_a_step_marked_twice():
    for e in cli.corpus_exprs():
        for E in semantics.closure_of(e, labeled_steps_stacked).exprs:
            check_marked_steps(E)
