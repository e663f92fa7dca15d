"""Parser, renderer, and the structural helpers on expressions."""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from loopchart.syntax import (
    Act, One, ParseError, Prod, SProd, SStack, Star, Sum, Zero,
    actions_of, parse_star_expr, project, render, sprod,
)


def test_parse_atoms():
    assert parse_star_expr("a") == Act("a")
    assert parse_star_expr("0") == Zero()
    assert parse_star_expr("1") == One()
    assert parse_star_expr("b2") == Act("b2")


def test_parse_precedence_and_associativity():
    assert parse_star_expr("(a*.b*)*") == Star(Prod(Star(Act("a")), Star(Act("b"))))
    assert parse_star_expr("a + b.c") == Sum(Act("a"), Prod(Act("b"), Act("c")))
    # left-associative
    assert parse_star_expr("a + b + c") == Sum(Sum(Act("a"), Act("b")), Act("c"))
    assert parse_star_expr("a.b.c") == Prod(Prod(Act("a"), Act("b")), Act("c"))
    # postfix star binds tightest, also iterated
    assert parse_star_expr("a**") == Star(Star(Act("a")))
    assert parse_star_expr("a + b*") == Sum(Act("a"), Star(Act("b")))


def test_parse_whitespace_insignificant():
    assert parse_star_expr(" ( a * . b * ) * ") == parse_star_expr("(a*.b*)*")


def test_parse_error_truncated():
    with pytest.raises(ParseError) as info:
        parse_star_expr("a + ")
    assert info.value.offset == 4
    assert info.value.expected


_ATOM = {"0", "1", "identifier", "("}
_AFTER_TERM = {"+", ".", "*", "end of input"}


@pytest.mark.parametrize("text, message, offset, expected", [
    ("a ? b", "unexpected character '?' at offset 2 (expected: expression)",
     2, {"expression"}),
    ("a + ", "unexpected end of input at offset 4 (expected: (, 0, 1, identifier)",
     4, _ATOM),
    ("*", "unexpected '*' at offset 0 (expected: (, 0, 1, identifier)", 0, _ATOM),
    ("a)", "unexpected ')' at offset 1 (expected: *, +, ., end of input)",
     1, _AFTER_TERM),
    ("(a", "unexpected end of input at offset 2 (expected: ))", 2, {")"}),
    ("a b", "unexpected 'b' at offset 2 (expected: *, +, ., end of input)",
     2, _AFTER_TERM),
    ("", "unexpected end of input at offset 0 (expected: (, 0, 1, identifier)",
     0, _ATOM),
])
def test_parse_error_sites(text, message, offset, expected):
    with pytest.raises(ParseError) as info:
        parse_star_expr(text)
    assert (str(info.value), info.value.offset, info.value.expected) == (
        message, offset, expected)


def test_parse_error_junk():
    with pytest.raises(ParseError):
        parse_star_expr("nonsense(")
    with pytest.raises(ParseError):
        parse_star_expr("a ? b")
    with pytest.raises(ParseError):
        parse_star_expr("")


def test_render_examples():
    assert render(Star(Act("a"))) == "a*"
    assert render(SStack(One(), Star(Act("a")))) == "1 @ a*"
    assert render(Sum(Act("a"), Prod(Act("b"), Act("c")))) == "a + b.c"
    assert render(SStack(Sum(Act("a"), One()), Star(Act("a")))) == "(a + 1) @ a*"
    assert render(SStack(Prod(Act("a"), One()), Star(Act("a")))) == "a.1 @ a*"


# random expression trees for round-trip testing
def exprs():
    return st.recursive(
        st.sampled_from([Zero(), One(), Act("a"), Act("b"), Act("c1")]),
        lambda sub: st.one_of(
            st.builds(Sum, sub, sub),
            st.builds(Prod, sub, sub),
            st.builds(Star, sub),
        ),
        max_leaves=12)


@given(exprs())
def test_parse_render_round_trip(e):
    assert parse_star_expr(render(e)) == e


def test_star_height():
    assert Zero().star_height == 0
    assert parse_star_expr("(a*.b*)*").star_height == 2
    assert parse_star_expr("a.b + c").star_height == 0
    # stacked clauses take the max of the components
    stacked = SStack(parse_star_expr("1.a*"), Star(Act("a")))
    assert stacked.star_height == 1


def test_project():
    e = parse_star_expr("(a*.b*)*")
    assert project(e) is e
    assert project(SStack(Star(Act("b")), e)) == Prod(Star(Act("b")), e)
    sink = sprod(SStack(parse_star_expr("1.0"), parse_star_expr("b0*")),
                 Zero())
    assert project(sink) == parse_star_expr("((1.0).b0*).0")
    with pytest.raises(TypeError):
        project("a")


def test_project_deep_terms_without_recursion():
    a_star = Star(Act("a"))
    stacked, chain = Act("b"), Act("b")
    for i in range(5000):
        if i % 2:
            stacked = SStack(stacked, a_star)
        else:
            stacked = sprod(stacked, Act("c"))
        chain = Prod(chain, a_star if i % 2 else Act("c"))
    assert project(stacked) is chain


def test_sprod_collapses_plain_heads():
    assert sprod(Act("a"), Act("b")) is Prod(Act("a"), Act("b"))
    stack = SStack(One(), Star(Act("a")))
    assert isinstance(sprod(stack, Zero()), SProd)


def test_nodes_are_interned():
    assert parse_star_expr("a + b") is Sum(Act("a"), Act("b"))
    assert SStack(One(), Star(Act("a"))) is SStack(One(), parse_star_expr("a*"))
    assert Zero() is Zero() and Zero() is not One()
    e = parse_star_expr("(a*.b*)*")
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(SStack(e, e)) is SStack(e, e)


# expression trees as plain data, so that hypothesis holds no node
trees = st.recursive(
    st.sampled_from(["0", "1", "a", "b"]),
    lambda sub: st.one_of(st.tuples(st.sampled_from("+."), sub, sub),
                          st.tuples(st.just("*"), sub)),
    max_leaves=10)

_BUILD = {"0": Zero, "1": One, "+": Sum, ".": Prod, "*": Star}


def _build(tree):
    if isinstance(tree, str):
        return _BUILD[tree]() if tree in _BUILD else Act(tree)
    return _BUILD[tree[0]](*map(_build, tree[1:]))


def _tree_of(e):
    if isinstance(e, Act):
        return e.name
    if isinstance(e, (Zero, One)):
        return "0" if isinstance(e, Zero) else "1"
    if isinstance(e, Star):
        return ("*", _tree_of(e.body))
    return ("+" if isinstance(e, Sum) else ".", _tree_of(e.left), _tree_of(e.right))


def _check_interning(forest):
    nodes = [_build(tree) for tree in forest]
    assert [_tree_of(e) for e in nodes] == forest
    assert all(_build(tree) is e for tree, e in zip(forest, nodes))
    assert all(parse_star_expr(render(e)) is e for e in nodes)
    x, y = nodes[0], nodes[-1]
    assert Sum(x, y).left is x and Sum(x, y).right is y
    assert Prod(y, x).left is y and Star(x).body is x
    stacked = sprod(SStack(x, Star(y)), x)
    assert stacked.head.head is x and stacked.head.tail.body is y
    assert SProd(stacked, y).head is stacked
    for e in (x, stacked):
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.deepcopy(e) is e


@settings(max_examples=50)
@given(st.lists(trees, min_size=1, max_size=6))
def test_nodes_rebuilt_after_collection_are_the_terms_asked_for(forest):
    # the dropped nodes free their ids for the rebuilt ones, whose table
    # keys are made of ids
    _check_interning(forest)
    gc.collect()
    _check_interning(forest)


def test_nodes_are_immutable():
    e = Prod(Act("a"), Act("b"))
    with pytest.raises(AttributeError):
        e.left = Act("c")
    with pytest.raises(AttributeError):
        del e.right
    with pytest.raises(AttributeError):
        Act("a").name = "b"
    assert e == Prod(Act("a"), Act("b"))


def test_constructors_reject_invalid_fields():
    with pytest.raises(ValueError, match="invalid action name"):
        Act("1")
    with pytest.raises(ValueError, match="SProd over a plain head"):
        SProd(Act("a"), Act("b"))
    with pytest.raises(ValueError, match="SStack tail must be a Star"):
        SStack(One(), Act("a"))


def test_repr_names_the_fields():
    assert repr(Sum(Act("a"), Zero())) == "Sum(left=Act(name='a'), right=Zero())"
    assert repr(SStack(One(), Star(Act("a")))) == (
        "SStack(head=One(), tail=Star(body=Act(name='a')))")


def test_parse_and_render_deep_terms_without_recursion():
    assert parse_star_expr("(" * 5000 + "a" + ")" * 5000) is Act("a")
    chain = Act("a")
    for _ in range(4999):
        chain = Prod(chain, Act("a"))
    text = ".".join(["a"] * 5000)
    assert render(chain) == text
    assert parse_star_expr(text) is chain
    assert (chain.terminates, chain.normed_plus, chain.star_height) == (False, True, 0)
    deep = Act("a")
    for _ in range(5000):
        deep = Sum(deep, Star(Act("b")))
    assert (deep.terminates, deep.normed_plus, deep.star_height) == (True, True, 1)
    assert actions_of(deep) == {"a", "b"} and actions_of(chain) == {"a"}
    unclosed = "(" * 3000 + "a" + ")" * 2999
    with pytest.raises(ParseError) as info:
        parse_star_expr(unclosed)
    assert info.value.offset == len(unclosed) and info.value.expected == {")"}
