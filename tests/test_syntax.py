"""Parser, renderer, and the structural helpers on expressions."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from loopchart.syntax import (
    Act, CProd, CStack, Hole, One, ParseError, Plain, Prod, SProd, SStack,
    Star, Sum, Zero, decompose, fill, parse_star_expr, project, render, sprod,
    star_height,
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


def test_parse_error_junk():
    with pytest.raises(ParseError):
        parse_star_expr("nonsense(")
    with pytest.raises(ParseError):
        parse_star_expr("a ? b")
    with pytest.raises(ParseError):
        parse_star_expr("")


def test_render_examples():
    assert render(Plain(Star(Act("a")))) == "a*"
    assert render(SStack(Plain(One()), Star(Act("a")))) == "1 @ a*"
    assert render(Plain(Sum(Act("a"), Prod(Act("b"), Act("c"))))) == "a + b.c"


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
    assert star_height(Zero()) == 0
    assert star_height(parse_star_expr("(a*.b*)*")) == 2
    assert star_height(parse_star_expr("a.b + c")) == 0
    # stacked clauses take the max of the components
    stacked = SStack(Plain(parse_star_expr("1.a*")), Star(Act("a")))
    assert star_height(stacked) == 1


def test_project():
    e = parse_star_expr("(a*.b*)*")
    assert project(Plain(e)) == e
    assert project(SStack(Plain(Star(Act("b"))), e)) == Prod(Star(Act("b")), e)
    sink = sprod(SStack(Plain(parse_star_expr("1.0")), parse_star_expr("b0*")),
                 Zero())
    assert project(sink) == parse_star_expr("((1.0).b0*).0")


def test_sprod_collapses_plain_heads():
    assert sprod(Plain(Act("a")), Act("b")) == Plain(Prod(Act("a"), Act("b")))
    stack = SStack(Plain(One()), Star(Act("a")))
    assert isinstance(sprod(stack, Zero()), SProd)


def test_decompose_fill():
    e = parse_star_expr("(a*.b*)*")
    assert decompose(Plain(Act("a"))) == (Hole(), Act("a"))
    stacked = SStack(Plain(Star(Act("b"))), e)
    assert decompose(stacked) == (CStack(Hole(), e), Star(Act("b")))
    sink = sprod(SStack(Plain(parse_star_expr("1.0")), parse_star_expr("b0*")),
                 Zero())
    cxt, core = decompose(sink)
    assert cxt == CProd(CStack(Hole(), parse_star_expr("b0*")), Zero())
    assert core == parse_star_expr("1.0")
    # fill inverts decompose
    assert fill(cxt, Plain(core)) == sink


@given(exprs())
def test_fill_decompose_identity_on_interpretation_states(e):
    # quantify over states reachable in the stacked semantics of e
    from loopchart.semantics import onechart_of_with_exprs
    _, exprs_map = onechart_of_with_exprs(e, cap=2000)
    for E in exprs_map.values():
        cxt, core = decompose(E)
        assert fill(cxt, Plain(core)) == E


def test_nodes_are_interned():
    assert parse_star_expr("a + b") is Sum(Act("a"), Act("b"))
    assert Plain(Star(Act("a"))) is Plain(parse_star_expr("a*"))
    assert Zero() is Zero() and Zero() is not One()
    e = parse_star_expr("(a*.b*)*")
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(SStack(Plain(e), e)) is SStack(Plain(e), e)


def test_hash_is_the_hash_of_the_fields():
    x, y = Act("a"), Star(Act("b"))
    assert hash(Sum(x, y)) == hash((x, y))
    assert hash(x) == hash(("a",))
    assert hash(Zero()) == hash(())
    assert hash(SStack(Plain(x), y)) == hash((Plain(x), y))


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
    with pytest.raises(ValueError, match="SProd over a Plain head"):
        SProd(Plain(Act("a")), Act("b"))
    with pytest.raises(ValueError, match="SStack tail must be a Star"):
        SStack(Plain(One()), Act("a"))


def test_repr_names_the_fields():
    assert repr(Sum(Act("a"), Zero())) == "Sum(left=Act(name='a'), right=Zero())"
    assert repr(SStack(Plain(One()), Star(Act("a")))) == (
        "SStack(head=Plain(expr=One()), tail=Star(body=Act(name='a')))")


def test_parse_and_render_deep_terms_without_recursion():
    assert parse_star_expr("(" * 5000 + "a" + ")" * 5000) is Act("a")
    chain = Act("a")
    for _ in range(4999):
        chain = Prod(chain, Act("a"))
    text = ".".join(["a"] * 5000)
    assert render(chain) == text
    assert parse_star_expr(text) is chain
    unclosed = "(" * 3000 + "a" + ")" * 2999
    with pytest.raises(ParseError) as info:
        parse_star_expr(unclosed)
    assert info.value.offset == len(unclosed) and info.value.expected == {")"}
