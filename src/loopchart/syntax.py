"""Abstract and concrete syntax of star expressions and stacked star expressions.

Star expressions are regular expressions read as process terms:

    e ::= 0 | 1 | a | e + e | e . e | e*

Stacked star expressions add applicative layers that mark a descent into a
star body:

    E ::= e | E . e | E * e*        (the last layer rendered with ``@``)

A product layer over a plain head is the same term as a plain product, so we
keep stacked values canonical: ``sprod`` collapses ``SProd(Plain(h), t)`` to
``Plain(Prod(h, t))``.  ``SStack`` layers never collapse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class ParseError(Exception):
    """Malformed expression text."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# interned nodes

class _Node:
    """An immutable, hash-consed syntax node.

    Constructing a node looks its field tuple up in a per-class table and
    returns the node already built for those fields, so structurally equal
    nodes are the same object and equality is identity.  The hash is
    ``hash(fields)``, computed once from the children's stored hashes: the
    value a frozen dataclass with these fields would have, so the iteration
    order of sets and dicts of nodes does not depend on how nodes are built.
    Tables are never cleared: every node ever built lives for the whole
    process, like the step-rule memo tables of ``semantics``.
    """

    __slots__ = ("_hash", "_text")
    _fields: tuple[str, ...] = ()
    _table: dict

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("__slots__", ())
        cls._table = {}

    @staticmethod
    def _check(*fields) -> None:
        """Reject invalid fields; runs once per distinct node."""

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _intern(cls, fields: tuple):
    node = cls._table.get(fields)
    if node is None:
        cls._check(*fields)
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_hash", hash(fields))
        object.__setattr__(node, "_text", None)
        node = cls._table.setdefault(fields, node)
    return node


# ---------------------------------------------------------------------------
# star expressions

# precedence levels of the rendering, loosest first
_SUM, _PROD, _STAR, _ATOM = 0, 1, 2, 3


class StarExpr(_Node):
    __slots__ = ()
    _level = _ATOM
    # defined on each hierarchy, so that wrapping it (as the benchmark's
    # tracer does to count hashing) covers exactly that hierarchy
    __hash__ = _Node.__hash__


class Zero(StarExpr):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())


class One(StarExpr):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())


class Act(StarExpr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (name,))

    @staticmethod
    def _check(name) -> None:
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid action name {name!r}")


class Sum(StarExpr):
    __slots__ = ("left", "right")
    _level = _SUM

    def __new__(cls, left: StarExpr, right: StarExpr):
        return _intern(cls, (left, right))


class Prod(StarExpr):
    __slots__ = ("left", "right")
    _level = _PROD

    def __new__(cls, left: StarExpr, right: StarExpr):
        return _intern(cls, (left, right))


class Star(StarExpr):
    __slots__ = ("body",)
    _level = _STAR

    def __new__(cls, body: StarExpr):
        return _intern(cls, (body,))


IDENT_RE = re.compile(r"[A-Za-z][A-Za-z]*[0-9]*")


# ---------------------------------------------------------------------------
# stacked star expressions

class StackedExpr(_Node):
    __slots__ = ()
    __hash__ = _Node.__hash__


class Plain(StackedExpr):
    __slots__ = ("expr",)

    def __new__(cls, expr: StarExpr):
        return _intern(cls, (expr,))


class SProd(StackedExpr):
    __slots__ = ("head", "tail")

    def __new__(cls, head: StackedExpr, tail: StarExpr):
        return _intern(cls, (head, tail))

    @staticmethod
    def _check(head, tail) -> None:
        # canonical form: a plain head belongs in a plain product (use sprod)
        if isinstance(head, Plain):
            raise ValueError("SProd over a Plain head; use sprod() to build products")


class SStack(StackedExpr):
    __slots__ = ("head", "tail")

    def __new__(cls, head: StackedExpr, tail: Star):
        return _intern(cls, (head, tail))

    @staticmethod
    def _check(head, tail) -> None:
        if not isinstance(tail, Star):
            raise ValueError("SStack tail must be a Star")


def sprod(head: StackedExpr, tail: StarExpr) -> StackedExpr:
    """Product layer over a stacked head, collapsing plain heads."""
    if isinstance(head, Plain):
        return Plain(Prod(head.expr, tail))
    return SProd(head, tail)


# ---------------------------------------------------------------------------
# applicative contexts

class AppCxt:
    __slots__ = ()


@dataclass(frozen=True)
class Hole(AppCxt):
    pass


@dataclass(frozen=True)
class CProd(AppCxt):
    inner: AppCxt
    tail: StarExpr


@dataclass(frozen=True)
class CStack(AppCxt):
    inner: AppCxt
    tail: Star


def fill(cxt: AppCxt, value: StackedExpr) -> StackedExpr:
    """Substitute `value` for the hole of `cxt`."""
    if isinstance(cxt, Hole):
        return value
    if isinstance(cxt, CProd):
        return sprod(fill(cxt.inner, value), cxt.tail)
    if isinstance(cxt, CStack):
        return SStack(fill(cxt.inner, value), cxt.tail)
    raise TypeError(cxt)


def decompose(value: StackedExpr) -> tuple[AppCxt, StarExpr]:
    """Split a stacked expression into its applicative layers and plain core.

    fill(cxt, Plain(core)) reconstructs the input.
    """
    if isinstance(value, Plain):
        return Hole(), value.expr
    if isinstance(value, SProd):
        cxt, core = decompose(value.head)
        return _wrap_outer(cxt, CProd(Hole(), value.tail)), core
    if isinstance(value, SStack):
        cxt, core = decompose(value.head)
        return _wrap_outer(cxt, CStack(Hole(), value.tail)), core
    raise TypeError(value)


def _wrap_outer(inner: AppCxt, outer: AppCxt) -> AppCxt:
    """Plug `inner` into the hole of the single-layer context `outer`."""
    if isinstance(outer, CProd):
        return CProd(inner, outer.tail)
    if isinstance(outer, CStack):
        return CStack(inner, outer.tail)
    raise TypeError(outer)


# ---------------------------------------------------------------------------
# measures and projection

def star_height(value: Union[StarExpr, StackedExpr]) -> int:
    if isinstance(value, (Zero, One, Act)):
        return 0
    if isinstance(value, (Sum, Prod)):
        return max(star_height(value.left), star_height(value.right))
    if isinstance(value, Star):
        return 1 + star_height(value.body)
    if isinstance(value, Plain):
        return star_height(value.expr)
    if isinstance(value, (SProd, SStack)):
        return max(star_height(value.head), star_height(value.tail))
    raise TypeError(value)


def project(value: StackedExpr) -> StarExpr:
    """Read every stacked layer as an ordinary product."""
    if isinstance(value, Plain):
        return value.expr
    if isinstance(value, (SProd, SStack)):
        return Prod(project(value.head), value.tail)
    raise TypeError(value)


def actions_of(e: StarExpr) -> frozenset[str]:
    """All action names occurring in e."""
    if isinstance(e, Act):
        return frozenset({e.name})
    if isinstance(e, (Sum, Prod)):
        return actions_of(e.left) | actions_of(e.right)
    if isinstance(e, Star):
        return actions_of(e.body)
    return frozenset()


# ---------------------------------------------------------------------------
# rendering

def _wrap(e: StarExpr, need: int) -> str:
    """The cached text of `e`, parenthesized where it binds looser than `need`."""
    return "(" + e._text + ")" if e._level < need else e._text


def _text_of(node: _Node) -> str:
    """Text of `node` from its children's cached texts."""
    if isinstance(node, Zero):
        return "0"
    if isinstance(node, One):
        return "1"
    if isinstance(node, Act):
        return node.name
    if isinstance(node, Sum):
        return _wrap(node.left, _SUM) + " + " + _wrap(node.right, _PROD)
    if isinstance(node, Prod):
        return _wrap(node.left, _PROD) + "." + _wrap(node.right, _STAR)
    if isinstance(node, Star):
        return _wrap(node.body, _STAR) + "*"
    if isinstance(node, Plain):
        return node.expr._text
    if isinstance(node, SProd):
        head = node.head._text
        if isinstance(node.head, SStack):
            head = "(" + head + ")"
        return head + "." + _wrap(node.tail, _STAR)
    if isinstance(node, SStack):
        head = node.head._text
        if isinstance(node.head, Plain) and isinstance(node.head.expr, Sum):
            head = "(" + head + ")"
        return head + " @ " + _wrap(node.tail, _STAR)
    raise TypeError(node)


def render(value: Union[StarExpr, StackedExpr]) -> str:
    """Parenthesization-minimal text; `@` is the stacked-star layer token.

    Each node's text is computed once, bottom-up without recursion, and
    cached on the node."""
    if not isinstance(value, _Node):
        raise TypeError(value)
    stack = [value]
    while value._text is None:
        node = stack.pop()
        if node._text is not None:
            continue
        pending = [child for child in map(node.__getattribute__, node._fields)
                   if isinstance(child, _Node) and child._text is None]
        if pending:
            stack.append(node)
            stack.extend(pending)
        else:
            object.__setattr__(node, "_text", _text_of(node))
    return value._text


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z]+[0-9]*)|(?P<op>[01+.*()]))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             frozenset({"expression"}))
        if m.group("ident") is not None:
            yield "ident", m.group("ident"), m.start("ident")
        else:
            yield m.group("op"), m.group("op"), m.start("op")
        pos = m.end()
    yield "end", "", len(text)


class _Parser:
    """Precedence parser for

        expr     ::= prodterm ("+" prodterm)*
        prodterm ::= starterm ("." starterm)*
        starterm ::= atom "*"*
        atom     ::= "0" | "1" | identifier | "(" expr ")"

    Sums and products associate to the left.  It runs without recursion:
    each open parenthesis pushes the enclosing expression's unfinished sum
    and product onto an explicit stack, so nesting depth is unbounded."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> None:
        self.index += 1

    def fail(self, expected: set[str]) -> None:
        kind, value, offset = self.current
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"unexpected {what}", offset, frozenset(expected))

    def parse_expr(self) -> StarExpr:
        # the unfinished sum and product of each enclosing parenthesis
        outer: list[tuple[Optional[StarExpr], Optional[StarExpr]]] = []
        total: Optional[StarExpr] = None
        product: Optional[StarExpr] = None
        while True:
            kind, value, _ = self.current
            if kind == "(":
                self.advance()
                outer.append((total, product))
                total = product = None
                continue
            if kind == "0":
                term = Zero()
            elif kind == "1":
                term = One()
            elif kind == "ident":
                term = Act(value)
            else:
                self.fail({"0", "1", "identifier", "("})
            self.advance()
            while True:
                while self.current[0] == "*":
                    self.advance()
                    term = Star(term)
                product = term if product is None else Prod(product, term)
                if self.current[0] == ".":
                    self.advance()
                    break
                total = product if total is None else Sum(total, product)
                product = None
                if self.current[0] == "+":
                    self.advance()
                    break
                if not outer:
                    return total
                if self.current[0] != ")":
                    self.fail({")"})
                self.advance()
                term = total
                total, product = outer.pop()


def parse_star_expr(text: str) -> StarExpr:
    parser = _Parser(text)
    e = parser.parse_expr()
    if parser.current[0] != "end":
        parser.fail({"+", ".", "*", "end of input"})
    return e
