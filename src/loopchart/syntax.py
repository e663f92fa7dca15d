"""Abstract and concrete syntax of star expressions and stacked star expressions.

Star expressions are regular expressions read as process terms:

    e ::= 0 | 1 | a | e + e | e . e | e*

Stacked star expressions add applicative layers that mark a descent into a
star body:

    E ::= e | E . e | E * e*        (the last layer rendered with ``@``)

A plain expression is itself a stacked expression, and a product layer over
a plain head is the same term as a plain product, so we keep stacked values
canonical: ``sprod(h, t)`` is ``Prod(h, t)`` for a plain head ``h``, and
``SProd`` is only built over a stacked head.  ``SStack`` layers never
collapse.
"""

from __future__ import annotations

import re
import weakref
from typing import Optional, Union


class ParseError(Exception):
    """Malformed expression text."""

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at offset {offset} (expected: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected


# ---------------------------------------------------------------------------
# interned nodes

_MEASURES = ("terminates", "normed", "normed_plus", "star_height")
_SLOTS = ("_text", "_steps", "_marked")


class _Node:
    """An immutable, hash-consed syntax node.

    Constructing a node looks its fields up in a per-class table and
    returns the node already built for those fields, so structurally equal
    nodes are the same object: equality and the hash are identity.  Sets
    and dicts of nodes therefore iterate in an order that depends on where
    the nodes happen to live, so every order that reaches an output is
    sorted, by rendered text or by vertex id.

    A node lives while something references it, and no longer: the table
    is a `weakref.WeakValueDictionary` keyed by the identities of the
    children (``(id(left), id(right))``, ``id(body)``) or by the action
    name, and it drops an entry once its node dies (and only while the
    entry is still dead, so a node built since under the same key stays).
    A live node holds its children, so their ids are not reused while its
    entry is alive.  Keying by the children themselves would keep them
    alive, and through the step slots (``e*`` steps to ``Prod(e1, e*)``)
    every node built from them.

    Each node also stores four measures, which its class's ``_derive``
    computes from the fields' stored measures (after rejecting invalid
    fields) when the node is first built: ``terminates`` (stacked layers
    never do), ``normed`` (some path of steps reaches termination),
    ``normed_plus`` (some step, empty or not, leads to a normed expression)
    and ``star_height``.  The slots ``_text`` (the rendering), ``_steps``
    (the plain steps) and ``_marked`` (the marked stacked steps), the last
    two computed by ``semantics``, start empty; `bottom_up` fills them.
    """

    __slots__ = _SLOTS + _MEASURES + ("__weakref__",)
    _fields: tuple[str, ...] = ()
    _table: weakref.WeakValueDictionary

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("__slots__", ())
        # the slots' own setters, which skip object.__setattr__'s checks
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls._fields + _MEASURES + _SLOTS)
        cls._table = weakref.WeakValueDictionary()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def bottom_up(node: _Node, slot: str, deps, compute):
    """The value of `slot` on `node`, filled without recursion.  For each
    node n it reaches with an empty slot, the empty slots of the nodes
    `deps(n)` lists are filled first, left to right, then n's is set to
    `compute(n)`, which reads only those slots."""
    store = getattr(_Node, slot).__set__
    stack = [(node, False)] if getattr(node, slot) is None else []
    while stack:
        top, ready = stack.pop()
        if ready:
            store(top, compute(top))
        elif getattr(top, slot) is None:
            stack.append((top, True))
            stack.extend([(d, False) for d in reversed(deps(top)) if getattr(d, slot) is None])
    return getattr(node, slot)


def _intern(cls, key, fields: tuple):
    node = cls._table.get(key)
    if node is None:
        measures = cls._derive(*fields)
        node = object.__new__(cls)
        for setter, value in zip(cls._setters, fields + measures + (None, None, None)):
            setter(node, value)
        cls._table[key] = node
    return node


# ---------------------------------------------------------------------------
# star expressions

# precedence levels of the rendering, loosest first
_SUM, _PROD, _STAR, _ATOM = 0, 1, 2, 3


class StarExpr(_Node):
    __slots__ = ()
    _level = _ATOM
    # the identity hash, defined on each hierarchy, so that wrapping it (as
    # the benchmark's tracer does to count hashing) covers exactly that
    # hierarchy
    __hash__ = object.__hash__


class Zero(StarExpr):
    __slots__ = ()
    _derive = staticmethod(lambda: (False, False, False, 0))

    def __new__(cls):
        return _intern(cls, (), ())


class One(StarExpr):
    __slots__ = ()
    _derive = staticmethod(lambda: (True, True, False, 0))

    def __new__(cls):
        return _intern(cls, (), ())


class Act(StarExpr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, name, (name,))

    @staticmethod
    def _derive(name):
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid action name {name!r}")
        return False, True, True, 0


class Sum(StarExpr):
    __slots__ = ("left", "right")
    _level = _SUM

    def __new__(cls, left: StarExpr, right: StarExpr):
        return _intern(cls, (id(left), id(right)), (left, right))

    @staticmethod
    def _derive(left, right):
        return (left.terminates or right.terminates, left.normed or right.normed,
                left.normed_plus or right.normed_plus,
                max(left.star_height, right.star_height))


class Prod(StarExpr):
    __slots__ = ("left", "right")
    _level = _PROD

    def __new__(cls, left: StarExpr, right: StarExpr):
        return _intern(cls, (id(left), id(right)), (left, right))

    @staticmethod
    def _derive(left, right):
        return (left.terminates and right.terminates, left.normed and right.normed,
                (left.normed_plus and right.normed)
                or (left.terminates and right.normed_plus),
                max(left.star_height, right.star_height))


class Star(StarExpr):
    __slots__ = ("body",)
    _level = _STAR

    def __new__(cls, body: StarExpr):
        return _intern(cls, id(body), (body,))

    @staticmethod
    def _derive(body):
        return True, True, body.normed_plus, body.star_height + 1


IDENT_RE = re.compile(r"[A-Za-z][A-Za-z]*[0-9]*")


# ---------------------------------------------------------------------------
# stacked star expressions

class StackedExpr(_Node):
    __slots__ = ()
    __hash__ = object.__hash__


# a stacked star expression: a plain one or a stacked layer
Stacked = Union[StarExpr, StackedExpr]


class SProd(StackedExpr):
    __slots__ = ("head", "tail")

    def __new__(cls, head: Stacked, tail: StarExpr):
        return _intern(cls, (id(head), id(tail)), (head, tail))

    @staticmethod
    def _derive(head, tail):
        # canonical form: a plain head belongs in a plain product (use sprod)
        if isinstance(head, StarExpr):
            raise ValueError("SProd over a plain head; use sprod() to build products")
        return (False, head.normed and tail.normed, head.normed_plus and tail.normed,
                max(head.star_height, tail.star_height))


class SStack(StackedExpr):
    __slots__ = ("head", "tail")

    def __new__(cls, head: Stacked, tail: Star):
        return _intern(cls, (id(head), id(tail)), (head, tail))

    @staticmethod
    def _derive(head, tail):
        if not isinstance(tail, Star):
            raise ValueError("SStack tail must be a Star")
        # E @ g* steps to a normed expression iff E does or E terminates (the
        # empty step to g*); on the states reachable from a plain expression,
        # where g* was entered by a step of g, that is the fixpoint normed+
        return (False, head.normed, head.normed_plus or head.terminates,
                max(head.star_height, tail.star_height))


def sprod(head: Stacked, tail: StarExpr) -> Stacked:
    """Product layer over a stacked head, collapsing plain heads."""
    return Prod(head, tail) if isinstance(head, StarExpr) else SProd(head, tail)


# ---------------------------------------------------------------------------
# projection and actions

def _layers(value: Stacked) -> tuple[StarExpr, list[StarExpr]]:
    """The plain core under value's stacked layers, and the layers' tails,
    outermost first."""
    tails = []
    while isinstance(value, (SProd, SStack)):
        tails.append(value.tail)
        value = value.head
    if not isinstance(value, StarExpr):
        raise TypeError(value)
    return value, tails


def project(value: Stacked) -> StarExpr:
    """Read every stacked layer as an ordinary product, without recursion:
    peel the layers down to the plain core, then multiply their tails back
    on, innermost first."""
    value, tails = _layers(value)
    for tail in reversed(tails):
        value = Prod(value, tail)
    return value


def live_projection(value: Stacked) -> Optional[StarExpr]:
    """`project(value)` if that node is alive, else None, building nothing:
    each layer's product is looked up in `Prod`'s intern table.  A live
    product keeps its factors alive, so if one layer's product is missing,
    the projection is not alive either."""
    value, tails = _layers(value)
    table = Prod._table
    for tail in reversed(tails):
        value = table.get((id(value), id(tail)))
        if value is None:
            return None
    return value


def actions_of(e: StarExpr) -> frozenset[str]:
    """All action names occurring in e: the identifiers of its cached text,
    which `render` builds without recursion."""
    return frozenset(IDENT_RE.findall(render(e)))


# ---------------------------------------------------------------------------
# rendering

def _wrap(e: StarExpr, need: int) -> str:
    """The text of `e`, parenthesized where it binds looser than `need`."""
    text = e._text or render(e)
    return "(" + text + ")" if e._level < need else text


def _text_of(node: StarExpr) -> str:
    """Text of a plain node from its children's cached texts."""
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
    raise TypeError(node)


def _stacked_text(node: StackedExpr) -> str:
    """Text of a stacked node: its layers read down to a plain or cached
    core, then joined once.  A parenthesized head is everything left of
    its layer's token, so all opening parentheses come first."""
    layers = []
    while isinstance(node, StackedExpr) and node._text is None:
        layers.append(node)
        node = node.head
    parts = [node._text or render(node)]
    opened = 0
    for layer in reversed(layers):
        if isinstance(layer, SProd):
            closed, token = isinstance(node, SStack), "."
        else:
            closed, token = isinstance(node, Sum), " @ "
        opened += closed
        parts.append((")" if closed else "") + token + _wrap(layer.tail, _STAR))
        node = layer
    return "(" * opened + "".join(parts)


def _children(node: _Node) -> list[_Node]:
    return [child for child in map(node.__getattribute__, node._fields)
            if isinstance(child, _Node)]


def render(value: Stacked) -> str:
    """Parenthesization-minimal text; `@` is the stacked-star layer token.

    A plain node's text is computed once, by `bottom_up`, and cached on the
    node and on every subnode: a left-deep product chain of n actions keeps
    about n^2 characters (20,000 actions: about 420 MB).  A stacked node
    caches its text only when it is rendered itself, not as the head of
    another: a 1-chart state of ``a`` under n stars has n layers, and
    caching every layer's text would cost memory cubic in n."""
    if isinstance(value, StarExpr):
        return value._text or bottom_up(value, "_text", _children, _text_of)
    if not isinstance(value, StackedExpr):
        raise TypeError(value)
    if value._text is None:
        object.__setattr__(value, "_text", _stacked_text(value))
    return value._text


# ---------------------------------------------------------------------------
# parsing

# an identifier, an operator, or any other character, which is an error
_TOKEN_RE = re.compile(rf"\s*(?:({IDENT_RE.pattern})|([01+.*()])|(\S))")


def parse_star_expr(text: str) -> StarExpr:
    """Precedence parser for

        expr     ::= prodterm ("+" prodterm)*
        prodterm ::= starterm ("." starterm)*
        starterm ::= atom "*"*
        atom     ::= "0" | "1" | identifier | "(" expr ")"

    Sums and products associate to the left.  It runs without recursion:
    each open parenthesis pushes the enclosing expression's unfinished sum
    and product onto an explicit stack, so nesting depth is unbounded."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 3:
            raise ParseError(f"unexpected character {m[3]!r}", m.start(3),
                             frozenset({"expression"}))
        tokens.append(("ident" if group == 1 else m[2], m[group], m.start(group)))
    tokens.append(("end", "", len(text)))
    i = 0

    def fail(expected: set[str]):
        kind, value, offset = tokens[i]
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"unexpected {what}", offset, frozenset(expected))

    # the unfinished sum and product of each enclosing parenthesis
    outer: list[tuple[Optional[StarExpr], Optional[StarExpr]]] = []
    total: Optional[StarExpr] = None
    product: Optional[StarExpr] = None
    while True:
        kind, value, _ = tokens[i]
        if kind == "(":
            i += 1
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
            fail({"0", "1", "identifier", "("})
        i += 1
        while True:
            while tokens[i][0] == "*":
                i += 1
                term = Star(term)
            product = term if product is None else Prod(product, term)
            kind = tokens[i][0]
            if kind == ".":
                i += 1
                break
            total = product if total is None else Sum(total, product)
            product = None
            if kind == "+":
                i += 1
                break
            if not outer:
                if kind != "end":
                    fail({"+", ".", "*", "end of input"})
                return total
            if kind != ")":
                fail({")"})
            i += 1
            term = total
            total, product = outer.pop()
