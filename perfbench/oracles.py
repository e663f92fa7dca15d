"""Checks that do not go through the code they check.

* A language oracle: the words up to a fixed length that star-expression
  text denotes, which must be exactly the terminating traces of its chart.
* An exhaustive loop-elimination search, written from the definitions of
  loop subcharts (L1-L3) and elimination, sharing no code with ``lee.py``.
* A bisimulation-clause checker and a cycle test on plain transition sets.

Charts are read only through their public fields (``start``, ``vertices``,
``transitions``, ``terminating``).
"""

from __future__ import annotations

import itertools
import re

EMPTY = "1"

_TOKEN = re.compile(r"\s*(?:([A-Za-z]+[0-9]*)|([01+.*()]))")


def language_upto(text: str, length: int) -> frozenset[str]:
    """The words of at most `length` letters that the expression denotes,
    computed from the text with a parser of its own: 0 denotes no word, 1
    the empty word, `+` union, `.` concatenation, `*` iteration.

    Python's backtracking ``re`` is no substitute: on a size-100 expression
    with nested stars over bodies that match the empty word, matching its
    pattern against the 121 words of up to four letters over {a, b, c} ran
    for more than 30 s.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected character {text[pos]!r} in {text!r}")
        ident, op = m.groups()
        if ident is not None and len(ident) != 1:
            raise ValueError(f"oracle supports one-letter actions only: {ident!r}")
        tokens.append(ident or op)
        pos = m.end()
    tokens.append("$")
    index = 0

    def concat(left, right):
        return frozenset(u + v for u in left for v in right if len(u) + len(v) <= length)

    def expr():
        nonlocal index
        words = term()
        while tokens[index] == "+":
            index += 1
            words = words | term()
        return words

    def term():
        nonlocal index
        words = factor()
        while tokens[index] == ".":
            index += 1
            words = concat(words, factor())
        return words

    def factor():
        nonlocal index
        words = atom()
        while tokens[index] == "*":
            index += 1
            star, body = frozenset({""}), words - {""}
            while True:
                grown = star | concat(body, star)
                if grown == star:
                    break
                star = grown
            words = star
        return words

    def atom():
        nonlocal index
        token = tokens[index]
        index += 1
        if token == "(":
            words = expr()
            if tokens[index] != ")":
                raise ValueError(f"missing ')' in {text!r}")
            index += 1
            return words
        if token == "0":
            return frozenset()
        if token == "1":
            return frozenset({""})
        if token.isalpha():
            return frozenset({token}) if length >= 1 else frozenset()
        raise ValueError(f"unexpected {token!r} in {text!r}")

    words = expr()
    if tokens[index] != "$":
        raise ValueError(f"trailing input in {text!r}")
    return words


def chart_traces_upto(chart, length: int) -> frozenset[str]:
    """Words of at most `length` letters along which some path from the
    start reaches a terminating vertex.  The chart must have no empty steps."""
    succ: dict[tuple[int, str], set[int]] = {}
    for v, label, w in chart.transitions:
        if label == EMPTY or len(label) != 1:
            raise ValueError(f"trace oracle needs one-letter proper steps: {label!r}")
        succ.setdefault((v, label), set()).add(w)
    letters = sorted({label for _, label, _ in chart.transitions})
    found = set()
    frontier = {"": frozenset({chart.start})}
    for n in range(length + 1):
        following = {}
        for word, states in frontier.items():
            if states & chart.terminating:
                found.add(word)
            if n == length:
                continue
            for a in letters:
                nxt = frozenset(w for v in states for w in succ.get((v, a), ()))
                if nxt:
                    following[word + a] = nxt
        frontier = following
    return frozenset(found)


# ---------------------------------------------------------------------------
# graphs given as transition sets

def _successors(transitions) -> dict[int, list[int]]:
    succ: dict[int, list[int]] = {}
    for v, _, w in transitions:
        succ.setdefault(v, []).append(w)
    return succ


def _reach(succ: dict[int, list[int]], roots) -> set[int]:
    seen = set(roots)
    todo = list(seen)
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def cycle_within(succ: dict[int, list[int]], allowed: set[int]) -> bool:
    """Whether the graph restricted to `allowed` has a cycle (Kahn's
    algorithm: a cycle remains iff not every vertex can be peeled)."""
    indegree = {v: 0 for v in allowed}
    for v in allowed:
        for w in succ.get(v, ()):
            if w in allowed:
                indegree[w] += 1
    todo = [v for v, d in indegree.items() if d == 0]
    peeled = 0
    while todo:
        v = todo.pop()
        peeled += 1
        for w in succ.get(v, ()):
            if w in allowed:
                indegree[w] -= 1
                if indegree[w] == 0:
                    todo.append(w)
    return peeled < len(allowed)


def has_infinite_path(start: int, transitions) -> bool:
    succ = _successors(transitions)
    return cycle_within(succ, _reach(succ, [start]))


# ---------------------------------------------------------------------------
# exhaustive loop elimination

def _is_loop(succ, v: int, entries, terminating) -> bool:
    """Whether the entry set at v generates a loop subchart: the paths that
    start with an entry and stop on first return to v satisfy L1 (some
    infinite path), L2 (every infinite path returns to v) and L3 (no
    termination except at v)."""
    inner = _reach_avoiding(succ, [w for _, _, w in entries], v)
    if inner & terminating:
        return False                                        # L3
    if cycle_within(succ, inner):
        return False                                        # L2
    # L1: with no cycle inside, an infinite path must come back to v
    return any(w == v for _, _, w in entries) or any(
        w == v for x in inner for w in succ.get(x, ()))


def _reach_avoiding(succ, roots, v: int) -> set[int]:
    seen = {w for w in roots if w != v}
    todo = list(seen)
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w != v and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def lee_exhaustive(chart) -> bool:
    """LEE by trying every entry set at every vertex, in every order, with
    failed transition sets remembered.  Empty-step labels are ordinary."""
    start, terminating = chart.start, frozenset(chart.terminating)

    def live(transitions) -> frozenset:
        reach = _reach(_successors(transitions), [start])
        return frozenset(t for t in transitions if t[0] in reach)

    failed: set[frozenset] = set()

    def search(transitions: frozenset) -> bool:
        if not has_infinite_path(start, transitions):
            return True
        if transitions in failed:
            return False
        succ = _successors(transitions)
        outs: dict[int, list] = {}
        for t in sorted(transitions):
            outs.setdefault(t[0], []).append(t)
        for v, out in outs.items():
            for size in range(1, len(out) + 1):
                for entries in itertools.combinations(out, size):
                    if _is_loop(succ, v, entries, terminating) and \
                            search(live(transitions - frozenset(entries))):
                        return True
        failed.add(transitions)
        return False

    return search(live(frozenset(chart.transitions)))


# ---------------------------------------------------------------------------
# bisimulation clauses

def is_bisimulation(c1, c2, pairs) -> bool:
    """Whether `pairs` relates the starts and satisfies the termination,
    forth and back clauses between c1 and c2."""
    pairs = set(pairs)
    if (c1.start, c2.start) not in pairs:
        return False
    out1, out2 = {}, {}
    for v, label, w in c1.transitions:
        out1.setdefault(v, []).append((label, w))
    for v, label, w in c2.transitions:
        out2.setdefault(v, []).append((label, w))
    for u, v in pairs:
        if (u in c1.terminating) != (v in c2.terminating):
            return False
        for label, u1 in out1.get(u, ()):
            if not any(l2 == label and (u1, v1) in pairs for l2, v1 in out2.get(v, ())):
                return False
        for label, v1 in out2.get(v, ()):
            if not any(l1 == label and (u1, v1) in pairs for l1, u1 in out1.get(u, ())):
                return False
    return True
