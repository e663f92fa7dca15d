"""Hand-checked cases for the benchmark's own oracles.

Run with ``python3 -m pytest perfbench/test_oracle.py`` or
``python3 perfbench/test_oracle.py``.
"""

import itertools
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402


def chart(start, transitions, terminating):
    vertices = {start} | {v for v, _, _ in transitions} | {w for _, _, w in transitions}
    return SimpleNamespace(start=start, vertices=frozenset(vertices),
                           transitions=frozenset(transitions),
                           terminating=frozenset(terminating))


def lang(text, length=3):
    return oracles.language_upto(text, length)


def all_words(alphabet, length):
    return {"".join(w) for n in range(length + 1)
            for w in itertools.product(alphabet, repeat=n)}


def test_hand_checked_languages():
    assert lang("0") == frozenset()
    assert lang("0*") == {""}
    assert lang("1") == {""}
    assert lang("1.a") == {"a"}
    assert lang("a.0 + b") == {"b"}
    assert lang("(a*.b*)*") == all_words("ab", 3)
    assert lang("a**") == {"", "a", "aa", "aaa"}
    assert lang("a + b.c*") == {"a", "b", "bc", "bcc"}
    assert lang("(a.b)*", 4) == {"", "ab", "abab"}
    assert lang("a.b + a.c", 2) == {"ab", "ac"}
    assert lang("a + b.c*", 0) == frozenset()


def test_nested_stars_over_the_empty_word():
    # (1 + a)* is a*, 1* is 1, (b + 1)* is b*: the language is a*.b*
    expected = {a + b for a in ("", "a", "aa", "aaa") for b in ("", "b", "bb", "bbb")
                if len(a + b) <= 3}
    assert lang("((1 + a)* + 1*)**.(b + 1)*") == expected


def test_chart_traces():
    # a.(b + c*): 0 -a-> 1, 1 -b-> 2, 1 -c-> 3, 3 -c-> 3; 1, 2 and 3 terminate
    c = chart(0, {(0, "a", 1), (1, "b", 2), (1, "c", 3), (3, "c", 3)}, {1, 2, 3})
    assert oracles.chart_traces_upto(c, 3) == {"a", "ab", "ac", "acc"}
    assert oracles.chart_traces_upto(c, 3) == lang("a.(b + c*)")
    assert oracles.chart_traces_upto(chart(0, set(), set()), 2) == frozenset()


def test_cycles():
    assert not oracles.has_infinite_path(0, {(0, "a", 1), (1, "b", 2)})
    assert oracles.has_infinite_path(0, {(0, "a", 1), (1, "b", 1)})
    assert not oracles.has_infinite_path(0, {(0, "a", 1), (2, "b", 2)})


def test_exhaustive_lee():
    # a single loop: LEE holds
    assert oracles.lee_exhaustive(chart(0, {(0, "a", 1), (1, "b", 0)}, {0}))
    # acyclic: holds with no elimination
    assert oracles.lee_exhaustive(chart(0, {(0, "a", 1)}, {1}))
    # two terminating vertices on one cycle (the paper's ne1): fails (L3)
    assert not oracles.lee_exhaustive(chart(0, {(0, "a", 1), (1, "b", 0)}, {0, 1}))
    # Milner's three-vertex chart (the paper's ne2): fails (L2)
    ne2 = {(0, "a2", 1), (0, "a3", 2), (1, "a1", 0), (1, "a3", 2),
           (2, "a1", 0), (2, "a2", 1)}
    assert not oracles.lee_exhaustive(chart(0, ne2, set()))
    # an inner loop at 1 inside an outer loop at 0: holds
    nested = {(0, "a", 1), (1, "b", 1), (1, "c", 0)}
    assert oracles.lee_exhaustive(chart(0, nested, {0}))


def test_bisimulation_clauses():
    left = chart(0, {(0, "a", 0)}, {0})
    right = chart(0, {(0, "a", 1), (1, "a", 0)}, {0, 1})
    assert oracles.is_bisimulation(left, right, {(0, 0), (0, 1)})
    assert not oracles.is_bisimulation(left, right, {(0, 0)})
    stuck = chart(0, {(0, "a", 1)}, {0, 1})
    assert not oracles.is_bisimulation(left, stuck, {(0, 0), (0, 1)})


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
    print("oracle tests passed")
