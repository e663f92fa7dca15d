"""Inputs of the three workloads.

The inputs are fixed sets, drawn once from pool seeds chosen before any
timing was looked at, and run in a fixed order; the run's ``--seed`` is not
used.  Drawing the inputs from it would make two runs do different amounts
of work: one exact-size-200 expression takes 0.2 s to 18 s for P1 + P2, one
size-<=24 chart 0.1 ms to 1.4 s for ``decide_lee``.  The order is fixed
too, since it decides which operation pays for filling the step-rule memos
with a shared subterm.
"""

from __future__ import annotations

import ast
import os
import random

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")

CORPUS_SEED = 1729  # cli.DEFAULT_SEED: the acceptance corpus of the tests
LADDER_SEED = 2102  # pool seeds: the arXiv number of the paper
LEE_POOL_SEED = 2990

# (exact expression size, count) per rung of the ladder, drawn in this order
# from one generator.  The last two rungs put more operations around the
# median and the tail; drawn last, they leave the first four rungs' draws as
# they were when the pool seed was fixed.
LADDER_RUNGS = ((25, 16), (50, 14), (100, 8), (200, 2), (25, 16), (50, 10))
LADDER_ALPHABET = ("a", "b", "c")

LEE_RANDOM = (80, 24)      # plain charts: count, max size (LEE fails for ~29%)
LEE_ONE_FREE = (60, 30)    # charts of 1-free expressions: count, max size
LEE_ONE_CHARTS = (40, 10)  # 1-charts: count, max size

# The paper's examples and their verdicts (LEE holds).  g0, e and f are the
# expression texts of tests/conftest.py, ne1 and ne2 its chart fixtures; the
# 6-vertex chart of ROADMAP.md has no fixture.
PAPER_CHARTS = (
    ("g0", "G0_TEXT", True),
    ("e", "E_TEXT", False),
    ("f", "F_TEXT", False),
    ("ne1", "ne1.json", False),
    ("ne2", "ne2.json", False),
    ("six", "((0 + a*).(b*.(c + (a*.c* + 0*)) + a))*", False),
)


def _test_texts() -> dict[str, str]:
    """The module-level string constants of tests/conftest.py, read without
    importing it."""
    with open(os.path.join(TESTS, "conftest.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {target.id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets if isinstance(target, ast.Name)}


def random_expr(syntax, rng: random.Random, size: int, alphabet) -> object:
    """An expression of exactly `size` nodes over 0, 1 and `alphabet`, drawn
    as ``cli.sample_exprs`` draws them."""
    if size == 1:
        return rng.choice([syntax.Zero(), syntax.One()] +
                          [syntax.Act(a) for a in alphabet])
    op = "star" if size == 2 else rng.choice(["star", "sum", "prod"])
    if op == "star":
        return syntax.Star(random_expr(syntax, rng, size - 1, alphabet))
    left = rng.randint(1, size - 2)
    a = random_expr(syntax, rng, left, alphabet)
    b = random_expr(syntax, rng, size - 1 - left, alphabet)
    return syntax.Sum(a, b) if op == "sum" else syntax.Prod(a, b)


def one_free_expr(syntax, rng: random.Random, size: int, alphabet) -> object:
    """An expression of the 1-free fragment ``0 | a | e+f | e.f | e*.f`` with
    `size` nodes, or one node fewer where no fragment term has that size."""
    if size <= 2:
        return rng.choice([syntax.Zero()] + [syntax.Act(a) for a in alphabet])
    op = rng.choice(["sum", "prod", "star"] if size >= 4 else ["sum", "prod"])
    if op == "star":
        left = rng.randint(1, size - 3)
        return syntax.Prod(
            syntax.Star(one_free_expr(syntax, rng, left, alphabet)),
            one_free_expr(syntax, rng, size - 2 - left, alphabet))
    left = rng.randint(1, size - 2)
    a = one_free_expr(syntax, rng, left, alphabet)
    b = one_free_expr(syntax, rng, size - 1 - left, alphabet)
    return syntax.Sum(a, b) if op == "sum" else syntax.Prod(a, b)


def corpus_texts(loopchart) -> list[str]:
    """The acceptance corpus in ``loopchart corpus`` order, as text."""
    corpus = loopchart.cli.default_corpus(seed=CORPUS_SEED)
    return [loopchart.syntax.render(e) for e in corpus]


def ladder_texts(loopchart) -> list[str]:
    """The ladder as text, each rung spread evenly over the round, so that
    a percentile set by one rung samples the machine over the whole round,
    not only over the seconds one rung would take in a block."""
    rng = random.Random(LADDER_SEED)
    placed = []
    for size, count in LADDER_RUNGS:
        for i in range(count):
            e = random_expr(loopchart.syntax, rng, size, LADDER_ALPHABET)
            placed.append(((i + 0.5) / count, size, loopchart.syntax.render(e)))
    return [text for _, _, text in sorted(placed)]


def lee_inputs(loopchart) -> list[tuple[str, object, str]]:
    """(name, chart, expectation) triples.  Expectation is "holds" or
    "fails" where the paper or its theorems fix the verdict, "search" where
    the benchmark's exhaustive search decides it."""
    syntax, semantics, charts = loopchart.syntax, loopchart.semantics, loopchart.charts
    texts = _test_texts()
    inputs = []
    for name, source, holds in PAPER_CHARTS:
        if source.endswith(".json"):
            with open(os.path.join(TESTS, "fixtures", source), encoding="utf-8") as handle:
                chart = charts.from_json(handle.read())
        else:
            chart = semantics.chart_of(syntax.parse_star_expr(texts.get(source, source)))
        inputs.append((name, chart, "holds" if holds else "fails"))

    pool = random.Random(LEE_POOL_SEED)
    count, max_size = LEE_RANDOM
    for _ in range(count):
        e = random_expr(syntax, pool, pool.randint(1, max_size), LADDER_ALPHABET)
        inputs.append((f"random:{syntax.render(e)}", semantics.chart_of(e), "search"))
    count, max_size = LEE_ONE_FREE
    for _ in range(count):
        e = one_free_expr(syntax, pool, pool.randint(1, max_size), LADDER_ALPHABET)
        inputs.append((f"one-free:{syntax.render(e)}", semantics.chart_of(e), "holds"))
    count, max_size = LEE_ONE_CHARTS
    for _ in range(count):
        e = random_expr(syntax, pool, pool.randint(1, max_size), LADDER_ALPHABET)
        inputs.append((f"1-chart:{syntax.render(e)}", semantics.onechart_of(e), "holds"))
    return inputs
