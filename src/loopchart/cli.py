"""Command-line front end, the two theorem verifiers, and corpus enumeration."""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from . import bisim, charts, lee, semantics
from .charts import Chart, EntryBodyLabeling, SchemaError
from .syntax import (
    IDENT_RE, Act, One, ParseError, Prod, Star, StarExpr, Sum, Zero,
    live_projection, parse_star_expr, project, render,
)


@dataclass
class VerifyReport:
    expression: str
    property: str  # "p1" | "p2"
    passed: bool
    statistics: dict = field(default_factory=dict)
    failure: Optional[dict] = None

    def to_json(self) -> str:
        doc = {"expression": self.expression, "property": self.property,
               "passed": self.passed, "statistics": self.statistics}
        if self.failure is not None:
            doc["failure"] = self.failure
        return json.dumps(doc)


VERDICT_MEMO_SIZE = 128


@functools.lru_cache(maxsize=VERDICT_MEMO_SIZE)
def _p1_verdict(onechart: tuple, chart: tuple,
                projection: tuple[int, ...]) -> tuple[dict, Optional[dict]]:
    """P1's statistics and failure for the 1-chart and the chart of these
    closure structures, `projection` giving each 1-chart vertex's image as a
    chart vertex, or -1 for none; `semantics.from_structure` builds the two
    charts.  A projection-misses-chart failure lacks the projected text,
    which only the expression has."""
    one = semantics.from_structure(onechart, True).chart
    plain = semantics.from_structure(chart, False)
    induced = charts.reachable(charts.induced_of(one))
    stats = {"onechart_vertices": onechart[0], "one_transitions": len(one.one_transitions),
             "induced_vertices": len(induced.vertices), "chart_vertices": chart[0]}
    mapping = {vid: projection[vid] for vid in induced.vertices}
    missed = [vid for vid, image in mapping.items() if image < 0]
    if missed:
        return stats, {"kind": "projection-misses-chart", "vertex": missed[0]}
    report = bisim.check_functional_bisim(induced, plain, mapping)
    if not report.ok:
        return stats, {"kind": "not-a-functional-bisimulation",
                       "clause": report.clause, "pair": report.pair}
    return stats, None


def verify_p1(e: StarExpr) -> VerifyReport:
    """The projection is a functional bisimulation from the reachable part
    of the induced chart of the 1-chart interpretation onto the chart
    interpretation.  `_p1_verdict` keeps the verdicts of the
    VERDICT_MEMO_SIZE most recently used closure structures and projections;
    `cache_info()` counts its hits and misses.  Every report gets its own statistics and failure."""
    one = semantics.closure_of(e, semantics.labeled_steps_stacked)
    plain = semantics.closure_of(e, semantics.steps_star)
    # a projection that is not alive is no chart vertex: None maps to -1
    images = tuple(plain.ids.get(live_projection(x), -1) for x in one.exprs)
    stats, failure = _p1_verdict(one.structure, plain.structure, images)
    if failure is not None:
        failure = dict(failure)
        if failure["kind"] == "projection-misses-chart":
            failure["projected"] = render(project(one.exprs[failure["vertex"]]))
    return VerifyReport(render(e), "p1", failure is None, dict(stats), failure)


@functools.lru_cache(maxsize=VERDICT_MEMO_SIZE)
def _p2_verdict(onechart: tuple) -> tuple[dict, Optional[dict]]:
    """P2's statistics and failure for the marked 1-chart of this closure
    structure.  The validators see only the labeling that
    `semantics.from_structure` builds from its ints and label strings."""
    labeling = semantics.from_structure(onechart, True)
    direct = lee.validate_llee(labeling)
    alt = lee.validate_llee_alt(labeling)
    stats = {"onechart_vertices": onechart[0],
             "one_transitions": len(labeling.chart.one_transitions),
             "entries": len(lee.entries_of(labeling))}
    failure = None
    if not (direct.valid and alt.valid):
        failure = {"kind": "witness-invalid",
                   "direct": direct.violations, "alt": alt.violations}
    return stats, failure


def verify_p2(e: StarExpr) -> VerifyReport:
    """The marked 1-chart interpretation is a layered entry/body witness,
    per both validators.  `_p2_verdict` keeps the verdicts of the
    VERDICT_MEMO_SIZE most recently used marked 1-charts, and its
    `cache_info()` counts hits and misses.  Every report gets its own statistics and failure."""
    stats, failure = _p2_verdict(
        semantics.closure_of(e, semantics.labeled_steps_stacked).structure)
    return VerifyReport(render(e), "p2", failure is None, dict(stats),
                        copy.deepcopy(failure))


# ---------------------------------------------------------------------------
# corpus enumeration

def enumerate_exprs(alphabet: Sequence[str], max_size: int) -> Iterator[StarExpr]:
    """All star expressions with at most max_size AST nodes, smallest first;
    deterministic order within a size."""
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    atoms: list[StarExpr] = [Zero(), One()] + [Act(a) for a in sorted(set(alphabet))]
    by_size: list[list[StarExpr]] = [[], atoms]

    def of_size(size: int) -> Iterator[StarExpr]:
        yield from map(Star, by_size[size - 1])
        for op in (Sum, Prod):
            for left_size in range(1, size - 1):
                for left in by_size[left_size]:
                    for right in by_size[size - 1 - left_size]:
                        yield op(left, right)

    yield from atoms
    for size in range(2, max_size + 1):
        exprs = of_size(size)
        # the largest expressions are part of no other, so they are not kept
        if size < max_size:
            exprs = list(exprs)
            by_size.append(exprs)
        yield from exprs


def sample_exprs(alphabet: Sequence[str], count: int, max_size: int,
                 seed: int) -> Iterator[StarExpr]:
    """`count` seeded random expressions with size uniform in 1..max_size,
    drawn one at a time."""
    rng = random.Random(seed)
    atoms = [Zero(), One()] + [Act(a) for a in sorted(set(alphabet))]

    def gen(size: int) -> StarExpr:
        if size == 1:
            return rng.choice(atoms)
        ops = ["star"] if size == 2 else ["star", "sum", "prod"]
        op = rng.choice(ops)
        if op == "star":
            return Star(gen(size - 1))
        left_size = rng.randint(1, size - 2)
        left, right = gen(left_size), gen(size - 1 - left_size)
        return Sum(left, right) if op == "sum" else Prod(left, right)

    for _ in range(count):
        yield gen(rng.randint(1, max_size))


DEFAULT_ALPHABET = ("a", "b")
DEFAULT_MAX_SIZE = 6
DEFAULT_RANDOM_COUNT = 500
DEFAULT_RANDOM_MAX_SIZE = 12
DEFAULT_SEED = 1729


def corpus_exprs(alphabet: Sequence[str] = DEFAULT_ALPHABET,
                 max_size: int = DEFAULT_MAX_SIZE,
                 random_count: int = DEFAULT_RANDOM_COUNT,
                 random_max_size: int = DEFAULT_RANDOM_MAX_SIZE,
                 seed: int = DEFAULT_SEED) -> Iterator[StarExpr]:
    """The corpus one expression at a time: every expression up to
    max_size, then the random draws."""
    yield from enumerate_exprs(alphabet, max_size)
    yield from sample_exprs(alphabet, random_count, random_max_size, seed)


def default_corpus(*args, **kwargs) -> list[StarExpr]:
    """The corpus of `corpus_exprs` as a list."""
    return list(corpus_exprs(*args, **kwargs))


# ---------------------------------------------------------------------------
# command-line interface

def _load_chart_arg(text: str) -> Union[Chart, EntryBodyLabeling]:
    """FILE (chart JSON) or EXPR; files let non-interpretable charts in."""
    if text.endswith(".json") or os.path.isfile(text):
        with open(text, "rb") as handle:
            data = handle.read()
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise SchemaError(f"invalid UTF-8: {err.reason} at byte {err.start}", "") from err
        return charts.from_json(source)
    return semantics.chart_of(parse_star_expr(text))


def _strip(obj: Union[Chart, EntryBodyLabeling]) -> Chart:
    return obj.chart if isinstance(obj, EntryBodyLabeling) else obj


def _emit(obj, fmt: str, text_line: str) -> None:
    if fmt == "json":
        print(charts.to_json(obj))
    elif fmt == "dot":
        print(charts.to_dot(obj))
    else:
        print(text_line)


def _chart_summary(c: Chart) -> str:
    ones = len(c.one_transitions)
    extra = f", {ones} empty" if ones else ""
    return (f"{len(c.vertices)} vertices, {len(c.transitions)} transitions"
            f"{extra}, {len(c.terminating)} terminating")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopchart",
        description="Process semantics of star expressions: charts, "
                    "1-charts, loop elimination, and witness checking.")
    parser.add_argument("--format", choices=["json", "dot", "text"],
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("chart", "onechart", "induced"):
        p = sub.add_parser(name)
        p.add_argument("expr")
    sub.add_parser("collapse").add_argument("input", metavar="EXPR|FILE")
    sub.add_parser("lee").add_argument("input", metavar="EXPR|FILE")
    sub.add_parser("llee-check").add_argument("file")
    p = sub.add_parser("bisim")
    p.add_argument("left", metavar="A")
    p.add_argument("right", metavar="B")
    p = sub.add_parser("verify")
    p.add_argument("expr")
    p.add_argument("--property", choices=["p1", "p2", "all"], default="all")
    p = sub.add_parser("corpus")
    p.add_argument("--alphabet", default=",".join(DEFAULT_ALPHABET))
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    p.add_argument("--random", type=int, default=DEFAULT_RANDOM_COUNT)
    p.add_argument("--random-max-size", type=int, default=DEFAULT_RANDOM_MAX_SIZE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--property", choices=["p1", "p2", "all"], default="all")
    return parser


def _corpus_usage_problem(args, alphabet: list[str]) -> Optional[str]:
    """What is wrong with the `corpus` arguments, if anything."""
    for name in alphabet:
        if not IDENT_RE.fullmatch(name):
            return f"--alphabet: invalid action name {name!r}"
    for option, value, least in (("--max-size", args.max_size, 1),
                                 ("--random", args.random, 0),
                                 ("--random-max-size", args.random_max_size, 1)):
        if value < least:
            return f"{option} must be at least {least}, got {value}"
    return None


def _verify_reports(e: StarExpr, which: str) -> list[VerifyReport]:
    """The reports `--property which` asks for."""
    reports = []
    if which in ("p1", "all"):
        reports.append(verify_p1(e))
    if which in ("p2", "all"):
        reports.append(verify_p2(e))
    return reports


def _run_verify(e: StarExpr, which: str, fmt: str) -> int:
    reports = _verify_reports(e, which)
    for report in reports:
        if fmt == "json":
            print(report.to_json())
        else:
            print(f"{report.property.upper()}: "
                  f"{'pass' if report.passed else 'fail'}")
    return 0 if all(r.passed for r in reports) else 1


# the errors that exit 2 and their stderr line; the first matching class wins
_EXIT_2 = {
    ParseError: "parse error: {}",
    SchemaError: "schema error: {}",
    RecursionError: "error: input nested too deeply (recursion limit reached)",
    MemoryError: "error: out of memory",
    OSError: "error: {}",
}


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    fmt = args.format
    try:
        if args.command == "chart":
            c = semantics.chart_of(parse_star_expr(args.expr))
            _emit(c, fmt, f"chart: {_chart_summary(c)}")
        elif args.command == "onechart":
            labeling = semantics.labeled_onechart_of(parse_star_expr(args.expr))
            _emit(labeling, fmt, f"1-chart: {_chart_summary(labeling.chart)}")
        elif args.command == "induced":
            c = charts.induced_of(
                semantics.onechart_of(parse_star_expr(args.expr)))
            _emit(c, fmt, f"induced chart: {_chart_summary(c)}")
        elif args.command == "collapse":
            collapsed, _ = bisim.collapse(_strip(_load_chart_arg(args.input)))
            _emit(collapsed, fmt, f"collapse: {_chart_summary(collapsed)}")
        elif args.command == "lee":
            c = _strip(_load_chart_arg(args.input))
            result = lee.decide_lee(c)
            if fmt == "json":
                print(json.dumps({
                    "holds": result.holds,
                    "trace": (json.loads(result.trace.to_json())
                              if result.trace else None),
                    "search": {name: getattr(result, name) for name in (
                        "rounds", "vertex_passes", "eliminations")}}))
            else:
                print("LEE: holds" if result.holds else "LEE: fails")
            return 0 if result.holds else 1
        elif args.command == "llee-check":
            loaded = _load_chart_arg(args.file)
            if not isinstance(loaded, EntryBodyLabeling):
                print("error: input carries no markings", file=sys.stderr)
                return 2
            direct = lee.validate_llee(loaded)
            alt = lee.validate_llee_alt(loaded)
            valid = direct.valid and alt.valid
            if fmt == "json":
                print(json.dumps({"valid": valid,
                                  "direct": direct.violations,
                                  "alt": alt.violations}))
            else:
                print("LLEE-witness: valid" if valid else "LLEE-witness: invalid")
            return 0 if valid else 1
        elif args.command == "bisim":
            left = _strip(_load_chart_arg(args.left))
            right = _strip(_load_chart_arg(args.right))
            relation = bisim.bisimilar(left, right)
            if fmt == "json":
                print(json.dumps({
                    "bisimilar": relation is not None,
                    "relation": sorted(map(list, relation)) if relation else None}))
            else:
                print("bisimilar" if relation is not None else "not bisimilar")
            return 0 if relation is not None else 1
        elif args.command == "verify":
            return _run_verify(parse_star_expr(args.expr), args.property, fmt)
        elif args.command == "corpus":
            alphabet = [x for x in args.alphabet.split(",") if x]
            problem = _corpus_usage_problem(args, alphabet)
            if problem is not None:
                print(f"usage error: {problem}", file=sys.stderr)
                return 2
            count = failures = 0
            for e in corpus_exprs(alphabet, args.max_size, args.random,
                                  args.random_max_size, args.seed):
                count += 1
                for report in _verify_reports(e, args.property):
                    if not report.passed:
                        failures += 1
                        if fmt == "json":
                            print(report.to_json())
                        else:
                            print(f"fail {report.property}: {report.expression}")
            summary = {"expressions": count, "failures": failures}
            print(json.dumps(summary) if fmt == "json"
                  else f"corpus: {count} expressions, {failures} failures")
            return 0 if failures == 0 else 1
    except tuple(_EXIT_2) as err:
        line = next(text for cls, text in _EXIT_2.items() if isinstance(err, cls))
        print(line.format(err), file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
