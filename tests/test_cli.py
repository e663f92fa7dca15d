"""Command-line behavior, exit codes, corpus enumeration, and the names the
benchmark traces."""

import gc
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import weakref

import pytest

from loopchart import bisim, charts, cli, lee, semantics
from loopchart.charts import Chart, EntryBodyLabeling
from loopchart.cli import (
    corpus_exprs, default_corpus, enumerate_exprs, run_cli, sample_exprs,
    verify_p1, verify_p2,
)
from loopchart.lee import WitnessReport, decide_lee
from loopchart.syntax import (
    Act, One, Star, Zero, live_projection, parse_star_expr, project, render,
)

from conftest import FIXTURES, ROOT, SRC, load_perfbench


def brute_count(alphabet_size, size):
    """Independent counting recurrence for expressions of exactly `size`
    AST nodes (oracle for the enumerator)."""
    counts = [0, 2 + alphabet_size]
    for n in range(2, size + 1):
        total = counts[n - 1]  # star
        for i in range(1, n - 1):
            total += 2 * counts[i] * counts[n - 1 - i]  # sum and product
        counts.append(total)
    return counts[size]


def test_enumerate_small():
    assert list(enumerate_exprs(["a"], 1)) == [Zero(), One(), Act("a")]
    two = list(enumerate_exprs(["a"], 2))
    assert set(two[3:]) == {Star(Zero()), Star(One()), Star(Act("a"))}


def test_enumerate_counts_match_recurrence():
    per_size = {}
    for e in enumerate_exprs(["a", "b"], 6):
        per_size[_size(e)] = per_size.get(_size(e), 0) + 1
    assert per_size == {n: brute_count(2, n) for n in range(1, 7)}
    # frozen totals: 4, 4, 36, 100, 708, 2884
    assert [per_size[n] for n in range(1, 7)] == [4, 4, 36, 100, 708, 2884]


def test_enumeration_keeps_no_largest_expression():
    smaller = len(list(enumerate_exprs(["a"], 3)))
    exprs = enumerate_exprs(["a"], 4)
    for _ in range(smaller):
        next(exprs)
    largest = next(exprs)
    assert _size(largest) == 4
    ref = weakref.ref(largest)
    del largest
    next(exprs)
    gc.collect()
    assert ref() is None


def _size(e):
    if hasattr(e, "left"):
        return 1 + _size(e.left) + _size(e.right)
    if hasattr(e, "body"):
        return 1 + _size(e.body)
    return 1


def test_sampling_deterministic():
    first = list(sample_exprs(["a", "b"], 50, 12, seed=7))
    second = list(sample_exprs(["a", "b"], 50, 12, seed=7))
    assert first == second
    assert all(_size(e) <= 12 for e in first)
    assert len(default_corpus(random_count=5)) == 3736 + 5


def test_a_repeated_action_is_enumerated_once(capsys):
    assert list(enumerate_exprs(["a", "a"], 4)) == list(enumerate_exprs(["a"], 4))
    assert len(list(enumerate_exprs(["a", "a"], 4))) == 84
    assert (list(sample_exprs(["b", "a", "b"], 30, 8, seed=3))
            == list(sample_exprs(["a", "b"], 30, 8, seed=3)))
    outputs = []
    for alphabet in ("a,a", "a"):
        code = run_cli(["--format", "json", "corpus", "--alphabet", alphabet,
                        "--max-size", "3", "--random", "5"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1].splitlines()[-1])["expressions"] == 27 + 5


@pytest.fixture
def fresh_p2_memo():
    """Empty P1 and P2 caches, emptied again afterwards, so that verdicts of
    patched validators or patched closures do not outlive the test."""
    cli._p1_verdict.cache_clear()
    cli._p2_verdict.cache_clear()
    yield
    cli._p1_verdict.cache_clear()
    cli._p2_verdict.cache_clear()


def _direct_p1_report(e) -> str:
    """P1's report from the expression's own chart and induced chart, with
    the graph of the projection checked by `check_relation_bisim`: the
    uncached check, bypassing `_p1_verdict`."""
    chart, chart_exprs = semantics.chart_of_with_exprs(e)
    chart_ids = {expr: vid for vid, expr in chart_exprs.items()}
    onechart, stacked_exprs = semantics.onechart_of_with_exprs(e)
    induced = charts.reachable(charts.induced_of(onechart))
    stats = {
        "onechart_vertices": len(onechart.vertices),
        "one_transitions": len(onechart.one_transitions),
        "induced_vertices": len(induced.vertices),
        "chart_vertices": len(chart.vertices),
    }
    mapping = {}
    for vid in induced.vertices:
        image = project(stacked_exprs[vid])
        if image not in chart_ids:
            return cli.VerifyReport(render(e), "p1", False, stats, {
                "kind": "projection-misses-chart",
                "vertex": vid, "projected": render(image)}).to_json()
        mapping[vid] = chart_ids[image]
    report = bisim.check_relation_bisim(induced, chart, set(mapping.items()))
    failure = None
    if not report.ok:
        failure = {"kind": "not-a-functional-bisimulation",
                   "clause": report.clause, "pair": report.pair}
    return cli.VerifyReport(render(e), "p1", report.ok, stats, failure).to_json()


def test_p1_reports_do_not_depend_on_the_cache(fresh_p2_memo):
    exprs = list(corpus_exprs()) + list(sample_exprs(["a", "b", "c"], 200, 40, 7))
    expected = [_direct_p1_report(e) for e in exprs]
    cold = []
    for e in exprs:
        cli._p1_verdict.cache_clear()
        cold.append(verify_p1(e).to_json())
    assert cold == expected
    cli._p1_verdict.cache_clear()
    assert [verify_p1(e).to_json() for e in exprs] == expected
    info = cli._p1_verdict.cache_info()
    assert 0 < info.misses < len(exprs) / 2 and info.currsize == cli.VERDICT_MEMO_SIZE


def _structure(chart, marking=None) -> tuple:
    """`semantics.Closure.structure` for a chart on vertices 0..n-1 with start 0,
    its transitions in sorted order."""
    laid_out = []
    for t in sorted(chart.transitions):
        laid_out += t if marking is None else (*t, marking[t])
    return len(chart.vertices), tuple(sorted(chart.terminating)), tuple(laid_out)


def _random_p1_case(rng):
    """A chart, a 1-chart and the expressions of their vertices, drawn so
    that the projection mostly maps into the chart and the 1-chart mostly
    follows it: chart vertex i is `xi`, and 1-chart vertex v is `xi` for
    its image i, or `yv` when it has none."""
    n2 = rng.randint(1, 4)
    chart = Chart(frozenset("ab"), 0, frozenset(range(n2)),
                  frozenset((rng.randrange(n2), rng.choice("ab"), rng.randrange(n2))
                            for _ in range(rng.randint(0, 2 * n2))),
                  frozenset(v for v in range(n2) if rng.random() < 0.4))
    n1 = rng.randint(1, 6)
    image = [0] + [rng.randrange(n2) if rng.random() < 0.85 else -1 for _ in range(1, n1)]
    if rng.random() < 0.1:
        image[0] = rng.randrange(n2)
    by_image = {}
    for v, i in enumerate(image):
        by_image.setdefault(i, []).append(v)
    transitions = set()
    for v, i in enumerate(image):
        for _, label, j in chart.out(i):
            if j in by_image and rng.random() < 0.95:
                transitions.add((v, label, rng.choice(by_image[j])))
        if rng.random() < 0.3:
            transitions.add((v, rng.choice("ab1"), rng.randrange(n1)))
        if rng.random() < 0.2:
            transitions.add((v, "1", rng.choice(by_image[i])))
    terminating = {v for v, i in enumerate(image)
                   if (i in chart.terminating) != (rng.random() < 0.05)}
    onechart = Chart(frozenset("ab"), 0, frozenset(range(n1)), frozenset(transitions),
                     frozenset(terminating))
    exprs = {i: Act(f"x{i}") for i in range(n2)}
    stacked = {v: exprs[i] if i >= 0 else Act(f"y{v}") for v, i in enumerate(image)}
    return chart, exprs, onechart, stacked


def test_p1_reports_equal_the_uncached_check_on_random_structures(fresh_p2_memo,
                                                                  monkeypatch):
    """Seeded random charts and 1-charts, in place of an expression's
    closures: through the cache, cold or warm, each report equals the
    uncached check's, and every failure kind is met."""
    rng = random.Random(20)
    cases = [_random_p1_case(rng) for _ in range(600)]
    e = parse_star_expr("a")
    failures = []
    # each case cold, then the last 100 twice, the second time all hits
    for n, (chart, exprs, onechart, stacked) in enumerate(cases + cases[-100:] * 2):
        monkeypatch.setattr(semantics, "chart_of_with_exprs", lambda _: (chart, exprs))
        monkeypatch.setattr(semantics, "onechart_of_with_exprs",
                            lambda _: (onechart, stacked))
        closures = {
            semantics.steps_star: semantics.Closure(
                list(exprs.values()), {x: i for i, x in exprs.items()}, _structure(chart)),
            semantics.labeled_steps_stacked: semantics.Closure(
                list(stacked.values()), {},
                _structure(onechart, dict.fromkeys(onechart.transitions, 0)))}
        monkeypatch.setattr(semantics, "closure_of", lambda _, step_fn: closures[step_fn])
        expected = _direct_p1_report(e)
        if n < len(cases):
            cli._p1_verdict.cache_clear()
        assert verify_p1(e).to_json() == expected
        failure = json.loads(expected).get("failure", {})
        failures.append(failure.get("clause", failure.get("kind", "pass")))
    assert set(failures) == {"pass", "projection-misses-chart", "start",
                             "termination", "forth", "back"}
    assert cli._p1_verdict.cache_info().hits >= 100


def test_live_projection_gives_the_chart_vertex_of_the_built_projection():
    """Looked up before `project` builds anything, each 1-chart vertex's
    projection has the chart vertex id of the built projection, or -1."""
    for e in list(corpus_exprs()) + list(sample_exprs(["a", "b", "c"], 200, 40, 7)):
        one = semantics.closure_of(e, semantics.labeled_steps_stacked)
        plain = semantics.closure_of(e, semantics.steps_star)
        looked_up = [plain.ids.get(live_projection(x), -1) for x in one.exprs]
        assert looked_up == [plain.ids.get(project(x), -1) for x in one.exprs]


def test_p1_checks_once_per_recent_structure(fresh_p2_memo, monkeypatch):
    """4,236 expressions, 511 distinct keys of chart, 1-chart and
    projection, and 686 misses with the least recently used of 128
    verdicts evicted first."""
    keys, verdict = [], cli._p1_verdict

    def recording(*key):
        keys.append(key)
        return verdict(*key)
    monkeypatch.setattr(cli, "_p1_verdict", recording)
    assert sum(verify_p1(e).passed for e in corpus_exprs()) == 4236
    assert len(keys) == 4236 and len(set(keys)) == 511
    info = verdict.cache_info()
    assert (info.hits, info.misses) == (4236 - 686, 686)


def _count_validator_runs(monkeypatch) -> list:
    runs = []
    for name in ("validate_llee", "validate_llee_alt"):
        def counting(labeling, validate=getattr(lee, name), name=name):
            runs.append(name)
            return validate(labeling)
        monkeypatch.setattr(lee, name, counting)
    return runs


def _direct_p2_report(e) -> str:
    """P2's report from both validators run on the expression's own marked
    1-chart, with its alphabet and annotations, bypassing the cache."""
    labeling = semantics.labeled_onechart_of(e)
    direct, alt = lee.validate_llee(labeling), lee.validate_llee_alt(labeling)
    stats = {"onechart_vertices": len(labeling.chart.vertices),
             "one_transitions": len(labeling.chart.one_transitions),
             "entries": len(lee.entries_of(labeling))}
    failure = None
    if not (direct.valid and alt.valid):
        failure = {"kind": "witness-invalid",
                   "direct": direct.violations, "alt": alt.violations}
    return cli.VerifyReport(render(e), "p2", failure is None, stats, failure).to_json()


def test_p2_reports_do_not_depend_on_the_memo(fresh_p2_memo, monkeypatch):
    exprs = list(corpus_exprs()) + list(sample_exprs(["a", "b", "c"], 200, 40, 7))
    expected = [_direct_p2_report(e) for e in exprs]
    cold = []
    for e in exprs:
        cli._p2_verdict.cache_clear()
        cold.append(verify_p2(e).to_json())
    assert cold == expected
    runs = _count_validator_runs(monkeypatch)
    assert [verify_p2(e).to_json() for e in exprs] == expected
    assert 0 < len(runs) < len(exprs)  # the warm pass hit the memo
    assert cli._p2_verdict.cache_info().currsize == cli.VERDICT_MEMO_SIZE


def test_p2_reports_equal_the_validators_on_rejected_labelings(fresh_p2_memo, monkeypatch):
    """Seeded random markings and terminating vertices on charts numbered
    0..n-1, as `_close` numbers them, most of which the validators reject:
    through the cache, cold or warm, each report equals the one from the
    validators run on the labeling itself."""
    rng = random.Random(11)
    labelings = []
    for _ in range(300):
        n = rng.randint(1, 5)
        transitions = sorted({(rng.randrange(n), rng.choice("ab1"), rng.randrange(n))
                              for _ in range(rng.randint(0, 3 * n))})
        terminating = frozenset(v for v in range(n) if rng.random() < 0.3)
        chart = Chart(frozenset("ab"), 0, frozenset(range(n)), frozenset(transitions),
                      terminating)
        labelings.append(EntryBodyLabeling(
            chart, {t: rng.choice([0, 0, 1, 2]) for t in transitions}))
    e = parse_star_expr("a")
    passed = []
    for labeling in labelings + labelings[-50:]:
        monkeypatch.setattr(semantics, "labeled_onechart_of", lambda _: labeling)
        monkeypatch.setattr(semantics, "closure_of", lambda *_: semantics.Closure(
            [], {}, _structure(labeling.chart, labeling.marking)))
        report = verify_p2(e)
        assert report.to_json() == _direct_p2_report(e)
        passed.append(report.passed)
    assert 0 < sum(passed) < len(passed) / 2
    assert cli._p2_verdict.cache_info().hits >= 50


def test_p2_runs_the_validators_once_per_recent_structure(fresh_p2_memo, monkeypatch):
    runs = _count_validator_runs(monkeypatch)
    count = sum(verify_p2(e).passed for e in corpus_exprs())
    # 4,236 expressions, 481 distinct marked 1-charts, 660 misses with the
    # least recently used of 128 verdicts evicted first
    assert count == 4236
    assert runs.count("validate_llee") == runs.count("validate_llee_alt") == 660
    info = cli._p2_verdict.cache_info()
    assert (info.hits, info.misses) == (4236 - 660, 660)


def test_p2_shares_a_verdict_across_alphabets_and_annotations(fresh_p2_memo, monkeypatch):
    """`(a + 0)*` and `(a + 0.b)*` have one marked 1-chart structure, but
    different alphabets and annotations, which no validator reads."""
    e, f = parse_star_expr("(a + 0)*"), parse_star_expr("(a + 0.b)*")
    le, lf = semantics.labeled_onechart_of(e), semantics.labeled_onechart_of(f)
    assert (le.chart.alphabet, lf.chart.alphabet) == ({"a"}, {"a", "b"})
    assert le.chart.annotations != lf.chart.annotations
    runs = _count_validator_runs(monkeypatch)
    first, second = verify_p2(e), verify_p2(f)
    assert runs == ["validate_llee", "validate_llee_alt"]
    assert first.expression != second.expression
    assert (json.loads(first.to_json()) | {"expression": ""}
            == json.loads(second.to_json()) | {"expression": ""})
    assert second.to_json() == _direct_p2_report(f)


def test_p2_failures_are_not_shared_through_the_memo(fresh_p2_memo, monkeypatch):
    runs = []

    def failing(labeling):
        runs.append(labeling)
        return WitnessReport(False, [{"condition": "W1", "cycle": [0, 1]}])
    monkeypatch.setattr(lee, "validate_llee", failing)
    e, f = parse_star_expr("a*"), parse_star_expr("(a + 0)*")
    first, second = verify_p2(e), verify_p2(f)
    assert len(runs) == 1
    assert not first.passed and not second.passed
    assert first.failure == second.failure
    assert first.failure is not second.failure
    assert first.statistics == second.statistics
    expected = json.loads(second.to_json())
    first.failure["direct"][0]["cycle"].append(2)
    first.failure["kind"] = "changed"
    first.statistics["entries"] = -1
    second.failure.clear()
    third = verify_p2(e)
    assert len(runs) == 1
    assert json.loads(third.to_json()) == {**expected, "expression": "a*"}


def test_verify_reports(e_expr):
    report = verify_p1(e_expr)
    assert report.passed
    assert report.statistics["one_transitions"] == 4
    doc = json.loads(report.to_json())
    assert doc["property"] == "p1" and doc["passed"]
    assert verify_p2(e_expr).statistics["entries"] == 3


def test_cli_lee_fails_on_e(capsys):
    code = run_cli(["lee", "(a*.b*)*"])
    assert code == 1
    assert "LEE: fails" in capsys.readouterr().out


def test_cli_lee_holds_on_g0(capsys):
    code = run_cli(["lee", "((1.a).(c.a + a.(b + b.a))*).0"])
    assert code == 0
    assert "LEE: holds" in capsys.readouterr().out


def test_cli_lee_json_shows_the_search_counters(capsys):
    text = "((1.a).(c.a + a.(b + b.a))*).0"
    assert run_cli(["--format", "json", "lee", text]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["holds", "trace", "search"]
    assert doc["holds"] and doc["trace"] == [
        {"vertex": 1, "entries": [[1, "a", 2], [1, "c", 0]]}]
    assert doc["search"] == {"rounds": 1, "vertex_passes": 2, "eliminations": 1}
    assert run_cli(["--format", "json", "lee", "(a*.b*)*"]) == 1
    doc = json.loads(capsys.readouterr().out)
    result = decide_lee(semantics.chart_of(parse_star_expr("(a*.b*)*")))
    assert doc == {"holds": False, "trace": None, "search": {
        "rounds": result.rounds, "vertex_passes": result.vertex_passes,
        "eliminations": result.eliminations}}
    # the text output carries no counters
    assert run_cli(["lee", "(a*.b*)*"]) == 1
    assert capsys.readouterr().out == "LEE: fails\n"


def test_cli_verify_all(capsys):
    assert run_cli(["verify", "(a*.b*)*", "--property", "all"]) == 0
    out = capsys.readouterr().out
    assert "P1: pass" in out and "P2: pass" in out


def test_cli_parse_error_exit_2(capsys):
    assert run_cli(["bisim", "nonsense(", "a"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_usage_error_exit_2():
    assert run_cli(["no-such-command"]) == 2


def test_cli_chart_json_round_trips(capsys):
    assert run_cli(["--format", "json", "chart", "a"]) == 0
    restored = charts.from_json(capsys.readouterr().out)
    assert restored.transitions == frozenset({(0, "a", 1)})


def test_cli_onechart_json_carries_markings(capsys):
    assert run_cli(["--format", "json", "onechart", "(a*.b*)*"]) == 0
    restored = charts.from_json(capsys.readouterr().out)
    assert isinstance(restored, charts.EntryBodyLabeling)
    assert sorted(m for m in restored.marking.values() if m) == [1, 1, 2, 2]


def test_cli_file_inputs(capsys):
    ne1 = os.path.join(FIXTURES, "ne1.json")
    ne2 = os.path.join(FIXTURES, "ne2.json")
    assert run_cli(["lee", ne1]) == 1
    capsys.readouterr()
    assert run_cli(["bisim", ne1, ne2]) == 1
    assert "not bisimilar" in capsys.readouterr().out
    assert run_cli(["collapse", ne2]) == 0


def test_cli_llee_check(tmp_path, capsys, e_expr):
    from loopchart import semantics
    path = tmp_path / "labeled.json"
    path.write_text(charts.to_json(semantics.labeled_onechart_of(e_expr)))
    assert run_cli(["llee-check", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_llee_check_expression_exit_2(capsys):
    assert run_cli(["llee-check", "a"]) == 2
    assert capsys.readouterr().err == "error: input carries no markings\n"


@pytest.mark.parametrize("command", ["collapse", "lee", "llee-check"])
def test_cli_kind_on_a_proper_label_exit_2(tmp_path, capsys, command):
    path = tmp_path / "kind.json"
    path.write_text('{"alphabet": ["a"], "start": 0,'
                    ' "vertices": [{"id": 0, "terminating": true}],'
                    ' "transitions": [{"from": 0, "label": "a", "to": 0, "kind": "empty"}]}')
    assert run_cli([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and "/transitions/0/kind" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, code", [(["lee", "src"], 0), (["collapse", "src"], 0),
                                        (["bisim", "src", "src*"], 1)])
def test_cli_reads_a_directory_name_as_an_expression(tmp_path, monkeypatch, capsys,
                                                     argv, code):
    """Only a file, or a name ending in .json, is read as a chart file."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
    expected = capsys.readouterr()
    (tmp_path / "src").mkdir()
    (tmp_path / "src*").mkdir()
    assert run_cli(argv) == code
    assert capsys.readouterr() == expected
    (tmp_path / "src.json").mkdir()
    assert run_cli([argv[0], "src.json"] + argv[2:]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_corpus_small(capsys):
    code = run_cli(["--format", "json", "corpus", "--max-size", "3",
                    "--random", "10", "--random-max-size", "5"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"expressions": 54, "failures": 0}


def test_cli_deep_nesting_exit_0(capsys):
    # the step rules run without recursion, so a left-nested chain of
    # 10,000 products gets an answer
    chain = ".".join(["a"] * 10_000)
    assert run_cli(["chart", chain]) == 0
    assert capsys.readouterr().out.startswith("chart: 10001 vertices")
    assert run_cli(["verify", chain]) == 0
    out = capsys.readouterr().out
    assert "P1: pass" in out and "P2: pass" in out


def test_cli_deep_parentheses_exit_0(capsys):
    assert run_cli(["chart", "(" * 1000 + "a" + ")" * 1000]) == 0
    assert capsys.readouterr().out.startswith("chart: 2 vertices")


def test_cli_verify_long_product_chain(capsys):
    assert run_cli(["verify", ".".join(["a"] * 500)]) == 0
    out = capsys.readouterr().out
    assert "P1: pass" in out and "P2: pass" in out


@pytest.mark.parametrize("argv", [
    ["--max-size", "0"],
    ["--random-max-size", "0"],
    ["--alphabet", "1"],
    ["--random", "-1"],
])
def test_cli_corpus_usage_errors_exit_2(capsys, argv):
    assert run_cli(["corpus", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["lee", "{}"], ["collapse", "{}"],
                                  ["llee-check", "{}"], ["bisim", "a", "{}"]])
def test_cli_chart_file_not_utf8_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert run_cli([arg.format(path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("error", [semantics.StateExplosion, RecursionError,
                                   MemoryError])
def test_cli_semantics_errors_exit_2(monkeypatch, capsys, error):
    def fail(e):
        raise error("cap")
    monkeypatch.setattr(semantics, "chart_of", fail)
    assert run_cli(["chart", "a"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_traced_benchmark_names_resolve():
    """Every function perfbench/layers.py wraps exists under its name."""
    for targets in load_perfbench("layers").LAYERS.values():
        for module_name, attr in targets:
            owner = importlib.import_module(f"loopchart.{module_name}")
            for name in attr.split("."):
                assert hasattr(owner, name), f"loopchart.{module_name}.{attr}"
                owner = getattr(owner, name)
            assert callable(owner)


def test_readme_cli_lines_run():
    """Every line of README's CLI block that names no chart file parses and
    gets a verdict."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        block = re.search(r"## CLI.*?```sh\n(.*?)```", handle.read(), re.S).group(1)
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    runnable = [argv for argv in lines if not any(arg.endswith(".json") for arg in argv)]
    assert len(runnable) == 6
    for argv in runnable:
        assert run_cli(argv) in (0, 1), argv


def test_readme_api_references_resolve():
    """Every backticked `module.name` reference in README, for the package's
    modules, names an attribute path of that module."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        refs = set(re.findall(r"`(syntax|semantics|charts|bisim|lee|cli)((?:\.\w+)+)",
                              handle.read()))
    assert len(refs) >= 12
    for module_name, path in refs:
        owner = importlib.import_module(f"loopchart.{module_name}")
        for name in path[1:].split("."):
            assert hasattr(owner, name), f"{module_name}{path}"
            owner = getattr(owner, name)


def test_the_package_reads_no_environment():
    """No module of the package reads an environment variable: what a
    command does depends on its arguments and input only."""
    package = os.path.join(SRC, "loopchart")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "lee.py" in modules and "cli.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            assert not re.search(r"\b(environ|getenv)b?\b",
                                 handle.read()), name


def test_cli_runs_as_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "loopchart.cli", "chart", "a*"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("chart: ")


def test_cli_reported_cycle_does_not_depend_on_the_hash_seed():
    # the body steps of the fixture have the cycle 1-2-1, and W1 reports it
    argv = [sys.executable, "-m", "loopchart.cli", "--format", "json",
            "llee-check", os.path.join(FIXTURES, "w1_cycle.json")]
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 1
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["direct"][0]["cycle"] == [1, 2]
