"""Command-line behavior, exit codes, corpus enumeration, and the names the
benchmark traces."""

import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from loopchart import charts, semantics
from loopchart.cli import (
    default_corpus, enumerate_exprs, run_cli, sample_exprs, verify_p1,
    verify_p2,
)
from loopchart.lee import decide_lee
from loopchart.syntax import Act, One, Star, Zero, parse_star_expr, render

from conftest import FIXTURES


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
    assert doc["search"] == {"rounds": 1, "vertex_passes": 2,
                             "eliminations": 1, "fallbacks": 0}
    assert run_cli(["--format", "json", "lee", "(a*.b*)*"]) == 1
    doc = json.loads(capsys.readouterr().out)
    result = decide_lee(semantics.chart_of(parse_star_expr("(a*.b*)*")))
    assert doc == {"holds": False, "trace": None, "search": {
        "rounds": result.rounds, "vertex_passes": result.vertex_passes,
        "eliminations": result.eliminations, "fallbacks": result.fallbacks}}
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


def test_cli_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("LOOPCHART_BUDGET", "1")
    f_text = "(a1.(1 + b1.0) + (a2.(1 + b2.0) + a3.(1 + b3.0)))*.0"
    assert run_cli(["lee", f_text]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_corpus_small(capsys):
    code = run_cli(["--format", "json", "corpus", "--max-size", "3",
                    "--random", "10", "--random-max-size", "5"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"expressions": 54, "failures": 0}


def test_cli_invalid_budget_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("LOOPCHART_BUDGET", "abc")
    assert run_cli(["lee", "(a*.b*)*"]) == 2
    err = capsys.readouterr().err
    assert "LOOPCHART_BUDGET" in err and len(err.splitlines()) == 1


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


@pytest.mark.parametrize("error", [semantics.StateExplosion,
                                   semantics.AmbiguousMarking, RecursionError,
                                   MemoryError])
def test_cli_semantics_errors_exit_2(monkeypatch, capsys, error):
    def fail(e):
        raise error("cap")
    monkeypatch.setattr(semantics, "chart_of", fail)
    assert run_cli(["chart", "a"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("which", ["p1", "p2", "all"])
def test_cli_verify_exits_2_on_ambiguous_marking(monkeypatch, capsys, which):
    # both 1-charts take their steps from the marked walker
    def fail(E):
        raise semantics.AmbiguousMarking("marked both 0 and 1")
    monkeypatch.setattr(semantics, "labeled_steps_stacked", fail)
    assert run_cli(["verify", "a", "--property", which]) == 2
    assert capsys.readouterr().err == "ambiguous marking: marked both 0 and 1\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_traced_benchmark_names_resolve():
    """Every function perfbench/layers.py wraps exists under its name."""
    path = os.path.join(os.path.dirname(SRC), "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for targets in layers.LAYERS.values():
        for module_name, attr in targets:
            owner = importlib.import_module(f"loopchart.{module_name}")
            for name in attr.split("."):
                assert hasattr(owner, name), f"loopchart.{module_name}.{attr}"
                owner = getattr(owner, name)
            assert callable(owner)


def test_readme_cli_lines_run():
    """Every line of README's CLI block that names no chart file parses and
    gets a verdict."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as handle:
        block = re.search(r"## CLI.*?```sh\n(.*?)```", handle.read(), re.S).group(1)
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    runnable = [argv for argv in lines if not any(arg.endswith(".json") for arg in argv)]
    assert len(runnable) == 6
    for argv in runnable:
        assert run_cli(argv) in (0, 1), argv


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
