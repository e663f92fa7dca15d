"""Memory stays bounded: interned nodes live only while referenced, and the
interpretations of one expression are kept only until the next."""

import gc
import os
import subprocess
import sys
import weakref

import pytest

import loopchart
from loopchart import cli, semantics
from loopchart.charts import Chart
from loopchart.syntax import Act, One, Prod, SProd, SStack, Star, Sum, Zero, parse_star_expr

from conftest import E_TEXT, F_TEXT, G0_TEXT

CLASSES = (Zero, One, Act, Sum, Prod, Star, SProd, SStack)


def _live_nodes() -> int:
    """Nodes in the intern tables, after checking that no entry is dead."""
    gc.collect()
    for cls in CLASSES:
        assert all(entry() is not None for entry in cls._table.valuerefs())
    return sum(len(cls._table) for cls in CLASSES)


def _forget_recent() -> None:
    """Empty the interpretation memo."""
    semantics.closure_of.cache_clear()


def test_corpus_nodes_die_with_their_roots():
    _forget_recent()
    before = _live_nodes()
    for e in cli.default_corpus():
        assert cli.verify_p1(e).passed and cli.verify_p2(e).passed
    del e
    _forget_recent()
    # the corpus built about 7,000 nodes; what other tests hold stays
    assert _live_nodes() <= before + 5


def _count_closures(monkeypatch) -> list:
    closed = []
    close = semantics._close

    def counting_close(start, step_fn):
        closed.append(start)
        return close(start, step_fn)
    monkeypatch.setattr(semantics, "_close", counting_close)
    return closed


def test_p1_and_p2_close_an_expression_twice(monkeypatch):
    e = parse_star_expr("(a*.b*)*.(c + 1)")
    _forget_recent()
    closed = _count_closures(monkeypatch)
    cli.verify_p1(e)
    cli.verify_p2(e)
    assert closed == [e, e]  # its chart and its labeled 1-chart
    semantics.chart_of(e)
    semantics.onechart_of(e)
    semantics.labeled_onechart_of(e)
    assert len(closed) == 2
    semantics.chart_of(Act("a"))
    semantics.chart_of(e)
    assert len(closed) == 4


def _count_charts(monkeypatch) -> list:
    built = []
    check = Chart.__post_init__

    def counting_check(chart):
        built.append(chart)
        return check(chart)
    monkeypatch.setattr(Chart, "__post_init__", counting_check)
    return built


def test_cached_verdicts_build_no_chart(monkeypatch):
    """A verdict-cache hit reads the closures' structures only; a chart is
    built when it is first asked for, once."""
    exprs = list(cli.sample_exprs(["a", "b"], 60, 10, 5))
    assert len(set(exprs)) < cli.VERDICT_MEMO_SIZE
    for e in exprs:
        cli.verify_p1(e)
        cli.verify_p2(e)
    built = _count_charts(monkeypatch)
    for e in exprs:
        cli.verify_p1(e)
        cli.verify_p2(e)
    assert built == []
    chart = semantics.chart_of(e)
    assert len(built) == 1 and built[0] is chart and semantics.chart_of(e) is chart
    labeling = semantics.labeled_onechart_of(e)
    assert len(built) == 2 and built[1] is labeling.chart
    assert semantics.onechart_of(e) is labeling.chart and len(built) == 2


def test_the_previous_expression_dies_once_the_next_is_closed():
    e = parse_star_expr("(x1.y1*)*.z1")
    cli.verify_p1(e)
    cli.verify_p2(e)
    root = weakref.ref(e)
    del e
    gc.collect()
    assert root() is not None  # kept by the memo
    f = parse_star_expr("x1 + z1")
    cli.verify_p1(f)
    cli.verify_p2(f)
    gc.collect()
    assert root() is None


# 1,500 seeded random expressions through P1 + P2, each parsed from its
# text; prints the peak RSS in KiB after 500 of them and after all.  The
# peak is VmHWM, the high-water mark of the process's own memory:
# ru_maxrss of a process started by subprocess also counts the peak of the
# process that started it.
STREAM = """
from loopchart import cli
from loopchart.syntax import parse_star_expr, render

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

texts = [render(e) for e in cli.sample_exprs(["a", "b", "c"], 1500, 30, 7)]
peaks = []
for i, text in enumerate(texts, 1):
    e = parse_star_expr(text)
    cli.verify_p1(e)
    cli.verify_p2(e)
    if i in (500, 1500):
        peaks.append(peak_kib())
print(*peaks)
"""


def _run(script: str, *args: str) -> str:
    """The output of `script` run in a fresh interpreter, which holds no
    node of this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopchart.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
                          check=True)
    return proc.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_memory_stays_flat_over_a_long_stream():
    at_500, at_1500 = map(int, _run(STREAM).split())
    # 1,000 more expressions add about 12 MB when every node lives on
    assert at_1500 - at_500 <= 3 * 1024


# The chart, labeled 1-chart and collapse JSON of each expression given,
# then again once every node has died and other nodes have taken the
# memory the dead ones freed; prints whether the two agree.  Nodes hash by
# identity, so the rebuilt sets of nodes may iterate in another order.
REBUILD = """
import gc, sys, weakref
from loopchart import bisim, charts, cli, semantics
from loopchart.syntax import parse_star_expr

def outputs():
    docs, roots = [], []
    for text in sys.argv[1:]:
        e = parse_star_expr(text)
        docs += [charts.to_json(semantics.chart_of(e)),
                 charts.to_json(semantics.labeled_onechart_of(e)),
                 charts.to_json(bisim.collapse(semantics.chart_of(e))[0])]
        roots.append(weakref.ref(e))
    return docs, roots

first, roots = outputs()
semantics.closure_of.cache_clear()
gc.collect()
assert all(root() is None for root in roots)
held = list(cli.sample_exprs(["a", "b", "c"], 300, 12, 3))
second, _ = outputs()
print(first == second)
"""


def test_outputs_do_not_depend_on_node_identity():
    assert _run(REBUILD, G0_TEXT, E_TEXT, F_TEXT) == "True\n"
