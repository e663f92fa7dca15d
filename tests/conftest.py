import importlib.util
import os

import pytest

from loopchart import charts, semantics
from loopchart.syntax import parse_star_expr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
SRC = os.path.join(ROOT, "src")

# the running examples: g0 (three-vertex cyclic chart), e = (a*.b*)*,
# and f, whose chart embeds the three-vertex Milner chart
G0_TEXT = "((1.a).(c.a + a.(b + b.a))*).0"
E_TEXT = "(a*.b*)*"
F_TEXT = "(a1.(1 + b1.0) + (a2.(1 + b2.0) + a3.(1 + b3.0)))*.0"


@pytest.fixture(scope="session")
def g0():
    return parse_star_expr(G0_TEXT)


@pytest.fixture(scope="session")
def e_expr():
    return parse_star_expr(E_TEXT)


@pytest.fixture(scope="session")
def f_expr():
    return parse_star_expr(F_TEXT)


@pytest.fixture(scope="session")
def chart_g0(g0):
    return semantics.chart_of(g0)


@pytest.fixture(scope="session")
def chart_e(e_expr):
    return semantics.chart_of(e_expr)


@pytest.fixture(scope="session")
def chart_f(f_expr):
    return semantics.chart_of(f_expr)


def load_fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        return charts.from_json(handle.read())


def load_perfbench(name):
    """The module perfbench/<name>.py, loaded from its file, since
    perfbench/ is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ne1():
    return load_fixture("ne1.json")


@pytest.fixture(scope="session")
def ne2():
    return load_fixture("ne2.json")
