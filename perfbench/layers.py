"""Per-layer counts and self times, taken by wrapping the program's public
functions from outside.

Modules import each other's functions by name (``lee`` imports
``reachable`` and ``find_cycle`` from ``charts``), so a function is
replaced under every name any ``loopchart`` module holds it by.  A layer's
self time is the wrapper's duration minus the time spanned by the traced
calls it made.  Wrappers count only while ``active`` is set, so the
benchmark's own checks between operations are not traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> functions as (module, attribute); a prefix with several
# functions reports their sum
LAYERS = {
    "syntax.parse_star_expr": [("syntax", "parse_star_expr")],
    "syntax.render": [("syntax", "render")],
    "semantics.steps_star": [("semantics", "steps_star")],
    "semantics.steps_stacked": [("semantics", "steps_stacked")],
    "semantics.labeled_steps_stacked": [("semantics", "labeled_steps_stacked")],
    "semantics.normedness": [("semantics", "normedness")],
    "semantics.closure": [("semantics", "chart_of_with_exprs"),
                          ("semantics", "onechart_of_with_exprs"),
                          ("semantics", "labeled_onechart_of_with_exprs")],
    "charts.reachable": [("charts", "reachable")],
    "charts.induced_of": [("charts", "induced_of")],
    "charts.canonical_key": [("charts", "canonical_key")],
    "charts.cycle": [("charts", "has_infinite_path"), ("charts", "find_cycle")],
    "charts.Chart.out": [("charts", "Chart.out")],
    "bisim.check_functional_bisim": [("bisim", "check_functional_bisim")],
    "bisim.collapse": [("bisim", "collapse")],
    "bisim.bisimilar": [("bisim", "bisimilar")],
    "cli.verify_p1": [("cli", "verify_p1")],
    "cli.verify_p2": [("cli", "verify_p2")],
    "lee.check_loop_chart": [("lee", "check_loop_chart")],
    "lee.loop_subchart_generated": [("lee", "loop_subchart_generated")],
    "lee.eliminate_loop": [("lee", "eliminate_loop")],
    "lee.validate_llee_alt": [("lee", "validate_llee_alt")],
}
STEP_RULES = ("semantics.steps_star", "semantics.steps_stacked",
              "semantics.labeled_steps_stacked")


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.ok: Counter = Counter()
        self.hash_calls = 0
        self.step_calls = 0
        self.step_repeats = 0
        self._hashing_counted = True
        self._seen: defaultdict = defaultdict(set)
        self._children = [0.0]
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for prefix, targets in LAYERS.items():
            for module_name, attr in targets:
                module = getattr(package, module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._replace(owner, method, self._wrap(prefix, getattr(owner, method)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(prefix, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, name, wrapper)
        syntax = package.syntax
        for value in list(vars(syntax).values()):
            if (isinstance(value, type) and issubclass(value, (syntax.StarExpr, syntax.StackedExpr))
                    and "__hash__" in vars(value) and value.__hash__ is not None):
                self._replace(value, "__hash__", self._count_hash(value.__hash__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _replace(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers ----------------------------------------------------------

    def _count_hash(self, original):
        tracer = self

        def __hash__(node):
            if tracer.active and tracer._hashing_counted:
                tracer.hash_calls += 1
            return original(node)
        return __hash__

    def _wrap(self, prefix, fn):
        tracer = self
        step_rule = prefix in STEP_RULES
        loop_check = prefix == "lee.check_loop_chart"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if step_rule:
                tracer._note_argument(prefix, args[0])
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                children = tracer._children.pop()
                tracer._children[-1] += spent
                tracer.self_s[prefix] += spent - children
                tracer.calls[prefix] += 1
            if loop_check and result.ok:
                tracer.ok[prefix] += 1
            return result
        return wrapper

    def _note_argument(self, prefix, argument) -> None:
        # the membership test hashes the argument; that hashing is ours
        self._hashing_counted = False
        try:
            seen = self._seen[prefix]
            self.step_calls += 1
            if argument in seen:
                self.step_repeats += 1
            else:
                seen.add(argument)
        finally:
            self._hashing_counted = True

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Raw totals, summable over rounds."""
        out = {"syntax.hash.calls": self.hash_calls,
               "semantics.steps.calls": self.step_calls,
               "semantics.steps.repeats": self.step_repeats,
               "lee.check_loop_chart.ok": self.ok["lee.check_loop_chart"]}
        for prefix in LAYERS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.self_s"] = self.self_s[prefix]
        return out
