"""Outside-in span tracer for the traced benchmark run.

The tracer wraps library entry points from outside: every module namespace
of the ``fairsubmax`` package that holds a wrapped function gets the
wrapper, and oracle methods are wrapped on each concrete oracle class, so a
subclass override is timed too.  Spans live on a stack; when one ends, its
duration is added to its parent's child time, and its self time (duration
minus child time) and call count are aggregated in memory per span name and
per (parent, child) edge.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> (module, attribute path).  The four roles without a public
# hook map to private names; when a refactor deletes one, its metrics are
# reported absent instead of failing the run.
SPANS = {
    "cli.main": ("fairsubmax.cli", "main"),
    "instance.load_instance": ("fairsubmax.instance", "load_instance"),
    "instance.validate": ("fairsubmax.instance", "validate"),
    "instance.enumerate_feasible_sets": ("fairsubmax.instance", "enumerate_feasible_sets"),
    "instance.group_counts": ("fairsubmax.instance", "group_counts"),
    "lp.solve_simplex": ("fairsubmax.lp", "solve_simplex"),
    "lp.maximize_linear": ("fairsubmax.lp", "maximize_linear"),
    "lp.pivots": ("fairsubmax.lp", "_pivot"),
    "randsolve.solve_randomized": ("fairsubmax.randsolve", "solve_randomized"),
    "randsolve.separation": ("fairsubmax.randsolve", "_SeparationContext.best_set"),
    "randsolve.outer_search": ("fairsubmax.randsolve", "_ellipsoid_run"),
    "randsolve.enumeration_build": ("fairsubmax.randsolve", "_SeparationContext.__init__"),
    "detsolve.continuous_greedy": ("fairsubmax.detsolve", "continuous_greedy"),
    "detsolve.pipage_round": ("fairsubmax.detsolve", "pipage_round"),
    "detsolve.fast_greedy": ("fairsubmax.detsolve", "fast_greedy"),
    "detsolve.matroid_independent": ("fairsubmax.detsolve", "matroid_independent"),
    "verify.audit_distribution": ("fairsubmax.verify", "audit_distribution"),
}

#: oracle methods, wrapped on every concrete ObjectiveOracle subclass
ORACLE_METHODS = ("evaluate", "marginal", "extension", "extension_marginal")

_ORIGINAL = "_perfbench_original"


def _concrete_subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if not inspect.isabstract(sub):
                found.append(sub)
    return found


class Tracer:
    """Span stack plus per-name and per-edge aggregates."""

    def __init__(self):
        self.stack: list[list] = [["<root>", 0.0, 0.0]]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, total seconds]
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        fn = getattr(fn, _ORIGINAL, fn)
        stack, stats, edges, clock = self.stack, self.stats, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += total
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += total - frame[2]
                entry[2] += total
                edge = (parent[0], name)
                edges[edge] = edges.get(edge, 0) + 1

        setattr(traced, _ORIGINAL, fn)
        return traced

    def install(self) -> None:
        """Wrap every span target for the rest of the process.

        Call after the whole package is imported.
        """
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "fairsubmax"]
        for name, (module_name, path) in SPANS.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:  # a method: patch the class that defines it
                setattr(owner, attr, wrapper)
                continue
            # a function: patch every namespace that imported it
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        base = sys.modules["fairsubmax.objectives"].ObjectiveOracle
        for cls in _concrete_subclasses(base):
            for method in ORACLE_METHODS:
                setattr(cls, method, self.wrap(f"objectives.{method}", getattr(cls, method)))

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[parent, child, calls] for (parent, child), calls in self.edges.items()],
            "absent": self.absent,
        }
