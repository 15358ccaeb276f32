"""Layer spans recorded from outside the program, by wrapping its functions.

`installed(tracer)` replaces every public function of the layer modules,
and every alias of one that another cliquealg module imported with
`from .x import f`, by a wrapper that records a span; it also wraps the
world's route, run_local and parallel_phases methods.  Everything is
restored on exit.  Spans are recorded only inside an instance's entry
call, so set-up and read-out stay untraced.

A span's self time is its duration minus the time its child spans cover.
Each route call's build generators are timed as a child of the route span
(`sim.route.build`), which is aggregated but not kept as separate spans.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np

from cliquealg.sim import CliqueWorld

LAYER_MODULES = ("sim", "ff", "mm", "planner", "distprod", "detinv", "krylov", "collective",
                 "graphs")
SIM_METHODS = ("route", "run_local", "parallel_phases")
ENTRY = "bench.entry"
BUILD = "sim.route.build"
# A medium plan made directly under one of these spans is executed; the
# strategy predictors in distprod make plans that never run.
EXECUTING_PARENTS = ("mm.mm_multi", "distprod.dist_prod_semiring")
SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "instance")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []           # SPAN_FIELDS; parent is a span index or -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.plans: list = []
        self._stack: list[list] = []          # open frames: [span index, child seconds]
        self._instance = -1

    def entry(self, instance: int, fn: Callable, *args):
        """Run one instance's entry call as the root span of its tree."""
        self._instance = instance
        return self._span(ENTRY, fn, args, {})

    def _span(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._instance]
        self.spans.append(span)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[1], span[2] = start, end
            self.calls[name] += 1
            self.self_s[name] += (end - start) - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start

    def _parent_name(self) -> str:
        return self.spans[self._stack[-1][0]][0] if self._stack else ""

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = {"ff.matmul_mod": self._count_matmul,
                "mm.make_medium_plan": self._keep_plan}.get(name)

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._parent_name()
            out = self._span(name, fn, args, kwargs)
            if hook is not None:
                hook(parent, out, args, kwargs)
            return out

        return wrapper

    def wrap_route(self, route: Callable) -> Callable:
        def wrapper(world, subset, phase, build, *rest, **kwargs):
            if not self._stack:
                return route(world, subset, phase, build, *rest, **kwargs)
            rec = self._span("sim.route", route,
                             (world, subset, phase, self._timed_build(build)) + rest, kwargs)
            self.counts["sim.route.units"] += rec.messages
            return rec

        return wrapper

    def _timed_build(self, build: Callable) -> Callable:
        """Drain one node's build generator under a child frame of the route.

        The router stages every message of a node before it moves on and
        writes no store until all nodes are built, so draining first leaves
        the phase's messages, order and ledger unchanged.
        """
        def timed(view):
            frame = [self._stack[-1][0], 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                items = list(build(view))
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self.self_s[BUILD] += dur - frame[1]
                self._stack[-1][1] += dur
            self.counts["sim.route.msgs"] += len(items)
            return items

        return timed

    def _count_matmul(self, parent, out, args, kwargs):
        p = args[2] if len(args) > 2 else kwargs["p"]
        a_shape, b_shape = np.shape(args[0]), np.shape(args[1])
        inner = a_shape[-1]
        rows = math.prod(a_shape[:-1])
        cols = math.prod(b_shape[1:])
        step = max(1, (1 << 62) // max(1, (p - 1) * (p - 1)))  # ff.matmul_mod's chunk rule
        self.counts["ff.matmul_mod.ops"] += rows * inner * cols
        self.counts["ff.matmul_mod.chunks"] += math.ceil(inner / step)

    def _keep_plan(self, parent, plan, args, kwargs):
        if parent in EXECUTING_PARENTS:
            self.plans.append(plan)

    def self_of(self, prefix: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def calls_of(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict:
        """Per-layer values of this pass (ledger phases are added by the caller)."""
        plans = self.plans
        padded = sum(pl.k * pl.n_hat * pl.m_hat for pl in plans)
        real = sum(pl.k * pl.n * pl.m for pl in plans)
        minpol_calls = self.calls["krylov.minpol_monte_carlo"]
        minpol_instances = {s[4] for s in self.spans if s[0] == "krylov.minpol_monte_carlo"}
        return {
            "sim.route.calls": self.calls["sim.route"],
            "sim.route.msgs": self.counts["sim.route.msgs"],
            "sim.route.units": self.counts["sim.route.units"],
            "sim.route.self_s": self.self_s["sim.route"],
            "sim.route.build_s": self.self_s[BUILD],
            "sim.run_local.calls": self.calls["sim.run_local"],
            "sim.run_local.self_s": self.self_s["sim.run_local"],
            "sim.parallel_phases.calls": self.calls["sim.parallel_phases"],
            "ff.matmul_mod.calls": self.calls["ff.matmul_mod"],
            "ff.matmul_mod.self_s": self.self_s["ff.matmul_mod"],
            "ff.matmul_mod.ops": self.counts["ff.matmul_mod.ops"],
            "ff.matmul_mod.chunks": self.counts["ff.matmul_mod.chunks"],
            "ff.generating_polynomial.self_s": self.self_s["ff.generating_polynomial"],
            "krylov.self_s": self.self_of("krylov."),
            "krylov.attempts_ratio": (minpol_calls / len(minpol_instances)
                                      if minpol_instances else 0.0),
            "mm.mm_multi.calls": self.calls["mm.mm_multi"],
            "mm.mm_multi.self_s": self.self_s["mm.mm_multi"],
            "mm.make_medium_plan.calls": self.calls["mm.make_medium_plan"],
            "mm.pad_ratio": padded / real if real else 0.0,
            "planner.solve_maincond.calls": self.calls["planner.solve_maincond"],
            "planner.solve_maincond.self_s": self.self_s["planner.solve_maincond"],
            "distprod.dist_prod_dft.self_s": self.self_s["distprod.dist_prod_dft"],
            "distprod.dist_prod_semiring.self_s": self.self_s["distprod.dist_prod_semiring"],
            "detinv.self_s": self.self_of("detinv."),
            "collective.self_s": self.self_of("collective."),
            "graphs.self_s": self.self_of("graphs."),
            "trace.unattributed_s": self.self_s[ENTRY],
        }


@contextmanager
def installed(tracer: Tracer):
    """Swap the tracer's wrappers in for the program's functions, then restore them."""
    wrappers = {}
    for modname in LAYER_MODULES:
        mod = importlib.import_module(f"cliquealg.{modname}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{modname}.{attr}", obj)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "cliquealg" and not modname.startswith("cliquealg."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for meth in SIM_METHODS:
        orig = vars(CliqueWorld)[meth]
        patched.append((CliqueWorld, meth, orig))
        setattr(CliqueWorld, meth, tracer.wrap_route(orig) if meth == "route"
                else tracer.wrap(f"sim.{meth}", orig))
    try:
        yield
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)
