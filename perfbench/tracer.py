"""Span tracer that times calls into the library from outside it.

The tracer replaces module attributes (for example ``local_solver.update_w``)
with timing wrappers and puts the originals back in ``restore``. Callers
reach these functions through module globals, so a replaced attribute is
seen by every call site that looks the name up in that module; a function
bound into several modules by ``from x import f`` is wrapped once per
binding that the library calls through.

Spans are kept in memory per thread: name, start, end, the index of the
parent span on the same thread, and the id of the solve they belong to.
Solver calls run on harness pool threads, so each thread appends only to
its own buffer; the buffers are read only after the traced work has ended.

Each span reads two clocks: the wall clock and its thread's CPU clock. On
the sweep's pool threads a span's wall duration also counts the time its
thread waited for the interpreter lock while the other thread ran, so self
time is taken from the CPU clock (time busy) and the waiting is reported
apart as wall minus CPU.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, span name). The attribute is the binding the library
# calls through; the span name is the layer-qualified name reported.
TRACED = (
    ("cli", "cli_main", "cli.cli_main"),
    ("cli", "run_experiment", "harness.run_experiment"),
    ("harness", "_one_task", "harness._one_task"),
    ("harness", "run_solver", "harness.run_solver"),
    ("harness", "run_ring", "ring_solver.run_ring"),
    ("harness", "run_star", "star_solver.run_star"),
    ("harness", "run_central", "central_solver.run_central"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("scenario", "make_scenario", "scenario.make_scenario"),
    ("scenario", "place_network", "scenario.place_network"),
    ("scenario", "generate_channel", "scenario.generate_channel"),
    ("ring_solver", "initial_beamformers", "common.initial_beamformers"),
    ("star_solver", "initial_beamformers", "common.initial_beamformers"),
    ("central_solver", "initial_beamformers", "common.initial_beamformers"),
    ("local_solver", "state_from_beamformer", "local_solver.state_from_beamformer"),
    ("local_solver", "build_workspace", "local_solver.build_workspace"),
    ("local_solver", "sweep", "local_solver.sweep"),
    ("local_solver", "update_w", "local_solver.update_w"),
    ("local_solver", "update_R", "local_solver.update_R"),
    ("local_solver", "true_local_objective", "local_solver.true_local_objective"),
    ("local_solver", "penalty_residual", "local_solver.penalty_residual"),
    ("local_solver", "hermitian_deviation", "local_solver.hermitian_deviation"),
    ("local_solver", "local_penalized_objective",
     "local_solver.local_penalized_objective"),
    ("fp_core", "bs_contribution", "fp_core.bs_contribution"),
    ("fp_core", "build_metrics_inputs", "fp_core.build_metrics_inputs"),
    ("fp_core", "sum_rate", "fp_core.sum_rate"),
    ("fp_core", "update_fp", "fp_core.update_fp"),
)

# A span with this name starts a new solve id for everything beneath it.
SOLVE_ROOT = "harness.run_solver"

PACKAGE = "cellfree_dab"


class Span:
    """One call: name, wall and thread-CPU start and end, parent, solve id."""

    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent",
                 "solve")

    def __init__(self, name, parent, solve):
        self.name = name
        self.parent = parent
        self.solve = solve


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Per-thread span buffers filled by wrappers around library functions."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._solve_ids = itertools.count(1)
        self._patches = Patches()

    def install(self):
        for module_name, attr, span_name in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            self._patches.replace(module, attr,
                                  lambda fn, n=span_name: self._wrap(fn, n))

    def restore(self):
        self._patches.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _thread_state(self):
        state = self._local.__dict__
        if "buf" not in state:
            state["buf"] = []
            state["stack"] = []
            state["solve"] = 0
            with self._lock:
                self._buffers.append(state["buf"])
        return state

    def _wrap(self, fn, name):
        starts_solve = name == SOLVE_ROOT
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._thread_state()
            buf, stack = state["buf"], state["stack"]
            outer_solve = state["solve"]
            if starts_solve:
                state["solve"] = next(self._solve_ids)
            span = Span(name, stack[-1] if stack else -1, state["solve"])
            stack.append(len(buf))
            buf.append(span)
            span.cpu_start = cpu_clock()
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.cpu_end = cpu_clock()
                stack.pop()
                state["solve"] = outer_solve

        return wrapper

    def drain(self):
        """Return the finished spans per thread and clear the buffers.

        Call only while no traced call is in flight.
        """
        with self._lock:
            buffers = [list(buf) for buf in self._buffers]
            for buf in self._buffers:
                buf.clear()
        return buffers


def aggregate(buffers):
    """Per span name: calls, inclusive wall and CPU seconds, self seconds.

    Self time is a span's CPU duration minus the CPU durations of its direct
    children; children of one span run one after another on its thread, so
    their durations add up to the part of the interval they cover.
    """
    stats = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                 "self_s": 0.0})
    for buf in buffers:
        child = [0.0] * len(buf)
        for span in buf:
            if span.parent >= 0:
                child[span.parent] += span.cpu_end - span.cpu_start
        for i, span in enumerate(buf):
            entry = stats[span.name]
            cpu = span.cpu_end - span.cpu_start
            entry["calls"] += 1
            entry["wall_s"] += span.end - span.start
            entry["cpu_s"] += cpu
            entry["self_s"] += cpu - child[i]
    return dict(stats)
