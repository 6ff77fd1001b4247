#!/usr/bin/env python3
"""Self-tests of the benchmark on tiny desk configurations.

    python3 perfbench/selftest.py

They check the benchmark's own machinery: that traced counts are exact, that
spans line up with the solver reports, that tracing changes no result, and
that a solve that raises is counted without stopping the run.
"""

from __future__ import annotations

import collections
import importlib
import shutil
import tempfile
import unittest

import run

run.pin_environment()
workloads = run.import_library()

import numpy as np  # noqa: E402

from cellfree_dab import SolverOptions, local_solver  # noqa: E402
from cellfree_dab.scenario import desk_profile  # noqa: E402
from hostclock import HostClock  # noqa: E402
from layers import per_layer  # noqa: E402
from tracer import PACKAGE, TRACED, Patches  # noqa: E402


def tiny_direct(seed=7):
    return workloads.DirectWorkload(seed, desk_profile(),
                                    SolverOptions(max_outer=30),
                                    num_scenarios=6, quality_cases=3, tag=99)


class TinySweep:
    """A two-power desk sweep in its own temporary directory."""

    def __enter__(self):
        self.dir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT)
        self.wl = workloads.SweepWorkload(7, values="8:36:44",
                                          trials=1, num_sweeps=1,
                                          quality_sweeps=1, tag=98,
                                          workdir=self.dir)
        self.wl.setup()
        return self.wl

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        return False


def traced_round(wl):
    """Records and per-layer metrics of one untraced and one traced round."""
    with workloads.Recorder() as recorder:
        records, extras, untraced_s, traced = run.run_rounds(wl, recorder, 0.0)
    metrics, _, problems = per_layer("tiny", traced, untraced_s, wl.workers)
    return records, extras, traced, metrics, problems


def timed_loop(wl, min_solves):
    """Records, extras and kernel samples of a loop of ``min_solves`` solves
    (and the quality cases), sampled as ``run.run_loop`` samples."""
    clock = HostClock()
    clock.sample()
    with workloads.Recorder() as recorder:
        extra = wl.loop(recorder, deadline=0.0, min_solves=min_solves,
                        between=clock.maybe_sample)
        records = recorder.take()
    clock.sample()
    return records, extra, clock


def calls_per_solve(buffers, name):
    """Number of ``name`` spans under each solve id."""
    counts = collections.Counter()
    for buf in buffers:
        for span in buf:
            if span.name == name:
                counts[span.solve] += 1
    return counts


def fail_once(exc):
    """Patches making the next ``local_solver.update_R`` call raise ``exc``."""
    patches = Patches()
    armed = [True]

    def make(fn):
        def update_R(*args, **kwargs):
            if armed[0]:
                armed[0] = False
                raise exc
            return fn(*args, **kwargs)
        return update_R

    patches.replace(local_solver, "update_R", make)
    return patches


class BenchmarkSelfTest(unittest.TestCase):

    def test_exact_counts_repeat_across_traced_runs(self):
        with TinySweep() as wl:
            *_, m1, p1 = traced_round(wl)
            *_, m2, p2 = traced_round(wl)
        self.assertEqual(p1 + p2, [])
        exact = [n for n, (_, unit) in m1.items()
                 if unit in ("count", "count/visit", "passes")]
        self.assertGreater(len(exact), 10)
        for name in exact:
            self.assertEqual(m1[name][0], m2[name][0], name)

    def test_wrapped_attributes_are_restored(self):
        bindings = [(importlib.import_module(f"{PACKAGE}.{module}"), attr)
                    for module, attr, _ in TRACED]
        before = [getattr(m, a) for m, a in bindings]
        with TinySweep() as wl:
            traced_round(wl)
        self.assertEqual([getattr(m, a) for m, a in bindings], before)

    def test_sweep_calls_equal_visits(self):
        wl = tiny_direct()
        _, _, traced, _, _ = traced_round(wl)
        buffers, records, _ = traced[0]
        sweeps = calls_per_solve(buffers, "local_solver.sweep")
        by_order = [sweeps[k] for k in sorted(sweeps)]
        self.assertEqual(len(by_order), len(records))
        for count, rec in zip(by_order, records):
            if rec.solver in ("ring", "central"):
                self.assertEqual(count, rec.report.counters["visits"], rec.solver)

    def test_ring_backhaul_is_visits_times_message(self):
        wl = tiny_direct()
        wl.setup()
        with workloads.Recorder() as recorder:
            wl.loop(recorder, deadline=0.0, min_solves=3,
                    between=lambda: None)
            records = recorder.take()
        ring = [r for r in records if r.solver == "ring"]
        self.assertTrue(ring)
        K = wl.config.num_ues
        for rec in ring:
            self.assertEqual(workloads.backhaul_values(rec),
                             rec.report.counters["visits"] * (K * K + K))

    def test_tracing_leaves_rates_bit_identical(self):
        with TinySweep() as wl:
            records, extras, traced, _, _ = traced_round(wl)
        traced_ids = {id(r) for _, recs, _ in traced for r in recs}
        plain = {r.key: r for r in records if id(r) not in traced_ids}
        seen = [r for r in records if id(r) in traced_ids]
        self.assertEqual(len(plain), len(seen))
        for rec in seen:
            ref = plain[rec.key]
            self.assertEqual(rec.report.sum_rate, ref.report.sum_rate, rec.key)
            self.assertEqual(rec.eval_rate, ref.eval_rate, rec.key)
            self.assertTrue(np.array_equal(rec.report.W, ref.report.W), rec.key)
        problems, _, _ = run.check(workloads, records, extras)
        self.assertEqual(problems, [])

    def _quality_of_loops(self, wl, lengths):
        """Quality metrics and record counts of loops of the given lengths."""
        quality, counts = [], []
        for min_solves in lengths:
            records, extra, clock = timed_loop(wl, min_solves)
            metrics, _, _ = run.end_to_end(workloads, records, extra,
                                           [(0.1, 1.0)], clock)
            quality.append([metrics[name][0] for name in
                            ("sum_rate_mean", "backhaul_values_per_solve")])
            counts.append(len(records))
        return quality, counts

    def test_quality_metrics_ignore_loop_length(self):
        wl = tiny_direct()
        wl.setup()
        quality, counts = self._quality_of_loops(wl, (3, 6))
        self.assertEqual(counts, [3, 6])
        self.assertEqual(quality[0], quality[1])

    def test_sweep_quality_metrics_ignore_loop_length(self):
        with TinySweep() as wl:
            quality, counts = self._quality_of_loops(
                wl, (1, wl.tasks_per_sweep + 1))
        self.assertEqual(counts, [wl.tasks_per_sweep, 2 * wl.tasks_per_sweep])
        self.assertEqual(quality[0], quality[1])

    def test_raising_solve_is_counted_and_run_goes_on(self):
        wl = tiny_direct()
        wl.setup()
        patches = fail_once(np.linalg.LinAlgError("injected"))
        try:
            records, extra, clock = timed_loop(wl, run.MIN_SOLVES)
        finally:
            patches.restore()
        self.assertEqual(len(records), run.MIN_SOLVES)
        self.assertIn("LinAlgError", records[0].error)
        _, printed, _ = run.end_to_end(workloads, records, extra, [(0.1, 1.0)],
                                       clock)
        self.assertEqual(printed["failed_share"][0], 1 / run.MIN_SOLVES)

    def test_raising_solve_in_sweep_is_counted(self):
        with TinySweep() as wl:
            patches = fail_once(RuntimeError("injected"))
            try:
                with workloads.Recorder() as recorder:
                    res = wl.round(recorder)
                    records = recorder.take()
            finally:
                patches.restore()
        self.assertEqual(res["problems"], [])
        self.assertEqual(sum(r.error is not None for r in records), 1)
        self.assertEqual(res["rows_ok"], len(records) - 1)


if __name__ == "__main__":
    unittest.main()
