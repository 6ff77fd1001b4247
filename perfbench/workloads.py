"""The benchmark's workloads, the solve recorder and the correctness checks.

Every solve goes through ``harness.run_solver``, either called by the
benchmark (``DirectWorkload``) or by the CLI's sweep pool
(``SweepWorkload``). ``Recorder`` wraps that function to time each call,
keep its report, and tag it with the case it belongs to; the checks run on
the kept reports after the timed loop.

WORKLOADS.md in this directory says why each workload is in the set.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import threading
import time
from pathlib import Path

import numpy as np

from cellfree_dab import (PaModel, SolveMode, SolverOptions, cli, harness,
                          metrics, scenario)
from cellfree_dab.common import channel_scale
from cellfree_dab.scenario import SystemConfig, desk_profile, full_profile

from tracer import Patches

SOLVERS = ("ring", "star", "central")

# Per-BS transmit power may exceed the budget by at most this share.
POWER_TOL = 1e-6
# Ring and central sum rates at the end of each pass are non-decreasing to
# the tolerance the library's own trace tests use. Inside a pass, central
# keeps the FP auxiliaries of the pass start, which bounds each visit's rate
# from below only by the rate at the pass start, so single visits may dip.
MONOTONE_TOL = 1e-6
# report.sum_rate against metrics.evaluate under the design amplifier, both
# in the solver's normalized channel units. In the original units (entries
# near 1e-9) the interference term total - signal cancels at high SINDR and
# the two rates can differ by a few 1e-9 relative; that gap is reported, not
# gated.
RATE_TOL = 1e-9


@dataclasses.dataclass
class SolveRecord:
    """One call of ``harness.run_solver`` and what it returned."""

    key: tuple
    solver: str
    mode: SolveMode
    config: SystemConfig
    channels: object
    start: float = 0.0       # time.perf_counter() when the call began
    solve_s: float = 0.0
    report: object = None
    error: str | None = None
    eval_rate: float | None = None   # sum rate under the evaluation amplifier


class Recorder:
    """Times and keeps every ``harness.run_solver`` call.

    The sweep pool calls ``harness._one_task`` on its worker threads, so the
    case key and the harness's summary row travel through thread-local state
    from the task wrapper to the solver wrapper on the same thread.
    """

    def __init__(self):
        self.records = []
        self.key_prefix = ()   # prepended to sweep task keys; set between sweeps
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = Patches()

    def __enter__(self):
        self._patches.replace(harness, "run_solver", self._wrap_solver)
        self._patches.replace(harness, "_one_task", self._wrap_task)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def set_key(self, key):
        self._local.key = key

    def take(self):
        with self._lock:
            out, self.records = self.records, []
        return out

    def _wrap_solver(self, fn):
        def run_solver(name, channels, config, mode, opts):
            rec = SolveRecord(key=getattr(self._local, "key", None), solver=name,
                              mode=mode, config=config, channels=channels)
            self._local.current = rec
            rec.start = start = time.perf_counter()
            try:
                rec.report = fn(name, channels, config, mode, opts)
                return rec.report
            except Exception as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec.solve_s = time.perf_counter() - start
                with self._lock:
                    self.records.append(rec)
        return run_solver

    def _wrap_task(self, fn):
        def one_task(spec, value, solver, tag, trial):
            self._local.key = self.key_prefix + (value, solver, tag, trial)
            self._local.current = None
            row, report = fn(spec, value, solver, tag, trial)
            rec = self._local.current
            if rec is not None and row.get("status") == "ok":
                rec.eval_rate = float(row["sum_rate"])
            elif rec is not None and rec.error is None:
                rec.error = str(row.get("status"))
            return row, report
        return one_task


def violations(rec: SolveRecord) -> list:
    """Correctness problems of one finished solve (empty when it is right)."""
    report = rec.report
    W = np.asarray(report.W)
    found = []
    if not np.all(np.isfinite(W)):
        found.append("non-finite W")
        return found
    budget = rec.config.power_budget * (1.0 + POWER_TOL)
    per_bs = np.sum(np.abs(W) ** 2, axis=(1, 2))
    if np.any(per_bs > budget):
        found.append(f"per-BS power {per_bs.max():.6g} above budget "
                     f"{rec.config.power_budget:.6g}")
    passes = pass_end_rates(rec)
    drops = [a - b for a, b in zip(passes, passes[1:]) if b < a - MONOTONE_TOL]
    if drops:
        found.append(f"pass-end sum_rate decreases by up to {max(drops):.3g}")
    scale = channel_scale(rec.channels.H)
    design = metrics.evaluate(rec.channels.H / scale, W, rec.mode.design_pa,
                              np.asarray(rec.config.sigma2) / scale**2).sum_rate
    if not abs(report.sum_rate - design) <= RATE_TOL * max(abs(design), 1e-300):
        found.append(f"report.sum_rate {report.sum_rate!r} != evaluate {design!r}")
    return found


def raw_rate_gap(rec: SolveRecord) -> float:
    """Relative gap of report.sum_rate to metrics.evaluate in original units."""
    raw = metrics.evaluate(rec.channels, rec.report.W, rec.mode.design_pa,
                           rec.config.sigma2).sum_rate
    return abs(rec.report.sum_rate - raw) / max(abs(raw), 1e-300)


def trace_rates(rec: SolveRecord) -> list:
    """Per-visit sum rates of a ring or central trace (empty for star)."""
    report = rec.report
    if rec.solver not in ("ring", "central") or not report.trace:
        return []
    col = report.trace_columns.index("sum_rate")
    return [row[col] for row in report.trace]


def pass_end_rates(rec: SolveRecord) -> list:
    """Sum rate after the last visit of each pass."""
    return trace_rates(rec)[rec.channels.H.shape[0] - 1::rec.channels.H.shape[0]]


def visit_dip(rec: SolveRecord) -> float:
    """Largest drop of the sum rate from one visit to the next (0 if none)."""
    rates = trace_rates(rec)
    return max([a - b for a, b in zip(rates, rates[1:])] + [0.0])


def backhaul_values(rec: SolveRecord):
    """Complex values a distributed solve moved over the backhaul, else None."""
    counters = rec.report.counters
    if rec.solver == "ring":
        return counters["exchanged_complex_values"]
    if rec.solver == "star":
        return counters["total_values"]
    return None


def visits(rec: SolveRecord) -> int:
    """Per-BS visits of a solve (star: one per BS per iteration)."""
    if rec.solver == "star":
        return rec.report.iterations * rec.channels.H.shape[0]
    return rec.report.counters["visits"]


class DirectWorkload:
    """Solves on generated scenarios called one after another (closed loop).

    Case ``i`` pairs scenario ``i`` with solver ``SOLVERS[i % 3]``, so every
    timed solve has its own scenario and the three solvers stay balanced.
    Every loop runs the first ``quality_cases`` cases, which the quality
    metrics are averaged over. A traced round is the first three cases: one
    solve per solver.
    """

    workers = 1

    def __init__(self, seed, config, opts, num_scenarios, quality_cases, tag):
        self.config = config
        self.opts = opts
        self.quality_cases = quality_cases
        self.mode = SolveMode.dab(PaModel.reference())
        seq = np.random.SeedSequence([tag, seed])
        self.scenario_seeds = [int(s) for s in seq.generate_state(num_scenarios)]
        self.channels = []

    def setup(self):
        """Generate every scenario and run one warm-up solve (one pass)."""
        self.channels = [scenario.make_scenario(self.config, seed=s)[1]
                         for s in self.scenario_seeds]
        warm = dataclasses.replace(self.opts, max_outer=1)
        harness.run_solver(SOLVERS[0], self.channels[0], self.config,
                           self.mode, warm)

    def _solve(self, recorder, index, channels):
        solver = SOLVERS[index % len(SOLVERS)]
        recorder.set_key((index % len(self.scenario_seeds), solver, self.mode.tag))
        try:
            report = harness.run_solver(solver, channels, self.config,
                                        self.mode, self.opts)
        except Exception:  # the recorder keeps the error; the loop goes on
            return
        rec = recorder.records[-1]
        try:
            rec.eval_rate = metrics.evaluate(channels, report.W,
                                             self.mode.eval_pa,
                                             self.config.sigma2).sum_rate
        except Exception as exc:
            rec.error = f"evaluate: {type(exc).__name__}: {exc}"

    def loop(self, recorder, deadline, min_solves, between):
        """Run cases in order until the deadline, ``min_solves`` solves and
        the quality cases are done.

        ``between`` is called after every case. The extras give the number
        of records of the quality cases, which come first.
        """
        extra = {}
        done = 0
        while (done < max(min_solves, self.quality_cases)
               or time.perf_counter() < deadline):
            self._solve(recorder, done,
                        self.channels[done % len(self.channels)])
            done += 1
            if done == self.quality_cases:
                extra["quality_records"] = len(recorder.records)
            between()
        return extra

    def round(self, recorder):
        """One traced round: regenerate and solve the first three cases."""
        for index in range(len(SOLVERS)):
            _, channels = scenario.make_scenario(
                self.config, seed=self.scenario_seeds[index])
            self._solve(recorder, index, channels)
        return {}


class SweepWorkload:
    """In-process CLI power sweeps on the desk profile (closed loop).

    Sweep ``j`` uses scenario seed ``sweep_seeds[j]``; each sweep runs every
    solver and mode over the sweep values on the harness's thread pool.
    Every loop runs the first ``quality_sweeps`` sweeps, which the quality
    metrics are averaged over. A traced round is the first sweep.
    """

    def __init__(self, seed, values, trials, num_sweeps, quality_sweeps, tag,
                 workdir):
        self.values = values
        self.trials = trials
        self.quality_sweeps = quality_sweeps
        seq = np.random.SeedSequence([tag, seed])
        self.sweep_seeds = [int(s) for s in seq.generate_state(num_sweeps)]
        self.workdir = Path(workdir)
        self.workers = harness._worker_count()
        self.tasks_per_sweep = (len(cli._parse_values(values)) * len(SOLVERS)
                                * len(harness.MODE_TAGS) * trials)

    def _config_path(self, j):
        return self.workdir / f"desk_{j}.json"

    def setup(self):
        """Write each sweep's scenario file; run one warm-up solve (one pass)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for j, s in enumerate(self.sweep_seeds):
            self._config_path(j).write_text(desk_profile(rng_seed=s).to_json())
        config = desk_profile(rng_seed=self.sweep_seeds[0])
        _, channels = scenario.make_scenario(config)
        harness.run_solver(SOLVERS[0], channels, config,
                           SolveMode.dab(PaModel.reference()),
                           dataclasses.replace(SolverOptions(), max_outer=1))

    def _sweep(self, recorder, j):
        out = self.workdir / "out"
        before = len(recorder.records)
        recorder.key_prefix = (j,)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.cli_main(["sweep", "--var", "pt", "--values", self.values,
                               "--config", str(self._config_path(j)),
                               "--trials", str(self.trials), "--out", str(out)])
        res = {"rows_ok": 0, "problems": [], "notes": []}
        if rc != 0:
            # The harness records RuntimeError as a failed row but lets any
            # other exception end the whole sweep; those solves are already
            # counted as failed, so only an exit without one is a problem.
            raised = [r.error for r in recorder.records[before:] if r.error]
            (res["notes"] if raised else res["problems"]).append(
                f"sweep {j} exited with code {rc}; solve errors: {raised[:3]}")
            return res
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        res["rows_ok"] = sum(row["status"] == "ok" for row in rows)
        if len(rows) != self.tasks_per_sweep:
            res["problems"].append(f"sweep {j} wrote {len(rows)} rows, expected "
                                   f"{self.tasks_per_sweep}")
        return res

    def loop(self, recorder, deadline, min_solves, between):
        """Run sweeps over the seed list until the deadline, ``min_solves``
        solves and the quality sweeps are done.

        ``between`` is called after every sweep. The extras give the number
        of records of the quality sweeps, which come first.
        """
        totals = {"rows_ok": 0, "problems": [], "notes": []}
        j = 0
        while (j < self.quality_sweeps or len(recorder.records) < min_solves
               or time.perf_counter() < deadline):
            res = self._sweep(recorder, j % len(self.sweep_seeds))
            for k, v in res.items():
                totals[k] += v
            j += 1
            if j == self.quality_sweeps:
                totals["quality_records"] = len(recorder.records)
            between()
        return totals

    def round(self, recorder):
        return self._sweep(recorder, 0)


# Each workload's seed stream is keyed by its tag so that workloads with the
# same --seed draw different scenarios. The quality cases (or sweeps) take
# 50-100% of a 25 s run on the development machine (desk_sweep the most);
# a run on a slower host goes on past its seconds until they are done.
def make_workload(name, seed, workdir):
    if name == "paper_full":
        return DirectWorkload(seed, full_profile(), SolverOptions(max_outer=30),
                              num_scenarios=64, quality_cases=36, tag=1)
    if name == "large_array":
        return DirectWorkload(seed, full_profile(num_antennas=64, num_ues=12),
                              SolverOptions(max_outer=2), num_scenarios=32,
                              quality_cases=18, tag=2)
    if name == "wide_network":
        return DirectWorkload(seed, full_profile(num_bs=16),
                              SolverOptions(max_outer=4), num_scenarios=64,
                              quality_cases=36, tag=3)
    if name == "desk_sweep":
        return SweepWorkload(seed, values="44", trials=6, num_sweeps=24,
                             quality_sweeps=12, tag=4, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")

