"""Experiment driver: convergence traces, sweeps, patterns, and manifests.

Every experiment is a deterministic function of (config JSON, seed): trial
seeds derive from the config seed and the trial index, results are gathered
from the worker pool and sorted by task key before writing, and the manifest
records the config hash so a rerun can be verified byte-for-byte (manifest
timestamp aside).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, metrics, scenario
from .central_solver import run_central
from .common import MODE_TAGS, SolveMode, SolverOptions
from .pa_model import PaModel
from .ring_solver import run_ring
from .star_solver import run_star
from .scenario import SystemConfig, desk_profile

SOLVERS = ("ring", "star", "central")
THREADS_ENV = "CELLFREE_DAB_THREADS"

SWEEP_VARS = {
    "pt": "transmit power in dBm",
    "bs": "number of base stations",
    "nt": "number of antennas per base station",
}


@dataclass
class ExperimentSpec:
    scenario: SystemConfig = field(default_factory=desk_profile)
    solvers: tuple = SOLVERS
    modes: tuple = MODE_TAGS
    sweep_var: str | None = None          # one of pt | bs | nt
    sweep_values: tuple = ()
    trials: int = 20
    output_dir: str | Path = "out"
    pa: PaModel = field(default_factory=PaModel.reference)
    opts: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise ValueError(f"unknown solvers {sorted(unknown)}")
        unknown = set(self.modes) - set(MODE_TAGS)
        if unknown:
            raise ValueError(f"unknown modes {sorted(unknown)}")
        if self.sweep_var is not None:
            if self.sweep_var not in SWEEP_VARS:
                raise ValueError(f"unknown sweep variable {self.sweep_var!r}")
            vals = list(self.sweep_values)
            if vals != sorted(vals) or len(set(vals)) != len(vals):
                raise ValueError("sweep values must be strictly increasing")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def trial_seed(base_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(base_seed), int(trial)))


def config_for_value(base: SystemConfig, var: str | None, value) -> SystemConfig:
    doc = json.loads(base.to_json())
    if var == "pt":
        doc["power_budget"] = dbm_to_watt(float(value))
    elif var == "bs":
        doc["num_bs"] = int(value)
        doc["bs_positions"] = None
    elif var == "nt":
        doc["num_antennas"] = int(value)
    return SystemConfig.from_json(json.dumps(doc))


def run_solver(name: str, channels, config: SystemConfig, mode: SolveMode,
               opts: SolverOptions):
    """Run solver ``name`` under ``mode.design_pa``.

    The solver is looked up among this module's globals at call time, so a
    profiler that replaces ``run_ring``, ``run_star`` or ``run_central``
    here sees the call.
    """
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    return globals()[f"run_{name}"](channels, config, mode.design_pa, opts)


def _worker_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def _one_task(spec: ExperimentSpec, value, solver: str, tag: str, trial: int):
    config = config_for_value(spec.scenario, spec.sweep_var, value)
    _, channels = scenario.make_scenario(
        config, seed=trial_seed(config.rng_seed, trial))
    mode = SolveMode.from_tag(tag, spec.pa)
    row = {
        "value": value if spec.sweep_var is not None else "",
        "solver": solver,
        "mode": tag,
        "trial": trial,
    }
    try:
        report = run_solver(solver, channels, config, mode, spec.opts)
        ev = metrics.evaluate(channels, report.W, mode.eval_pa, config.sigma2)
        row.update(
            sum_rate=ev.sum_rate,
            min_sindr=float(ev.sindr.min()),
            iterations=report.iterations,
            converged=int(report.converged),
            status="ok",
        )
        return row, report
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # record the failure, keep the run going; LinAlgError subclasses
        # ValueError, but here it is a numerical failure of one trial
        row.update(sum_rate="", min_sindr="", iterations="", converged=0,
                   status=f"error: {exc}")
        return row, None


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the experiment grid; write CSVs plus a manifest; return it."""
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = list(spec.sweep_values) if spec.sweep_var is not None else [None]
    tasks = [
        (value, solver, tag, trial)
        for value in values
        for solver in spec.solvers
        for tag in spec.modes
        for trial in range(spec.trials)
    ]
    results = {}
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futures = {
            pool.submit(_one_task, spec, *task): task for task in tasks
        }
        for fut, task in futures.items():
            results[task] = fut.result()

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "value", "solver", "mode", "trial", "sum_rate", "min_sindr",
            "iterations", "converged", "status",
        ])
        writer.writeheader()
        for task in sorted(tasks, key=_task_key):
            writer.writerow(results[task][0])

    trace_files = []
    if spec.sweep_var is None:
        for task in sorted(tasks, key=_task_key):
            row, report = results[task]
            if report is None or not report.trace:
                continue
            _, solver, tag, trial = task
            name = f"trace_{solver}_{tag}_trial{trial}.csv"
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(report.trace_columns)
                for trow in report.trace:
                    writer.writerow([_fmt(x) for x in trow])
            trace_files.append(name)

    manifest = {
        "version": __version__,
        "config": json.loads(spec.scenario.to_json()),
        "config_sha256": hashlib.sha256(
            spec.scenario.to_json().encode()
        ).hexdigest(),
        "solvers": list(spec.solvers),
        "modes": list(spec.modes),
        "sweep_var": spec.sweep_var,
        "sweep_values": list(spec.sweep_values),
        "trials": spec.trials,
        "seeds": [list(trial_seed(spec.scenario.rng_seed, t).entropy)
                  for t in range(spec.trials)],
        "files": ["summary.csv"] + trace_files,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _task_key(task):
    value, solver, tag, trial = task
    return (0 if value is None else 1, value if value is not None else 0,
            solver, tag, trial)


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return x


def run_beampattern(config: SystemConfig, pa: PaModel, opts: SolverOptions,
                    output_dir, solver: str = "ring",
                    modes=("IDEAL", "DAB", "DUB"), trial: int = 0) -> dict:
    """Solve one scenario per mode and export per-BS radiation patterns."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, channels = scenario.make_scenario(
        config, seed=trial_seed(config.rng_seed, trial))
    angles = metrics.default_angle_grid()
    files = []
    for tag in modes:
        mode = SolveMode.from_tag(tag, pa)
        report = run_solver(solver, channels, config, mode, opts)
        patterns = {
            b: metrics.beam_pattern(report.W[b], mode.eval_pa, angles,
                                    config.num_antennas, config.carrier_freq,
                                    config.antenna_spacing)
            for b in range(config.num_bs)
        }
        name = f"pattern_{solver}_{tag}.csv"
        metrics.export_pattern_csv(patterns, out / name)
        files.append(name)
    return {"files": files, "angles": len(angles)}
