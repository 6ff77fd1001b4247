"""Experiment driver: convergence traces, sweeps, patterns, and manifests.

Every experiment is a deterministic function of (config JSON, seed): trial
seeds derive from the config seed and the trial index, trials run one after
another on the calling thread, rows are written sorted by task key, and the
manifest records the config hash so a rerun can be verified byte-for-byte
(manifest timestamp aside). Each (value, trial) is drawn once per run: its
config and read-only channels are shared by every solver and mode.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
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
    # (value, config, {trial: channels}) of the value being run; see _draw
    _draws: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        if (isinstance(self.trials, bool)
                or not isinstance(self.trials, (int, np.integer))
                or self.trials < 1):
            raise ValueError(f"trials must be an integer >= 1, "
                             f"got {self.trials!r}")
        self.trials = int(self.trials)  # the manifest's JSON takes no np.int64
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
            for value in vals:
                try:  # so a bad value fails before the first solve
                    config_for_value(self.scenario, self.sweep_var, value)
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"sweep value {value!r}: {exc}") from exc
            if vals != sorted(vals) or len(set(vals)) != len(vals):
                raise ValueError("sweep values must be strictly increasing")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def trial_seed(base_seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(base_seed), int(trial)))


def config_for_value(base: SystemConfig, var: str | None, value) -> SystemConfig:
    if var == "pt":
        return replace(base, power_budget=dbm_to_watt(float(value)))
    if var == "bs":
        return replace(base, num_bs=int(value), bs_positions=None)
    if var == "nt":
        return replace(base, num_antennas=int(value))
    return replace(base)


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
    """Tasks run at once: 1, as they run inline (``perfbench/`` reads it)."""
    return 1


def _draw(spec: ExperimentSpec, value, trial: int):
    """The config of ``value`` and the channels of (value, trial).

    Both are made once and kept in ``spec._draws`` for the value being run,
    so the tasks of a trial share one draw; the grid visits a value's tasks
    together, so a new value replaces the memo. The channel arrays are made
    read-only, as every solver and mode reads the same ones.
    """
    if spec._draws is None or spec._draws[0] != value:
        config = config_for_value(spec.scenario, spec.sweep_var, value)
        spec._draws = (value, config, {})
    _, config, drawn = spec._draws
    if trial not in drawn:
        _, channels = scenario.make_scenario(
            config, seed=trial_seed(config.rng_seed, trial))
        channels.H.flags.writeable = False
        channels.alpha.flags.writeable = False
        drawn[trial] = channels
    return config, drawn[trial]


def _one_task(spec: ExperimentSpec, value, solver: str, tag: str, trial: int):
    config, channels = _draw(spec, value, trial)
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
    spec._draws = None  # a replaced ``scenario`` must draw again
    results = {task: _one_task(spec, *task) for task in tasks}

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
    """Solve one scenario per design and export per-BS radiation patterns.

    Modes that design under equal amplifiers (DUB and IDEAL both design
    under ``PaModel.ideal()``) share one solve; each mode's pattern is then
    read under its own evaluation amplifier.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, channels = scenario.make_scenario(
        config, seed=trial_seed(config.rng_seed, trial))
    angles = metrics.default_angle_grid()
    files, designs = [], {}
    for tag in modes:
        mode = SolveMode.from_tag(tag, pa)
        if mode.design_pa not in designs:
            designs[mode.design_pa] = run_solver(solver, channels, config,
                                                 mode, opts)
        report = designs[mode.design_pa]
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
