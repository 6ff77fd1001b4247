#!/usr/bin/env python3
"""Solver benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload paper_full --seed 1 --seconds 20 --trace 0

Workloads: paper_full, large_array, wide_network, desk_sweep (see
WORKLOADS.md). The library is imported from ``src/`` next to this directory;
nothing is installed. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat every metric with its unit, plus the environment.

With ``--trace 0`` the run is a closed loop of solves for ``--seconds`` (and
at least ``MIN_SOLVES`` solves and the workload's fixed quality cases) and
reports the end-to-end metrics, timings in reference-host seconds (see
hostclock.py). With ``--trace 1`` the run repeats one fixed round of
solves, first untraced and then traced, half the time each, and reports the
per-layer metrics of the traced rounds. ``--rates-out`` writes every
solve's sum rate for ``compare.py``. Exit code 1 means a correctness check
failed, 2 that the library could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The tail percentile needs ten solves beyond it.
TAIL_BEYOND = 10
MIN_SOLVES = TAIL_BEYOND + 1
# Set-ups measured per run: this process plus fresh processes of this script.
SETUPS = 5
# Host-speed kernel samples taken right after each set-up.
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("paper_full", "large_array", "wide_network", "desk_sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rates-out", help="write every solve's sum rate as JSON")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment() -> int:
    """One BLAS thread; harness pool of nproc threads. Call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["CELLFREE_DAB_THREADS"] = str(nproc)
    return nproc


def import_library():
    """Import the package from ``src/`` of this checkout, then the workloads."""
    src = ROOT / "src"
    if not (src / "cellfree_dab" / "__init__.py").is_file():
        raise ImportError(f"no cellfree_dab package under {src}")
    sys.path.insert(0, str(src))
    import cellfree_dab

    if Path(cellfree_dab.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"cellfree_dab imported from {cellfree_dab.__file__}")
    import workloads

    return workloads


def environment(nproc):
    import numpy
    from cellfree_dab import harness

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "harness_workers": harness._worker_count(),
    }


def setup_factor():
    """Host-speed factor of this moment, from ``SETUP_SAMPLES`` kernel samples."""
    from hostclock import HostClock

    clock = HostClock()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    return clock.factor_at(time.perf_counter())


def probe_setups(args, count):
    """(set-up seconds, host-speed factor) of ``count`` fresh processes of
    this script, one by one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = []
    for _ in range(count):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        probe = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["factor"]))
    return out


def tail(times):
    """(percentile, value): the highest whole percentile with ten solves beyond."""
    n = len(times)
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))   # nearest rank, 1-based
    return pct, sorted(times)[rank - 1]


def end_to_end(mod, records, extra, setups, clock):
    """(metrics, printed-only metrics, notes) of one closed loop.

    ``setups`` holds (wall seconds, host-speed factor) per set-up, and
    ``clock`` the kernel samples taken before, during and after the loop.
    Timing metrics are in reference-host seconds (see hostclock.py): each
    set-up, solve and stretch of the loop is scaled by the host speed near
    it. The raw wall values are printed with the notes.
    """
    ok = [r for r in records if r.error is None]
    # The quality metrics cover the fixed quality cases that every run does
    # first, so they repeat exactly for the same code and seed.
    quality = [r for r in records[:extra["quality_records"]] if r.error is None]
    times = [r.solve_s for r in ok]
    ref_times = [clock.reference_s(r.start, r.start + r.solve_s) for r in ok]
    pct, tail_s = tail(times)
    completed = extra.get("rows_ok", len(ok))
    wall_s = sum(end - start for start, end in clock.gaps())
    ref_wall_s = sum(clock.reference_s(start, end)
                     for start, end in clock.gaps())
    backhaul = [v for v in map(mod.backhaul_values, quality) if v is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": tail_s,
        "solves_per_s": completed / wall_s,
    }
    metrics = {
        "setup_s": (statistics.median(wall * f for wall, f in setups), "s"),
        "solve_s_p50": (statistics.median(ref_times), "ref_s"),
        "solve_s_tail": (tail(ref_times)[1], "ref_s"),
        "solves_per_s": (completed / ref_wall_s, "1/ref_s"),
        "sum_rate_mean": (statistics.fmean(r.eval_rate for r in quality),
                          "bit/s/Hz"),
        "backhaul_values_per_solve": (statistics.fmean(backhaul), "values"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    # Printed, not declared in BENCHMARK.json: each reads 0 on some workload
    # (no failures at all; large_array stops at its pass budget by design).
    printed = {
        "failed_share": ((len(records) - len(ok)) / len(records), "ratio"),
        "converged_share": (statistics.fmean(r.report.converged for r in ok),
                            "ratio"),
    }
    notes = [f"solve_s_tail is p{pct} of {len(times)} solves",
             f"sum_rate_mean and backhaul_values_per_solve: the first "
             f"{extra['quality_records']} solves",
             f"solves_per_s: {completed} completed solves in {wall_s:.3f} wall s"
             f" ({ref_wall_s:.3f} ref_s)",
             "raw wall clock: "
             + ", ".join(f"{k} {v!r}" for k, v in raw.items())]
    return metrics, printed, notes


def run_loop(wl, recorder, seconds, clock):
    """The closed loop, with kernel samples before it, between cases (at
    most one a second) and after it. Returns the solve records and the
    workload's extras.
    """
    clock.sample()
    extra = wl.loop(recorder, time.perf_counter() + seconds, MIN_SOLVES,
                    clock.maybe_sample)
    clock.sample()
    return recorder.take(), extra


def run_rounds(wl, recorder, seconds):
    """The workload's round, untraced for half the time, then traced.

    Each phase runs at least one round and starts no round that the previous
    one's duration says would end after the phase's half of ``seconds``.
    Returns every solve record, the round extras, the median untraced round
    seconds and, per traced round, (span buffers, records, wall seconds).
    """
    from tracer import Tracer

    records, extras = [], []

    def repeat(after_round):
        walls = []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start + walls[-1]
                            <= seconds / 2):
            r0 = time.perf_counter()
            extras.append(wl.round(recorder))
            walls.append(time.perf_counter() - r0)
            recs = recorder.take()
            records.extend(recs)
            after_round(recs, walls[-1])
        return walls

    untraced = repeat(lambda recs, wall: None)
    traced = []
    with Tracer() as tracer:
        repeat(lambda recs, wall: traced.append((tracer.drain(), recs, wall)))
    return records, extras, statistics.median(untraced), traced


def check(mod, records, extras):
    """Correctness problems, the rates keyed by case, and notes.

    A case that ran more than once (the loop wrapped around, or a round ran
    untraced and traced) must give bit-identical rates every time.
    """
    problems = [p for extra in extras for p in extra.get("problems", [])]
    rates = {}
    dips = []
    gap = 0.0
    for rec in records:
        if rec.error is not None:
            continue
        problems += [f"{rec.key}: {v}" for v in mod.violations(rec)]
        gap = max(gap, mod.raw_rate_gap(rec))
        dip = mod.visit_dip(rec)
        if dip > mod.MONOTONE_TOL:
            dips.append(dip)
        rate = (rec.report.sum_rate, rec.eval_rate)
        if rates.setdefault(rec.key, rate) != rate:
            problems.append(f"{rec.key}: rates {rates[rec.key]} then {rate}")
    notes = [f"per-visit sum_rate dips above {mod.MONOTONE_TOL:g} inside a "
             f"pass (not a check): {len(dips)} solves, largest "
             f"{max(dips + [0.0]):.3g}",
             f"largest relative gap of report.sum_rate to evaluate in original "
             f"channel units (not a check): {gap:.3g}"]
    return problems, rates, notes


def measure(args, nproc, mod, wl, own_setup):
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    with mod.Recorder() as recorder:
        if args.trace:
            from layers import per_layer

            records, extras, untraced_s, traced = run_rounds(wl, recorder,
                                                             args.seconds)
            metrics, notes, problems = per_layer(args.workload, traced,
                                                 untraced_s, wl.workers)
            printed = {}
        else:
            from hostclock import HostClock

            setups = ([(own_setup, setup_factor())]
                      + probe_setups(args, SETUPS - 1))
            clock = HostClock()
            records, extra = run_loop(wl, recorder, args.seconds, clock)
            extras = [extra]
            metrics, printed, notes = end_to_end(mod, records, extra, setups,
                                                 clock)
            notes.append("host-speed kernel: median "
                         f"{statistics.median(clock.kernel_s()):.5f} s over "
                         f"{len(clock.samples)} samples")
            problems = []
    found, rates, check_notes = check(mod, records, extras)
    problems += found
    notes += [n for extra in extras for n in extra.get("notes", [])] + check_notes
    failed = sum(r.error is not None for r in records)
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name:40s} {value!r} {unit}")
    for line in notes + [f"failed solves: {failed} of {len(records)}"]:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.rates_out:
        doc = {"workload": args.workload, "seed": args.seed, "env": env,
               "rates": {"/".join(map(str, key)): list(rate)
                         for key, rate in sorted(rates.items(), key=str)}}
        Path(args.rates_out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_environment()
    t0 = time.perf_counter()
    try:
        mod = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = mod.make_workload(args.workload, args.seed, workdir)
        wl.setup()
        own_setup = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup, "factor": setup_factor()}))
            return 0
        return measure(args, nproc, mod, wl, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
