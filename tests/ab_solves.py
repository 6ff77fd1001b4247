"""Time two versions of the solvers against each other in one process.

Usage::

    OMP_NUM_THREADS=1 python tests/ab_solves.py OLD_SRC NEW_SRC \
        --profile full --reps 30

``OLD_SRC`` and ``NEW_SRC`` are ``src/`` directories of two checkouts (for
example a ``git archive`` of the parent commit next to the working tree).
Both ``cellfree_dab`` packages are imported side by side, under the names
``cellfree_dab_old`` and ``cellfree_dab_new``. Each repetition draws one
scenario of the profile in each tree and solves it with ring, central and
star on both sides, alternately: the old side first in even repetitions,
the new side first in odd ones. So both sides see the same host load, and
no side always runs first.

For each solver it prints the median ratio of new to old solve time, with
the quartiles of the ratios, the median solve times, and whether the two
sides returned the same sum rate on every repetition. Run-to-run noise on a
shared host moves absolute times by far more than it moves these paired
ratios, so a change that claims to be neutral reports them. One BLAS
thread (``OMP_NUM_THREADS=1``) matches the benchmark's setting.

Profiles, with the design amplifier ``PaModel.reference()``:

* ``full``: ``full_profile()``, 30 passes (the benchmark's paper_full);
* ``desk``: ``desk_profile()`` at 44 dBm, default options (the point of
  the benchmark's desk_sweep);
* ``wide``: ``full_profile(num_bs=16)``, 4 passes (its wide_network);
* ``large``: ``full_profile(num_antennas=64, num_ues=12)``, 2 passes (its
  large_array), the largest Nt x Nt R-step and lift.

``--scan`` times the start-point scan alone instead of the solves:
``common.initial_beamformers`` on the profile's channel, normalized as the
solvers normalize it, under the same amplifier and with the same
alternation. It prints the median ratio with its quartiles, the median
times, and whether the two sides returned the same start point W0 on every
repetition::

    OMP_NUM_THREADS=1 python tests/ab_solves.py OLD_SRC NEW_SRC \
        --profile large --reps 30 --scan

The file is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

SOLVERS = ("ring", "central", "star")


def load_tree(src: str, name: str):
    """The ``cellfree_dab`` package under ``src``, imported as ``name``."""
    pkg = Path(src).resolve() / "cellfree_dab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("scenario", "common", "pa_model", "harness",
                "ring_solver", "central_solver", "star_solver"):
        importlib.import_module(f"{name}.{sub}")
    return module


def profile_case(tree, profile: str):
    """(config, options) of ``profile`` in ``tree``."""
    scenario, common = tree.scenario, tree.common
    if profile == "full":
        return scenario.full_profile(), common.SolverOptions(max_outer=30)
    if profile == "desk":
        cfg = scenario.desk_profile(power_budget=tree.harness.dbm_to_watt(44.0))
        return cfg, common.SolverOptions()
    if profile == "wide":
        return (scenario.full_profile(num_bs=16),
                common.SolverOptions(max_outer=4))
    if profile == "large":
        return (scenario.full_profile(num_antennas=64, num_ues=12),
                common.SolverOptions(max_outer=2))
    raise ValueError(f"unknown profile {profile!r}")


def solve(tree, solver: str, cfg, channels, opts):
    """(seconds, sum rate) of one solve."""
    run = getattr(getattr(tree, f"{solver}_solver"), f"run_{solver}")
    pa = tree.pa_model.PaModel.reference()
    start = time.perf_counter()
    report = run(channels, cfg, pa, opts)
    return time.perf_counter() - start, report.sum_rate


def scan(tree, cfg, channels):
    """(seconds, W0) of one start-point scan, as ``block_driver.setup``
    calls it."""
    common = tree.common
    scale = common.channel_scale(channels.H)
    H = channels.H / scale
    sigma2 = np.asarray(cfg.sigma2) / scale**2
    pa = tree.pa_model.PaModel.reference()
    start = time.perf_counter()
    W0 = common.initial_beamformers(H, cfg.power_budget, pa, sigma2)
    return time.perf_counter() - start, W0


def report(label: str, old, new, outputs: str, same: bool) -> None:
    """One line: the median new/old time ratio, its IQR, the medians, and
    whether the ``outputs`` were the same on every repetition."""
    old, new = np.array(old), np.array(new)
    q1, med, q3 = np.percentile(new / old, [25, 50, 75])
    print(f"{label:8s} new/old {med:.3f} (IQR {q1:.3f}-{q3:.3f})  "
          f"old {1e3 * np.median(old):.1f} ms  "
          f"new {1e3 * np.median(new):.1f} ms  "
          f"{outputs} {'identical' if same else 'DIFFER'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--profile", choices=("full", "desk", "wide", "large"),
                        default="full")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--scan", action="store_true",
                        help="time common.initial_beamformers alone")
    args = parser.parse_args(argv)

    trees = {"old": load_tree(args.old_src, "cellfree_dab_old"),
             "new": load_tree(args.new_src, "cellfree_dab_new")}
    cases = {side: profile_case(tree, args.profile)
             for side, tree in trees.items()}
    if args.scan:
        return main_scan(trees, cases, args)
    times = {(side, s): [] for side in trees for s in SOLVERS}
    same_rate = dict.fromkeys(SOLVERS, True)
    for rep in range(args.reps):
        channels = {side: trees[side].scenario.make_scenario(
            cases[side][0], seed=rep)[1] for side in trees}
        order = ("old", "new") if rep % 2 == 0 else ("new", "old")
        for solver in SOLVERS:
            rates = {}
            for side in order:
                cfg, opts = cases[side]
                dt, rates[side] = solve(trees[side], solver, cfg,
                                        channels[side], opts)
                times[side, solver].append(dt)
            same_rate[solver] &= rates["old"] == rates["new"]

    print(f"profile {args.profile}, {args.reps} alternating pairs")
    for solver in SOLVERS:
        report(solver, times["old", solver], times["new", solver], "rates",
               same_rate[solver])
    return 0


def main_scan(trees, cases, args) -> int:
    """The ``--scan`` mode: start-point scans, alternating like the solves."""
    times = {side: [] for side in trees}
    same_w0 = True
    for rep in range(args.reps):
        order = ("old", "new") if rep % 2 == 0 else ("new", "old")
        w0 = {}
        for side in order:
            cfg = cases[side][0]
            _, channels = trees[side].scenario.make_scenario(cfg, seed=rep)
            dt, w0[side] = scan(trees[side], cfg, channels)
            times[side].append(dt)
        same_w0 &= (w0["old"].shape == w0["new"].shape
                    and w0["old"].tobytes() == w0["new"].tobytes())
    print(f"profile {args.profile}, start-point scan, "
          f"{args.reps} alternating pairs")
    report("scan", times["old"], times["new"], "W0", same_w0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
