"""Per-layer metrics from the spans and reports of traced rounds.

A round is a fixed list of solves (see ``round`` in workloads.py), so every
count below is exact and repeats from round to round and from run to run
with the same seed. Times are thread-CPU seconds per round (time busy, see
tracer.py), averaged over the traced rounds; shares are taken against the
CPU time spent inside solver calls.
"""

from __future__ import annotations

import statistics

from tracer import aggregate
from workloads import visits

DIAGNOSTICS = ("local_solver.penalty_residual", "local_solver.hermitian_deviation",
               "local_solver.local_penalized_objective")
SCENARIO = ("scenario.make_scenario", "scenario.place_network",
            "scenario.generate_channel")
DRIVERS = {"ring": "ring_solver.run_ring", "star": "star_solver.run_star",
           "central": "central_solver.run_central"}

# Which layer each workload is expected to spend the most self time in.
EXPECTED_TOP = {
    "paper_full": ("local_solver.update_w",),
    "large_array": ("local_solver.update_R", "local_solver.diagnostics"),
}


def _calls(stats, name):
    return stats.get(name, {}).get("calls", 0)


def _self(stats, names):
    return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)


def _total(stats, name, clock="cpu_s"):
    return stats.get(name, {}).get(clock, 0.0)


def per_layer(workload, rounds, untraced_round_s, workers):
    """Return (metrics, notes, problems) for the traced ``rounds``.

    ``rounds`` holds (span buffers, solve records, wall seconds) per round;
    ``untraced_round_s`` the wall seconds of the same round run untraced.
    """
    per_round = [aggregate(buffers) for buffers, _, _ in rounds]
    problems = []
    counts = [{n: s["calls"] for n, s in stats.items()} for stats in per_round]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("span counts differ between traced rounds")

    def mean_self(names):
        return statistics.fmean(_self(s, names) for s in per_round)

    def mean_total(name, clock="cpu_s"):
        return statistics.fmean(_total(s, name, clock) for s in per_round)

    first = per_round[0]
    records = [r for r in rounds[0][1] if r.error is None]
    solve_s = mean_total("harness.run_solver")
    w_calls = _calls(first, "local_solver.update_w")
    r_calls = _calls(first, "local_solver.update_R")
    sweep_calls = _calls(first, "local_solver.sweep")
    contrib_calls = _calls(first, "fp_core.bs_contribution")
    w_self = mean_self(["local_solver.update_w"])
    r_self = mean_self(["local_solver.update_R"])
    diag_self = mean_self(DIAGNOSTICS)
    contrib_self = mean_self(["fp_core.bs_contribution"])
    star = [r.report for r in records if r.solver == "star"]
    star_iters = sum(rep.iterations for rep in star)
    rejected = sum(rep.diagnostics["rejected_iterations"] for rep in star)
    # Pool busy time over pool capacity: the sweep's run_experiment span, or
    # the whole round when the benchmark calls the solver itself.
    experiment_s = mean_total("harness.run_experiment", "wall_s")
    capacity = (experiment_s or statistics.fmean(w for _, _, w in rounds)) * workers
    busy = mean_total("harness.run_solver") + mean_total("metrics.evaluate")
    solve_wall_s = mean_total("harness.run_solver", "wall_s")
    traced_round_s = statistics.median(w for _, _, w in rounds)

    m = {
        "local_solver.update_w.calls": (w_calls, "count"),
        "local_solver.update_w.self_s": (w_self, "s"),
        "local_solver.update_w.ms_per_call": (1e3 * w_self / max(w_calls, 1), "ms"),
        "local_solver.update_w.self_share": (w_self / solve_s, "ratio"),
        "local_solver.update_R.calls": (r_calls, "count"),
        "local_solver.update_R.self_s": (r_self, "s"),
        "local_solver.diagnostics.self_s": (diag_self, "s"),
        "local_solver.update_R_diag.self_share": ((r_self + diag_self) / solve_s,
                                                  "ratio"),
        "local_solver.safeguard.calls": (
            _calls(first, "local_solver.true_local_objective"), "count"),
        "local_solver.safeguard.self_s": (
            mean_self(["local_solver.true_local_objective"]), "s"),
        "local_solver.sweep.calls": (sweep_calls, "count"),
        "local_solver.rejected_attempts": (w_calls - sweep_calls, "count"),
        "local_solver.guard_resolves": (r_calls - w_calls, "count"),
        "fp_core.bs_contribution.calls": (contrib_calls, "count"),
        "fp_core.bs_contribution.self_s": (contrib_self, "s"),
        "fp_core.bs_contribution.per_visit": (
            contrib_calls / max(sum(visits(r) for r in records), 1), "count/visit"),
        "fp_core.bs_contribution.self_share": (contrib_self / solve_s, "ratio"),
        "fp_core.sum_rate.calls": (_calls(first, "fp_core.sum_rate"), "count"),
        "fp_core.update_fp.calls": (_calls(first, "fp_core.update_fp"), "count"),
        "common.initial_beamformers.total_s": (
            mean_total("common.initial_beamformers"), "s"),
        "star_solver.rejected_iteration_share": (rejected / max(star_iters, 1),
                                                 "ratio"),
        "scenario.make_scenario.self_s": (mean_self(SCENARIO), "s"),
        "metrics.evaluate.calls": (_calls(first, "metrics.evaluate"), "count"),
        "metrics.evaluate.self_s": (mean_self(["metrics.evaluate"]), "s"),
        "harness.pool_busy_share": (busy / capacity, "ratio"),
        "harness.solve_wait_share": (1.0 - solve_s / solve_wall_s, "ratio"),
        "trace.overhead_share": (traced_round_s / untraced_round_s - 1.0, "ratio"),
    }
    for solver, span in DRIVERS.items():
        layer = span.split(".")[0]
        passes = [r.report.iterations for r in records if r.solver == solver]
        m[f"{layer}.passes_mean"] = (statistics.fmean(passes) if passes else 0.0,
                                     "passes")
        m[f"{layer}.driver.self_s"] = (mean_self([span]), "s")

    notes = [f"per round: {len(records)} solves; {len(rounds)} traced rounds, "
             f"{traced_round_s:.3f} s each traced, {untraced_round_s:.3f} s "
             "untraced"]
    layers = dict(first)
    layers["local_solver.diagnostics"] = {"self_s": _self(first, DIAGNOSTICS)}
    for name in DIAGNOSTICS:
        layers.pop(name, None)
    ranked = sorted(layers, key=lambda n: layers[n]["self_s"], reverse=True)
    notes.append("largest self time: " + ", ".join(
        f"{n} {layers[n]['self_s'] / _total(first, 'harness.run_solver'):.1%}"
        for n in ranked[:5]) + " of CPU time in solver calls")
    expected = EXPECTED_TOP.get(workload)
    if expected:
        group = sum(layers[n]["self_s"] for n in expected if n in layers)
        rival = max((n for n in layers if n not in expected),
                    key=lambda n: layers[n]["self_s"])
        verdict = ("as expected" if group > layers[rival]["self_s"] else
                   f"NOT as expected: {rival} is larger; see the ranking above")
        notes.append(f"profile check: {' + '.join(expected)} self time "
                     f"{group:.3f} s against {rival} "
                     f"{layers[rival]['self_s']:.3f} s, {verdict}")
    return m, notes, problems
