import numpy as np
import pytest

from cellfree_dab import fp_core
from cellfree_dab.common import SolverOptions
from cellfree_dab.local_solver import PENALTY_RESID_TOL
from cellfree_dab.central_solver import run_central
from cellfree_dab.pa_model import PaModel
from cellfree_dab.ring_solver import RING_TRACE_COLUMNS, run_ring
from cellfree_dab.scenario import desk_profile, make_scenario


def test_distortion_entries_stay_real_nonnegative():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=3)
    _, ch = make_scenario(cfg)
    rep = run_ring(ch, cfg, pa, SolverOptions(max_outer=4, tol=0.0))
    inputs = fp_core.build_metrics_inputs(ch.H, rep.W, pa, cfg.sigma2)
    assert np.all(inputs.psum >= -1e-10 * (1 + np.abs(inputs.psum)))


def test_token_state_consistency():
    pa = PaModel.reference()
    for seed in (0, 1, 2):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        rep = run_ring(ch, cfg, pa, SolverOptions(max_outer=6, tol=0.0))
        assert rep.diagnostics["consistency_error_max"] <= 1e-8
        # the reported rate is the one its W gives from scratch
        inputs = fp_core.build_metrics_inputs(ch.H, rep.W, pa, cfg.sigma2)
        assert abs(rep.sum_rate - fp_core.sum_rate(inputs)) < 1e-8 * max(
            1.0, abs(rep.sum_rate))


def test_overhead_counter_and_message_size():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=4)
    _, ch = make_scenario(cfg)
    rep = run_ring(ch, cfg, pa, SolverOptions(max_outer=5, tol=0.0))
    K = cfg.num_ues
    visits = rep.counters["visits"]
    assert rep.counters["exchanged_complex_values"] == visits * (K * K + K)
    assert rep.trace[-1][5] == visits * (K * K + K)
    assert rep.trace_columns == RING_TRACE_COLUMNS


def test_single_bs_matches_central():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=5, num_bs=1,
                       bs_positions=[(-200.0, 200.0)])
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=15, tol=0.0)
    ring = run_ring(ch, cfg, pa, opts)
    central = run_central(ch, cfg, pa, opts)
    # with one BS both run the same loop: same order, FP refresh every visit
    assert np.array_equal(ring.W, central.W)
    assert ring.sum_rate == central.sum_rate


def test_ideal_pa_tracks_central_across_seeds():
    pa = PaModel.ideal()
    opts = SolverOptions(max_outer=30, tol=1e-6)
    ring_rates, central_rates = [], []
    for seed in range(20):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        ring_rates.append(run_ring(ch, cfg, pa, opts).sum_rate)
        central_rates.append(
            run_central(ch, cfg, PaModel.ideal(), opts).sum_rate
        )
    assert np.mean(ring_rates) == pytest.approx(np.mean(central_rates), rel=0.02)


def test_trace_monotone_across_passes():
    pa = PaModel.reference()
    for seed in (0, 1, 2):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        rep = run_ring(ch, cfg, pa, SolverOptions(max_outer=20, tol=0.0))
        B = cfg.num_bs
        pass_rates = [row[3] for row in rep.trace][B - 1::B]
        for a, b in zip(pass_rates, pass_rates[1:]):
            assert b >= a - 1e-6


def test_converged_runs_carry_tight_lifts():
    pa = PaModel.reference()
    opts = SolverOptions(max_outer=30, tol=1e-4)
    seen = 0
    for seed in range(6):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        rep = run_ring(ch, cfg, pa, opts)
        if rep.converged:
            seen += 1
            assert max(rep.diagnostics["penalty_residuals"]) \
                <= PENALTY_RESID_TOL
    assert seen >= 1


def test_run_is_deterministic():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=6)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=5, tol=0.0)
    r1 = run_ring(ch, cfg, pa, opts)
    r2 = run_ring(ch, cfg, pa, opts)
    assert np.array_equal(r1.W, r2.W)
    assert r1.trace == r2.trace


def test_terminates_within_budget():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=7)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=3, tol=0.0)
    rep = run_ring(ch, cfg, pa, opts)
    assert rep.counters["visits"] <= 3 * cfg.num_bs
    assert len(rep.trace) == rep.counters["visits"]
