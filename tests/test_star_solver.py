import hashlib

import numpy as np
import pytest

from cellfree_dab import fp_core, harness
from cellfree_dab.common import SolverOptions
from cellfree_dab.central_solver import run_central
from cellfree_dab.fp_core import FpState
from cellfree_dab.local_solver import unvec, vec
from cellfree_dab.pa_model import PaModel, bussgang_gain_diag
from cellfree_dab.scenario import desk_profile, make_scenario
from reference import aggregation_gradient, central_objective_star
from cellfree_dab.star_solver import (
    STAR_TRACE_COLUMNS,
    aggregate,
    dual_update,
    interference_share,
    run_star,
)


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_local_report_zero_and_cross_module():
    rng = np.random.default_rng(0)
    pa = PaModel.reference()
    B, Nt, K = 3, 3, 2
    H = rand_c(rng, B, Nt, K)
    W = rand_c(rng, B, Nt, K)
    # a BS reports its bs_contribution; the center adds them in BS order
    Q0, p0 = fp_core.bs_contribution(H[0], np.zeros((Nt, K)), PaModel.ideal())
    assert np.allclose(Q0, 0.0) and np.allclose(p0, 0.0)

    total = fp_core.build_metrics_inputs(H, W, pa, np.ones(K))
    reports = [fp_core.bs_contribution(H[b], W[b], pa) for b in range(B)]
    summed = fp_core.sum_contributions([r[0] for r in reports],
                                       [r[1] for r in reports], np.ones(K))
    assert np.array_equal(summed.Qsum, total.Qsum)
    assert np.array_equal(summed.psum, total.psum)
    assert np.all(summed.psum >= -1e-10 * (1 + np.abs(summed.psum)))


def test_aggregate_pure_proximal_when_zeta_zero():
    rng = np.random.default_rng(1)
    B, K = 3, 2
    Q_L = rand_c(rng, B, K, K)
    lam = rand_c(rng, B, K * K)
    fp = FpState(mu=np.zeros(K), zeta=np.zeros(K, dtype=complex))
    varrho = 7.0
    Q_C = aggregate(Q_L, lam, fp, varrho)
    lam_m = np.stack([unvec(l, K, K) for l in lam])
    assert np.allclose(Q_C, Q_L - lam_m / varrho)


def test_aggregate_first_order_stationarity():
    rng = np.random.default_rng(2)
    B, K = 3, 2
    Q_L = rand_c(rng, B, K, K)
    lam = rand_c(rng, B, K * K)
    fp = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K))
    Q_C = aggregate(Q_L, lam, fp, 4.0)
    assert aggregation_gradient(Q_C, Q_L, lam, fp, 4.0) <= 1e-8


def test_aggregate_matches_dense_probing():
    rng = np.random.default_rng(3)
    B, K = 2, 2
    Q_L = rand_c(rng, B, K, K)
    lam = rand_c(rng, B, K * K)
    fp = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K))
    varrho = 3.0
    Q_C = aggregate(Q_L, lam, fp, varrho)

    dim = 2 * B * K * K

    def x_to_Q(x):
        half = B * K * K
        flat = x[:half] + 1j * x[half:]
        return np.stack([unvec(flat[b * K * K:(b + 1) * K * K], K, K)
                         for b in range(B)])

    def objective(x):
        Q = x_to_Q(x)
        val = -central_objective_star(list(Q), fp)
        for b in range(B):
            val += 0.5 * varrho * np.linalg.norm(
                vec(Q[b]) - vec(Q_L[b]) + lam[b] / varrho
            ) ** 2
        return val

    e = np.eye(dim)
    f0 = objective(np.zeros(dim))
    grad = np.zeros(dim)
    fs = np.zeros(dim)
    Hq = np.zeros((dim, dim))
    for i in range(dim):
        fp_v, fm = objective(e[i]), objective(-e[i])
        grad[i] = (fp_v - fm) / 2
        Hq[i, i] = fp_v + fm - 2 * f0
        fs[i] = fp_v
    for i in range(dim):
        for j in range(i + 1, dim):
            Hq[i, j] = Hq[j, i] = objective(e[i] + e[j]) - fs[i] - fs[j] + f0
    Q_ref = x_to_Q(np.linalg.solve(Hq, -grad))
    assert np.abs(Q_C - Q_ref).max() <= 1e-8 * max(1.0, np.abs(Q_ref).max())


def test_interference_share():
    rng = np.random.default_rng(4)
    Q1 = rand_c(rng, 1, 2, 2)
    assert np.allclose(interference_share(Q1), 0.0)
    B = 3
    Q = rand_c(rng, B, 2, 2)
    tilde = interference_share(Q)
    for b in range(B):
        assert np.allclose(tilde[b], sum(Q[l] for l in range(B) if l != b))
    assert np.allclose(tilde.sum(axis=0), (B - 1) * Q.sum(axis=0))


def test_dual_update_fixed_point_and_step():
    rng = np.random.default_rng(5)
    pa = PaModel.reference()
    Nt, K = 3, 2
    H = rand_c(rng, Nt, K)
    W = rand_c(rng, Nt, K)
    g = bussgang_gain_diag(W, pa)
    Q_exact = H.conj().T @ (g[:, None] * W)
    lam = rand_c(rng, K * K)
    assert np.allclose(dual_update(lam, Q_exact, Q_exact, 9.0), lam)

    Q_off = Q_exact + rand_c(rng, K, K)
    resid = vec(Q_off) - vec(Q_exact)
    stepped = dual_update(np.zeros(K * K), Q_off, Q_exact, 9.0)
    assert np.allclose(stepped, 0.5 * 9.0 * resid)


def desk_star(seed: int, dbm: float | None = None, opts=None):
    """Star DAB on desk seed ``seed``, at ``dbm`` or the default budget."""
    power = {} if dbm is None else {"power_budget": harness.dbm_to_watt(dbm)}
    cfg = desk_profile(rng_seed=seed, **power)
    _, ch = make_scenario(cfg)
    return cfg, run_star(ch, cfg, PaModel.reference(), opts)


def test_counters_match_formulas():
    # a fixed budget of 4 iterations, and a solve that stalls at iteration 7
    for seed, dbm, opts, stalled in (
            (6, None, SolverOptions(max_outer=4, tol=0.0), False),
            (1, 44, None, True)):
        cfg, rep = desk_star(seed, dbm, opts)
        B, K = cfg.num_bs, cfg.num_ues
        n = rep.counters["iterations"]
        assert n == rep.iterations == len(rep.trace) == len(
            rep.diagnostics["consensus_residual_trace"])
        assert rep.diagnostics["stalled"] is stalled
        assert rep.counters["download_values"] == n * B * (2 * K * K + 2 * K)
        assert rep.counters["upload_values"] == n * B * (2 * K * K + K)
        assert rep.counters["total_values"] == n * B * (4 * K * K + 3 * K)
        assert rep.trace_columns == STAR_TRACE_COLUMNS


def test_a_retraction_that_cannot_change_the_next_iteration_ends_the_solve():
    # desk seed 1 at 44 dBm: from iteration 7 every retraction restores the
    # iteration's start, rho at the cap included; the solver that replayed
    # those iterations up to max_outer=30 returned the same W and rate
    _, rep = desk_star(1, 44)
    assert rep.iterations == 7 and not rep.converged
    assert rep.diagnostics["stalled"] is True
    assert rep.trace[-1][0] == 7 and rep.trace[-1][1] == rep.trace[-2][1]
    W = np.ascontiguousarray(rep.W)
    assert W.shape == (2, 4, 2) and W.dtype == complex
    assert hashlib.sha256(W.tobytes()).hexdigest() == (
        "61c69b1ca3c95efb7301c35ae75987695d54f0c167d2416d6efd42e4f500b9dd")
    assert repr(rep.sum_rate) == "27.766397617302175"


def test_a_retraction_whose_sweep_raised_rho_does_not_stall():
    # desk seed 6 at 8 dBm: every rho ends a retracted iteration at the
    # cap, but the sweep raised some inside it, so the next one differs
    # and converges; "every rho at the cap" would stop here wrongly
    _, rep = desk_star(6, 8)
    assert rep.diagnostics["rejected_iterations"] > 0
    assert rep.iterations == 6 and rep.converged
    assert rep.diagnostics["stalled"] is False


def test_single_bs_matches_central():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=7, num_bs=1, bs_positions=[(200.0, 200.0)])
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=25, tol=0.0)
    star = run_star(ch, cfg, pa, opts)
    central = run_central(ch, cfg, pa, opts)
    assert star.sum_rate == pytest.approx(central.sum_rate, rel=1e-4)


def test_consensus_residual_trend_and_tolerance():
    pa = PaModel.reference()
    ok = 0
    for seed in range(5):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        rep = run_star(ch, cfg, pa, SolverOptions(max_outer=30, tol=0.0))
        tail = rep.diagnostics["consensus_residual_trace"][-5:]
        # trend check: no growth over the final stretch
        assert tail[-1] <= tail[0] * (1 + 0.2)
        ok += rep.diagnostics["consensus_residual"] <= 1e-3
    assert ok >= 4


def test_ideal_pa_with_stiff_consensus_tracks_central():
    # linear amplifier and a stiff consensus penalty: the star solve should
    # land within a few percent of the exact-aggregate central baseline
    pa = PaModel.ideal()
    star_rates, central_rates = [], []
    for seed in range(20):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        star_rates.append(run_star(
            ch, cfg, pa, SolverOptions(max_outer=30, tol=1e-4, varrho=100.0)
        ).sum_rate)
        central_rates.append(run_central(
            ch, cfg, PaModel.ideal(), SolverOptions(max_outer=30, tol=1e-4)
        ).sum_rate)
    assert np.mean(star_rates) >= 0.95 * np.mean(central_rates)
    assert np.mean(star_rates) <= 1.05 * np.mean(central_rates)


def test_trace_monotone_and_deterministic():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=8)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=15, tol=0.0)
    r1 = run_star(ch, cfg, pa, opts)
    r2 = run_star(ch, cfg, pa, opts)
    assert np.array_equal(r1.W, r2.W)
    rates = [row[1] for row in r1.trace]
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-6
