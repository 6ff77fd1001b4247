"""One contribution per visit, and lift reads computed once.

A visited BS's contribution (Q_b, p_b) is what the sweep's safeguard
judges, what the solvers' caches hold and what the star dual reads, so the
sweep builds it once per attempted move and hands the final one back. The
lift's block sum and tight-lift distance are memoized on the immutable
``Lift``. These tests pin both down against from-scratch computations.
"""

import numpy as np
import pytest

from cellfree_dab import central_solver, fp_core, local_solver as ls
from cellfree_dab import ring_solver, star_solver
import reference as ref
from cellfree_dab.common import SolverOptions
from cellfree_dab.fp_core import FpState
from cellfree_dab.pa_model import PaModel, bussgang_gain_diag
from cellfree_dab.scenario import desk_profile, make_scenario


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_case(rng, Nt, K, star, zeta_scale=0.7):
    H = rand_c(rng, Nt, K)
    fp = FpState(mu=rng.uniform(0.1, 2.0, K),
                 zeta=rand_c(rng, K, scale=zeta_scale))
    ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
    ctx = (ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                          varrho=10.0) if star else None)
    state = ls.state_from_beamformer(rand_c(rng, Nt, K, scale=0.3), rho=1.0)
    return ws, ctx, state


def assert_is_contribution(contribution, ws, state, pa):
    Q, p = contribution
    Q_ref, p_ref = fp_core.bs_contribution(ws.H, state.W, pa)
    assert np.array_equal(Q, Q_ref)
    assert np.array_equal(p, p_ref)


@pytest.mark.parametrize("star", [False, True])
def test_sweep_returns_contribution_of_final_beamformer(star):
    rng = np.random.default_rng(71 + 10 * star)
    pa = PaModel.reference()
    accepted = 0
    for i in range(12):
        Nt, K = (int(n) for n in rng.integers(1, 5, size=2))
        ws, ctx, state = random_case(rng, Nt, K, star, zeta_scale=0.3 + i)
        contribution = fp_core.bs_contribution(ws.H, state.W, pa)
        for _ in range(4):
            w_before = state.w
            given = contribution if i % 2 else None
            contribution = ls.sweep(state, ws, pa, 1.0, ctx, given)
            assert_is_contribution(contribution, ws, state, pa)
            accepted += state.w is not w_before
    assert accepted > 0


@pytest.mark.parametrize("star", [False, True])
def test_sweep_hands_back_its_input_after_rollback_at_rho_cap(star, monkeypatch):
    # a safeguard that finds every move worse: each attempt is rolled back,
    # rho climbs to the cap, and the entry contribution is handed back
    rng = np.random.default_rng(80 + star)
    pa = PaModel.reference()
    ws, ctx, state = random_case(rng, 3, 2, star)
    calls = iter(range(10 ** 6))
    monkeypatch.setattr(ls, "true_local_objective",
                        lambda contribution, ws, star=None: float(next(calls)))
    contribution = fp_core.bs_contribution(ws.H, state.W, pa)
    w_entry = state.w
    out = ls.sweep(state, ws, pa, 1.0, ctx, contribution)
    assert out is contribution
    assert state.w is w_entry
    assert state.rho == ls.RHO_CAP
    # six bumps take rho from 1 to the cap, then one rejection at the cap
    assert state.rejected_sweeps == 7
    assert_is_contribution(out, ws, state, pa)


def test_contribution_objective_matches_beamformer_reference():
    rng = np.random.default_rng(90)
    for i in range(200):
        Nt, K = (int(n) for n in rng.integers(1, 7, size=2))
        pa = PaModel.ideal() if i % 4 == 0 else PaModel(1.0, -0.212 * (i % 3 + 1))
        H = rand_c(rng, Nt, K)
        W = rand_c(rng, Nt, K, scale=float(10.0 ** rng.uniform(-2, 0.5)))
        fp = FpState(mu=rng.uniform(0.0, 3.0, K), zeta=rand_c(rng, K))
        Q_hat = rand_c(rng, K, K)
        A, p = fp_core.bs_contribution(H, W, pa)
        val = fp_core.local_objective(Q_hat, A, p, fp.mu, fp.zeta)
        expected = ref.local_objective_ring(Q_hat, H, W, pa, fp)
        assert val == pytest.approx(expected, rel=1e-12, abs=1e-12)

        ws = ls.build_workspace(H, fp, Nt, K, Q_hat)
        ctx = ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                             varrho=7.0)
        A_direct = H.conj().T @ (bussgang_gain_diag(W, pa)[:, None] * W)
        al = 0.5 * 7.0 * np.linalg.norm(ctx.target - ls.vec(A_direct)) ** 2
        assert ls.true_local_objective((A, p), ws) == pytest.approx(
            -expected, rel=1e-12, abs=1e-12)
        assert ls.true_local_objective((A, p), ws, ctx) == pytest.approx(
            al - expected, rel=1e-12, abs=1e-12)


def test_memoized_lift_reads_match_a_fresh_lift():
    rng = np.random.default_rng(91)
    pa = PaModel.reference()
    for i in range(20):
        Nt, K = (int(n) for n in rng.integers(1, 6, size=2))
        ws, ctx, state = random_case(rng, Nt, K, star=i % 2 == 1,
                                     zeta_scale=0.5 + i / 4)
        for _ in range(6):
            ls.sweep(state, ws, pa, 1.0, ctx)
            R = state.R
            fresh = ls.Lift(u=R.u, E=R.E, d=R.d)
            F = R.block_sum()
            assert not F.flags.writeable
            assert np.array_equal(F, fresh.block_sum())
            assert np.array_equal(ls.lagged_factor(R), ls.lagged_factor(fresh))
            assert R.distance_sq(state.w) == fresh.distance_sq(state.w.copy())
            twin = ls.LocalSolverState(w=state.w, R=fresh,
                                       F_abs_sq=state.F_abs_sq, rho=state.rho)
            assert ls.penalty_residual(state) == ls.penalty_residual(twin)
            assert (ls.local_penalized_objective(state, ws, pa, ctx)
                    == ls.local_penalized_objective(twin, ws, pa, ctx))
            assert state.prev_residual == ls.penalty_residual(twin)


SOLVES = {
    "ring": ring_solver.run_ring,
    "central": central_solver.run_central,
    "star": star_solver.run_star,
}


@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_one_distortion_covariance_per_visit(solver, monkeypatch):
    """Tooling: count the amplifier statistics a solve computes.

    Beyond the start-point scan and the initial cache (one stacked call for
    all BSs), a visit builds one contribution, plus one per rejected attempt.
    """
    counts = {"cov": 0, "scan": 0, "update_w": 0, "sweep": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fp_core, "distortion_cov",
                        counting("cov", fp_core.distortion_cov))
    monkeypatch.setattr(ls, "update_w", counting("update_w", ls.update_w))
    monkeypatch.setattr(ls, "sweep", counting("sweep", ls.sweep))
    module = {"ring": ring_solver, "central": central_solver,
              "star": star_solver}[solver]
    scan = module.initial_beamformers

    def counted_scan(*args, **kwargs):
        before = counts["cov"]
        out = scan(*args, **kwargs)
        counts["scan"] += counts["cov"] - before
        return out

    monkeypatch.setattr(module, "initial_beamformers", counted_scan)

    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=1)
    _, ch = make_scenario(cfg)
    rep = SOLVES[solver](ch, cfg, pa, SolverOptions(max_outer=6, tol=0.0))
    B = cfg.num_bs
    visits = rep.counters.get("visits", B * rep.iterations)
    assert counts["sweep"] == visits
    rejected = counts["update_w"] - counts["sweep"]
    assert counts["scan"] > 0
    assert counts["cov"] - counts["scan"] == 1 + visits + rejected


@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_report_counts_rejected_sweeps(solver, monkeypatch):
    """Each w-step starts one attempted move and a visit accepts at most one,
    so ``rejected_sweeps`` is the ``update_w`` calls less the visits that
    moved their BS. A visit still rejected at the penalty cap moves nothing:
    it adds a rejection but no retry."""
    counts = {"update_w": 0, "moved": 0}
    update_w, sweep = ls.update_w, ls.sweep

    def counted_update_w(*args, **kwargs):
        counts["update_w"] += 1
        return update_w(*args, **kwargs)

    def counted_sweep(state, *args, **kwargs):
        w_entry = state.w
        out = sweep(state, *args, **kwargs)
        counts["moved"] += state.w is not w_entry
        return out

    monkeypatch.setattr(ls, "update_w", counted_update_w)
    monkeypatch.setattr(ls, "sweep", counted_sweep)
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=1)
    _, ch = make_scenario(cfg)
    rep = SOLVES[solver](ch, cfg, pa, SolverOptions(max_outer=6, tol=0.0))
    rejected = rep.diagnostics["rejected_sweeps"]
    assert rejected == counts["update_w"] - counts["moved"]
    assert rejected > 0


@pytest.mark.parametrize("solver", sorted(SOLVES))
def test_surrogate_objective_once_per_traced_visit(solver, monkeypatch):
    """Ring and central evaluate the surrogate once per visit, for the trace
    row that reports it; star's trace has no such column, so it never does."""
    calls = []
    objective = ls.local_penalized_objective

    def counted(*args, **kwargs):
        calls.append(objective(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(ls, "local_penalized_objective", counted)
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=2)
    _, ch = make_scenario(cfg)
    rep = SOLVES[solver](ch, cfg, pa, SolverOptions(max_outer=4))
    if solver == "star":
        assert calls == []
    else:
        col = rep.trace_columns.index("surrogate_objective")
        assert len(calls) == rep.counters["visits"] == len(rep.trace)
        assert [row[col] for row in rep.trace] == calls
