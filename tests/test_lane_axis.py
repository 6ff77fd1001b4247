"""Star's one sweep over a lane axis of B stations equals B sweeps, bit for bit.

``local_solver`` moves a leading lane axis of stations at once, and star
sweeps all its stations in one call per iteration. Each lane must make
exactly the moves a call on its station alone makes: the same W, rates,
traces, counters and diagnostics. ``reference.run_star_loop`` is the star
solver that sweeps the stations one at a time.
"""

import numpy as np
import pytest

from cellfree_dab import local_solver as ls
from cellfree_dab.common import SolverOptions
from cellfree_dab.fp_core import FpState, bs_contribution
from cellfree_dab.pa_model import PaModel
from cellfree_dab.scenario import desk_profile, full_profile, make_scenario
from cellfree_dab.star_solver import run_star
from reference import run_star_loop


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def assert_same_report(rep, ref):
    assert np.array_equal(rep.W, ref.W)
    assert rep.sum_rate == ref.sum_rate
    assert rep.iterations == ref.iterations
    assert rep.converged == ref.converged
    assert rep.trace == ref.trace
    assert rep.counters == ref.counters
    assert rep.diagnostics == ref.diagnostics


@pytest.mark.parametrize("mode", ["DAB", "DUB"])
@pytest.mark.parametrize("B", [1, 2, 4, 16])
def test_batched_star_equals_the_station_loop(B, mode):
    pa = PaModel.reference() if mode == "DAB" else PaModel.ideal()
    cfg = desk_profile(num_bs=B, rng_seed=3)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=8, tol=0.0)
    assert_same_report(run_star(ch, cfg, pa, opts),
                       run_star_loop(ch, cfg, pa, opts))


def test_batched_star_equals_the_loop_at_the_paper_shape():
    cfg = full_profile(rng_seed=2)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=6)
    pa = PaModel.reference()
    assert_same_report(run_star(ch, cfg, pa, opts),
                       run_star_loop(ch, cfg, pa, opts))


def test_batched_star_equals_the_loop_when_iterations_are_retracted():
    # desk seed 1: star retracts most of its iterations
    cfg = desk_profile(rng_seed=1)
    _, ch = make_scenario(cfg)
    pa = PaModel.reference()
    rep = run_star(ch, cfg, pa)
    assert rep.diagnostics["rejected_iterations"] > rep.iterations // 2
    assert rep.diagnostics["rejected_sweeps"] > 0
    assert_same_report(rep, run_star_loop(ch, cfg, pa))


def test_lanes_with_different_retries_match_one_bs_sweeps(monkeypatch):
    """Lane l's moves are rejected ``retries[l]`` times before one is
    accepted; lane 3 is rejected until it rolls back at ``RHO_CAP``. Lane 4
    starts at a rho so low that its lift overshoots ``RESIDUAL_GUARD``: the
    guard re-solves every lane while it stiffens lane 4 alone."""
    rng = np.random.default_rng(5)
    L, Nt, K, Pt = 5, 3, 2, 1.0
    pa = PaModel.reference()
    fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=0.7))
    H, Q_other = rand_c(rng, 4, Nt, K), rand_c(rng, 4, K, K, scale=0.5)
    Q_C, lam = rand_c(rng, 4, K, K), rand_c(rng, 4, K * K)
    W0 = rand_c(rng, 4, Nt, K, scale=0.3)
    # lane 4 is drawn after lanes 0-3
    H, Q_other, Q_C, lam, W0 = (
        np.concatenate([x, rand_c(rng, 1, *x.shape[1:], scale=scale)])
        for x, scale in ((H, 1.0), (Q_other, 0.5), (Q_C, 1.0), (lam, 1.0),
                         (W0, 0.3)))
    retries = [0, 1, 3, 99, 2]
    rho0 = [ls.RHO_INIT] * 4 + [1e-3]
    lane_of = {H_l.tobytes(): lane for lane, H_l in enumerate(H)}
    calls = {}
    objective = ls.true_local_objective

    def judged(contribution, ws, star=None):
        # the first call of a sweep judges the entry point, each later one
        # an attempted move, which is made to look worse while retrying
        val = np.array(objective(contribution, ws, star), ndmin=1)
        for j, H_j in enumerate(ws.H.reshape(-1, Nt, K)):
            lane = lane_of[H_j.tobytes()]
            calls[lane] = calls.get(lane, -1) + 1
            if 1 <= calls[lane] <= retries[lane]:
                val[j] += 1e6
        return val if ws.H.ndim == 3 else val[0]

    solves = []
    update_w, update_R = ls.update_w, ls.update_R

    def counted(name, fn):
        def call(*args, **kwargs):
            solves.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ls, "true_local_objective", judged)
    monkeypatch.setattr(ls, "update_w", counted("w", update_w))
    monkeypatch.setattr(ls, "update_R", counted("R", update_R))
    for star in (False, True):
        ws = ls.build_workspace(H, fp, Nt, K, Q_other)
        ctx = ls.StarContext(Q_C=Q_C, lam=lam, varrho=10.0) if star else None
        batched = ls.state_from_beamformer(W0, rho=rho0)
        alone = [ls.state_from_beamformer(W0[l], rho=rho0[l])
                 for l in range(L)]
        guard_rounds = 0
        for _ in range(3):
            calls.clear()
            solves.clear()
            out = ls.sweep(batched, ws, pa, Pt, ctx)
            # each update_R call past the one after each update_w is a
            # round of the guard
            guard_rounds += solves.count("R") - solves.count("w")
            for l, state in enumerate(alone):
                calls.clear()
                one = ls.sweep(
                    state, ls.build_workspace(H[l], fp, Nt, K, Q_other[l]),
                    pa, Pt,
                    ls.StarContext(Q_C=Q_C[l], lam=lam[l], varrho=10.0)
                    if star else None)
                assert np.array_equal(out[0][l], one[0])
                assert np.array_equal(out[1][l], one[1])
                for name in ls.LocalSolverState.LANE_FIELDS:
                    assert np.array_equal(getattr(batched, name)[l],
                                          getattr(state, name),
                                          equal_nan=True), name
                for name in ("u", "E", "d"):
                    assert np.array_equal(getattr(batched.R, name)[l],
                                          getattr(state.R, name)), name
        assert guard_rounds >= 1
        # lane 3: six bumps take rho from 1 to the cap, one more rejection
        # there ends the first sweep; each later sweep is rejected once
        rejected = batched.rejected_sweeps.tolist()
        assert len(set(rejected)) == L and rejected[3] == 7 + 1 + 1
        assert batched.rho[3] == ls.RHO_CAP
        assert np.array_equal(batched.w[3], ls.vec(W0[3]))
        Q, p = bs_contribution(ws.H, batched.W, pa)
        assert np.array_equal(out[0], Q) and np.array_equal(out[1], p)


def test_a_nan_lane_raises_and_names_its_lane():
    # the R-step system is positive definite, so only non-finite data gives
    # a non-finite diagonal: the call raises, naming the first such lane with
    # its rho, and leaves every lane's rho as it was
    rng = np.random.default_rng(6)
    L, Nt, K = 3, 3, 2
    pa = PaModel.reference()
    fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=0.7))
    H = rand_c(rng, L, Nt, K)
    H[2, 0, 0] = np.nan
    ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, L, K, K, scale=0.5))
    state = ls.state_from_beamformer(rand_c(rng, L, Nt, K, scale=0.3),
                                     rho=[1.0, 2.0, 3.0])
    with pytest.raises(RuntimeError, match=r"lane 2 \(rho=3,"):
        ls.update_R(state, ws, pa, ls.lagged_factor(state.R))
    assert state.rho.tolist() == [1.0, 2.0, 3.0]
    one = ls.state_from_beamformer(state.W[2], rho=3.0)
    with pytest.raises(RuntimeError, match=r"lane 0 \(rho=3,"):
        ls.update_R(one, ls.build_workspace(H[2], fp, Nt, K), pa,
                    ls.lagged_factor(one.R))
    assert one.rho == 3.0
