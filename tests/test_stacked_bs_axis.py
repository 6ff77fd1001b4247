"""The stacked BS axis equals the per-BS calls it replaces, bit for bit."""

import numpy as np
import pytest

import reference as ref
from cellfree_dab.common import channel_scale, initial_beamformers
from cellfree_dab.fp_core import (
    MetricsInputs,
    bs_contribution,
    build_metrics_inputs,
    sum_contributions,
    sum_rate,
    update_fp,
    update_mu,
    update_zeta,
)
from cellfree_dab.pa_model import PaModel, bussgang_gain_diag, distortion_cov
from cellfree_dab.scenario import desk_profile, full_profile, make_scenario

SHAPES = [(1, 1, 1), (2, 4, 2), (4, 16, 6), (16, 16, 6), (4, 64, 12),
          (5, 19, 12)]
AMPLIFIERS = {
    "ideal": PaModel.ideal(),
    "reference": PaModel.reference(),
    "complex": PaModel(beta1=0.9 + 0.1j, beta3=0.3 - 0.7j),
}


def same(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 and +0.0 differ, NaNs compare."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("amp", sorted(AMPLIFIERS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_stacked_contribution_equals_per_bs(shape, amp, order):
    pa = AMPLIFIERS[amp]
    rng = np.random.default_rng(sum(shape))
    H = np.asarray(rand_c(rng, *shape), order=order)
    W = np.asarray(0.1 * rand_c(rng, *shape), order=order)
    Q, p = bs_contribution(H, W, pa)
    g, Cd = bussgang_gain_diag(W, pa), distortion_cov(W, pa)
    assert Q.shape == (shape[0], shape[2], shape[2])
    assert p.shape == (shape[0], shape[2])
    for b in range(shape[0]):
        Q_b, p_b = bs_contribution(H[b], W[b], pa)
        assert same(Q[b], Q_b) and same(p[b], p_b), b
        assert same(g[b], bussgang_gain_diag(W[b], pa)), b
        assert same(Cd[b], distortion_cov(W[b], pa)), b


@pytest.mark.parametrize("B", [1, 3, 8, 16])
@pytest.mark.parametrize("K", [1, 2, 6])
def test_sum_contributions_adds_in_bs_order(B, K):
    """One reduction equals the BS-order loop from zero, K = 1 and -0.0 too."""
    rng = np.random.default_rng(10 * B + K)
    Q_parts = rand_c(rng, B, K, K) * 10.0 ** rng.uniform(-8, 8, (B, 1, 1))
    p_parts = rng.standard_normal((B, K)) * 10.0 ** rng.uniform(-8, 8, (B, 1))
    if K > 1:
        Q_parts[:, 0, -1] = -0.0
        p_parts[:, -1] = -0.0
    Qsum, psum = np.zeros((K, K), complex), np.zeros(K)
    for Q, p in zip(Q_parts, p_parts):
        Qsum += Q
        psum += p
    got = sum_contributions(Q_parts, p_parts, np.ones(K))
    assert same(got.Qsum, Qsum) and same(got.psum, psum)


@pytest.mark.parametrize("amp", sorted(AMPLIFIERS))
def test_aggregates_and_rates_equal_loop(amp):
    pa = AMPLIFIERS[amp]
    rng = np.random.default_rng(7)
    stack = []
    for B, Nt, K in SHAPES:
        H, W = rand_c(rng, B, Nt, K), 0.1 * rand_c(rng, B, Nt, K)
        sigma2 = np.geomspace(1e-3, 10.0, K)
        got = build_metrics_inputs(H, W, pa, sigma2)
        want = ref.metrics_inputs_loop(H, W, pa, sigma2)
        assert same(got.Qsum, want.Qsum) and same(got.psum, want.psum)
        rate = sum_rate(got)
        assert type(rate) is float
        fp = update_fp(got)
        assert same(fp.mu, update_mu(got))
        assert same(fp.zeta, update_zeta(got, fp.mu))
        if K == 6:
            stack.append((got, rate))
    # a stack of aggregates scores like one call per aggregate
    stacked = MetricsInputs(Qsum=np.stack([a.Qsum for a, _ in stack]),
                            psum=np.stack([a.psum for a, _ in stack]),
                            sigma2=stack[0][0].sigma2)
    assert same(sum_rate(stacked), np.array([r for _, r in stack]))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("amp", ["ideal", "reference"])
def test_initial_beamformers_equal_loop(seed, amp):
    rng = np.random.default_rng(100 + seed)
    B = int(rng.integers(1, 17))
    Nt = int(rng.choice([1, 4, 16]))
    K = int(rng.integers(1, min(Nt, 6) + 1))
    H = rand_c(rng, B, Nt, K)
    Pt = 10.0 ** rng.uniform(-3, 3)
    sigma2 = 10.0 ** rng.uniform(-3, 1, K)
    pa = AMPLIFIERS[amp]
    assert same(initial_beamformers(H, Pt, pa, sigma2),
                ref.initial_beamformers_loop(H, Pt, pa, sigma2))


@pytest.mark.parametrize("make_config", [
    desk_profile, full_profile,
    lambda **kw: full_profile(num_bs=16, **kw),
    lambda **kw: full_profile(num_antennas=64, num_ues=12, **kw),
], ids=["desk", "full", "wide", "large"])
def test_generate_channel_equals_loop(make_config):
    for seed in range(3):
        cfg = make_config(rng_seed=seed)
        geom, ch = make_scenario(cfg)
        assert ch.H.flags.c_contiguous
        assert same(ch.H, ref.channel_loop(geom, ch.alpha, cfg))


def test_solver_start_point_equals_loop():
    """The scan on a real normalized channel, as the solvers call it."""
    cfg = full_profile(rng_seed=1)
    _, ch = make_scenario(cfg)
    scale = channel_scale(ch.H)
    H, sigma2 = ch.H / scale, cfg.sigma2 / scale**2
    pa = PaModel.reference()
    assert same(initial_beamformers(H, cfg.power_budget, pa, sigma2),
                ref.initial_beamformers_loop(H, cfg.power_budget, pa, sigma2))
