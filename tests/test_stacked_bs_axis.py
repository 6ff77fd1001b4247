"""The stacked BS axis equals the per-BS calls it replaces, bit for bit."""

import numpy as np
import pytest

import reference as ref
from cellfree_dab import common, fp_core
from cellfree_dab.common import (BACKOFF_SCALES, NUM_HALVINGS, POW2_BACKOFFS,
                                 SCAN_STACK_BYTES, channel_scale,
                                 initial_beamformers)
from cellfree_dab.fp_core import (
    MetricsInputs,
    bs_contribution,
    build_metrics_inputs,
    sum_contributions,
    sum_rate,
    update_fp,
)
from cellfree_dab.harness import dbm_to_watt
from cellfree_dab.pa_model import PaModel, bussgang_gain_diag, distortion_cov
from cellfree_dab.scenario import (desk_profile, full_profile, make_scenario,
                                   place_network)

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


@pytest.mark.parametrize("amp", sorted(AMPLIFIERS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_candidate_stack_contribution_equals_per_candidate(shape, amp):
    """(B, Nt, K) channels and an (n, B, Nt, K) stack of beamformers give
    n stacked contributions, each bit for bit its own call."""
    pa = AMPLIFIERS[amp]
    n = 3
    rng = np.random.default_rng(sum(shape) + 1)
    H = rand_c(rng, *shape)
    W = 0.1 * rand_c(rng, n, *shape)
    Q, p = bs_contribution(H, W, pa)
    B, _, K = shape
    assert Q.shape == (n, B, K, K) and p.shape == (n, B, K)
    for j in range(n):
        Q_j, p_j = bs_contribution(H, W[j], pa)
        assert same(Q[j], Q_j) and same(p[j], p_j), j


@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("K", [1, 2, 6])
def test_sum_contributions_of_a_stack_equals_per_aggregate(B, K):
    """(n, B, K, K) and (n, B, K) stacks give n aggregates, K = 1 too."""
    n = 4
    rng = np.random.default_rng(100 * B + K)
    Q_parts = rand_c(rng, n, B, K, K) * 10.0 ** rng.uniform(-8, 8, (n, B, 1, 1))
    p_parts = rng.standard_normal((n, B, K)) * 10.0 ** rng.uniform(-8, 8, (n, B, 1))
    Q_parts[..., 0, -1] = -0.0
    p_parts[..., -1] = -0.0
    got = sum_contributions(Q_parts, p_parts, np.ones(K))
    assert got.Qsum.shape == (n, K, K) and got.psum.shape == (n, K)
    for j in range(n):
        want = sum_contributions(Q_parts[j], p_parts[j], np.ones(K))
        assert same(got.Qsum[j], want.Qsum) and same(got.psum[j], want.psum)


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
        assert same(fp.mu, ref.update_mu(got))
        assert same(fp.zeta, ref.update_zeta(got, fp.mu))
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


CONFIGS = {
    "desk": desk_profile,
    "full": full_profile,
    "wide": lambda **kw: full_profile(num_bs=16, **kw),
    "large": lambda **kw: full_profile(num_antennas=64, num_ues=12, **kw),
}


@pytest.mark.parametrize("make_config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_generate_channel_equals_loop(make_config):
    for seed in range(3):
        cfg = make_config(rng_seed=seed)
        geom, ch = make_scenario(cfg)
        assert ch.H.flags.c_contiguous
        assert same(ch.H, ref.channel_loop(geom, ch.alpha, cfg))


GEOMETRY_CASES = {
    **{f"default-B{B}": dict(num_bs=B) for B in (1, 2, 4, 7, 16)},
    # one station at the origin (no boresight: the [1, 0] fallback) and one
    # inside the UE disk
    "explicit": dict(num_bs=3,
                     bs_positions=[(0.0, 0.0), (50.0, -30.0), (-200.0, 200.0)]),
    **{f"K{K}-M{M}": dict(num_ues=K, num_paths=M)
       for K in (1, 6, 12) for M in (1, 3)},
    "radius0": dict(ue_area_radius=0.0),
}


@pytest.mark.parametrize("overrides", list(GEOMETRY_CASES.values()),
                         ids=list(GEOMETRY_CASES))
def test_place_network_equals_loop(overrides):
    """Every array of the stacked draw equals the per-(b, k) loop's, and
    both leave the generator at the same point."""
    cfg = full_profile(**overrides)
    for seed in range(20):
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        geom = place_network(cfg, rng)
        loop = ref.place_network_loop(cfg, rng_loop)
        for name in ("bs_positions", "ue_positions", "path_angles",
                     "path_distances"):
            assert same(getattr(geom, name), getattr(loop, name)), (seed, name)
        assert rng.random() == rng_loop.random(), seed


def normalized(cfg):
    """The channel and noise powers as the solvers hand them to the scan."""
    _, ch = make_scenario(cfg)
    scale = channel_scale(ch.H)
    return ch.H / scale, cfg.sigma2 / scale**2


def test_solver_start_point_equals_loop():
    """The scan on a real normalized channel, as the solvers call it. Under
    the ideal amplifier desk builds its 25 backoffs in one chunk, full in
    16 + 9, wide in chunks of 4, ..., 4, 1 and large (whose Nt x Nt
    covariances fill a chunk alone) one at a time. Under the reference
    amplifier only the 19 backoffs outside ``POW2_BACKOFFS`` are built:
    desk in one chunk, full in 16 + 3, wide in 4, 4, 4, 4, 3 and large one
    at a time; the other 6 derive their distortion powers."""
    for name, make_config in CONFIGS.items():
        cfg = make_config(rng_seed=1)
        H, sigma2 = normalized(cfg)
        for pa in (PaModel.reference(), PaModel.ideal()):
            assert same(
                initial_beamformers(H, cfg.power_budget, pa, sigma2),
                ref.initial_beamformers_loop(H, cfg.power_budget, pa, sigma2),
            ), (name, pa)


@pytest.mark.parametrize("name, calls", [
    ("desk", 2), ("full", 4), ("wide", 10), ("large", 38)])
def test_scan_makes_one_contribution_call_per_chunk(name, calls, monkeypatch):
    """Each shape builds its 19 directly computed backoffs in chunks."""
    cfg = CONFIGS[name](rng_seed=1)
    H, sigma2 = normalized(cfg)
    B, Nt, _ = H.shape
    per = max(1, SCAN_STACK_BYTES // (B * Nt * Nt * 16))
    direct = 2 * NUM_HALVINGS + 1 - len(POW2_BACKOFFS)
    assert calls == 2 * -(-direct // per)
    seen = []
    contribution = fp_core.bs_contribution

    def counted(H_b, W_b, pa):
        seen.append(np.shape(W_b))
        return contribution(H_b, W_b, pa)

    monkeypatch.setattr(fp_core, "bs_contribution", counted)
    initial_beamformers(H, cfg.power_budget, PaModel.reference(), sigma2)
    assert len(seen) == calls
    assert all(shape[0] <= per and shape[1:] == H.shape for shape in seen)


def test_backoff_table_holds_exact_powers_of_two():
    assert len(BACKOFF_SCALES) == 2 * NUM_HALVINGS + 1
    assert BACKOFF_SCALES[0] == 1.0
    for h in POW2_BACKOFFS:
        assert BACKOFF_SCALES[h] == 2.0 ** -(h // 4), h
    assert POW2_BACKOFFS == list(range(4, 2 * NUM_HALVINGS + 1, 4))


DERIVED_CONFIGS = {**CONFIGS,
                   "B7": lambda **kw: full_profile(num_bs=7, **kw)}


@pytest.mark.parametrize("dbm", [-20.0, 8.0, 44.0, 80.0])
@pytest.mark.parametrize("name", list(DERIVED_CONFIGS))
def test_derived_distortion_equals_direct_contribution(name, dbm):
    """A power-of-two backoff's distortion powers, derived from the full
    budget's, equal its own ``bs_contribution``'s byte for byte, on both
    shapes of a normalized channel under the reference amplifier."""
    pa = PaModel.reference()
    for seed in (1, 2):
        cfg = DERIVED_CONFIGS[name](rng_seed=seed,
                                    power_budget=dbm_to_watt(dbm))
        H, _ = normalized(cfg)
        K = H.shape[-1]
        gram = np.swapaxes(H.conj(), -1, -2) @ H
        ridge = 1e-12 * np.trace(gram, axis1=-2, axis2=-1).real / K
        Z = H @ np.linalg.inv(gram + ridge[:, None, None] * np.eye(K))
        for cand in (H, Z):
            W_full = np.sqrt(cfg.power_budget / K) * (
                cand / np.linalg.norm(cand, axis=-2, keepdims=True))
            assert common._pow2_exact(H, W_full, pa)
            p0 = bs_contribution(H, W_full, pa)[1]
            for h in POW2_BACKOFFS:
                direct = bs_contribution(H, BACKOFF_SCALES[h] * W_full, pa)[1]
                assert same(np.ldexp(p0, -6 * (h // 4)), direct), (seed, h)


@pytest.mark.parametrize("budget", [1e-250, 1e100])
def test_out_of_range_budgets_build_every_backoff(budget, monkeypatch):
    """Beamformers outside ``EXACT_RANGE`` take the direct path, 25
    contributions per shape, and still equal the loop."""
    cfg = CONFIGS["full"](rng_seed=1)
    H, sigma2 = normalized(cfg)
    pa = PaModel.reference()
    built = []
    contribution = fp_core.bs_contribution

    def counted(H_b, W_b, pa):
        built.append(np.shape(W_b)[0])
        return contribution(H_b, W_b, pa)

    monkeypatch.setattr(fp_core, "bs_contribution", counted)
    got = initial_beamformers(H, budget, pa, sigma2)
    assert sum(built) == 2 * len(BACKOFF_SCALES)
    monkeypatch.undo()
    assert same(got, ref.initial_beamformers_loop(H, budget, pa, sigma2))
