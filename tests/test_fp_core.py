import numpy as np
import pytest

from cellfree_dab.fp_core import (
    FpState,
    MetricsInputs,
    bs_contribution,
    build_metrics_inputs,
    sindr,
    sum_rate,
    update_fp,
    update_mu,
    update_zeta,
)
from cellfree_dab.pa_model import PaModel, distortion_cov
from reference import (
    bussgang_gain,
    central_objective_star,
    local_objective_ring,
    transformed_objective,
)


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_inputs(rng, K):
    return MetricsInputs(
        Qsum=rand_c(rng, K, K),
        psum=rng.uniform(0.0, 0.5, K),
        sigma2=rng.uniform(0.1, 1.0, K),
    )


def test_sindr_single_ue_no_interference():
    a = 0.8 - 0.3j
    inp = MetricsInputs(Qsum=np.array([[a]]), psum=np.zeros(1),
                        sigma2=np.array([0.25]))
    assert sindr(inp)[0] == pytest.approx(abs(a) ** 2 / 0.25)


def test_sindr_zero_diagonal():
    inp = MetricsInputs(Qsum=np.array([[0.0, 1.0], [2.0, 0.0]]),
                        psum=np.zeros(2), sigma2=np.ones(2))
    assert np.allclose(sindr(inp), 0.0)


def test_sindr_matches_raw_assembly():
    """Assemble the ratio from raw (H, W, G, Cd) and compare."""
    rng = np.random.default_rng(0)
    pa = PaModel.reference()
    B, Nt, K = 2, 3, 2
    H = rand_c(rng, B, Nt, K)
    W = rand_c(rng, B, Nt, K, scale=0.6)
    sig = rng.uniform(0.2, 0.8, K)
    inp = build_metrics_inputs(H, W, pa, sig)
    gammas = sindr(inp)
    for k in range(K):
        cross = np.zeros(K, dtype=complex)
        dist = 0.0
        for b in range(B):
            G = bussgang_gain(W[b], pa)
            Cd = distortion_cov(W[b], pa)
            cross += H[b][:, k].conj() @ G @ W[b]
            dist += (H[b][:, k].conj() @ Cd @ H[b][:, k]).real
        interf = sum(abs(cross[j]) ** 2 for j in range(K) if j != k)
        expected = abs(cross[k]) ** 2 / (interf + dist + sig[k])
        assert gammas[k] == pytest.approx(expected, rel=1e-10)


def test_update_mu_equals_sindr_and_zero_case():
    rng = np.random.default_rng(1)
    inp = random_inputs(rng, 3)
    assert np.array_equal(update_mu(inp), sindr(inp))
    zero = MetricsInputs(Qsum=np.zeros((2, 2)), psum=np.zeros(2),
                         sigma2=np.ones(2))
    assert np.allclose(update_mu(zero), 0.0)


def test_update_zeta_scalar_and_zero_diag():
    a = 1.1 + 0.4j
    sig = 0.3
    inp = MetricsInputs(Qsum=np.array([[a]]), psum=np.zeros(1),
                        sigma2=np.array([sig]))
    mu = update_mu(inp)
    z = update_zeta(inp, mu)[0]
    assert z == pytest.approx(np.sqrt(1 + mu[0]) * a / (abs(a) ** 2 + sig))
    inp0 = MetricsInputs(Qsum=np.array([[0.0, 1.0], [0.5, 0.0]]),
                         psum=np.zeros(2), sigma2=np.ones(2))
    assert np.allclose(update_zeta(inp0, update_mu(inp0)), 0.0)


def test_fp_equivalence_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        K = int(rng.integers(1, 5))
        inp = random_inputs(rng, K)
        fp = update_fp(inp)
        lhs = transformed_objective(inp, fp)
        rhs = sum_rate(inp)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_transformed_objective_zero_state():
    inp = MetricsInputs(Qsum=np.zeros((3, 3)), psum=np.zeros(3),
                        sigma2=np.ones(3))
    assert transformed_objective(
        inp, FpState(mu=np.zeros(3), zeta=np.zeros(3, dtype=complex))) == 0.0


def test_zeta_step_never_decreases_objective():
    rng = np.random.default_rng(3)
    for _ in range(30):
        K = int(rng.integers(1, 4))
        inp = random_inputs(rng, K)
        fp = FpState(mu=rng.uniform(0, 3, K), zeta=rand_c(rng, K))
        before = transformed_objective(inp, fp)
        fp2 = FpState(mu=fp.mu, zeta=update_zeta(inp, fp.mu))
        after = transformed_objective(inp, fp2)
        assert after >= before - 1e-10 * max(1.0, abs(before))


def test_mu_zeta_pair_reaches_sum_rate_from_any_state():
    # the paired update lands exactly on the rate, which dominates any
    # transformed value at the same beamformers
    rng = np.random.default_rng(4)
    for _ in range(30):
        K = int(rng.integers(1, 4))
        inp = random_inputs(rng, K)
        fp_any = FpState(mu=rng.uniform(0, 3, K), zeta=rand_c(rng, K))
        before = transformed_objective(inp, fp_any)
        after = transformed_objective(inp, update_fp(inp))
        assert after == pytest.approx(sum_rate(inp), rel=1e-9)
        assert after >= before - 1e-10 * max(1.0, abs(before))


def delta_value(H, W_all, pa, fp):
    inp = build_metrics_inputs(H, W_all, pa, np.ones(fp.mu.size))
    diag = np.diag(inp.Qsum)
    return float(
        np.sum(2 * np.sqrt(1 + fp.mu) * np.real(np.conj(fp.zeta) * diag))
        - np.sum(np.abs(fp.zeta) ** 2
                 * (np.sum(np.abs(inp.Qsum) ** 2, axis=1) + inp.psum))
    )


def test_local_objective_offset_invariance():
    rng = np.random.default_rng(5)
    pa = PaModel.reference()
    B, Nt, K = 2, 3, 2
    H = rand_c(rng, B, Nt, K)
    W = rand_c(rng, B, Nt, K, scale=0.5)
    fp = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K, scale=0.7))
    Q_hat, _ = bs_contribution(H[1], W[1], pa)
    for _ in range(5):
        Wb_a = rand_c(rng, Nt, K, scale=0.5)
        Wb_b = rand_c(rng, Nt, K, scale=0.5)
        d_local = (local_objective_ring(Q_hat, H[0], Wb_a, pa, fp)
                   - local_objective_ring(Q_hat, H[0], Wb_b, pa, fp))
        Wa, Wb = W.copy(), W.copy()
        Wa[0], Wb[0] = Wb_a, Wb_b
        d_global = delta_value(H, Wa, pa, fp) - delta_value(H, Wb, pa, fp)
        assert d_local == pytest.approx(d_global, rel=1e-9, abs=1e-9)


def test_local_objective_zero_zeta():
    rng = np.random.default_rng(6)
    pa = PaModel.reference()
    H = rand_c(rng, 3, 2)
    W = rand_c(rng, 3, 2)
    fp = FpState(mu=np.ones(2), zeta=np.zeros(2, dtype=complex))
    assert local_objective_ring(np.zeros((2, 2)), H, W, pa, fp) == 0.0


def test_central_objective_star_cases():
    rng = np.random.default_rng(7)
    K = 2
    fp = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K))
    assert central_objective_star([np.zeros((K, K))] * 3, fp) == 0.0

    # brute-force expansion on random inputs
    Q_list = [rand_c(rng, K, K) for _ in range(3)]
    S = sum(Q_list)
    expected = 0.0
    for k in range(K):
        expected += 2 * np.sqrt(1 + fp.mu[k]) * np.real(
            np.conj(fp.zeta[k]) * S[k, k]
        )
        expected -= abs(fp.zeta[k]) ** 2 * sum(
            abs(S[k, j]) ** 2 for j in range(K)
        )
    assert central_objective_star(Q_list, fp) == pytest.approx(expected)

    # B=1 equals delta without distortion (psum = 0 contribution)
    pa = PaModel.ideal()
    H = rand_c(rng, 1, 3, K)
    W = rand_c(rng, 1, 3, K)
    Q, _ = bs_contribution(H[0], W[0], pa)
    fp1 = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K))
    assert central_objective_star([Q], fp1) == pytest.approx(
        delta_value(H, W, pa, fp1)
    )


def test_bs_contribution_distortion_real_nonnegative():
    rng = np.random.default_rng(8)
    pa = PaModel.reference()
    H = rand_c(rng, 4, 3)
    W = rand_c(rng, 4, 3)
    _, p = bs_contribution(H, W, pa)
    assert np.all(p >= -1e-10 * (1 + np.abs(p)))


def test_bs_contribution_independent_of_memory_layout():
    # the solvers pass column-major views (LocalSolverState.W), evaluate a
    # row-major stack; both must give the same bits at every size
    rng = np.random.default_rng(52)
    pa = PaModel.reference()
    for Nt, K in ((64, 12), (16, 6), (19, 7), (4, 2)):
        for _ in range(5):
            H = rand_c(rng, Nt, K)
            W = rand_c(rng, Nt, K, scale=0.1)
            Q_c, p_c = bs_contribution(H, W, pa)
            for H_l, W_l in ((H, np.asfortranarray(W)),
                             (np.asfortranarray(H), W)):
                Q_f, p_f = bs_contribution(H_l, W_l, pa)
                assert np.array_equal(Q_f, Q_c)
                assert np.array_equal(p_f, p_c)
