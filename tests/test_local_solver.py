import numpy as np
import pytest

from cellfree_dab import local_solver as ls
import reference as ref
from cellfree_dab.fp_core import FpState
from cellfree_dab.pa_model import PaModel, distortion_cov
from reference import bussgang_gain


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def make_workspace(rng, Nt=2, K=2, zeta_scale=0.7):
    H = rand_c(rng, Nt, K)
    fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=zeta_scale))
    Q_other = rand_c(rng, K, K, scale=0.5)
    return ls.build_workspace(H, fp, Nt, K, Q_other)


def reference_pa():
    return PaModel.reference()


# ---------------------------------------------------------------------------
# workspace and lifted-gain plumbing
# ---------------------------------------------------------------------------

def test_workspace_dimension_mismatch():
    rng = np.random.default_rng(0)
    H = rand_c(rng, 3, 2)
    fp = FpState(mu=np.ones(2), zeta=np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        ls.build_workspace(H, fp, 4, 2)


def test_selector_reproduces_gain_term():
    # E1^T (w w^H o I) E1 equals diag(W W^H)
    rng = np.random.default_rng(1)
    Nt, K = 3, 2
    W = rand_c(rng, Nt, K)
    w = ls.vec(W)
    E1 = ref.block_sum_selector(Nt, K)
    lhs = E1.T @ (np.outer(w, w.conj()) * np.eye(Nt * K)) @ E1
    assert np.allclose(lhs, np.diag(np.sum(np.abs(W) ** 2, axis=1)))


def test_workspace_unit_weights():
    Nt, K = 2, 2
    H = np.zeros((Nt, K), dtype=complex)
    fp = FpState(mu=np.zeros(K), zeta=np.ones(K, dtype=complex))
    ws = ls.build_workspace(H, fp, Nt, K)
    assert np.allclose(ref.useful_weight_matrix(ws), np.eye(Nt * K))
    assert np.allclose(ref.zeta_block_diag(ws), np.eye(Nt * K))


def test_interference_backprojection_definition():
    rng = np.random.default_rng(2)
    Nt, K = 3, 2
    ws = make_workspace(rng, Nt, K)
    for j in range(K):
        expected = sum(
            abs(ws.zeta[k]) ** 2 * ws.Q_other[k, j] * ws.H[:, k]
            for k in range(K)
        )
        assert np.allclose(ws.interf[j * Nt:(j + 1) * Nt], expected)


def test_gain_from_R_consistency():
    rng = np.random.default_rng(3)
    pa = reference_pa()
    Nt, K = 3, 2
    ws = make_workspace(rng, Nt, K)
    W = rand_c(rng, Nt, K)
    R = np.outer(ls.vec(W), ls.vec(W).conj())
    assert np.allclose(ref.dense_gain(R, pa, Nt, K), bussgang_gain(W, pa))
    assert np.allclose(ref.dense_gain(np.zeros((Nt * K,) * 2), pa, Nt, K),
                       pa.beta1 * np.eye(Nt))
    ideal = PaModel.ideal()
    R_any = rand_c(rng, Nt * K, Nt * K)
    assert np.allclose(ref.dense_gain(R_any, ideal, Nt, K), np.eye(Nt))


def test_distortion_from_R_consistency_and_linearity():
    rng = np.random.default_rng(4)
    pa = reference_pa()
    Nt, K = 3, 2
    ws = make_workspace(rng, Nt, K)
    W = rand_c(rng, Nt, K)
    R = np.outer(ls.vec(W), ls.vec(W).conj())
    lag = ls.lagged_factor(ls.Lift.rank_one(ls.vec(W), Nt))
    assert np.allclose(ref.dense_distortion(R, lag, pa, Nt, K),
                       distortion_cov(W, pa))
    assert np.allclose(
        ref.dense_distortion(np.zeros_like(R), lag, pa, Nt, K), 0.0
    )
    R1, R2 = rand_c(rng, Nt * K, Nt * K), rand_c(rng, Nt * K, Nt * K)
    a, b = 0.7, -1.3
    lhs = ref.dense_distortion(a * R1 + b * R2, lag, pa, Nt, K)
    rhs = (a * ref.dense_distortion(R1, lag, pa, Nt, K)
           + b * ref.dense_distortion(R2, lag, pa, Nt, K))
    assert np.allclose(lhs, rhs)


def test_lifting_matrix_is_binary():
    for Nt, K in ((2, 1), (2, 2), (3, 2)):
        BR = ref.gain_lifting_matrix(Nt, K)
        assert set(np.unique(BR)).issubset({0.0, 1.0})
        assert BR.shape == (Nt * Nt * K * K, Nt * Nt)


@pytest.mark.parametrize("Nt,K", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_lifting_chain_rule_against_fd(Nt, K):
    rng = np.random.default_rng(10 + Nt + K)
    pa = reference_pa()
    N = Nt * K
    J = ref.gain_lifting_matrix(Nt, K) @ ref.gain_jacobian(pa, Nt, K)
    R = rand_c(rng, N, N)

    def gbar_vec(Rm):
        G = ref.dense_gain(Rm, pa, Nt, K)
        return ls.vec(np.kron(np.eye(K), G))

    base = gbar_vec(R)
    eps = 1e-6
    J_fd = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N * N):
        dR = np.zeros(N * N, dtype=complex)
        dR[i] = eps
        J_fd[:, i] = (gbar_vec(R + ls.unvec(dR, N, N)) - base) / eps
    scale = max(np.abs(J).max(), 1.0)
    assert np.abs(J - J_fd).max() <= 1e-6 * scale


def test_vectorization_identity_three_lines():
    """The lifted-gain vectorization expands into the kron/diag chain."""
    rng = np.random.default_rng(12)
    pa = reference_pa()
    Nt, K = 2, 2
    N = Nt * K
    ws = make_workspace(rng, Nt, K)
    w = rand_c(rng, N, scale=0.8)
    R = rand_c(rng, N, N)
    Wt = np.outer(w, w.conj())
    E1 = ref.block_sum_selector(Nt, K)
    E3 = ref.chan_gram_big(ws)
    Gbar = np.kron(np.eye(K), ref.dense_gain(R, pa, Nt, K))
    D_I = np.diag(ls.vec(np.eye(N)))

    line1 = ls.vec(E3.T @ Gbar.conj() @ Wt.T)
    line2 = np.kron(Wt, E3.T) @ ls.vec(
        np.kron(np.eye(K),
                np.conj(pa.beta1) * np.eye(Nt)
                + 2 * np.conj(pa.beta3) * E1.T @ (R.conj() * np.eye(N)) @ E1)
    )
    line3 = (np.kron(Wt, E3.T) @ ls.vec(np.kron(np.eye(K),
                                                np.conj(pa.beta1) * np.eye(Nt)))
             + 2 * np.conj(pa.beta3) * np.kron(Wt, E3.T) @ D_I
             @ np.kron(E1 @ E1.T, E1 @ E1.T) @ D_I @ ls.vec(R.conj()))
    scale = max(np.abs(line1).max(), 1.0)
    assert np.abs(line1 - line2).max() <= 1e-10 * scale
    assert np.abs(line1 - line3).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# w-step
# ---------------------------------------------------------------------------

def make_state(rng, ws, rho=1.3, scale=0.6):
    w = rand_c(rng, ws.Nt * ws.K, scale=scale)
    return ls.state_from_beamformer(ls.unvec(w, ws.Nt, ws.K), rho=rho)


def pg_oracle(As, C_blocks, rhos, Nt, K, Pt, iters=30000):
    """Projected gradient on the quartic-regularized ball problem.

    Runs one iteration over a stack of instances: ``As``, ``C_blocks`` and
    ``rhos`` hold one instance's data per leading index.
    """
    Afull = np.stack([np.kron(np.eye(K), A) for A in As])
    c = np.stack([ls.vec(C) for C in C_blocks])
    rho = np.asarray(rhos, dtype=float)[:, None]
    x = np.zeros_like(c)
    lips = 2 * np.linalg.eigvalsh(Afull).real.max(axis=1)[:, None] + 8 * rho * Pt
    for _ in range(iters):
        n2 = np.sum(np.abs(x) ** 2, axis=1, keepdims=True)
        g = 2 * (np.einsum("cij,cj->ci", Afull, x) + c) + 4 * rho * n2 * x
        x = x - g / np.maximum(lips, 1e-12)
        n2 = np.sum(np.abs(x) ** 2, axis=1, keepdims=True)
        x = np.where(n2 > Pt, x * np.sqrt(Pt / n2), x)
    return x


class TestWStep:
    def test_power_feasibility_and_oracle(self):
        rng = np.random.default_rng(20)
        pa = reference_pa()
        Nt, K, Pt = 3, 2, 1.0
        cases = []
        for trial in range(8):
            ws = make_workspace(rng, Nt, K)
            state = make_state(rng, ws, rho=float(rng.uniform(0.5, 3.0)))
            A, C = ls.w_subproblem_terms(state, ws, pa)
            rho = state.rho
            ls.update_w(state, ws, pa, Pt)
            w = state.w
            assert np.linalg.norm(w) ** 2 <= Pt * (1 + 1e-9)
            cases.append((w, A, C, rho))
        xs = pg_oracle([A for _, A, _, _ in cases], [C for _, _, C, _ in cases],
                       [rho for _, _, _, rho in cases], Nt, K, Pt)
        for (w, A, C, rho), x in zip(cases, xs):
            obj = ref.w_subproblem_objective(w, A, C, rho, Nt, K)
            obj_pg = ref.w_subproblem_objective(x, A, C, rho, Nt, K)
            assert obj <= obj_pg + 1e-6 * max(1.0, abs(obj_pg))

    def test_interior_solution_stationarity(self):
        # large budget: constraint inactive, eta = 0, and the returned w
        # solves (A + 2 rho ||w||^2 I) w = -c
        rng = np.random.default_rng(21)
        pa = reference_pa()
        ws = make_workspace(rng, 3, 2)
        state = make_state(rng, ws)
        Pt = 1e9
        A, C = ls.w_subproblem_terms(state, ws, pa)
        eta = ls.update_w(state, ws, pa, Pt)
        w = state.w
        assert eta == 0.0
        lhs = (np.kron(np.eye(2), A)
               + 2 * state.rho * np.linalg.norm(w) ** 2 * np.eye(6)) @ w
        assert np.allclose(lhs, -ls.vec(C), rtol=1e-6, atol=1e-8)

    def test_eta_positive_only_when_power_saturated(self):
        rng = np.random.default_rng(22)
        pa = reference_pa()
        ws = make_workspace(rng, 3, 2, zeta_scale=3.0)
        state = make_state(rng, ws, scale=1.5)
        Pt = 1e-4  # force the constraint active
        eta = ls.update_w(state, ws, pa, Pt)
        w = state.w
        assert eta > 0.0
        assert np.linalg.norm(w) ** 2 == pytest.approx(Pt, rel=1e-7)

    def test_zero_data_returns_zero(self):
        Nt, K = 2, 2
        H = np.zeros((Nt, K), dtype=complex)
        fp = FpState(mu=np.zeros(K), zeta=np.zeros(K, dtype=complex))
        ws = ls.build_workspace(H, fp, Nt, K)
        state = ls.state_from_beamformer(np.zeros((Nt, K), dtype=complex))
        ls.update_w(state, ws, PaModel.ideal(), 1.0)
        assert np.allclose(state.w, 0.0)


def test_penalty_surrogate_tangent_and_bounding():
    rng = np.random.default_rng(23)
    N = 6
    w_t = rand_c(rng, N)

    def lin(R, w):
        return (2 * np.real(w_t.conj() @ R @ w_t)
                - 4 * np.real(w_t.conj() @ R @ w))

    # tangency at the expansion point for any R
    R_any = rand_c(rng, N, N)
    assert lin(R_any, w_t) == pytest.approx(
        -2 * np.real(w_t.conj() @ R_any @ w_t), rel=1e-12
    )
    # upper bound elsewhere when R is Hermitian PSD
    X = rand_c(rng, N, N)
    R_psd = X @ X.conj().T
    for _ in range(20):
        w = rand_c(rng, N)
        assert lin(R_psd, w) >= -2 * np.real(w.conj() @ R_psd @ w) - 1e-9


# ---------------------------------------------------------------------------
# R-step
# ---------------------------------------------------------------------------

def r_objective_via_probing(w, ws, pa, rho, lag, star=None):
    """Solve the R-step by probing the real-coordinate quadratic."""
    N = ws.Nt * ws.K
    dim = 2 * N * N

    def x_to_R(x):
        return ls.unvec(x[:N * N] + 1j * x[N * N:], N, N)

    def obj(x):
        return ref.r_subproblem_objective(w, x_to_R(x), ws, pa, rho, lag, star)

    f0 = obj(np.zeros(dim))
    e = np.eye(dim)
    grad = np.zeros(dim)
    fs = np.zeros(dim)
    Hq = np.zeros((dim, dim))
    for i in range(dim):
        fp_ = obj(e[i])
        fm = obj(-e[i])
        grad[i] = (fp_ - fm) / 2
        Hq[i, i] = fp_ + fm - 2 * f0
        fs[i] = fp_
    for i in range(dim):
        for j in range(i + 1, dim):
            Hq[i, j] = Hq[j, i] = obj(e[i] + e[j]) - fs[i] - fs[j] + f0
    return x_to_R(np.linalg.solve(Hq, -grad))


class TestRStep:
    def test_pure_penalty_case(self):
        # ideal amplifier: the objective is the penalty alone in R
        rng = np.random.default_rng(30)
        Nt, K = 2, 2
        H = rand_c(rng, Nt, K)
        fp = FpState(mu=rng.uniform(0, 1, K), zeta=rand_c(rng, K))
        ws = ls.build_workspace(H, fp, Nt, K)
        w = rand_c(rng, Nt * K)
        state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=2.0)
        R = ref.expand(ls.update_R(state, ws, PaModel.ideal(),
                                   ls.lagged_factor(state.R)))
        assert np.allclose(R, np.outer(w, w.conj()), atol=1e-12)

    def test_stationarity_dense_and_probing(self):
        rng = np.random.default_rng(31)
        pa = reference_pa()
        Nt, K = 2, 2
        N = Nt * K
        for _ in range(4):
            ws = make_workspace(rng, Nt, K)
            w = rand_c(rng, N, scale=0.7)
            rho = float(rng.uniform(0.5, 3.0))
            state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=rho)
            lag = ls.lagged_factor(state.R)
            R = ref.expand(ls.update_R(state, ws, pa, lag))

            R_dense = ref.solve_r_dense(w, ws, pa, rho, lag)
            assert np.abs(R - R_dense).max() <= 1e-8 * max(1.0, np.abs(R).max())

            R_probe = r_objective_via_probing(w, ws, pa, rho, lag)
            assert np.abs(R - R_probe).max() <= 1e-8 * max(1.0, np.abs(R).max())

            _, c_R = ref.build_r_system(w, ws, pa, rho, lag)
            g = fd_gradient(
                lambda Rm: ref.r_subproblem_objective(w, Rm, ws, pa, rho, lag), R
            )
            assert np.linalg.norm(g) <= 1e-5 * (1 + np.linalg.norm(c_R))

    def test_star_context_stationarity(self):
        rng = np.random.default_rng(32)
        pa = reference_pa()
        Nt, K = 2, 2
        N = Nt * K
        ws = make_workspace(rng, Nt, K)
        w = rand_c(rng, N, scale=0.7)
        rho = 1.4
        state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=rho)
        lag = ls.lagged_factor(state.R)
        star = ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                              varrho=5.0)
        R = ref.expand(ls.update_R(state, ws, pa, lag, star))
        R_probe = r_objective_via_probing(w, ws, pa, rho, lag, star)
        assert np.abs(R - R_probe).max() <= 1e-8 * max(1.0, np.abs(R).max())


def fd_gradient(fun, R, h=1e-6):
    N = R.shape[0]
    g = np.zeros(2 * N * N)
    for i in range(N * N):
        pos = np.unravel_index(i, (N, N), order="F")
        for part, off in ((0, h), (1, 1j * h)):
            dR = np.zeros((N, N), dtype=complex)
            dR[pos] = off
            g[part * N * N + i] = (fun(R + dR) - fun(R - dR)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# sweeps: descent, penalty path
# ---------------------------------------------------------------------------

def test_sweep_descends_penalized_objective():
    rng = np.random.default_rng(40)
    pa = reference_pa()
    Nt, K, Pt = 2, 2, 1.0
    for _ in range(6):
        ws = make_workspace(rng, Nt, K, zeta_scale=0.5)
        state = make_state(rng, ws, rho=1.0, scale=np.sqrt(Pt / (Nt * K)))
        prev = ls.local_penalized_objective(state, ws, pa)
        for _ in range(8):
            rho_before = state.rho
            ls.sweep(state, ws, pa, Pt)
            # compare at the rho under which the sweep optimized
            state_between = ls.LocalSolverState(
                w=state.w, R=state.R, rho=rho_before
            )
            now = ls.local_penalized_objective(state_between, ws, pa)
            assert now <= prev + 1e-8 * max(1.0, abs(prev))
            state_between.rho = state.rho
            prev = ls.local_penalized_objective(state, ws, pa)


def test_penalty_residual_decays_with_rho():
    # drive the raw update steps at pinned rho values: stiffer penalties
    # must tie the lift more tightly to the beamformer
    rng = np.random.default_rng(41)
    pa = reference_pa()
    Nt, K, Pt = 2, 2, 1.0
    ws = make_workspace(rng, Nt, K)
    resids = []
    for rho in (1.0, 100.0, 10000.0):
        state = make_state(rng, ws, rho=rho, scale=np.sqrt(Pt / (Nt * K)))
        for _ in range(10):
            lag = ls.lagged_factor(state.R)
            ls.update_w(state, ws, pa, Pt)
            ls.update_R(state, ws, pa, lag)
            state.rho = rho  # pin: bypass every schedule
        resids.append(ls.penalty_residual(state))
    assert resids[2] < resids[1] < resids[0]
    assert resids[2] < 1e-3


def test_sweep_default_schedule_tightens_residual():
    # the shipped schedule must reach the advertised residual at convergence
    rng = np.random.default_rng(44)
    pa = reference_pa()
    Nt, K, Pt = 2, 2, 1.0
    ws = make_workspace(rng, Nt, K, zeta_scale=0.5)
    state = make_state(rng, ws, rho=ls.RHO_INIT,
                       scale=np.sqrt(Pt / (Nt * K)))
    for _ in range(30):
        ls.sweep(state, ws, pa, Pt)
    assert ls.penalty_residual(state) <= ls.PENALTY_RESID_TOL


def test_hermitian_deviation_zero_for_hermitian():
    rng = np.random.default_rng(43)
    X = rand_c(rng, 4, 4)
    u = rand_c(rng, 8)
    real_d = rng.standard_normal(8) + 0j
    hermitian = ls.Lift(u=u, E=X + X.conj().T, d=real_d)
    assert ls.hermitian_deviation(hermitian) < 1e-14
    assert ls.hermitian_deviation(ls.Lift(u=u, E=X, d=real_d)) > 0.0
    assert ls.hermitian_deviation(ls.Lift(u=u, E=0 * X, d=real_d + 1j)) > 0.0
