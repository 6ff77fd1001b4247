"""The structured lift against its dense expansion.

The solver keeps R as ``local_solver.Lift`` and reads it only through the
Lift's methods and the module functions built on them. Every such read must
equal the same quantity computed on the dense (Nt K) x (Nt K) matrix that
``reference.expand`` builds, and the R-step must match the dense
stationarity solve.
"""

import tracemalloc

import numpy as np

from cellfree_dab import local_solver as ls
import reference as ref
from cellfree_dab.common import SolverOptions
from cellfree_dab.fp_core import FpState
from cellfree_dab.pa_model import PaModel

RTOL = 1e-11
OPTS = SolverOptions()


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_case(rng, Nt, K, star):
    H = rand_c(rng, Nt, K)
    fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=0.7))
    ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
    ctx = (ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                          varrho=OPTS.varrho) if star else None)
    return ws, ctx


def close(a, b, rtol=RTOL):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rtol * max(1.0, float(np.max(np.abs(b))))


def check_reads(state, ws, pa, ctx):
    """Every read of state.R equals the same read of its dense expansion."""
    Nt, K = ws.Nt, ws.K
    R, w = state.R, state.w
    D = ref.expand(R)
    F = ref.dense_block_sum(D, Nt, K)
    assert close(R.diag_sum(), np.diag(D).reshape(K, Nt).sum(axis=0))
    assert close(ls.gain_diag_from_R(R, pa), ref.dense_gain_diag(D, pa, Nt, K))
    assert close(R.block_sum(), F)
    assert close(ls.lagged_factor(R), np.abs(F) ** 2)
    assert close(R.rmatvec(w), D.conj().T @ w)
    Wt = np.outer(w, w.conj())
    assert close(R.distance_sq(w), np.linalg.norm(D - Wt) ** 2)
    assert close(ls.penalty_residual(state),
                 np.linalg.norm(D - Wt) / np.linalg.norm(Wt))
    assert close(ls.hermitian_deviation(R),
                 np.linalg.norm(D - D.conj().T) / np.linalg.norm(D))
    assert close(ls.local_penalized_objective(state, ws, pa, ctx),
                 ref.r_subproblem_objective(w, D, ws, pa, state.rho,
                                            np.abs(F) ** 2, ctx))


def test_lift_reads_match_dense_expansion():
    rng = np.random.default_rng(61)
    pa = PaModel.reference()
    for i in range(60):
        Nt, K = (int(n) for n in rng.integers(1, 6, size=2))
        ws, ctx = random_case(rng, Nt, K, star=i % 2 == 1)
        rho = float(10.0 ** rng.uniform(-3.0, np.log10(ls.RHO_CAP)))
        w = rand_c(rng, Nt * K, scale=0.7)
        state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=rho)
        check_reads(state, ws, pa, ctx)          # the tight lift w w^H

        lag = state.F_abs_sq
        R = ls.update_R(state, ws, pa, ctx)
        assert R.u is state.w
        if Nt * K <= 12:
            R_dense = ref.solve_r_dense(w, ws, pa, rho, lag, ctx)
            assert close(ref.expand(R), R_dense, 1e-8)
        check_reads(state, ws, pa, ctx)          # the R-step's lift

        # a beamformer other than the one the lift was solved at
        other = ls.LocalSolverState(w=rand_c(rng, Nt * K, scale=0.7), R=R,
                                    F_abs_sq=lag, rho=rho)
        check_reads(other, ws, pa, ctx)

        ls.sweep(state, ws, pa, 1.0, ctx)
        check_reads(state, ws, pa, ctx)


def test_lift_reads_match_dense_expansion_at_large_array():
    rng = np.random.default_rng(62)
    pa = PaModel.reference()
    Nt, K = 64, 12
    ws, ctx = random_case(rng, Nt, K, star=False)
    w = rand_c(rng, Nt * K, scale=0.05)
    state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=3.0)
    ls.update_R(state, ws, pa)
    check_reads(state, ws, pa, ctx)


def test_sweep_never_builds_a_dense_lift():
    # one dense (Nt K)^2 complex matrix is 9.4 MB at Nt=64, K=12
    rng = np.random.default_rng(63)
    pa = PaModel.reference()
    Nt, K = 64, 12
    ws, _ = random_case(rng, Nt, K, star=False)
    state = ls.state_from_beamformer(rand_c(rng, Nt, K, scale=0.05), rho=1.0)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ls.sweep(state, ws, pa, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * 2 ** 20
