"""Property tests of the w-step over shapes, budgets and amplifiers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cellfree_dab import local_solver as ls
from cellfree_dab.common import SolverOptions
from cellfree_dab.fp_core import FpState
from cellfree_dab.pa_model import PaModel

REF_BETA3 = PaModel.reference().beta3
OPTS = SolverOptions()


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    Nt=st.integers(1, 4),
    K=st.integers(1, 4),
    pt_dbm=st.floats(-20.0, 80.0),
    beta3=st.sampled_from([0.0, REF_BETA3, 4.0 * REF_BETA3]),
    log_rho=st.floats(-3.0, np.log10(ls.RHO_CAP)),
    star=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_w_step_properties(Nt, K, pt_dbm, beta3, log_rho, star, seed):
    rng = np.random.default_rng(seed)
    pa = PaModel(1.0, beta3)
    Pt = 10.0 ** ((pt_dbm - 30.0) / 10.0)
    fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=0.7))
    ws = ls.build_workspace(rand_c(rng, Nt, K), fp, Nt, K,
                            rand_c(rng, K, K, scale=0.5))
    state = ls.state_from_beamformer(rand_c(rng, Nt, K, scale=0.5),
                                     rho=10.0 ** log_rho)
    ctx = None
    if star:
        ctx = ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                             varrho=OPTS.varrho)
    A, C = ls.w_subproblem_terms(state, ws, pa, ctx)

    w = ls.update_w(state, ws, pa, Pt, ctx)
    power = float(np.linalg.norm(w) ** 2)
    eta = state.eta

    assert np.all(np.isfinite(w))
    assert power <= Pt * (1.0 + 1e-14)
    assert eta >= 0.0
    if eta > 0.0:
        assert abs(power - Pt) <= 1e-12 * Pt
    # KKT stationarity (I_K kron A + t I) w + c = 0 with t = 2 rho ||w||^2 + eta
    t = 2.0 * state.rho * power + eta
    resid = ls.vec(A @ ls.unvec(w, Nt, K)) + t * w + ls.vec(C)
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(C)
