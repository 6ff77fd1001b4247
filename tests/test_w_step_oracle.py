"""The w-step power multiplier against a bisection oracle.

``reference_w_step`` solves the same secular equations as
``local_solver.update_w`` by plain bisection on t, run until no float lies
strictly inside the bracket. It is slow and simple on purpose: it is the
reference any faster multiplier search has to match.
"""

import numpy as np

from cellfree_dab import local_solver as ls
from cellfree_dab.fp_core import FpState
from cellfree_dab.pa_model import PaModel

MATCH_RTOL = 1e-12


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def bisect_to_exhaustion(left, lo, hi):
    """Shrink [lo, hi] until it holds two adjacent floats; left(t) marks t < root."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if left(mid):
            lo = mid
        else:
            hi = mid


def reference_w_step(A, C_blocks, rho, Pt):
    """(w, eta, t) of the w-step, with t found by exhaustive bisection.

    Same eigenbasis, roundoff ridge and interior/active rule as ``update_w``:
    the interior fixed point t = 2 rho p(t) is taken unless its power
    exceeds Pt; then t solves p(t) = Pt on t >= 2 rho Pt, from the feasible
    end of the final bracket.
    """
    lam, U = np.linalg.eigh(0.5 * (A + A.conj().T))
    proj = U.conj().T @ C_blocks
    d = lam - min(float(lam[0]), 0.0)
    a = np.sum(np.abs(proj) ** 2, axis=1)

    def power(t):
        return float(np.sum(a / (d + t) ** 2))

    hi = 1.0
    while power(hi) > hi / (2.0 * rho):
        hi *= 2.0
    _, t = bisect_to_exhaustion(lambda t: power(t) > t / (2.0 * rho), 0.0, hi)
    eta = 0.0
    if power(t) > Pt:
        base = 2.0 * rho * Pt
        hi = max(1.0, base)
        while power(hi) > Pt:
            hi *= 2.0
        _, t = bisect_to_exhaustion(lambda t: power(t) > Pt, base, hi)
        eta = t - base
    w = ls.vec(U @ (-(proj / (d + t)[:, None])))
    return w, eta, t


def random_instance(rng, star: bool):
    """A w-step instance over wide data, penalty and budget scales."""
    Nt = int(rng.integers(1, 17))
    K = int(rng.integers(1, 7))
    pa = (PaModel.ideal(), PaModel.reference(),
          PaModel(1.0, 4.0 * PaModel.reference().beta3))[int(rng.integers(3))]
    H = rand_c(rng, Nt, K, scale=10.0 ** rng.uniform(-2.0, 2.0))
    fp = FpState(mu=rng.uniform(0.1, 2.0, K),
                 zeta=rand_c(rng, K, scale=10.0 ** rng.uniform(-1.0, 1.0)))
    ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
    rho = 10.0 ** rng.uniform(-3.0, np.log10(ls.RHO_CAP))
    state = ls.state_from_beamformer(
        rand_c(rng, Nt, K, scale=10.0 ** rng.uniform(-2.0, 1.0)), rho=rho
    )
    ctx = None
    if star:
        ctx = ls.StarContext(Q_C=rand_c(rng, K, K), lam=rand_c(rng, K * K),
                             varrho=10.0 ** rng.uniform(-1.0, 2.0))
    Pt = 10.0 ** rng.uniform(-8.0, 8.0)
    return state, ws, pa, ctx, Pt


def test_update_w_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    seen = {"interior": 0, "active": 0, "ridge": 0, "star": 0}
    for i in range(240):
        state, ws, pa, ctx, Pt = random_instance(rng, star=i % 3 == 0)
        A, C = ls.w_subproblem_terms(state, ws, pa, ctx)
        w_ref, eta_ref, _ = reference_w_step(A, C, state.rho, Pt)
        w = ls.update_w(state, ws, pa, Pt, ctx)
        assert np.linalg.norm(w - w_ref) <= MATCH_RTOL * np.linalg.norm(w_ref)
        assert abs(state.eta - eta_ref) <= MATCH_RTOL * eta_ref
        seen["active" if eta_ref > 0.0 else "interior"] += 1
        seen["ridge"] += int(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0] < 0.0)
        seen["star"] += int(ctx is not None)
    assert min(seen.values()) >= 40, seen


def test_update_w_matches_oracle_on_rank_deficient_paper_shape():
    # Nt=16, K=6 as in full_profile: A has rank <= 6, so the ridge lifts its
    # roundoff-negative eigenvalues to exactly zero and p(t) has a pole at 0
    rng = np.random.default_rng(16)
    Nt, K = 16, 6
    ridged = 0
    for Pt in 10.0 ** np.arange(-8.0, 9.0):
        H = rand_c(rng, Nt, K)
        fp = FpState(mu=rng.uniform(0.1, 2.0, K), zeta=rand_c(rng, K, scale=0.7))
        ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
        state = ls.state_from_beamformer(rand_c(rng, Nt, K, scale=0.3),
                                         rho=float(10.0 ** rng.uniform(-3, 6)))
        A, C = ls.w_subproblem_terms(state, ws, PaModel.reference())
        w_ref, eta_ref, _ = reference_w_step(A, C, state.rho, Pt)
        w = ls.update_w(state, ws, PaModel.reference(), Pt)
        ridged += int(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0] < 0.0)
        assert np.linalg.norm(w - w_ref) <= MATCH_RTOL * np.linalg.norm(w_ref)
        assert abs(state.eta - eta_ref) <= MATCH_RTOL * eta_ref
    assert ridged >= 8


def test_update_w_stays_within_budget_just_below_interior_power():
    # Pt a hair below the interior solution's power: the active branch must
    # be taken, so the beamformer never exceeds the budget
    rng = np.random.default_rng(77)
    for i in range(200):
        state, ws, pa, ctx, _ = random_instance(rng, star=i % 2 == 0)
        A, C = ls.w_subproblem_terms(state, ws, pa, ctx)
        w_int, _, _ = reference_w_step(A, C, state.rho, np.inf)
        p_int = float(np.linalg.norm(w_int) ** 2)
        if p_int == 0.0:
            continue
        Pt = p_int * (1.0 - 10.0 ** rng.uniform(-13.0, -9.0))
        w_ref, eta_ref, _ = reference_w_step(A, C, state.rho, Pt)
        w = ls.update_w(state, ws, pa, Pt, ctx)
        assert np.linalg.norm(w) ** 2 <= Pt * (1.0 + 1e-14)
        assert state.eta > 0.0 and eta_ref > 0.0
        assert np.linalg.norm(w - w_ref) <= MATCH_RTOL * np.linalg.norm(w_ref)
