"""Per-BS penalty-MM beamforming engine.

One BS improves its beamformer by alternating two exactly-solvable steps on
the penalized local objective

    J(w, R) = -delta_b(w, R) + rho * ||R - w w^H||_F^2   (+ consensus AL term)

where R is the lifted copy of w w^H that makes the amplifier gain G(R) and
the distortion covariance Cd(R) linear objects:

  * w-step: quartic-regularized quadratic over the per-BS power ball,
    solved in closed form in the eigenbasis of its quadratic term. The only
    scalar unknown, the power multiplier, is the root of a monotone secular
    equation that a safeguarded Newton iteration finds in a handful of O(Nt)
    evaluations.
  * R-step: the cubic distortion term is linearized by lagging the
    element-wise |F|^2 factor, after which the objective is a strongly convex
    quadratic in R whose stationarity system is solved exactly.

Everything a visit needs from the surrounding network is carried by
``Workspace`` (channel, FP weights, interference backprojection) and the
optional ``StarContext`` (consensus copy, dual, and its penalty).

The R-step stationarity system is block-sparse: the gain chain only senses
the diagonal entries of R's K diagonal blocks, and the (lagged) distortion
chain only the diagonal blocks. ``update_R`` exploits that structure; the
dense system is available from ``build_r_system`` for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import SolverOptions
from .fp_core import FpState
from .pa_model import PaModel


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v).reshape(rows, cols, order="F")


def block_sum_selector(Nt: int, K: int) -> np.ndarray:
    """The (Nt*K) x Nt selector whose sandwich sums the K diagonal blocks."""
    return np.tile(np.eye(Nt), (K, 1))


def gain_lifting_matrix(Nt: int, K: int) -> np.ndarray:
    """0/1 matrix mapping vec(G) of a diagonal Nt x Nt G to vec(I_K kron G).

    Built by composing diagonal extraction, tiling, and truncation; only used
    by verification code (solvers use the equivalent index arithmetic).
    """
    a = np.zeros(Nt + 1)
    a[0] = 1.0
    b = np.zeros(Nt * K + 1)
    b[0] = 1.0
    A1 = np.kron(np.eye(Nt), a[None, :])
    A2 = np.vstack([np.eye(Nt * Nt), np.zeros((Nt, Nt * Nt))])
    A_diag = A1 @ A2                       # extracts diag(G) from vec(G)
    B1 = np.kron(A_diag, b[:, None])
    B2 = np.tile(B1, (K, 1))
    B3 = np.hstack(
        [np.eye(Nt * Nt * K * K), np.zeros((Nt * Nt * K * K, Nt * K))]
    )
    return B3 @ B2


def gain_jacobian(pa: PaModel, Nt: int, K: int) -> np.ndarray:
    """d vec(G) / d vec(R) for the linearized gain, shape Nt^2 x (Nt K)^2."""
    E1 = block_sum_selector(Nt, K)
    N = Nt * K
    return (
        2.0
        * pa.beta3
        * np.kron(E1.T, E1.T)
        @ np.diag(vec(np.eye(N)))
    )


@dataclass
class Workspace:
    """Per-visit constants: channel, FP weights, interference backprojection.

    ``useful_weight[j]`` is sqrt(1+mu_j) * conj(zeta_j), applied blockwise to
    the useful-signal term; ``chan_gram`` is H diag(|zeta|^2) H^H; ``interf``
    stacks e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k.
    """

    H: np.ndarray            # (Nt, K)
    mu: np.ndarray           # (K,)
    zeta: np.ndarray         # (K,)
    Q_other: np.ndarray      # (K, K) other-BS aggregate
    Nt: int
    K: int
    h: np.ndarray = field(init=False)             # vec(H), (Nt K,)
    useful_weight: np.ndarray = field(init=False)  # (K,)
    chan_gram: np.ndarray = field(init=False)      # (Nt, Nt)
    interf: np.ndarray = field(init=False)         # (Nt K,)

    def __post_init__(self):
        self.h = vec(self.H)
        self.useful_weight = np.sqrt(1.0 + self.mu) * np.conj(self.zeta)
        aw = np.abs(self.zeta) ** 2
        self.chan_gram = (self.H * aw[None, :]) @ self.H.conj().T
        # e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k
        self.interf = vec(self.H @ (aw[:, None] * self.Q_other))

    # Dense views used only by verification code.
    @property
    def selector(self) -> np.ndarray:
        return block_sum_selector(self.Nt, self.K)

    @property
    def useful_weight_matrix(self) -> np.ndarray:
        return np.diag(np.repeat(self.useful_weight, self.Nt))

    @property
    def chan_gram_big(self) -> np.ndarray:
        return np.kron(np.eye(self.K), self.chan_gram)

    @property
    def zeta_block_diag(self) -> np.ndarray:
        return np.diag(np.repeat(self.zeta, self.Nt))

    @property
    def lifting(self) -> np.ndarray:
        return gain_lifting_matrix(self.Nt, self.K)


def build_workspace(H_b: np.ndarray, fp: FpState, Nt: int, K: int,
                    Q_other: np.ndarray | None = None) -> Workspace:
    H_b = np.asarray(H_b)
    if H_b.shape != (Nt, K):
        raise ValueError(f"channel shape {H_b.shape} does not match ({Nt}, {K})")
    if Q_other is None:
        Q_other = np.zeros((K, K), dtype=complex)
    return Workspace(H=H_b, mu=fp.mu, zeta=fp.zeta,
                     Q_other=np.asarray(Q_other, dtype=complex), Nt=Nt, K=K)


@dataclass
class StarContext:
    """Consensus data a BS receives in the star topology."""

    Q_C: np.ndarray      # (K, K) global copy for this BS
    lam: np.ndarray      # (K^2,) dual
    varrho: float

    @property
    def target(self) -> np.ndarray:
        """vec(Q_C) + lambda / varrho, the consensus anchor."""
        return vec(self.Q_C) + np.asarray(self.lam) / self.varrho


@dataclass
class LocalSolverState:
    """Mutable per-BS optimization state."""

    w: np.ndarray            # (Nt K,)
    R: np.ndarray            # (Nt K, Nt K)
    F_abs_sq: np.ndarray     # (Nt, Nt) lagged |F|^2 factor
    eta: float = 0.0
    rho: float = 1.0
    prev_residual: float | None = None
    ridge_fallbacks: int = 0
    rejected_sweeps: int = 0
    trace: list = field(default_factory=list)

    @property
    def W(self) -> np.ndarray:
        Nt = self.F_abs_sq.shape[0]
        return unvec(self.w, Nt, self.w.size // Nt)


def init_beamformer(H_b: np.ndarray, Pt: float) -> np.ndarray:
    """Matched-filter columns scaled to spend the power budget exactly."""
    H_b = np.asarray(H_b)
    K = H_b.shape[1]
    cols = H_b / np.linalg.norm(H_b, axis=0, keepdims=True)
    return np.sqrt(Pt / K) * cols


def state_from_beamformer(W0_b: np.ndarray, rho: float = 1.0) -> LocalSolverState:
    Nt, K = np.asarray(W0_b).shape
    w0 = vec(W0_b)
    R0 = np.outer(w0, w0.conj())
    return LocalSolverState(w=w0, R=R0, F_abs_sq=lagged_factor(R0, Nt, K),
                            rho=rho)


def init_local_state(H_b: np.ndarray, Pt: float, rho: float = 1.0) -> LocalSolverState:
    return state_from_beamformer(init_beamformer(H_b, Pt), rho)


def _diag_block_sum(R: np.ndarray, Nt: int, K: int) -> np.ndarray:
    """Sum of the K diagonal Nt x Nt blocks of R."""
    out = np.zeros((Nt, Nt), dtype=complex)
    for c in range(K):
        out += R[c * Nt:(c + 1) * Nt, c * Nt:(c + 1) * Nt]
    return out


def gain_diag_from_R(R: np.ndarray, pa: PaModel, Nt: int, K: int) -> np.ndarray:
    """Diagonal of the linearized amplifier gain G(R)."""
    idx = np.arange(Nt * K)
    s = np.asarray(R)[idx, idx].reshape(K, Nt).sum(axis=0)
    return pa.beta1 + 2.0 * pa.beta3 * s


def gain_from_R(R: np.ndarray, pa: PaModel, ws: Workspace) -> np.ndarray:
    """G(R); coincides with the Bussgang gain when R = w w^H."""
    return np.diag(gain_diag_from_R(R, pa, ws.Nt, ws.K))


def lagged_factor(R: np.ndarray, Nt: int, K: int) -> np.ndarray:
    """|F(R)|^2 with F(R) the summed diagonal blocks of R."""
    return np.abs(_diag_block_sum(R, Nt, K)) ** 2


def distortion_from_R(R: np.ndarray, F_abs_sq: np.ndarray, pa: PaModel,
                      ws: Workspace) -> np.ndarray:
    """Distortion covariance, linear in R given the lagged |F|^2 factor."""
    F = _diag_block_sum(R, ws.Nt, ws.K)
    return 2.0 * np.abs(pa.beta3) ** 2 * (F * np.asarray(F_abs_sq))


def _linear_coeff(ws: Workspace) -> np.ndarray:
    """u with  -delta_b linear part equal to Re{u^H Gbar w}."""
    e2h = np.repeat(np.conj(ws.useful_weight), ws.Nt) * ws.h
    return 2.0 * (ws.interf - e2h)


def _star_anchor_residual(star: StarContext, ws: Workspace, W: np.ndarray,
                          pa: PaModel) -> np.ndarray:
    """target - beta1 * vec(H^H W): the R-independent part of the AL residual."""
    return star.target - pa.beta1 * vec(ws.H.conj().T @ W)


# ---------------------------------------------------------------------------
# w-step
# ---------------------------------------------------------------------------

def w_subproblem_terms(state: LocalSolverState, ws: Workspace, pa: PaModel,
                       star: StarContext | None = None):
    """Quadratic data (A_block, c_blocks) of the w-step.

    The w-step objective is  w^H C w + 2 Re{c^H w} + rho ||w||^4  with
    C = I_K kron A_block (all K blocks share the matrix); the linear term
    differs per block. The quartic term is the exact power part of the
    penalty; majorizing it with the power budget loosens the surrogate off
    the power sphere and pins every solution to the boundary, which destroys
    the backoff behavior distortion-aware designs rely on.
    """
    g = gain_diag_from_R(state.R, pa, ws.Nt, ws.K)
    Gh = np.conj(g)
    A = (Gh[:, None] * ws.chan_gram) * g[None, :]
    E = unvec(ws.interf, ws.Nt, ws.K)
    C_blocks = Gh[:, None] * (E - ws.useful_weight.conj()[None, :] * ws.H)
    C_blocks = C_blocks - 2.0 * state.rho * unvec(
        state.R.conj().T @ state.w, ws.Nt, ws.K
    )
    if star is not None:
        A = A + 0.5 * star.varrho * (Gh[:, None] * (ws.H @ ws.H.conj().T)) * g[None, :]
        V = unvec(star.target, ws.K, ws.K)
        C_blocks = C_blocks - 0.5 * star.varrho * Gh[:, None] * (ws.H @ V)
    return A, C_blocks


def w_subproblem_objective(w: np.ndarray, A: np.ndarray, C_blocks: np.ndarray,
                           rho: float, Nt: int, K: int) -> float:
    Wm = unvec(w, Nt, K)
    quad = np.real(np.einsum("nj,nm,mj->", Wm.conj(), A, Wm))
    lin = 2.0 * np.real(np.sum(C_blocks.conj() * Wm))
    quart = rho * float(np.sum(np.abs(w) ** 2)) ** 2
    return float(quad + lin + quart)


_SECULAR_MAX_ITERS = 100
_SECULAR_RTOL = 1e-15


def _secular_newton(phi, lo: float, hi: float, t: float):
    """Safeguarded Newton on an increasing secular function.

    ``phi(t)`` returns (value, slope, scale, left), where ``left`` says that
    t lies left of the root. The bracket [lo, hi] keeps the root; a Newton
    step that leaves it is replaced by bisection. The search stops at a
    relative residual |value| <= 1e-15 * scale, at a bracket four ulps wide,
    or after ``_SECULAR_MAX_ITERS`` evaluations. Returns (t, step, left, hi):
    the last iterate, its Newton step, its side, and the bracket's right end.
    """
    for _ in range(_SECULAR_MAX_ITERS):
        val, slope, scale, left = phi(t)
        if left:
            lo = t
        else:
            hi = t
        step = -val / slope
        if abs(val) <= _SECULAR_RTOL * scale or hi - lo <= 4.0 * np.spacing(hi):
            break
        t_next = t + step
        t = t_next if lo < t_next < hi else 0.5 * (lo + hi)
    return t, step, left, hi


def update_w(state: LocalSolverState, ws: Workspace, pa: PaModel, Pt: float,
             opts: SolverOptions, star: StarContext | None = None) -> np.ndarray:
    """Closed-form w-step with a Newton secular solve for the power multiplier.

    The stationary point satisfies (A + t I) w = -c with
    t = 2 rho ||w||^2 + eta. In A's eigenbasis (eigenvalues d_i after the
    roundoff ridge, a_i = sum_k |(U^H c_k)_i|^2) the power of w(t) is the
    secular function p(t) = sum_i a_i / (d_i + t)^2, decreasing in t, and
    each evaluation costs O(Nt). Two scalar equations fix t:

      * interior (eta = 0): the fixed point t = 2 rho p(t), solved as
        1/sqrt(p(t)) - sqrt(2 rho / t) = 0;
      * active (||w||^2 = Pt, eta >= 0), taken when the interior power
        exceeds Pt (1 + power_tol_rel): 1/sqrt(p(t)) - 1/sqrt(Pt) = 0 on
        t >= 2 rho Pt.

    1/sqrt(p) is nearly linear near the pole t = -d_min, so safeguarded
    Newton (Moré & Sorensen 1983; Reinsch 1971) converges in a few steps
    from analytic brackets. Both functions are increasing and concave, so
    Newton approaches the active root from the infeasible side; a final
    correction step past the root returns a t with p(t) <= Pt.
    """
    A, C_blocks = w_subproblem_terms(state, ws, pa, star)
    lam, U = np.linalg.eigh(0.5 * (A + A.conj().T))
    proj = U.conj().T @ C_blocks  # (Nt, K)
    rho = state.rho

    ridge = 0.0
    if lam[0] < 0.0:
        # chan_gram is PSD; negative eigenvalues are roundoff
        ridge = -float(lam[0])
        if lam[0] < -1e-12 * max(1.0, float(abs(lam[-1]))):
            state.ridge_fallbacks += 1

    d = lam + ridge                       # d[0] >= 0
    a = np.sum(np.abs(proj) ** 2, axis=1)
    cum = np.cumsum(a)                    # weight of the i+1 smallest d
    if cum[-1] == 0.0:
        state.eta = 0.0
        state.w = np.zeros_like(state.w)
        return state.w

    def secular(t: float):
        """p(t) = ||w(t)||^2 and q(t) = -p'(t) / 2."""
        inv = 1.0 / (d + t)
        ai = a * inv * inv
        return float(ai.sum()), float((ai * inv).sum())

    def interior(t: float):
        p, q = secular(t)
        s, r = 1.0 / np.sqrt(p), np.sqrt(2.0 * rho / t)
        return s - r, s * q / p + 0.5 * r / t, s, s < r

    # cum[j] / (d[j] + t)^2 <= p(t) <= cum[-1] / (d[0] + t)^2 bracket the
    # fixed point by the roots of t (d + t)^2 = 2 rho cum
    x = 0.5 * rho * cum
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = float(np.max(np.fmin(np.cbrt(x), x / d ** 2)))
        hi = float(np.fmin(np.cbrt(4.0 * x[-1]), 4.0 * x[-1] / d[0] ** 2))
    t_int, _, _, _ = _secular_newton(interior, lo, hi, lo)

    if secular(t_int)[0] <= Pt * (1.0 + opts.power_tol_rel):
        eta = 0.0
        t_star = t_int
    else:
        # power constraint active: ||w||^2 = Pt, t = 2 rho Pt + eta
        base = 2.0 * rho * Pt
        s_pt = 1.0 / np.sqrt(Pt)

        def active(t: float):
            p, q = secular(t)
            s = 1.0 / np.sqrt(p)
            return s - s_pt, s * q / p, s, p > Pt

        lo = max(base, t_int, float(np.max(np.sqrt(cum / Pt) - d)))
        hi = max(lo, float(np.sqrt(cum[-1] / Pt) - d[0]))
        while secular(hi)[0] > Pt:
            hi *= 2.0
        t_star, step, left, hi = _secular_newton(active, lo, hi, lo)
        if left:
            # Newton stopped just short of the root: step past it, doubling
            # the step until feasible (hi is feasible, so this ends)
            t_root, delta = t_star, max(abs(step), np.spacing(t_star))
            t_star = min(t_root + delta, hi)
            while secular(t_star)[0] > Pt:
                delta *= 2.0
                t_star = min(t_root + delta, hi)
        eta = max(t_star - base, 0.0)
    state.eta = eta
    state.w = vec(U @ (-(proj / (d + t_star)[:, None])))
    return state.w


# ---------------------------------------------------------------------------
# R-step
# ---------------------------------------------------------------------------

def _r_system_parts(w: np.ndarray, ws: Workspace, pa: PaModel, rho: float,
                    F_abs_sq: np.ndarray, star: StarContext | None = None):
    """Reduced stationarity data of the R-step.

    Returns (A_small, c_diag, V3, Wt) where the full system decouples into
    the Nt*K diagonal entries (matrix A_small + rho*I, rhs -c_diag) and a
    closed form everywhere else.
    """
    Nt, K = ws.Nt, ws.K
    Wm = unvec(w, Nt, K)
    Wt = np.outer(w, w.conj())
    S = Wm @ Wm.conj().T
    b3 = pa.beta3
    P = ws.chan_gram.T * S
    A_small = 4.0 * np.abs(b3) ** 2 * np.kron(np.ones((K, K)), P)

    c1 = 2.0 * np.conj(pa.beta1) * b3 * np.tile(P @ np.ones(Nt), K)
    u = _linear_coeff(ws)
    t2 = (np.conj(u) * w).reshape(K, Nt).sum(axis=0)
    c2 = b3 * np.tile(t2, K)
    V3 = np.asarray(F_abs_sq) * ws.chan_gram.T
    c3 = np.abs(b3) ** 2 * np.tile(np.diag(V3), K)
    c4 = -rho * np.abs(w) ** 2

    c_diag = c1 + c2 + c3 + c4
    if star is not None:
        r = _star_anchor_residual(star, ws, Wm, pa)
        Rm = unvec(r, K, K)
        xi_gram_t = (ws.H @ ws.H.conj().T).conj() * S
        A_small = A_small + 2.0 * star.varrho * np.abs(b3) ** 2 * np.kron(
            np.ones((K, K)), xi_gram_t
        )
        xi_r = np.einsum("nk,kj,nj->n", ws.H.conj(), Rm.conj(), Wm)
        c_diag = c_diag + np.tile(-star.varrho * b3 * xi_r, K)
    return A_small, c_diag, V3, Wt


def _assemble_R(r_diag_conj: np.ndarray, V3: np.ndarray, Wt: np.ndarray,
                rho: float, pa: PaModel, Nt: int, K: int) -> np.ndarray:
    """Off-diagonal closed form plus the solved diagonal entries."""
    Rstar = Wt.T - (np.abs(pa.beta3) ** 2 / rho) * np.kron(np.eye(K), V3)
    idx = np.arange(Nt * K)
    Rstar[idx, idx] = r_diag_conj
    return np.conj(Rstar)


def update_R(state: LocalSolverState, ws: Workspace, pa: PaModel,
             star: StarContext | None = None) -> np.ndarray:
    """Exact minimizer of the (lagged) R-step objective.

    A numerically singular system bumps rho by 10x and retries once before
    aborting with diagnostics.
    """
    for attempt in range(2):
        A_small, c_diag, V3, Wt = _r_system_parts(
            state.w, ws, pa, state.rho, state.F_abs_sq, star
        )
        N = ws.Nt * ws.K
        try:
            r_diag = np.linalg.solve(A_small + state.rho * np.eye(N), -c_diag)
        except np.linalg.LinAlgError:
            r_diag = np.full(N, np.nan)
        if np.all(np.isfinite(r_diag)):
            state.R = _assemble_R(r_diag, V3, Wt, state.rho, pa, ws.Nt, ws.K)
            return state.R
        if attempt == 0:
            state.rho *= 10.0
    raise RuntimeError(
        "R-step system singular after penalty bump "
        f"(rho={state.rho:g}, |w|^2={np.linalg.norm(state.w) ** 2:g})"
    )


def build_r_system(w: np.ndarray, ws: Workspace, pa: PaModel, rho: float,
                   F_abs_sq: np.ndarray, star: StarContext | None = None):
    """Dense stationarity system (C_R, c_R) over vec(conj(R)).

    The returned pair satisfies (C_R + rho I) vec(conj(R*)) = -c_R at the
    solution produced by ``update_R``. Intended for verification at small
    sizes; solvers use the reduced form.
    """
    Nt, K = ws.Nt, ws.K
    N = Nt * K
    A_small, c_diag, V3, Wt = _r_system_parts(w, ws, pa, rho, F_abs_sq, star)
    C_R = np.zeros((N * N, N * N), dtype=complex)
    pos = np.arange(N) * (N + 1)
    C_R[np.ix_(pos, pos)] = A_small
    c_R = (np.abs(pa.beta3) ** 2 * vec(np.kron(np.eye(K), V3))
           - rho * vec(Wt.T)).astype(complex)
    # c_diag already contains this vector's diagonal-position entries
    c_R[pos] = c_diag
    return C_R, c_R


def solve_r_dense(w, ws, pa, rho, F_abs_sq, star=None) -> np.ndarray:
    """Solve the dense stationarity system; reference path for tests."""
    N = ws.Nt * ws.K
    C_R, c_R = build_r_system(w, ws, pa, rho, F_abs_sq, star)
    r_conj = np.linalg.solve(C_R + rho * np.eye(N * N), -c_R)
    return np.conj(unvec(r_conj, N, N))


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def r_subproblem_objective(w: np.ndarray, R: np.ndarray, ws: Workspace,
                           pa: PaModel, rho: float, F_abs_sq: np.ndarray,
                           star: StarContext | None = None) -> float:
    """Real value of the R-step objective at (w, R) with the given lag."""
    Nt, K = ws.Nt, ws.K
    Wm = unvec(w, Nt, K)
    g = gain_diag_from_R(R, pa, Nt, K)
    GW = g[:, None] * Wm
    f1 = float(np.real(np.einsum("nj,nm,mj->", GW.conj(), ws.chan_gram, GW)))
    u = unvec(_linear_coeff(ws), Nt, K)
    f2 = float(np.real(np.sum(u.conj() * GW)))
    F = _diag_block_sum(R, Nt, K)
    V3 = np.asarray(F_abs_sq) * ws.chan_gram.T
    f3 = float(2.0 * np.abs(pa.beta3) ** 2 * np.real(np.sum(F * V3)))
    f4 = float(rho * np.linalg.norm(R - np.outer(w, w.conj())) ** 2)
    total = f1 + f2 + f3 + f4
    if star is not None:
        m = vec(ws.H.conj().T @ GW)
        total += float(0.5 * star.varrho * np.linalg.norm(star.target - m) ** 2)
    return total


def local_penalized_objective(state: LocalSolverState, ws: Workspace,
                              pa: PaModel, star: StarContext | None = None) -> float:
    """-delta_b + rho ||R - w w^H||^2 (+ consensus AL), distortion exact in R."""
    lag_now = lagged_factor(state.R, ws.Nt, ws.K)
    return r_subproblem_objective(state.w, state.R, ws, pa, state.rho,
                                  lag_now, star)


def true_local_objective(W_b: np.ndarray, ws: Workspace, pa: PaModel,
                         star: StarContext | None = None) -> float:
    """-delta_b at the true amplifier statistics of W_b (plus consensus AL).

    This is the lift-free value of what a visit is meant to decrease; the
    sweep uses it as an ascent safeguard.
    """
    from . import fp_core

    fp = FpState(mu=ws.mu, zeta=ws.zeta)
    val = -fp_core.local_objective_ring(ws.Q_other, None, ws.H, W_b, pa, fp)
    if star is not None:
        from .pa_model import bussgang_gain_diag

        g = bussgang_gain_diag(W_b, pa)
        m = vec(ws.H.conj().T @ (g[:, None] * W_b))
        val += 0.5 * star.varrho * float(np.linalg.norm(star.target - m) ** 2)
    return float(val)


def penalty_residual(state: LocalSolverState) -> float:
    Wt = np.outer(state.w, state.w.conj())
    denom = max(np.linalg.norm(Wt), 1e-300)
    return float(np.linalg.norm(state.R - Wt) / denom)


def hermitian_deviation(R: np.ndarray) -> float:
    denom = max(np.linalg.norm(R), 1e-300)
    return float(np.linalg.norm(R - R.conj().T) / denom)


# ---------------------------------------------------------------------------
# one visit
# ---------------------------------------------------------------------------

def sweep(state: LocalSolverState, ws: Workspace, pa: PaModel, Pt: float,
          opts: SolverOptions, star: StarContext | None = None):
    """Run ``opts.inner_sweeps`` (w-step, lag refresh, R-step) rounds.

    Each round carries an ascent safeguard: a move that worsens the true
    (lift-free) local objective is rolled back and the penalty coefficient
    grown, shrinking the next step. Without it the lag-linearized distortion
    model overshoots when the FP weights are large. Rho also grows whenever
    the relative penalty residual fails to drop by the configured fraction.
    Appends one trace row per inner sweep:
    (objective, penalty_residual, eta, rho, hermitian_deviation).
    """
    for _ in range(opts.inner_sweeps):
        snapshot = (state.w, state.R, state.F_abs_sq, state.eta,
                    state.prev_residual)
        obj_before = true_local_objective(state.W, ws, pa, star)
        accepted = False
        while True:
            update_w(state, ws, pa, Pt, opts, star)
            state.F_abs_sq = lagged_factor(state.R, ws.Nt, ws.K)
            update_R(state, ws, pa, star)
            resid = penalty_residual(state)
            # trust-region guard: the lagged distortion model is only valid
            # near w w^H, and a runaway R feeds back through the lag into
            # divergence
            while resid > opts.residual_guard and state.rho < opts.rho_cap:
                state.rho = min(state.rho * 10.0, opts.rho_cap)
                update_R(state, ws, pa, star)
                resid = penalty_residual(state)
            obj_after = true_local_objective(state.W, ws, pa, star)
            if obj_after <= obj_before + 1e-10 * max(1.0, abs(obj_before)):
                accepted = True
                break
            # worsening move: retract the beamformer, re-consolidate the
            # lift onto it (a stale loose R would bias the next step toward
            # its own direction, the harder the stiffer the penalty), then
            # retry with a stiffer penalty
            state.w, _, _, state.eta, state.prev_residual = snapshot
            state.R = np.outer(state.w, state.w.conj())
            state.F_abs_sq = lagged_factor(state.R, ws.Nt, ws.K)
            state.rejected_sweeps += 1
            if state.rho >= opts.rho_cap:
                break
            state.rho = min(state.rho * 10.0, opts.rho_cap)
        resid = penalty_residual(state)
        if accepted and resid > 10.0 * opts.penalty_resid_tol:
            # far from a tight lift: grow the penalty in proportion
            boost = min(10.0, resid / (10.0 * opts.penalty_resid_tol))
            state.rho = min(state.rho * max(boost, opts.rho_growth),
                            opts.rho_cap)
        elif (accepted
                and state.prev_residual is not None
                and resid > (1.0 - opts.rho_drop_target) * state.prev_residual):
            state.rho = min(state.rho * opts.rho_growth, opts.rho_cap)
        state.prev_residual = resid
        state.trace.append((
            local_penalized_objective(state, ws, pa, star),
            resid,
            state.eta,
            state.rho,
            hermitian_deviation(state.R),
        ))
    return state


def dump_local_trace(state: LocalSolverState, path):
    """CSV rows (objective, penalty_residual, eta, rho, hermitian_deviation)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["objective", "penalty_residual", "eta", "rho", "hermitian_deviation"]
        )
        for row in state.trace:
            writer.writerow([repr(float(x)) for x in row])
