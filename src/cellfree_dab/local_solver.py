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
chain only the diagonal blocks. Its diagonal part is 1 1^T kron M with one
Nt x Nt block M, so ``update_R`` solves a single Nt x Nt system for the sum
of the diagonal's K blocks and writes every other entry in closed form. R is
kept in that structured form (``Lift``) and read only through it, so a visit
costs O(Nt^3 + Nt^2 K) time and O(Nt^2 + Nt K) memory; the (Nt K)^2 dense
reference (expansion, stationarity system, objective, lifting matrix) lives
in ``validate``.

The penalty coefficient rho follows one fixed schedule. A BS starts at
``RHO_INIT``; a visit multiplies rho by ``RHO_GROWTH`` when its relative
penalty residual ||R - w w^H|| / ||w w^H|| drops by less than the fraction
``RHO_DROP_TARGET`` (by up to 10x when the residual exceeds ten times
``PENALTY_RESID_TOL``, the tightness the solvers' convergence test asks
for), by 10 for each rejected move and while the residual exceeds
``RESIDUAL_GUARD``; it never exceeds ``RHO_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fp_core
from .fp_core import FpState
from .pa_model import PaModel

RHO_INIT = 1.0
RHO_GROWTH = 1.5
RHO_CAP = 1e6
RHO_DROP_TARGET = 0.10
RESIDUAL_GUARD = 1.0
PENALTY_RESID_TOL = 1e-3


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v).reshape(rows, cols, order="F")


@dataclass
class Workspace:
    """Per-visit constants: channel, FP weights, interference backprojection.

    ``useful_weight[j]`` is sqrt(1+mu_j) * conj(zeta_j), applied blockwise to
    the useful-signal term; ``chan_gram`` is H diag(|zeta|^2) H^H; ``interf``
    stacks e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k; ``linear_coeff`` is the
    u with -delta_b's linear part equal to Re{u^H Gbar w}, read by every
    R-step solve and R-step objective of the visit.
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
    linear_coeff: np.ndarray = field(init=False)   # (Nt K,)

    def __post_init__(self):
        self.h = vec(self.H)
        self.useful_weight = np.sqrt(1.0 + self.mu) * np.conj(self.zeta)
        aw = np.abs(self.zeta) ** 2
        self.chan_gram = (self.H * aw[None, :]) @ self.H.conj().T
        # e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k
        self.interf = vec(self.H @ (aw[:, None] * self.Q_other))
        e2h = np.repeat(np.conj(self.useful_weight), self.Nt) * self.h
        self.linear_coeff = 2.0 * (self.interf - e2h)


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


def _off_diagonal(E: np.ndarray) -> np.ndarray:
    """E with its diagonal set to zero."""
    E = E.copy()
    np.fill_diagonal(E, 0.0)
    return E


@dataclass(frozen=True)
class Lift:
    """Lifted copy R of w w^H: R = u u^H - (I_K kron E), diagonal replaced by d.

    This is the form of the R-step's exact minimizer: u is the beamformer the
    step was solved at, E = (|beta3|^2 / rho) conj(V3), and d is the solved
    diagonal; the tight lift w w^H is ``rank_one(w)``. The solver reads R
    only through the methods below, each O(Nt^2 K), so the (Nt K)^2 matrix
    is never formed (``validate.expand`` builds it for reference checks).
    E's own diagonal is not part of R and is never read.

    R is an unconstrained complex matrix. With a complex beta3 the solved
    diagonal d is complex, so R is not Hermitian (``hermitian_deviation``
    reports by how much); it is deliberately not projected onto the
    Hermitian matrices, because that projection would move rates. States
    share a Lift by reference (sweep and star snapshots), so its arrays are
    never written. That makes two reads safe to compute once per Lift: the
    block sum F (returned read-only) and the tight-lift distance
    ||R - u u^H||^2, which every penalty-residual read of a solver state
    asks for, since a state's w is its lift's u.
    """

    u: np.ndarray   # (Nt K,)
    E: np.ndarray   # (Nt, Nt)
    d: np.ndarray   # (Nt K,)

    @classmethod
    def rank_one(cls, w: np.ndarray, Nt: int) -> "Lift":
        """The tight lift R = w w^H."""
        return cls(u=w, E=np.zeros((Nt, Nt), dtype=complex), d=w * w.conj())

    @property
    def Nt(self) -> int:
        return self.E.shape[0]

    @property
    def K(self) -> int:
        return self.u.size // self.E.shape[0]

    def diag_sum(self) -> np.ndarray:
        """Sum of the diagonals of R's K diagonal blocks, shape (Nt,)."""
        return self.d.reshape(-1, self.Nt).sum(axis=0)

    def block_sum(self) -> np.ndarray:
        """F, the sum of R's K diagonal Nt x Nt blocks (read-only)."""
        return self._block_sum

    @cached_property
    def _block_sum(self) -> np.ndarray:
        U = unvec(self.u, self.Nt, self.K)
        F = U @ U.conj().T - self.K * self.E
        np.fill_diagonal(F, self.diag_sum())
        F.flags.writeable = False
        return F

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """R^H w."""
        Eo = _off_diagonal(self.E)
        Wm = unvec(w, self.Nt, self.K)
        x = self.u * np.vdot(self.u, w) - vec(Eo.conj().T @ Wm)
        return x + (self.d.conj() - self.u * self.u.conj()) * w

    def distance_sq(self, w: np.ndarray) -> float:
        """||R - w w^H||_F^2; ||R||_F^2 at w = 0."""
        if w is self.u:
            return self._tight_distance_sq
        return self._distance_sq(w)

    @cached_property
    def _tight_distance_sq(self) -> float:
        return self._distance_sq(self.u)

    def _distance_sq(self, w: np.ndarray) -> float:
        Nt, K = self.Nt, self.K
        Eo = _off_diagonal(self.E)
        off = K * np.vdot(Eo, Eo).real          # off-diagonal of I_K kron E
        delta = self.u - w
        if delta.any():
            # u u^H - w w^H = L = w delta^H + delta u^H: add ||L||^2 and
            # -2 Re <L, I_K kron Eo>, less L's diagonal
            U, D = unvec(self.u, Nt, K), unvec(delta, Nt, K)
            nd = np.vdot(delta, delta).real
            L_sq = (nd * (np.vdot(w, w).real + np.vdot(self.u, self.u).real)
                    + 2.0 * np.real(np.vdot(w, delta) * np.vdot(self.u, delta)))
            cross = np.vdot(unvec(w, Nt, K), Eo @ D) + np.vdot(D, Eo @ U)
            L_diag = w * delta.conj() + delta * self.u.conj()
            off += L_sq - 2.0 * cross.real - np.vdot(L_diag, L_diag).real
        dd = self.d - w * w.conj()
        return float(max(off, 0.0) + np.vdot(dd, dd).real)

    def skew_sq(self) -> float:
        """||R - R^H||_F^2; the u u^H part is Hermitian and drops out."""
        Eo = _off_diagonal(self.E)
        S = Eo - Eo.conj().T
        return float(self.K * np.vdot(S, S).real + 4.0 * np.sum(self.d.imag ** 2))


@dataclass
class LocalSolverState:
    """Mutable per-BS optimization state."""

    w: np.ndarray            # (Nt K,)
    R: Lift
    F_abs_sq: np.ndarray     # (Nt, Nt) lagged |F|^2 factor
    eta: float = 0.0
    rho: float = RHO_INIT
    prev_residual: float | None = None
    ridge_fallbacks: int = 0
    rejected_sweeps: int = 0

    @property
    def W(self) -> np.ndarray:
        Nt = self.F_abs_sq.shape[0]
        return unvec(self.w, Nt, self.w.size // Nt)


def state_from_beamformer(W0_b: np.ndarray,
                          rho: float = RHO_INIT) -> LocalSolverState:
    W0_b = np.asarray(W0_b)
    w0 = vec(W0_b)
    R0 = Lift.rank_one(w0, W0_b.shape[0])
    return LocalSolverState(w=w0, R=R0, F_abs_sq=lagged_factor(R0), rho=rho)


def gain_diag_from_R(R: Lift, pa: PaModel) -> np.ndarray:
    """Diagonal of the linearized amplifier gain G(R)."""
    return pa.beta1 + 2.0 * pa.beta3 * R.diag_sum()


def lagged_factor(R: Lift) -> np.ndarray:
    """|F(R)|^2 with F(R) the summed diagonal blocks of R."""
    return np.abs(R.block_sum()) ** 2


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
    g = gain_diag_from_R(state.R, pa)
    Gh = np.conj(g)
    A = (Gh[:, None] * ws.chan_gram) * g[None, :]
    E = unvec(ws.interf, ws.Nt, ws.K)
    C_blocks = Gh[:, None] * (E - ws.useful_weight.conj()[None, :] * ws.H)
    C_blocks = C_blocks - 2.0 * state.rho * unvec(
        state.R.rmatvec(state.w), ws.Nt, ws.K
    )
    if star is not None:
        A = A + 0.5 * star.varrho * (Gh[:, None] * (ws.H @ ws.H.conj().T)) * g[None, :]
        V = unvec(star.target, ws.K, ws.K)
        C_blocks = C_blocks - 0.5 * star.varrho * Gh[:, None] * (ws.H @ V)
    return A, C_blocks


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
             star: StarContext | None = None) -> np.ndarray:
    """Closed-form w-step with a Newton secular solve for the power multiplier.

    The stationary point satisfies (A + t I) w = -c with
    t = 2 rho ||w||^2 + eta. In A's eigenbasis (eigenvalues d_i after the
    roundoff ridge, a_i = sum_k |(U^H c_k)_i|^2) the power of w(t) is the
    secular function p(t) = sum_i a_i / (d_i + t)^2, decreasing in t, and
    each evaluation costs O(Nt). Two scalar equations fix t:

      * interior (eta = 0): the fixed point t = 2 rho p(t), solved as
        1/sqrt(p(t)) - sqrt(2 rho / t) = 0;
      * active (||w||^2 = Pt, eta >= 0), taken whenever the interior power
        exceeds Pt: 1/sqrt(p(t)) - 1/sqrt(Pt) = 0 on t >= 2 rho Pt.

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

    if secular(t_int)[0] <= Pt:
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

    Returns (M, c, V3). The Nt*K diagonal entries of R decouple from the
    rest: with r_k the k-th block of the diagonal (k-th row of the (K, Nt)
    array r), they solve (1 1^T kron M + rho I) vec(r^T) = -vec(c^T): one
    Nt x Nt matrix M couples every pair of blocks alike. Every other entry
    of R has a closed form in V3.
    """
    Nt, K = ws.Nt, ws.K
    Wm = unvec(w, Nt, K)
    S = Wm @ Wm.conj().T
    b3 = pa.beta3
    P = ws.chan_gram.T * S
    M = 4.0 * np.abs(b3) ** 2 * P

    c1 = 2.0 * np.conj(pa.beta1) * b3 * (P @ np.ones(Nt))
    u = ws.linear_coeff
    c2 = b3 * (np.conj(u) * w).reshape(K, Nt).sum(axis=0)
    V3 = np.asarray(F_abs_sq) * ws.chan_gram.T
    c3 = np.abs(b3) ** 2 * np.diag(V3)
    c_block = c1 + c2 + c3
    if star is not None:
        r = _star_anchor_residual(star, ws, Wm, pa)
        Rm = unvec(r, K, K)
        xi_gram_t = (ws.H @ ws.H.conj().T).conj() * S
        M = M + 2.0 * star.varrho * np.abs(b3) ** 2 * xi_gram_t
        xi_r = np.einsum("nk,kj,nj->n", ws.H.conj(), Rm.conj(), Wm)
        c_block = c_block - star.varrho * b3 * xi_r
    c = c_block - rho * np.abs(Wm.T) ** 2
    return M, c, V3


def update_R(state: LocalSolverState, ws: Workspace, pa: PaModel,
             star: StarContext | None = None) -> Lift:
    """Exact minimizer of the (lagged) R-step objective.

    Summing the K block rows of the diagonal system gives one Nt x Nt solve
    for the block sum s = sum_k r_k, (K M + rho I) s = -sum_k c_k, and then
    r_k = -(c_k + M s) / rho. The off-diagonal entries are
    R = w w^H - (|beta3|^2 / rho)(I_K kron conj(V3)); the result is the
    ``Lift`` (w, (|beta3|^2 / rho) conj(V3), conj(r)).

    A numerically singular system bumps rho by 10x and retries once before
    aborting with diagnostics.
    """
    Nt = ws.Nt
    for attempt in range(2):
        rho = state.rho
        M, c, V3 = _r_system_parts(state.w, ws, pa, rho, state.F_abs_sq, star)
        try:
            s = np.linalg.solve(ws.K * M + rho * np.eye(Nt), -c.sum(axis=0))
        except np.linalg.LinAlgError:
            s = np.full(Nt, np.nan)
        r = -(c + M @ s) / rho
        if np.all(np.isfinite(r)):
            E = (np.abs(pa.beta3) ** 2 / rho) * np.conj(V3)
            state.R = Lift(u=state.w, E=E, d=np.conj(r.reshape(-1)))
            return state.R
        if attempt == 0:
            state.rho *= 10.0
    raise RuntimeError(
        "R-step system singular after penalty bump "
        f"(rho={state.rho:g}, |w|^2={np.linalg.norm(state.w) ** 2:g})"
    )


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def r_objective(w: np.ndarray, g: np.ndarray, F: np.ndarray, resid_sq: float,
                ws: Workspace, pa: PaModel, rho: float, F_abs_sq: np.ndarray,
                star: StarContext | None = None) -> float:
    """R-step objective from what it reads of R.

    ``g`` is the gain diagonal G(R), ``F`` the block sum of R and
    ``resid_sq`` the penalty ||R - w w^H||_F^2; ``F_abs_sq`` is the lag.
    """
    Wm = unvec(w, ws.Nt, ws.K)
    GW = g[:, None] * Wm
    f1 = float(np.real(np.einsum("nj,nm,mj->", GW.conj(), ws.chan_gram, GW)))
    u = unvec(ws.linear_coeff, ws.Nt, ws.K)
    f2 = float(np.real(np.sum(u.conj() * GW)))
    V3 = np.asarray(F_abs_sq) * ws.chan_gram.T
    f3 = float(2.0 * np.abs(pa.beta3) ** 2 * np.real(np.sum(F * V3)))
    total = f1 + f2 + f3 + rho * resid_sq
    if star is not None:
        m = vec(ws.H.conj().T @ GW)
        total += float(0.5 * star.varrho * np.linalg.norm(star.target - m) ** 2)
    return total


def local_penalized_objective(state: LocalSolverState, ws: Workspace,
                              pa: PaModel, star: StarContext | None = None) -> float:
    """-delta_b + rho ||R - w w^H||^2 (+ consensus AL), distortion exact in R."""
    R = state.R
    F = R.block_sum()
    return r_objective(state.w, gain_diag_from_R(R, pa), F,
                       R.distance_sq(state.w), ws, pa, state.rho,
                       np.abs(F) ** 2, star)


def true_local_objective(contribution, ws: Workspace,
                         star: StarContext | None = None) -> float:
    """-delta_b at a contribution (plus consensus AL), in O(K^2).

    ``contribution`` is ``fp_core.bs_contribution`` (A, p) at the
    beamformer being judged, so this is the lift-free value, under the true
    amplifier statistics, of what a visit is meant to decrease; the sweep
    uses it as an ascent safeguard. The consensus term reads vec(A).
    """
    A, p = contribution
    val = -fp_core.local_objective(ws.Q_other, A, p, ws.mu, ws.zeta)
    if star is not None:
        val += 0.5 * star.varrho * float(np.linalg.norm(star.target - vec(A)) ** 2)
    return float(val)


def penalty_residual(state: LocalSolverState) -> float:
    """||R - w w^H||_F / ||w w^H||_F."""
    denom = max(float(np.vdot(state.w, state.w).real), 1e-300)
    return float(np.sqrt(state.R.distance_sq(state.w)) / denom)


def hermitian_deviation(R: Lift) -> float:
    """||R - R^H||_F / ||R||_F."""
    denom = max(np.sqrt(R.distance_sq(np.zeros_like(R.u))), 1e-300)
    return float(np.sqrt(R.skew_sq()) / denom)


# ---------------------------------------------------------------------------
# one visit
# ---------------------------------------------------------------------------

def sweep(state: LocalSolverState, ws: Workspace, pa: PaModel, Pt: float,
          star: StarContext | None = None, contribution=None):
    """One (w-step, lag refresh, R-step) round with an ascent safeguard.

    A move that worsens the true (lift-free) local objective is rolled back
    and the penalty coefficient grown, shrinking the next step. Without it
    the lag-linearized distortion model overshoots when the FP weights are
    large. Rho also grows whenever the relative penalty residual fails to
    drop by ``RHO_DROP_TARGET``; the residual is left in
    ``state.prev_residual``.

    ``contribution`` is the BS's (Q_b, p_b) at the entry beamformer, as
    ``fp_core.bs_contribution(ws.H, state.W, pa)`` returns it (computed here
    when not given); each attempted move builds one more, and the
    contribution at the exit beamformer is returned.
    """
    if contribution is None:
        contribution = fp_core.bs_contribution(ws.H, state.W, pa)
    obj_before = true_local_objective(contribution, ws, star)
    w_entry, eta_entry = state.w, state.eta
    accepted = False
    while True:
        update_w(state, ws, pa, Pt, star)
        state.F_abs_sq = lagged_factor(state.R)
        update_R(state, ws, pa, star)
        resid = penalty_residual(state)
        # trust-region guard: the lagged distortion model is only valid
        # near w w^H, and a runaway R feeds back through the lag into
        # divergence
        while resid > RESIDUAL_GUARD and state.rho < RHO_CAP:
            state.rho = min(state.rho * 10.0, RHO_CAP)
            update_R(state, ws, pa, star)
            resid = penalty_residual(state)
        moved = fp_core.bs_contribution(ws.H, state.W, pa)
        obj_after = true_local_objective(moved, ws, star)
        if obj_after <= obj_before + 1e-10 * max(1.0, abs(obj_before)):
            accepted = True
            contribution = moved
            break
        # worsening move: retract the beamformer, re-consolidate the
        # lift onto it (a stale loose R would bias the next step toward
        # its own direction, the harder the stiffer the penalty), then
        # retry with a stiffer penalty
        state.w, state.eta = w_entry, eta_entry
        state.R = Lift.rank_one(state.w, ws.Nt)
        state.F_abs_sq = lagged_factor(state.R)
        state.rejected_sweeps += 1
        if state.rho >= RHO_CAP:
            break
        state.rho = min(state.rho * 10.0, RHO_CAP)
    resid = penalty_residual(state)
    if accepted and resid > 10.0 * PENALTY_RESID_TOL:
        # far from a tight lift: grow the penalty in proportion
        boost = min(10.0, resid / (10.0 * PENALTY_RESID_TOL))
        state.rho = min(state.rho * max(boost, RHO_GROWTH), RHO_CAP)
    elif (accepted
            and state.prev_residual is not None
            and resid > (1.0 - RHO_DROP_TARGET) * state.prev_residual):
        state.rho = min(state.rho * RHO_GROWTH, RHO_CAP)
    state.prev_residual = resid
    return contribution
