"""Per-BS penalty-MM beamforming engine, with an optional leading lane axis.

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
    quadratic in R whose stationarity system is solved exactly. The lag is
    the step's input, read once per attempt of a ``sweep``.

Everything a visit needs from the surrounding network is carried by
``Workspace`` (channel, FP weights, interference backprojection) and the
optional ``StarContext`` (consensus copy, dual, and its penalty).

The engine moves one BS, or a group of BSs at once: every array may carry a
leading lane axis, one lane per BS (``Workspace``, ``StarContext``,
``Lift`` and ``LocalSolverState`` alike; a state's per-BS scalars ``rho``,
``prev_residual`` and ``rejected_sweeps`` are then arrays over the lanes).
Star moves its B stations in one call; ring and central move one station
per call, without the axis, because each visit there reads the one before.
Each lane makes exactly the moves a call on its BS alone makes, bit for bit:
the stacked matmul, ``eigh``, ``solve``, ``einsum``, ``vecdot`` and last-axis
sums equal their per-BS forms on the per-BS memory layouts used here. What
differs between lanes runs lane by lane: the secular Newton, the rho rules
and the sweep's reject-and-retry, where a lane that is done leaves and the
next attempt takes the lanes still trying (``take`` / ``put``); the residual
guard re-solves every lane of an attempt in place (``_guard``). Sums call
``np.add.reduce``, the reduction ``ndarray.sum`` makes, without its Python
wrapper: a visit makes dozens of them.

The R-step stationarity system is block-sparse: the gain chain only senses
the diagonal entries of R's K diagonal blocks, and the (lagged) distortion
chain only the diagonal blocks. Its diagonal part is 1 1^T kron M with one
Nt x Nt block M, so ``update_R`` solves a single Nt x Nt system for the sum
of the diagonal's K blocks and writes every other entry in closed form. R is
kept in that structured form (``Lift``) and read only through it, so a visit
costs O(Nt^3 + Nt^2 K) time and O(Nt^2 + Nt K) memory per BS. The penalty
||R - w w^H||^2 is read only at the w the lift was solved at, so the lift
answers it there alone. The (Nt K)^2 dense reference (expansion, stationarity
system, objective, lifting matrix) lives in ``tests/reference.py``.

The penalty coefficient rho follows one fixed schedule. A BS starts at
``RHO_INIT``; a visit multiplies rho by ``RHO_GROWTH`` when its relative
penalty residual ||R - w w^H|| / ||w w^H|| drops by less than the fraction
``RHO_DROP_TARGET`` (by up to 10x when the residual exceeds ten times
``PENALTY_RESID_TOL``, the tightness the solvers' convergence test asks
for), by 10 for each rejected move and while the residual exceeds
``RESIDUAL_GUARD``; it never exceeds ``RHO_CAP``.
"""

from __future__ import annotations

import copy
import math
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
    """Column-stacking vectorization of a matrix, or of each in a stack."""
    M = np.asarray(M)
    return M.mT.reshape(M.shape[:-2] + (-1,))


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of ``vec``: (..., rows * cols) to column-major (..., rows, cols)."""
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + (cols, rows)).mT


def _flat(M: np.ndarray) -> np.ndarray:
    """Each matrix of a stack flattened in C order, as ``np.vdot`` reads it."""
    return M.reshape(M.shape[:-2] + (-1,))


def _norm_sq(x: np.ndarray):
    """``np.linalg.norm(x) ** 2`` of a complex vector, or of each in a stack."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)) ** 2


def _set_diagonal(M: np.ndarray, values) -> None:
    """Write ``values`` on the diagonal of each matrix of the C-contiguous
    ``M`` (through a strided view of its buffer)."""
    M.reshape(M.shape[:-2] + (-1,))[..., ::M.shape[-1] + 1] = values


def _lane_list(x) -> list:
    """A per-BS scalar field as a list, one entry per lane (one for one BS)."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def _lane_field(values: list, like):
    """Per-lane ``values`` as a field shaped like ``like``: an array over the
    lanes, or the scalar of one BS."""
    return np.array(values) if isinstance(like, np.ndarray) else values[0]


def _rows(x: np.ndarray) -> list:
    """The per-lane vectors of ``x``: its rows, or ``x`` itself for one BS."""
    return list(x) if x.ndim > 1 else [x]


def _per_lane(x, core_ndim: int):
    """A per-BS scalar field, broadcastable against arrays whose last
    ``core_ndim`` axes follow the lane axis."""
    return x[(...,) + (None,) * core_ndim] if isinstance(x, np.ndarray) else x


@dataclass
class Workspace:
    """Per-visit constants: channel, FP weights, interference backprojection.

    ``useful_weight[j]`` is sqrt(1+mu_j) * conj(zeta_j), applied blockwise to
    the useful-signal term; ``chan_gram`` is H diag(|zeta|^2) H^H; ``interf``
    stacks e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k; ``linear_coeff`` is the
    u with -delta_b's linear part equal to Re{u^H Gbar w}, read by every
    R-step solve and R-step objective of the visit. The FP weights are
    shared by the lanes; every other array may have the lane axis first.
    """

    H: np.ndarray            # ([L,] Nt, K)
    mu: np.ndarray           # (K,)
    zeta: np.ndarray         # (K,)
    Q_other: np.ndarray      # ([L,] K, K) other-BS aggregate
    Nt: int
    K: int
    useful_weight: np.ndarray = field(init=False)  # (K,)
    chan_gram: np.ndarray = field(init=False)      # ([L,] Nt, Nt)
    interf: np.ndarray = field(init=False)         # ([L,] Nt K)
    linear_coeff: np.ndarray = field(init=False)   # ([L,] Nt K)

    LANE_FIELDS = ("H", "Q_other", "chan_gram", "interf", "linear_coeff")

    def __post_init__(self):
        h = vec(self.H)
        self.useful_weight = np.sqrt(1.0 + self.mu) * np.conj(self.zeta)
        aw = np.abs(self.zeta) ** 2
        self.chan_gram = (self.H * aw) @ self.H.conj().mT
        # e_j = sum_k |zeta_k|^2 Q_other[k, j] h_k
        self.interf = vec(self.H @ (aw[:, None] * self.Q_other))
        e2h = np.repeat(np.conj(self.useful_weight), self.Nt) * h
        self.linear_coeff = 2.0 * (self.interf - e2h)

    def take(self, lanes) -> "Workspace":
        """The workspace of the lanes ``lanes`` (an index list)."""
        sub = copy.copy(self)
        for name in self.LANE_FIELDS:
            setattr(sub, name, getattr(self, name)[lanes])
        return sub


def build_workspace(H: np.ndarray, fp: FpState, Nt: int, K: int,
                    Q_other: np.ndarray | None = None) -> Workspace:
    """Workspace of one BS, H (Nt, K), or of a group, H (L, Nt, K)."""
    H = np.asarray(H)
    if H.ndim not in (2, 3) or H.shape[-2:] != (Nt, K):
        raise ValueError(f"channel shape {H.shape} does not match ({Nt}, {K})")
    if Q_other is None:
        Q_other = np.zeros(H.shape[:-2] + (K, K), dtype=complex)
    return Workspace(H=H, mu=fp.mu, zeta=fp.zeta,
                     Q_other=np.asarray(Q_other, dtype=complex), Nt=Nt, K=K)


@dataclass
class StarContext:
    """Consensus data a BS, or each lane of a group, receives in the star
    topology."""

    Q_C: np.ndarray      # ([L,] K, K) global copy
    lam: np.ndarray      # ([L,] K^2) dual
    varrho: float

    @property
    def target(self) -> np.ndarray:
        """vec(Q_C) + lambda / varrho, the consensus anchor."""
        return vec(self.Q_C) + np.asarray(self.lam) / self.varrho

    def take(self, lanes) -> "StarContext":
        return StarContext(Q_C=self.Q_C[lanes], lam=self.lam[lanes],
                           varrho=self.varrho)


@dataclass(frozen=True)
class Lift:
    """Lifted copy R of w w^H: R = u u^H - (I_K kron E), diagonal replaced by d.

    This is the form of the R-step's exact minimizer: u is the beamformer the
    step was solved at, E = (|beta3|^2 / rho) conj(V3) with a zero diagonal
    (d takes its place in R, so the reads use E as stored), and d is the
    solved diagonal; the tight lift w w^H is ``rank_one(w)``. The arrays may
    carry a leading lane axis. The solver reads R only through the methods
    below, each O(Nt^2 K), so the (Nt K)^2 matrix is never formed
    (``expand`` in ``tests/reference.py`` builds it).

    R is an unconstrained complex matrix. With a complex beta3 the solved
    diagonal d is complex, so R is not Hermitian (``hermitian_deviation``
    reports by how much); it is deliberately not projected onto the
    Hermitian matrices, because that projection would move rates. States
    share a Lift by reference (sweep and star snapshots), so its arrays are
    never written. That makes two reads safe to compute once per Lift: the
    block sum F (returned read-only) and the penalty distance
    ||R - u u^H||^2. The distance is answered at u only: a solver state's
    w is its lift's u whenever the penalty is read (``LocalSolverState``
    checks it), so a read at another point would serve no solve.
    """

    u: np.ndarray   # ([L,] Nt K)
    E: np.ndarray   # ([L,] Nt, Nt), zero diagonal
    d: np.ndarray   # ([L,] Nt K)

    @classmethod
    def rank_one(cls, w: np.ndarray, Nt: int) -> "Lift":
        """The tight lift R = w w^H."""
        return cls(u=w, E=np.zeros(w.shape[:-1] + (Nt, Nt), dtype=complex),
                   d=w * w.conj())

    @property
    def Nt(self) -> int:
        return self.E.shape[-1]

    @property
    def K(self) -> int:
        return self.u.shape[-1] // self.E.shape[-1]

    def diag_sum(self) -> np.ndarray:
        """Sum of the diagonals of R's K diagonal blocks, shape ([L,] Nt)."""
        return np.add.reduce(self.d.reshape(self.d.shape[:-1] + (-1, self.Nt)),
                             axis=-2)

    def block_sum(self) -> np.ndarray:
        """F, the sum of R's K diagonal Nt x Nt blocks (read-only)."""
        return self._block_sum

    @cached_property
    def _block_sum(self) -> np.ndarray:
        U = unvec(self.u, self.Nt, self.K)
        F = U @ U.conj().mT - self.K * self.E
        _set_diagonal(F, self.diag_sum())
        F.flags.writeable = False
        return F

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """R^H w."""
        Wm = unvec(w, self.Nt, self.K)
        x = (self.u * np.vecdot(self.u, w)[..., None]
             - vec(self.E.conj().mT @ Wm))
        return x + (self.d.conj() - self.u * self.u.conj()) * w

    def distance_sq(self):
        """||R - u u^H||_F^2, the penalty at the lift's own beamformer."""
        return self._distance_sq

    @cached_property
    def _distance_sq(self):
        # I_K kron E (zero on the diagonal), plus the diagonal's deviation
        dd = self.d - self.u * self.u.conj()
        return (self.K * np.vecdot(_flat(self.E), _flat(self.E)).real
                + np.vecdot(dd, dd).real)

    def skew_sq(self):
        """||R - R^H||_F^2; the u u^H part is Hermitian and drops out."""
        S = _flat(self.E - self.E.conj().mT)
        return (self.K * np.vecdot(S, S).real
                + 4.0 * np.sum(self.d.imag ** 2, axis=-1))


_LANE_SCALARS = (("rho", float), ("prev_residual", float),
                 ("rejected_sweeps", int))


@dataclass
class LocalSolverState:
    """Mutable optimization state of one BS, or of a group with a lane axis.

    It keeps only what a later step reads: not the w-step's multiplier, nor
    the R-step's lag. ``prev_residual`` is NaN until a sweep sets it. For a
    group, ``rho``, ``prev_residual`` and ``rejected_sweeps`` are arrays with
    one entry per lane (a scalar given at construction is broadcast); for one
    BS they are scalars. The arrays are replaced, never written in place, so
    a snapshot of them stays valid. ``R`` is the lift solved at ``w``
    (``R.u is w``, checked here); only the w-step breaks that, until its
    R-step.
    """

    w: np.ndarray            # ([L,] Nt K)
    R: Lift
    rho: float = RHO_INIT
    prev_residual: float = np.nan
    rejected_sweeps: int = 0

    LANE_FIELDS = ("w",) + tuple(name for name, _ in _LANE_SCALARS)

    def __post_init__(self):
        if self.R.u is not self.w:
            raise ValueError("R must be the lift solved at w (R.u is w)")
        lanes = self.w.shape[:-1]
        for name, kind in _LANE_SCALARS:
            value = getattr(self, name)
            setattr(self, name, np.broadcast_to(np.asarray(value, dtype=kind),
                                                lanes).copy()
                    if lanes else kind(value))

    @property
    def lanes(self) -> int:
        """Number of BSs moved together (1 without a lane axis)."""
        return self.w.shape[0] if self.w.ndim > 1 else 1

    @property
    def W(self) -> np.ndarray:
        return unvec(self.w, self.R.Nt, self.R.K)

    def take(self, lanes) -> "LocalSolverState":
        """The state of the lanes ``lanes`` (an index list), as a new state.

        The lanes' lift must be solved at their beamformer (R.u equal to w),
        which holds between the steps of a sweep.
        """
        sub = copy.copy(self)
        for name in self.LANE_FIELDS:
            setattr(sub, name, getattr(self, name)[lanes])
        sub.R = Lift(u=sub.w, E=self.R.E[lanes], d=self.R.d[lanes])
        return sub

    def put(self, lanes, sub: "LocalSolverState") -> None:
        """Write the lanes of ``sub`` (a ``take`` of ``lanes``) back."""
        for name in self.LANE_FIELDS:
            merged = getattr(self, name).copy()
            merged[lanes] = getattr(sub, name)
            setattr(self, name, merged)
        E, d = self.R.E.copy(), self.R.d.copy()
        E[lanes], d[lanes] = sub.R.E, sub.R.d
        self.R = Lift(u=self.w, E=E, d=d)


def state_from_beamformer(W0: np.ndarray, rho=RHO_INIT) -> LocalSolverState:
    """Tight-lift state of W0, (Nt, K) or (L, Nt, K); rho may be one per lane."""
    W0 = np.asarray(W0)
    w0 = vec(W0)
    return LocalSolverState(w=w0, R=Lift.rank_one(w0, W0.shape[-2]), rho=rho)


def gain_diag_from_R(R: Lift, pa: PaModel) -> np.ndarray:
    """Diagonal of the linearized amplifier gain G(R)."""
    return pa.beta1 + 2.0 * pa.beta3 * R.diag_sum()


def lagged_factor(R: Lift) -> np.ndarray:
    """|F(R)|^2 with F(R) the summed diagonal blocks of R."""
    return np.abs(R.block_sum()) ** 2


def _star_anchor_residual(star: StarContext, ws: Workspace, W: np.ndarray,
                          pa: PaModel) -> np.ndarray:
    """target - beta1 * vec(H^H W): the R-independent part of the AL residual."""
    return star.target - pa.beta1 * vec(ws.H.conj().mT @ W)


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
    Gh = np.conj(g)[..., :, None]
    A = (Gh * ws.chan_gram) * g[..., None, :]
    E = unvec(ws.interf, ws.Nt, ws.K)
    C_blocks = Gh * (E - ws.useful_weight.conj() * ws.H)
    C_blocks = C_blocks - 2.0 * _per_lane(state.rho, 2) * unvec(
        state.R.rmatvec(state.w), ws.Nt, ws.K
    )
    if star is not None:
        HHh = ws.H @ ws.H.conj().mT
        A = A + 0.5 * star.varrho * (Gh * HHh) * g[..., None, :]
        V = unvec(star.target, ws.K, ws.K)
        C_blocks = C_blocks - 0.5 * star.varrho * Gh * (ws.H @ V)
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
    each evaluation costs O(Nt). A is PSD (a congruence of the PSD channel
    Gram, plus star's PSD consensus term), so a negative eigenvalue is
    roundoff and the ridge only lifts d_min back to 0. The eigendecompositions
    are stacked over the lanes; each lane then finds its own multiplier
    (``_multiplier``). The new w goes to ``state.w``; eta is returned, a
    float for one BS or an array over the lanes.
    """
    A, C_blocks = w_subproblem_terms(state, ws, pa, star)
    lam, U = np.linalg.eigh(0.5 * (A + A.conj().mT))
    proj = U.conj().mT @ C_blocks  # ([L,] Nt, K)
    a = np.add.reduce(np.abs(proj) ** 2, axis=-1)
    cum = np.cumsum(a, axis=-1)           # weight of the i+1 smallest d
    shift, eta, zero = [], [], []
    for i, (lam_i, a_i, cum_i, rho_i) in enumerate(zip(
            _rows(lam), _rows(a), _rows(cum), _lane_list(state.rho))):
        ridge = -float(lam_i[0]) if lam_i[0] < 0.0 else 0.0
        d_i = lam_i + ridge                # d_i[0] >= 0
        if cum_i[-1] == 0.0:
            zero.append(i)
            t_i, eta_i = 1.0, 0.0          # no data: w is set to zero below
        else:
            t_i, eta_i = _multiplier(d_i, a_i, cum_i, rho_i, Pt)
        shift.append(d_i + t_i)
        eta.append(eta_i)
    shift = np.array(shift) if lam.ndim > 1 else shift[0]   # d + t
    w = vec(U @ (-(proj / shift[..., None])))
    if zero:
        w.reshape(-1, w.shape[-1])[zero] = 0.0
    state.w = w
    return np.array(eta) if lam.ndim > 1 else eta[0]


def _multiplier(d, a, cum, rho: float, Pt: float):
    """(t, eta) of one lane's w-step from its eigen-data; see ``update_w``.

    Two scalar equations fix t:

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
    def secular(t: float):
        """p(t) = ||w(t)||^2 and q(t) = -p'(t) / 2."""
        inv = 1.0 / (d + t)
        ai = a * inv * inv
        return float(np.add.reduce(ai)), float(np.add.reduce(ai * inv))

    evaluated = {}  # t -> (p, q) of the interior search

    def interior(t: float):
        p, q = evaluated[t] = secular(t)
        s, r = 1.0 / math.sqrt(p), math.sqrt(2.0 * rho / t)
        return s - r, s * q / p + 0.5 * r / t, s, s < r

    # cum[j] / (d[j] + t)^2 <= p(t) <= cum[-1] / (d[0] + t)^2 bracket the
    # fixed point by the roots of t (d + t)^2 = 2 rho cum
    x = 0.5 * rho * cum
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = float(np.max(np.fmin(np.cbrt(x), x / d ** 2)))
        hi = float(np.fmin(np.cbrt(4.0 * x[-1]), 4.0 * x[-1] / d[0] ** 2))
    t_int, _, _, _ = _secular_newton(interior, lo, hi, lo)
    # the search ends on an evaluated t unless it ran out of iterations
    if (evaluated.get(t_int) or secular(t_int))[0] <= Pt:
        return t_int, 0.0

    # power constraint active: ||w||^2 = Pt, t = 2 rho Pt + eta
    base = 2.0 * rho * Pt
    s_pt = 1.0 / math.sqrt(Pt)

    def active(t: float):
        p, q = secular(t)
        s = 1.0 / math.sqrt(p)
        return s - s_pt, s * q / p, s, p > Pt

    lo = max(base, t_int, float(np.max(np.sqrt(cum / Pt) - d)))
    hi = max(lo, math.sqrt(cum[-1] / Pt) - float(d[0]))
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
    return t_star, max(t_star - base, 0.0)


# ---------------------------------------------------------------------------
# R-step
# ---------------------------------------------------------------------------

def _r_system_parts(w: np.ndarray, ws: Workspace, pa: PaModel, rho,
                    lag: np.ndarray, star: StarContext | None = None):
    """Reduced stationarity data of the R-step.

    Returns (M, c, V3). The Nt*K diagonal entries of R decouple from the
    rest: with r_k the k-th block of the diagonal (k-th row of the (K, Nt)
    array r), they solve (1 1^T kron M + rho I) vec(r^T) = -vec(c^T): one
    Nt x Nt matrix M couples every pair of blocks alike. Every other entry
    of R has a closed form in V3.
    """
    Nt, K = ws.Nt, ws.K
    Wm = unvec(w, Nt, K)
    S = Wm @ Wm.conj().mT
    b3 = pa.beta3
    P = ws.chan_gram.mT * S
    M = 4.0 * np.abs(b3) ** 2 * P

    c1 = 2.0 * np.conj(pa.beta1) * b3 * (P @ np.ones(Nt))
    u = ws.linear_coeff
    c2 = b3 * np.add.reduce(
        (np.conj(u) * w).reshape(w.shape[:-1] + (K, Nt)), axis=-2)
    V3 = np.asarray(lag) * ws.chan_gram.mT
    c3 = np.abs(b3) ** 2 * V3.diagonal(0, -2, -1)
    c_block = c1 + c2 + c3
    if star is not None:
        r = _star_anchor_residual(star, ws, Wm, pa)
        Rm = unvec(r, K, K)
        HHh = ws.H @ ws.H.conj().mT
        xi_gram_t = HHh.conj() * S
        M = M + 2.0 * star.varrho * np.abs(b3) ** 2 * xi_gram_t
        xi_r = np.einsum("...nk,...kj,...nj->...n", ws.H.conj(), Rm.conj(), Wm)
        c_block = c_block - star.varrho * b3 * xi_r
    c = c_block[..., None, :] - _per_lane(rho, 2) * np.abs(Wm.mT) ** 2
    return M, c, V3


def _r_diagonal(M: np.ndarray, c: np.ndarray, rho, K: int) -> np.ndarray:
    """R's diagonal blocks r ([L,] K, Nt) from the reduced system.

    M is PSD (a Schur product of PSD matrices, plus star's PSD consensus
    term) and rho >= ``RHO_INIT``, so K M + rho I >= rho I is positive
    definite; one stacked solve serves one BS and a group alike.
    """
    rho = _per_lane(rho, 2)
    lhs = K * M + rho * np.eye(M.shape[-1])
    s = np.linalg.solve(lhs, -np.add.reduce(c, axis=-2)[..., None])[..., 0]
    return -(c + np.matvec(M, s)[..., None, :]) / rho


def update_R(state: LocalSolverState, ws: Workspace, pa: PaModel,
             lag: np.ndarray, star: StarContext | None = None) -> Lift:
    """Exact minimizer of the R-step objective, the distortion linearized at
    ``lag`` (the |F|^2 factor of the lift the sweep's attempt started at).

    Summing the K block rows of the diagonal system gives one Nt x Nt solve
    for the block sum s = sum_k r_k, (K M + rho I) s = -sum_k c_k, and then
    r_k = -(c_k + M s) / rho. The off-diagonal entries are
    R = w w^H - (|beta3|^2 / rho)(I_K kron conj(V3)); the result is the
    ``Lift`` (w, E, conj(r)), E being (|beta3|^2 / rho) conj(V3) with its
    diagonal set to zero.

    The system is positive definite (``_r_diagonal``), so a non-finite
    diagonal comes from non-finite or overflowing data: it raises
    ``RuntimeError`` naming the first such lane, its rho and its |w|^2, and
    leaves rho as it was.
    """
    NtK = state.w.shape[-1]
    M, c, V3 = _r_system_parts(state.w, ws, pa, state.rho, lag, star)
    r = _r_diagonal(M, c, state.rho, ws.K)
    if not np.isfinite(r).all():
        lane = int(np.argmin(np.isfinite(r.reshape(-1, NtK)).all(axis=-1)))
        raise RuntimeError(
            f"R-step diagonal not finite in lane {lane} "
            f"(rho={_lane_list(state.rho)[lane]:g}, "
            f"|w|^2={np.linalg.norm(state.w.reshape(-1, NtK)[lane]) ** 2:g})"
        )
    E = np.abs(pa.beta3) ** 2 / _per_lane(state.rho, 2) * np.conj(V3)
    _set_diagonal(E, 0.0)
    state.R = Lift(u=state.w, E=E, d=np.conj(r.reshape(r.shape[:-2] + (-1,))))
    return state.R


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def r_objective(w: np.ndarray, g: np.ndarray, F: np.ndarray, resid_sq,
                ws: Workspace, pa: PaModel, rho, lag: np.ndarray,
                star: StarContext | None = None):
    """R-step objective from what it reads of R.

    ``g`` is the gain diagonal G(R), ``F`` the block sum of R and
    ``resid_sq`` the penalty ||R - w w^H||_F^2; ``lag`` is the |F|^2 lag.
    """
    Wm = unvec(w, ws.Nt, ws.K)
    GW = g[..., :, None] * Wm
    f1 = np.einsum("...nj,...nm,...mj->...", GW.conj(), ws.chan_gram, GW).real
    u = unvec(ws.linear_coeff, ws.Nt, ws.K)
    f2 = np.add.reduce(u.conj() * GW, axis=(-2, -1)).real
    V3 = np.asarray(lag) * ws.chan_gram.mT
    f3 = 2.0 * np.abs(pa.beta3) ** 2 * np.add.reduce(
        F * V3, axis=(-2, -1)).real
    total = f1 + f2 + f3 + rho * resid_sq
    if star is not None:
        m = vec(ws.H.conj().mT @ GW)
        total = total + 0.5 * star.varrho * _norm_sq(star.target - m)
    return total


def local_penalized_objective(state: LocalSolverState, ws: Workspace,
                              pa: PaModel, star: StarContext | None = None):
    """-delta_b + rho ||R - w w^H||^2 (+ consensus AL), distortion exact in R."""
    R = state.R
    F = R.block_sum()
    return r_objective(state.w, gain_diag_from_R(R, pa), F,
                       R.distance_sq(), ws, pa, state.rho,
                       np.abs(F) ** 2, star)


def true_local_objective(contribution, ws: Workspace,
                         star: StarContext | None = None):
    """-delta_b at a contribution (plus consensus AL), in O(K^2).

    ``contribution`` is ``fp_core.bs_contribution`` (A, p) at the
    beamformer being judged, so this is the lift-free value, under the true
    amplifier statistics, of what a visit is meant to decrease; the sweep
    uses it as an ascent safeguard. The consensus term reads vec(A).
    """
    A, p = contribution
    val = -fp_core.local_objective(ws.Q_other, A, p, ws.mu, ws.zeta)
    if star is not None:
        val = val + 0.5 * star.varrho * _norm_sq(star.target - vec(A))
    return val


def penalty_residual(state: LocalSolverState):
    """||R - w w^H||_F / ||w w^H||_F."""
    denom = np.maximum(np.vecdot(state.w, state.w).real, 1e-300)
    return np.sqrt(state.R.distance_sq()) / denom


def hermitian_deviation(R: Lift):
    """||R - R^H||_F / ||R||_F, ||R||^2 being ||R - u u^H||^2 - ||u||^4
    + 2 Re(u^H R u)."""
    R_sq = (R.distance_sq() - np.vecdot(R.u, R.u).real ** 2
            + 2.0 * np.vecdot(R.rmatvec(R.u), R.u).real)
    denom = np.maximum(np.sqrt(np.maximum(R_sq, 0.0)), 1e-300)
    return np.sqrt(R.skew_sq()) / denom


# ---------------------------------------------------------------------------
# one visit
# ---------------------------------------------------------------------------

def _lanes(state: LocalSolverState, ws: Workspace, star: StarContext | None,
           lanes: list):
    """(state, ws, star) restricted to ``lanes``; the objects themselves
    when that is every lane."""
    if len(lanes) == state.lanes:
        return state, ws, star
    return (state.take(lanes), ws.take(lanes),
            None if star is None else star.take(lanes))


def _guard(state: LocalSolverState, ws: Workspace, pa: PaModel,
           lag: np.ndarray, star: StarContext | None) -> None:
    """Trust-region guard: stiffen and re-solve R while a lane's residual
    exceeds ``RESIDUAL_GUARD`` and its rho is below the cap.

    The lagged distortion model is only valid near w w^H, and a runaway R
    feeds back through the lag into divergence. Each round raises rho ten
    times on the guarded lanes and re-solves every lane in one ``update_R``
    call, in place. A lane whose rho did not move solves the system it
    solved last (same w, rho, lag and workspace), and its lanes of the
    stacked solve are its own, so it gets the same lift back, bit for bit.
    """
    while True:
        resid, rho = _lane_list(penalty_residual(state)), _lane_list(state.rho)
        guarded = [i for i, (r, rh) in enumerate(zip(resid, rho))
                   if r > RESIDUAL_GUARD and rh < RHO_CAP]
        if not guarded:
            return
        for i in guarded:
            rho[i] = min(rho[i] * 10.0, RHO_CAP)
        state.rho = _lane_field(rho, state.rho)
        update_R(state, ws, pa, lag, star)


def sweep(state: LocalSolverState, ws: Workspace, pa: PaModel, Pt: float,
          star: StarContext | None = None, contribution=None):
    """One (lag, w-step, R-step) round with an ascent safeguard.

    A move that worsens the true (lift-free) local objective is rolled back
    and the penalty coefficient grown, shrinking the next step. Without it
    the lag-linearized distortion model overshoots when the FP weights are
    large. Rho also grows whenever the relative penalty residual fails to
    drop by ``RHO_DROP_TARGET``; the residual is left in
    ``state.prev_residual``.

    The lanes of a group attempt their moves together: each attempt is one
    ``update_w`` call and one stacked contribution over the lanes still
    trying. A lane leaves when its move is accepted or when it is rejected
    at ``RHO_CAP``. The accept test and the rho schedule are scalar steps,
    taken lane by lane. Each attempt reads the lag from the lift it starts
    at, once, for its R-step and its guard.

    ``contribution`` is the (Q_b, p_b) at the entry beamformer, as
    ``fp_core.bs_contribution(ws.H, state.W, pa)`` returns it (computed here
    when not given); each attempted move builds one more. The contribution
    at the exit beamformer is returned: the input itself when nothing moved.
    """
    if contribution is None:
        contribution = fp_core.bs_contribution(ws.H, state.W, pa)
    bound = [obj + 1e-10 * max(1.0, abs(obj)) for obj in
             _lane_list(true_local_objective(contribution, ws, star))]
    entry = state.w
    accepted = [False] * state.lanes
    out = contribution
    trying = list(range(state.lanes))
    while trying:
        cur, cur_ws, cur_star = _lanes(state, ws, star, trying)
        lag = lagged_factor(cur.R)
        update_w(cur, cur_ws, pa, Pt, cur_star)
        update_R(cur, cur_ws, pa, lag, cur_star)
        _guard(cur, cur_ws, pa, lag, cur_star)
        moved = fp_core.bs_contribution(cur_ws.H, cur.W, pa)
        ok = [obj <= bound[i] for i, obj in zip(
            trying, _lane_list(true_local_objective(moved, cur_ws, cur_star)))]
        won = [i for i, k in zip(trying, ok) if k]
        if len(won) == state.lanes:
            out = moved
        elif won:
            if out is contribution:
                out = (contribution[0].copy(), contribution[1].copy())
            out[0][won], out[1][won] = moved[0][ok], moved[1][ok]
        for i in won:
            accepted[i] = True
        if len(won) < len(trying):
            # worsening move: retract the beamformer, re-consolidate the
            # lift onto it (a stale loose R would bias the next step toward
            # its own direction, the harder the stiffer the penalty), then
            # retry with a stiffer penalty
            _roll_back(cur, [not k for k in ok],
                       entry if cur is state else entry[trying])
        if cur is not state:
            state.put(trying, cur)
        rho = _lane_list(state.rho)
        trying = [i for i, k in zip(trying, ok) if not k and rho[i] < RHO_CAP]
        if trying:
            for i in trying:
                rho[i] = min(rho[i] * 10.0, RHO_CAP)
            state.rho = _lane_field(rho, state.rho)
    resid = penalty_residual(state)
    rho = _lane_list(state.rho)
    for i, (r, prev) in enumerate(zip(_lane_list(resid),
                                      _lane_list(state.prev_residual))):
        if not accepted[i]:
            continue
        if r > 10.0 * PENALTY_RESID_TOL:
            # far from a tight lift: grow the penalty in proportion
            boost = min(10.0, r / (10.0 * PENALTY_RESID_TOL))
            rho[i] = min(rho[i] * max(boost, RHO_GROWTH), RHO_CAP)
        elif r > (1.0 - RHO_DROP_TARGET) * prev:
            rho[i] = min(rho[i] * RHO_GROWTH, RHO_CAP)
    state.rho = _lane_field(rho, state.rho)
    state.prev_residual = resid
    return out


def _roll_back(state: LocalSolverState, rejected: list,
               w_entry: np.ndarray) -> None:
    """Put the ``rejected`` lanes back at their entry beamformer, tight lift.

    When every lane is rejected the entry array itself is restored.
    """
    lanes = [i for i, r in enumerate(rejected) if r]
    whole = len(lanes) == state.lanes
    back = state if whole else state.take(lanes)
    back.w = w_entry if whole else w_entry[lanes]
    back.R = Lift.rank_one(back.w, back.R.Nt)
    back.rejected_sweeps = back.rejected_sweeps + 1
    if not whole:
        state.put(lanes, back)
