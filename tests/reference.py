"""Reference implementations the tests compare the solvers against.

The solvers keep the lifted matrix R in structured form
(``local_solver.Lift``) and never build an (Nt K) x (Nt K) matrix. The dense
reference that the tests compare the structured path against lives here and
only here: the expansion of a ``Lift``, the gain and distortion read from a
dense R, the dense R-step stationarity system and its solve, the R-step
objective at a dense R, the gain lifting matrix and Jacobian, and the dense
views of a ``Workspace``. It is sized for small Nt K: the stationarity system
alone has (Nt K)^4 entries.

The objectives the solvers evaluate from contributions also have their
direct forms here: the single-BS objective from the beamformer, and the
star center's aggregation objective with its gradient. So do the forms no
solver evaluates at all: the dense Bussgang gain matrix (the solvers read
its diagonal, ``pa_model.bussgang_gain_diag``), the full transformed
sum-rate objective, the w-step objective, and the FP auxiliaries' separate
updates (``update_mu``, ``update_zeta``) that ``fp_core.update_fp`` joined
into one evaluation. So do the per-BS loops that the stacked BS axis
replaced: the aggregates, the start-point scan, the geometry's
line-of-sight angles and distances, and the channel's path sum, which the
stacked forms equal bit for bit; and the star solver that sweeps
its stations one at a time (``run_star_loop``), which star's one sweep over
a lane axis of all B stations equals bit for bit.
"""

from __future__ import annotations

import numpy as np

from cellfree_dab import block_driver, fp_core, local_solver, metrics, star_solver
from cellfree_dab.common import NUM_HALVINGS, SolverOptions, initial_beamformers
from cellfree_dab.fp_core import (FpState, MetricsInputs, _denominators, _zeta,
                                  sindr)
from cellfree_dab.local_solver import Lift, StarContext, Workspace, unvec, vec
from cellfree_dab.pa_model import PaModel, bussgang_gain_diag, distortion_cov
from cellfree_dab.scenario import (NetworkGeometry, default_bs_layout,
                                   steering_vector)


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------

def bussgang_gain(W: np.ndarray, pa: PaModel) -> np.ndarray:
    """Linear-gain matrix beta1*I + 2*beta3*diag(W W^H) for Gaussian symbols."""
    W = np.asarray(W)
    Nt = W.shape[0]
    q = np.sum(np.abs(W) ** 2, axis=1)  # diagonal of W W^H
    return pa.beta1 * np.eye(Nt) + 2.0 * pa.beta3 * np.diag(q)


def expand(R: Lift) -> np.ndarray:
    """The (Nt K) x (Nt K) matrix a ``Lift`` stands for."""
    out = np.outer(R.u, R.u.conj()) - np.kron(np.eye(R.K), R.E)
    np.fill_diagonal(out, R.d)
    return out


def dense_block_sum(R: np.ndarray, Nt: int, K: int) -> np.ndarray:
    """Sum of the K diagonal Nt x Nt blocks of R."""
    out = np.zeros((Nt, Nt), dtype=complex)
    for c in range(K):
        out += R[c * Nt:(c + 1) * Nt, c * Nt:(c + 1) * Nt]
    return out


def dense_gain_diag(R: np.ndarray, pa: PaModel, Nt: int, K: int) -> np.ndarray:
    """Diagonal of the linearized amplifier gain G(R)."""
    idx = np.arange(Nt * K)
    s = np.asarray(R)[idx, idx].reshape(K, Nt).sum(axis=0)
    return pa.beta1 + 2.0 * pa.beta3 * s


def dense_gain(R: np.ndarray, pa: PaModel, Nt: int, K: int) -> np.ndarray:
    """G(R); coincides with the Bussgang gain when R = w w^H."""
    return np.diag(dense_gain_diag(R, pa, Nt, K))


def dense_distortion(R: np.ndarray, lag: np.ndarray, pa: PaModel,
                     Nt: int, K: int) -> np.ndarray:
    """Distortion covariance, linear in R given the lagged |F|^2 factor."""
    F = dense_block_sum(R, Nt, K)
    return 2.0 * np.abs(pa.beta3) ** 2 * (F * np.asarray(lag))


def block_sum_selector(Nt: int, K: int) -> np.ndarray:
    """The (Nt*K) x Nt selector whose sandwich sums the K diagonal blocks."""
    return np.tile(np.eye(Nt), (K, 1))


def gain_lifting_matrix(Nt: int, K: int) -> np.ndarray:
    """0/1 matrix mapping vec(G) of a diagonal Nt x Nt G to vec(I_K kron G).

    Built by composing diagonal extraction, tiling, and truncation.
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


def useful_weight_matrix(ws: Workspace) -> np.ndarray:
    """Blockwise useful-signal weights as an (Nt K) x (Nt K) diagonal."""
    return np.diag(np.repeat(ws.useful_weight, ws.Nt))


def chan_gram_big(ws: Workspace) -> np.ndarray:
    """I_K kron chan_gram."""
    return np.kron(np.eye(ws.K), ws.chan_gram)


def zeta_block_diag(ws: Workspace) -> np.ndarray:
    """The FP weights zeta, one per block, as an (Nt K) x (Nt K) diagonal."""
    return np.diag(np.repeat(ws.zeta, ws.Nt))


def build_r_system(w: np.ndarray, ws: Workspace, pa: PaModel, rho: float,
                   lag: np.ndarray, star: StarContext | None = None):
    """Dense stationarity system (C_R, c_R) over vec(conj(R)).

    The returned pair satisfies (C_R + rho I) vec(conj(R*)) = -c_R at the
    minimizer R* that ``local_solver.update_R`` returns in structured form.
    """
    Nt, K = ws.Nt, ws.K
    N = Nt * K
    M, c, V3 = local_solver._r_system_parts(w, ws, pa, rho, lag, star)
    C_R = np.zeros((N * N, N * N), dtype=complex)
    pos = np.arange(N) * (N + 1)
    C_R[np.ix_(pos, pos)] = np.kron(np.ones((K, K)), M)
    Wt = np.outer(w, w.conj())
    c_R = (np.abs(pa.beta3) ** 2 * vec(np.kron(np.eye(K), V3))
           - rho * vec(Wt.T)).astype(complex)
    # c already holds this vector's diagonal-position entries
    c_R[pos] = c.reshape(-1)
    return C_R, c_R


def solve_r_dense(w, ws, pa, rho, lag, star=None) -> np.ndarray:
    """Solve the dense stationarity system for the dense R."""
    N = ws.Nt * ws.K
    C_R, c_R = build_r_system(w, ws, pa, rho, lag, star)
    r_conj = np.linalg.solve(C_R + rho * np.eye(N * N), -c_R)
    return np.conj(unvec(r_conj, N, N))


def r_subproblem_objective(w: np.ndarray, R: np.ndarray, ws: Workspace,
                           pa: PaModel, rho: float, lag: np.ndarray,
                           star: StarContext | None = None) -> float:
    """Real value of the R-step objective at (w, dense R) with the given lag."""
    Nt, K = ws.Nt, ws.K
    resid_sq = float(np.linalg.norm(R - np.outer(w, w.conj())) ** 2)
    return local_solver.r_objective(
        w, dense_gain_diag(R, pa, Nt, K), dense_block_sum(R, Nt, K), resid_sq,
        ws, pa, rho, lag, star,
    )


# ---------------------------------------------------------------------------
# reference objectives
# ---------------------------------------------------------------------------

def transformed_objective(inputs: MetricsInputs, fp: FpState) -> float:
    """Value of the transformed sum-rate objective at (Qsum, psum, mu, zeta).

    At the optimal auxiliaries this equals sum_k log2(1 + sindr_k).
    """
    mu, zeta = fp.mu, fp.zeta
    const = np.sum(np.log2(1.0 + mu) - mu - np.abs(zeta) ** 2 * inputs.sigma2)
    diag = np.diag(inputs.Qsum)
    delta = np.sum(
        2.0 * np.sqrt(1.0 + mu) * np.real(np.conj(zeta) * diag)
        - np.abs(zeta) ** 2 * (np.sum(np.abs(inputs.Qsum) ** 2, axis=1) + inputs.psum)
    )
    return float(const + delta)


def update_mu(inputs: MetricsInputs) -> np.ndarray:
    """Optimal rate auxiliary: mu* equals the current SINDR."""
    return sindr(inputs)


def update_zeta(inputs: MetricsInputs, mu: np.ndarray) -> np.ndarray:
    """Optimal quadratic-transform auxiliary for fixed mu."""
    return _zeta(inputs, mu, _denominators(inputs)[2])


def w_subproblem_objective(w: np.ndarray, A: np.ndarray, C_blocks: np.ndarray,
                           rho: float, Nt: int, K: int) -> float:
    """w^H (I_K kron A) w + 2 Re{c^H w} + rho ||w||^4, the w-step objective.

    ``(A, C_blocks)`` is what ``local_solver.w_subproblem_terms`` returns.
    """
    Wm = unvec(w, Nt, K)
    quad = np.real(np.einsum("nj,nm,mj->", Wm.conj(), A, Wm))
    lin = 2.0 * np.real(np.sum(C_blocks.conj() * Wm))
    quart = rho * float(np.sum(np.abs(w) ** 2)) ** 2
    return float(quad + lin + quart)


def local_objective_ring(Q_hat, H_b, W_b, pa: PaModel, fp: FpState) -> float:
    """``fp_core.local_objective`` computed from the beamformer W_b.

    Builds A = H_b^H (g o W_b) and the received distortion powers itself
    instead of reading them from a contribution.
    """
    mu, zeta = fp.mu, fp.zeta
    g = bussgang_gain_diag(W_b, pa)
    A = H_b.conj().T @ (g[:, None] * W_b)  # K x K local contribution
    useful = np.sum(2.0 * np.sqrt(1.0 + mu) * np.real(np.conj(zeta) * np.diag(A)))
    aw = np.abs(zeta) ** 2
    cross = np.sum(aw[:, None] * 2.0 * np.real(np.conj(np.asarray(Q_hat)) * A))
    own = np.sum(aw[:, None] * np.abs(A) ** 2)
    if pa.is_ideal:
        dist = 0.0
    else:
        Cd = distortion_cov(W_b, pa)
        dist = np.sum(aw * np.real(np.einsum("nk,nm,mk->k", H_b.conj(), Cd, H_b)))
    return float(useful - dist - cross - own)


def central_objective_star(Q_C_list, fp: FpState) -> float:
    """Aggregation objective over the per-BS global copies."""
    S = np.sum(np.asarray(Q_C_list, dtype=complex), axis=0)
    mu, zeta = fp.mu, fp.zeta
    useful = np.sum(2.0 * np.sqrt(1.0 + mu) * np.real(np.conj(zeta) * np.diag(S)))
    interf = np.sum(np.abs(zeta) ** 2 * np.sum(np.abs(S) ** 2, axis=1))
    return float(useful - interf)


def aggregation_gradient(Q_C, Q_L, lam, fp: FpState, varrho: float) -> float:
    """Max norm of the aggregation objective's Wirtinger gradient at Q_C."""
    Q_C = np.asarray(Q_C)
    S = Q_C.sum(axis=0)
    aw = np.abs(fp.zeta) ** 2
    drive = np.diag(np.sqrt(1.0 + fp.mu) * fp.zeta)
    lam_m = np.stack([unvec(l, Q_C.shape[1], Q_C.shape[1])
                      for l in np.asarray(lam)])
    grad = (-drive + aw[:, None] * S)[None, :, :] + 0.5 * varrho * (
        Q_C - np.asarray(Q_L) + lam_m / varrho
    )
    return float(np.abs(grad).max())


# ---------------------------------------------------------------------------
# per-BS loops behind the stacked BS axis
# ---------------------------------------------------------------------------

def metrics_inputs_loop(H, W, pa: PaModel, sigma2) -> MetricsInputs:
    """``fp_core.build_metrics_inputs`` one BS at a time, summed in a loop."""
    Qsum = np.zeros((H.shape[-1], H.shape[-1]), dtype=complex)
    psum = np.zeros(H.shape[-1])
    for H_b, W_b in zip(H, W):
        Q, p = fp_core.bs_contribution(H_b, W_b, pa)
        Qsum += Q
        psum += p
    return MetricsInputs(Qsum=Qsum, psum=psum, sigma2=sigma2)


def initial_beamformers_loop(H: np.ndarray, Pt: float, pa, sigma2) -> np.ndarray:
    """``common.initial_beamformers`` one BS and one backoff at a time."""
    H = np.asarray(H)
    B, _, K = H.shape
    mf = np.empty_like(H)
    zf = np.empty_like(H)
    for b in range(B):
        Hb = H[b]
        mf[b] = Hb / np.linalg.norm(Hb, axis=0, keepdims=True)
        gram = Hb.conj().T @ Hb
        ridge = 1e-12 * np.trace(gram).real / K
        Z = Hb @ np.linalg.inv(gram + ridge * np.eye(K))
        zf[b] = Z / np.linalg.norm(Z, axis=0, keepdims=True)
    best_W, best_rate = None, -np.inf
    for cand in (mf, zf):
        W_full = np.sqrt(Pt / K) * cand
        for half_exponent in range(2 * NUM_HALVINGS + 1):
            c = 0.5 ** (0.5 * half_exponent)
            W = np.sqrt(c) * W_full
            rate = fp_core.sum_rate(metrics_inputs_loop(H, W, pa, sigma2))
            if rate > best_rate:
                best_W, best_rate = W, rate
    return best_W


def place_network_loop(config, rng: np.random.Generator) -> NetworkGeometry:
    """``scenario.place_network`` with its line-of-sight geometry one (b, k)
    at a time; it draws from ``rng`` in the same order."""
    B, K, M = config.num_bs, config.num_ues, config.num_paths
    if config.bs_positions is not None:
        bs_pos = np.asarray(config.bs_positions, dtype=float).reshape(B, 2)
    else:
        bs_pos = default_bs_layout(B)

    radii = config.ue_area_radius * np.sqrt(rng.uniform(0.0, 1.0, size=K))
    azim = rng.uniform(0.0, 2.0 * np.pi, size=K)
    ue_pos = np.stack([radii * np.cos(azim), radii * np.sin(azim)], axis=1)

    angles = np.empty((B, K, M))
    dists = np.empty((B, K, M))
    for b in range(B):
        boresight = -bs_pos[b]
        norm = np.linalg.norm(boresight)
        boresight = boresight / norm if norm > 0 else np.array([1.0, 0.0])
        for k in range(K):
            vec = ue_pos[k] - bs_pos[b]
            dist = np.linalg.norm(vec)
            # signed angle from the boresight toward the UE
            angles[b, k, 0] = np.arctan2(
                boresight[0] * vec[1] - boresight[1] * vec[0], vec @ boresight
            )
            dists[b, k, 0] = dist
    if M > 1:
        angles[:, :, 1:] = rng.uniform(-np.pi / 2, np.pi / 2, size=(B, K, M - 1))
        dists[:, :, 1:] = rng.uniform(200.0, 400.0, size=(B, K, M - 1))
    return NetworkGeometry(bs_pos, ue_pos, angles, dists)


def channel_loop(geom, alpha: np.ndarray, config) -> np.ndarray:
    """The path sum of ``scenario.generate_channel``, one (b, k) at a time."""
    B, K, _ = alpha.shape
    H = np.zeros((B, config.num_antennas, K), dtype=complex)
    for b in range(B):
        for k in range(K):
            steer = steering_vector(geom.path_angles[b, k], config.num_antennas,
                                    config.carrier_freq, config.antenna_spacing)
            H[b, :, k] = alpha[b, k] @ steer
    return H


def run_star_loop(channels, config, pa: PaModel, opts=None):
    """``star_solver.run_star`` with one sweep per station.

    The stations keep their own states, without a lane axis, and are swept
    one after another, each followed by its own dual step, as a star solver
    without the lane axis would; the iteration, the retraction, the stop
    after a retraction that leaves every rho where it was, and the report
    are run_star's.
    """
    opts = opts or SolverOptions()
    net = block_driver.setup(channels, config, pa, initial_beamformers)
    H, states, varrho = net.H, net.states, opts.varrho
    B, Nt, K = H.shape
    Q_L, p_L = net.Q_parts, net.p_parts
    Q_C = Q_L.copy()
    lam = np.zeros((B, K * K), dtype=complex)

    def fp_from(Q_C_now, p_L_now) -> FpState:
        inputs = MetricsInputs(Qsum=Q_C_now.sum(axis=0),
                               psum=p_L_now.sum(axis=0), sigma2=net.sigma2)
        return fp_core.update_fp(inputs)

    fp = fp_from(Q_C, p_L)
    trace = []
    rate_prev = net.rate()
    rejected_iterations = 0
    residual_trace = []
    for it in range(1, opts.max_outer + 1):
        snapshot = (
            [(s.w, s.R, s.prev_residual) for s in states],
            lam.copy(), Q_L.copy(), p_L.copy(), Q_C.copy(), fp,
        )
        rho_start = [s.rho for s in states]
        replay = False
        Q_C = star_solver.aggregate(Q_L, lam, fp, varrho)
        Q_tilde = star_solver.interference_share(Q_C)
        fp = fp_from(Q_C, p_L)
        for b in range(B):
            ctx = StarContext(Q_C=Q_C[b], lam=lam[b], varrho=varrho)
            ws = local_solver.build_workspace(H[b], fp, Nt, K, Q_tilde[b])
            net.visit(b, ws, ctx)
            lam[b] = star_solver.dual_update(lam[b], Q_C[b], Q_L[b], varrho)

        rate = net.rate()
        if rate < rate_prev - 1e-9 * max(1.0, abs(rate_prev)):
            saved_states, lam, Q_L[:], p_L[:], Q_C, fp = snapshot
            for s, vals in zip(states, saved_states):
                s.w, s.R, s.prev_residual = vals
                s.rho = min(s.rho * 10.0, local_solver.RHO_CAP)
            rejected_iterations += 1
            rate = rate_prev
            replay = all(s.rho == r for s, r in zip(states, rho_start))

        resid = star_solver.consensus_residual(Q_C, Q_L)
        residual_trace.append(resid)
        if not np.isfinite(rate):
            raise RuntimeError(f"non-finite sum rate at iteration {it}")
        download, upload, total = metrics.overhead_star(B, K, it)
        trace.append((it, rate, resid, download, upload))
        done = (resid <= star_solver.CONSENSUS_TOL
                and block_driver.converged(rate, rate_prev, states, opts))
        stalled = replay and not done
        if done or stalled:
            break
        rate_prev = rate

    return net.report(
        fp, it, done, trace, star_solver.STAR_TRACE_COLUMNS,
        counters={"download_values": download, "upload_values": upload,
                  "total_values": total, "iterations": it},
        diagnostics={"consensus_residual": residual_trace[-1],
                     "consensus_residual_trace": residual_trace,
                     "rejected_iterations": rejected_iterations,
                     "stalled": stalled},
    )
