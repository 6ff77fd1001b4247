"""Star-topology partially-distributed solver: consensus ADMM at the center.

Each outer iteration the center aggregates the per-BS reports (Q_L, p_L)
into consensus copies Q_C by solving a strongly convex quadratic in closed
form, shares the other-BS interference sums, refreshes the FP auxiliaries,
and distributes; the BSs then run their penalty-MM sweeps with the consensus
augmented-Lagrangian term, update their duals, and re-report. The per-BS
solves within one iteration are independent, so all B stations move in one
``local_solver.sweep`` call over a lane axis, one lane per BS, and all B
duals update in one step; each lane moves exactly as a sweep of its BS
alone would. A retracted iteration that leaves every station where it
started ends the solve as stalled (``run_star``). Set-up, the BSs' reports (the contribution cache), the
convergence test and the report come from ``block_driver``, shared with the
ring and central solvers.
"""

from __future__ import annotations

import math

import numpy as np

from . import block_driver, fp_core, local_solver, metrics
from .common import SolutionReport, SolverOptions, initial_beamformers
from .fp_core import FpState, MetricsInputs
from .local_solver import StarContext, vec
from .pa_model import PaModel
from .scenario import ChannelSet, SystemConfig

# consensus residual below which an iteration counts as agreed
CONSENSUS_TOL = 1e-3

STAR_TRACE_COLUMNS = (
    "iter",
    "sum_rate",
    "consensus_residual",
    "download_cum",
    "upload_cum",
)


def aggregate(Q_L, lam, fp: FpState, varrho: float) -> np.ndarray:
    """Consensus copies minimizing -delta_c plus the proximal coupling.

    The problem separates per matrix entry (k, j) into a B-dimensional
    quadratic whose coupling across b is rank one, giving the closed form
    below; exactness is covered by the gradient and dense-solve oracles.
    """
    Q_L = np.asarray(Q_L, dtype=complex)
    B, K, _ = Q_L.shape
    V = Q_L - local_solver.unvec(lam, K, K) / varrho
    Vsum = V.sum(axis=0)
    zeta, mu = fp.zeta, fp.mu
    aw = np.abs(zeta) ** 2
    drive = np.diag(np.sqrt(1.0 + mu) * zeta)  # nonzero only on the diagonal
    # shared correction (2/rho)(drive - aw * Ssum), written without forming
    # Ssum first: the direct form cancels catastrophically when |zeta| is big
    correction = (2.0 / varrho) * (drive - aw[:, None] * Vsum) / (
        1.0 + (2.0 * B / varrho) * aw[:, None]
    )
    return V + correction[None, :, :]


def interference_share(Q_C) -> np.ndarray:
    """Q_tilde[b] = sum of the other BSs' consensus copies."""
    Q_C = np.asarray(Q_C)
    return Q_C.sum(axis=0)[None, :, :] - Q_C


def dual_update(lam_b, Q_C_b, Q_b, varrho: float) -> np.ndarray:
    """Ascend the dual on the consensus residual vec(Q_C_b) - vec(Q_b).

    ``Q_b`` is the BS's reported signal/interference block; the step is
    half the penalty. Stacks over a leading BS axis update every dual.
    """
    resid = vec(np.asarray(Q_C_b)) - vec(np.asarray(Q_b))
    return np.asarray(lam_b) + 0.5 * varrho * resid


def consensus_residual(Q_C, Q_L) -> float:
    Q_C, Q_L = np.asarray(Q_C), np.asarray(Q_L)
    per_bs = [
        np.linalg.norm(Q_C[b] - Q_L[b]) / (1.0 + np.linalg.norm(Q_L[b]))
        for b in range(Q_C.shape[0])
    ]
    return float(max(per_bs))


def run_star(channels: ChannelSet, config: SystemConfig, pa: PaModel,
             opts: SolverOptions | None = None) -> SolutionReport:
    """Consensus-ADMM solve; ``opts.max_outer`` counts outer iterations.

    An iteration that lowers the rate is retracted and every station's
    penalty rho is bumped. When the bump leaves every rho where the
    iteration started (at ``local_solver.RHO_CAP``), the next iteration
    would replay this one bit for bit, so the loop ends there with that
    iteration's trace row, ``converged=False`` and
    ``diagnostics["stalled"] = True``.
    """
    opts = opts or SolverOptions()
    net = block_driver.setup(channels, config, pa, initial_beamformers,
                             batched=True)
    H, states, varrho = net.H, net.states, opts.varrho
    B, Nt, K = H.shape
    Q_L, p_L = net.Q_parts, net.p_parts  # the BSs' latest reports
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
        rho_start = [np.copy(s.rho) for s in states]
        replay = False
        Q_C = aggregate(Q_L, lam, fp, varrho)
        Q_tilde = interference_share(Q_C)
        fp = fp_from(Q_C, p_L)

        ctx = StarContext(Q_C=Q_C, lam=lam, varrho=varrho)
        ws = local_solver.build_workspace(H, fp, Nt, K, Q_tilde)
        net.visit(0, ws, ctx)
        lam = dual_update(lam, Q_C, Q_L, varrho)

        rate = net.rate()
        if rate < rate_prev - 1e-9 * max(1.0, abs(rate_prev)):
            # consensus-lagged FP weights can overshoot; retract the whole
            # iteration and shrink every BS's trust region (the reports are
            # the driver's cache, so they are restored in place)
            saved_states, lam, Q_L[:], p_L[:], Q_C, fp = snapshot
            for s, vals in zip(states, saved_states):
                s.w, s.R, s.prev_residual = vals
                s.rho = np.minimum(s.rho * 10.0, local_solver.RHO_CAP)
            rejected_iterations += 1
            rate = rate_prev
            # everything this iteration read is back, rho too: the next
            # iteration would replay it bit for bit
            replay = all(np.array_equal(s.rho, r)
                         for s, r in zip(states, rho_start))

        resid = consensus_residual(Q_C, Q_L)
        residual_trace.append(resid)
        if not math.isfinite(rate):
            raise RuntimeError(f"non-finite sum rate at iteration {it}")
        download, upload, total = metrics.overhead_star(B, K, it)
        trace.append((it, rate, resid, download, upload))

        done = (resid <= CONSENSUS_TOL
                and block_driver.converged(rate, rate_prev, states, opts))
        stalled = replay and not done
        if done or stalled:
            break
        rate_prev = rate

    return net.report(
        fp, it, done, trace, STAR_TRACE_COLUMNS,
        counters={
            "download_values": download,
            "upload_values": upload,
            "total_values": total,
            "iterations": it,
        },
        diagnostics={
            "consensus_residual": residual_trace[-1],
            "consensus_residual_trace": residual_trace,
            "rejected_iterations": rejected_iterations,
            "stalled": stalled,
        },
    )
