"""Block-coordinate driver shared by the ring, central and star solvers.

All three cycle the per-BS penalty-MM block (``local_solver.sweep``) in
normalized units (``setup``), end a pass with the same test (``converged``)
and report alike (``Network.report``). Ring and central also share the loop,
``run_blocks``: they differ only in the BS that starts a pass and in how
often the FP auxiliaries (mu, zeta) refresh, after every visit or after every
pass, the two schedules of the quadratic-transform block ascent (Shen & Yu,
IEEE TSP 2018). Each BS's contribution (Q_b, p_b) is cached; a visit
subtracts it from the token aggregate (Q, p), sweeps, and adds the fresh one
that the sweep hands back (the one its safeguard accepted). The cache is
two arrays with a leading BS axis, filled at set-up by one stacked
``fp_core.bs_contribution`` and reduced by one ``fp_core.sum_contributions``
call per visit. Summed in BS order it equals
``fp_core.build_metrics_inputs`` bit for bit, so it gives each visit's rate
and the check of the token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fp_core, local_solver, metrics
from .common import SolutionReport, SolverOptions, channel_scale
from .fp_core import FpState, MetricsInputs
from .pa_model import PaModel


@dataclass
class Network:
    """One solve in normalized units, with the per-BS contribution cache."""

    H: np.ndarray          # (B, Nt, K) channels / scale
    sigma2: np.ndarray     # (K,) noise powers / scale^2
    scale: float
    Pt: float
    pa: PaModel            # design amplifier
    groups: list           # the BS (index) or BSs (slice) of each state
    states: list           # LocalSolverState of each group
    Q_parts: np.ndarray    # (B, K, K) cached signal/interference blocks
    p_parts: np.ndarray    # (B, K) cached received distortion powers

    def visit(self, g: int, ws, star=None):
        """Sweep group g from its cached contribution(s) and cache the result."""
        bs = self.groups[g]
        self.Q_parts[bs], self.p_parts[bs] = local_solver.sweep(
            self.states[g], ws, self.pa, self.Pt, star,
            contribution=(self.Q_parts[bs], self.p_parts[bs]),
        )

    def inputs(self) -> MetricsInputs:
        return fp_core.sum_contributions(self.Q_parts, self.p_parts, self.sigma2)

    def rate(self) -> float:
        return fp_core.sum_rate(self.inputs())

    def report(self, fp: FpState, iterations: int, converged: bool, trace,
               trace_columns, counters: dict, diagnostics: dict) -> SolutionReport:
        states = self.states
        return SolutionReport(
            W=np.concatenate([s.W.reshape((-1,) + s.W.shape[-2:])
                              for s in states]),
            sum_rate=self.rate(),
            fp=FpState(mu=fp.mu, zeta=fp.zeta / self.scale),  # original units
            iterations=iterations,
            converged=converged,
            trace=trace,
            trace_columns=trace_columns,
            counters=counters,
            diagnostics={
                **diagnostics,
                "penalty_residuals": [
                    r for s in states
                    for r in np.ravel(local_solver.penalty_residual(s)).tolist()],
                "rejected_sweeps": sum(int(np.sum(s.rejected_sweeps))
                                       for s in states),
            },
        )


def setup(channels, config, pa: PaModel, initial_beamformers,
          batched: bool = False) -> Network:
    """Normalize the channel and start every BS from ``initial_beamformers``.

    The BSs' states are one state with a lane axis of B when ``batched``
    (star moves all stations in one sweep), else one state per BS (ring and
    central visit one station at a time). The initial cache is one stacked
    ``fp_core.bs_contribution`` over the BS axis of (H, W0): its (B, K, K)
    and (B, K) outputs are the cached ``Q_parts`` and ``p_parts``, bit for
    bit the per-BS contributions. Solvers pass their own module binding of
    ``common.initial_beamformers``, so a profiler that wraps the name in a
    solver module sees the call.
    """
    scale = channel_scale(channels.H)
    H = channels.H / scale
    sigma2 = np.asarray(config.sigma2) / scale**2
    Pt = config.power_budget
    W0 = initial_beamformers(H, Pt, pa, sigma2)
    B = H.shape[0]
    groups = [slice(0, B)] if batched else list(range(B))
    states = [local_solver.state_from_beamformer(W0[g]) for g in groups]
    Q_parts, p_parts = fp_core.bs_contribution(H, W0, pa)
    return Network(H=H, sigma2=sigma2, scale=scale, Pt=Pt, pa=pa,
                   groups=groups, states=states, Q_parts=Q_parts,
                   p_parts=np.ascontiguousarray(p_parts))


def converged(rate: float, rate_prev: float, states, opts: SolverOptions) -> bool:
    """Pass-end test: the rate has settled and every lift is tight."""
    return (abs(rate - rate_prev) <= opts.tol * max(1.0, abs(rate_prev))
            and max(float(local_solver.penalty_residual(s).max())
                    for s in states)
            <= local_solver.PENALTY_RESID_TOL)


def run_blocks(net: Network, opts: SolverOptions, order, fp_period: int,
               trace_columns) -> SolutionReport:
    """Visit the BSs in ``order`` pass after pass; ``opts.max_outer`` passes.

    The FP auxiliaries are refreshed from the token after every
    ``fp_period``-th visit. Trace rows are (visit, bs, surrogate objective,
    sum rate, penalty residual, ring values relayed so far), cut to
    ``len(trace_columns)``; the surrogate is the visited BS's penalized
    objective after its sweep, and the residual the one the sweep left.
    """
    B, Nt, K = net.H.shape
    exact = net.inputs()
    Q, p = exact.Qsum, exact.psum  # the token
    fp = fp_core.update_fp(exact)
    rate_prev = fp_core.sum_rate(exact)
    trace = []
    consistency = 0.0

    for t in range(1, B * opts.max_outer + 1):
        b = order[(t - 1) % B]
        state = net.states[b]
        Q_hat, p_hat = Q - net.Q_parts[b], p - net.p_parts[b]
        ws = local_solver.build_workspace(net.H[b], fp, Nt, K, Q_hat)
        net.visit(b, ws)
        Q, p = Q_hat + net.Q_parts[b], p_hat + net.p_parts[b]
        if t % fp_period == 0:
            fp = fp_core.update_fp(
                MetricsInputs(Qsum=Q, psum=p, sigma2=net.sigma2))

        exact = net.inputs()
        for token, ref in ((Q, exact.Qsum), (p, exact.psum)):
            consistency = max(consistency, np.linalg.norm(token - ref)
                              / max(np.linalg.norm(ref), 1e-300))
        rate = fp_core.sum_rate(exact)
        if not math.isfinite(rate):
            raise RuntimeError(f"non-finite sum rate at visit {t}")
        obj = local_solver.local_penalized_objective(state, ws, net.pa)
        row = (t, b, float(obj), rate, float(state.prev_residual),
               metrics.overhead_ring(K, t))
        trace.append(row[:len(trace_columns)])

        if t % B == 0:
            done = converged(rate, rate_prev, net.states, opts)
            if done:
                break
            rate_prev = rate

    return net.report(
        fp, t // B, done, trace, trace_columns,
        counters={"visits": t},
        diagnostics={"consistency_error_max": consistency},
    )
