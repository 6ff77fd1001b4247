"""Options and result containers shared by the three solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp_core import FpState


@dataclass
class SolverOptions:
    """Knobs common to the centralized, ring, and star solvers.

    ``max_outer`` counts full ring passes (ring) or outer iterations
    (star/central). ``inner_sweeps`` is the number of (w, lag, R) sweeps a BS
    performs per visit; the distributed algorithms use one per visit.
    ``power_tol_rel`` only selects the w-step branch: the interior solution
    is kept while its power is at most ``Pt * (1 + power_tol_rel)``, and
    otherwise the power constraint is made active. It is not a stopping
    tolerance; the multiplier is always solved to machine precision.
    """

    max_outer: int = 30
    tol: float = 1e-4
    inner_sweeps: int = 1
    rho_init: float = 1.0
    rho_growth: float = 1.5
    rho_cap: float = 1e6
    rho_drop_target: float = 0.10
    residual_guard: float = 1.0
    penalty_resid_tol: float = 1e-3
    power_tol_rel: float = 1e-8
    varrho: float = 10.0
    consensus_tol: float = 1e-3
    dual_step_textbook: bool = False
    collect_traces: bool = True

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be >= 1")
        if self.rho_init <= 0 or self.varrho <= 0:
            raise ValueError("penalty coefficients must be positive")


def initial_beamformers(H: np.ndarray, Pt: float, pa, sigma2,
                        num_halvings: int = 12) -> np.ndarray:
    """Best starting point among matched-filter and zero-forcing shapes.

    Candidate directions (per BS, columns scaled to spend the budget
    equally) are combined with a global power-backoff scan in halvings of
    the budget; the pair scoring the best true sum rate under the design
    amplifier wins. Both scans matter: correlated line-of-sight columns
    leave the matched filter in an interference-limited basin the block
    iteration cannot escape, and distortion-dominated regimes put the
    full-budget start in the wrong power basin.
    """
    from . import fp_core

    H = np.asarray(H)
    B, Nt, K = H.shape
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
        for half_exponent in range(2 * num_halvings + 1):
            c = 0.5 ** (0.5 * half_exponent)
            W = np.sqrt(c) * W_full
            rate = fp_core.sum_rate(
                fp_core.build_metrics_inputs(H, W, pa, sigma2)
            )
            if rate > best_rate:
                best_W, best_rate = W, rate
    return best_W


def channel_scale(H: np.ndarray) -> float:
    """RMS channel entry, used to renormalize solver-internal quantities.

    Dividing H by this scale and the noise powers by its square leaves every
    SINDR, rate, and beamformer unchanged while keeping the FP auxiliaries
    and subproblem data near unit magnitude (physical channels can sit at
    1e-9 and drive |zeta| to 1e+8, which wrecks float cancellation).
    """
    rms = float(np.sqrt(np.mean(np.abs(H) ** 2)))
    return rms if rms > 0 else 1.0


@dataclass
class SolutionReport:
    """Outcome of one solver run."""

    W: np.ndarray                # (B, Nt, K) final beamformers
    sum_rate: float              # bit/s/Hz under the design PA
    fp: FpState
    iterations: int              # outer iterations (ring: full passes)
    converged: bool
    trace: list = field(default_factory=list)   # per-step dict rows
    trace_columns: tuple = ()
    counters: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
