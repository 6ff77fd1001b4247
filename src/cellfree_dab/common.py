"""Options and result containers shared by the three solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fp_core import FpState
from .pa_model import PaModel


@dataclass
class SolverOptions:
    """Knobs common to the centralized, ring, and star solvers.

    ``max_outer`` counts full passes (ring and central) or outer iterations
    (star). ``tol`` bounds the relative sum-rate change of the pass-end
    convergence test, which also asks every lift to be tight
    (``local_solver.PENALTY_RESID_TOL``) and, for star, the consensus to
    hold (``star_solver.CONSENSUS_TOL``). ``varrho`` is star's consensus
    ADMM penalty; ring and central do not read it.
    """

    max_outer: int = 30
    tol: float = 1e-4
    varrho: float = 10.0

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.varrho <= 0:
            raise ValueError("varrho must be positive")


MODE_TAGS = ("DAB", "DUB", "IDEAL")


@dataclass(frozen=True)
class SolveMode:
    """Design/evaluation PA pairing for one experiment arm."""

    tag: str
    design_pa: PaModel
    eval_pa: PaModel

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ValueError(f"unknown mode tag {self.tag!r}")

    @classmethod
    def dab(cls, true_pa: PaModel) -> "SolveMode":
        return cls("DAB", design_pa=true_pa, eval_pa=true_pa)

    @classmethod
    def dub(cls, true_pa: PaModel) -> "SolveMode":
        return cls("DUB", design_pa=PaModel.ideal(), eval_pa=true_pa)

    @classmethod
    def ideal(cls) -> "SolveMode":
        return cls("IDEAL", design_pa=PaModel.ideal(), eval_pa=PaModel.ideal())

    @classmethod
    def from_tag(cls, tag: str, true_pa: PaModel) -> "SolveMode":
        makers = {"DAB": cls.dab, "DUB": cls.dub, "IDEAL": lambda _: cls.ideal()}
        if tag not in makers:
            raise ValueError(f"unknown mode tag {tag!r}")
        return makers[tag](true_pa)


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
