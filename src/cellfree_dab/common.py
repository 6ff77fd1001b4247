"""Options and result containers shared by the three solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fp_core
from .fp_core import FpState
from .pa_model import PaModel

# depth of the start point's power-backoff scan, in halvings of the budget
NUM_HALVINGS = 12
# bytes of stacked Nt x Nt distortion covariances in one chunk of the scan
SCAN_STACK_BYTES = 1 << 18


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
        if (isinstance(self.max_outer, bool)
                or not isinstance(self.max_outer, (int, np.integer))
                or self.max_outer < 1):
            raise ValueError(f"max_outer must be an integer >= 1, "
                             f"got {self.max_outer!r}")
        if not _real(self.tol) or not np.isfinite(self.tol) or self.tol < 0:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")
        if (not _real(self.varrho) or not np.isfinite(self.varrho)
                or self.varrho <= 0):
            raise ValueError(f"varrho must be finite and positive, "
                             f"got {self.varrho!r}")


def _real(x) -> bool:
    """A real number that is not a bool."""
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))


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


def initial_beamformers(H: np.ndarray, Pt: float, pa, sigma2) -> np.ndarray:
    """Best starting point among matched-filter and zero-forcing shapes.

    Candidate directions (per BS, columns scaled to spend the budget
    equally) are combined with a global power-backoff scan from the full
    budget down to 2^-``NUM_HALVINGS`` of it in steps of sqrt(2); the pair
    scoring the best true sum rate under the design amplifier wins, the
    first one on a tie. Both scans matter: correlated line-of-sight columns
    leave the matched filter in an interference-limited basin the block
    iteration cannot escape, and distortion-dominated regimes put the
    full-budget start in the wrong power basin. If no pair scores a finite
    rate (at budgets near 1e107 W every rate is NaN), it raises
    ``RuntimeError``.

    Both shapes are built for all B stations at once along H's leading BS
    axis (stacked Gram, inverse and column norms). The backoffs of a shape
    are aggregated in stacked calls of bounded size: a chunk of n backoffs
    is one (n, B, Nt, K) stack of beamformers, one
    ``fp_core.bs_contribution`` and one ``fp_core.sum_contributions``. A
    chunk holds at most ``SCAN_STACK_BYTES`` of the stations' Nt x Nt
    distortion covariances, so memory stays O(B Nt^2). One
    ``fp_core.sum_rate`` then scores every chunk's aggregates at once.
    Every step equals its per-BS, per-backoff form
    (``initial_beamformers_loop`` in ``tests/reference.py``) bit for bit.
    """
    H = np.asarray(H)
    B, Nt, K = H.shape
    mf = H / np.linalg.norm(H, axis=-2, keepdims=True)
    gram = np.swapaxes(H.conj(), -1, -2) @ H
    ridge = 1e-12 * np.trace(gram, axis1=-2, axis2=-1).real / K
    Z = H @ np.linalg.inv(gram + ridge[:, None, None] * np.eye(K))
    zf = Z / np.linalg.norm(Z, axis=-2, keepdims=True)
    # the scalar expression per backoff: a vectorized power may round apart
    scales = np.array([np.sqrt(0.5 ** (0.5 * half_exponent))
                       for half_exponent in range(2 * NUM_HALVINGS + 1)])
    per = max(1, SCAN_STACK_BYTES // (B * Nt * Nt * 16))
    Qsum, psum = [], []
    shapes = [np.sqrt(Pt / K) * cand for cand in (mf, zf)]
    for W_full in shapes:
        for start in range(0, len(scales), per):
            stack = scales[start:start + per, None, None, None] * W_full
            inputs = fp_core.sum_contributions(
                *fp_core.bs_contribution(H, stack, pa), sigma2)
            Qsum.append(inputs.Qsum)
            psum.append(inputs.psum)
    rates = fp_core.sum_rate(fp_core.MetricsInputs(
        Qsum=np.concatenate(Qsum), psum=np.concatenate(psum), sigma2=sigma2))
    rates[np.isnan(rates)] = -np.inf
    best = int(np.argmax(rates))  # the first of equal maxima
    if rates[best] == -np.inf:
        raise RuntimeError(f"no start point scores a finite sum rate at "
                           f"Pt={Pt!r} W")
    # the winning row of its stack, formed again by the same product
    shape, scale = divmod(best, len(scales))
    return scales[scale, None, None, None] * shapes[shape]


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
    trace: list = field(default_factory=list)   # one tuple per step
    trace_columns: tuple = ()
    counters: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
