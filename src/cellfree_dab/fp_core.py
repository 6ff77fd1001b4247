"""FP auxiliaries, SINDR and sum rate, and the single-BS transformed objective.

The aggregate pair (Qsum, psum) is the interface between the beamformers and
everything else: Qsum[k, j] collects the signal (j == k) and interference
(j != k) reaching UE k from all BSs, psum[k] the total received distortion
power. Rates are in bit/s/Hz (log base 2). Denominators are floored at
``DENOM_FLOOR`` as a guard for degenerate test inputs; valid configurations
never hit the floor because noise powers are positive. Contributions, their
sums and rates also take leading stack axes (BSs, and candidates ahead of
them), so all B stations or a chunk of the start-point scan cost one numpy
call per step. Sums call ``np.add.reduce``, the reduction ``ndarray.sum``
makes, without its Python wrapper. The full transformed objective, which
the solvers never evaluate, is a reference in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pa_model import PaModel, bussgang_gain_diag, distortion_cov

DENOM_FLOOR = 1e-30


@dataclass
class FpState:
    """Auxiliary variables of the fractional program."""

    mu: np.ndarray    # (K,) real >= 0
    zeta: np.ndarray  # (K,) complex

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=complex)
        if (self.mu < 0).any() or not np.isfinite(self.mu).all():
            raise ValueError("mu must be finite and nonnegative")


@dataclass
class MetricsInputs:
    """Aggregate signal/interference matrix, distortion vector, noise powers."""

    Qsum: np.ndarray   # (K, K) complex
    psum: np.ndarray   # (K,) real nonnegative
    sigma2: np.ndarray  # (K,) watts

    def __post_init__(self):
        self.Qsum = np.asarray(self.Qsum, dtype=complex)
        self.psum = np.asarray(self.psum, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)


def bs_contribution(H_b: np.ndarray, W_b: np.ndarray, pa: PaModel):
    """One BS's (Q, p) contribution: (H^H G W, diag(H^H Cd H)).

    Returns the K x K complex signal/interference block and the real K-vector
    of received distortion powers. ``H_b`` and ``W_b`` may also carry a
    leading BS axis, (B, Nt, K); the result is then the (B, K, K) and (B, K)
    stacks, bit for bit the per-BS calls, in one numpy call per step. The
    leading axes broadcast: (B, Nt, K) channels with an (n, B, Nt, K) stack
    of candidate beamformers give (n, B, K, K) and (n, B, K), bit for bit n
    calls. The inputs are made C-contiguous first: BLAS sums in a
    layout-dependent order, and the solvers pass column-major views where
    ``metrics.evaluate`` passes row-major stacks, so without it the same
    beamformer could give different last bits.
    """
    H_b, W_b = np.ascontiguousarray(H_b), np.ascontiguousarray(W_b)
    Q = signal_block(H_b, W_b, pa)
    if pa.is_ideal:
        p = np.zeros(Q.shape[:-1])
    else:
        Cd = distortion_cov(W_b, pa)
        p = np.einsum("...nk,...nm,...mk->...k", H_b.conj(), Cd, H_b).real
    return Q, p


def signal_block(H_b: np.ndarray, W_b: np.ndarray, pa: PaModel) -> np.ndarray:
    """The signal/interference block H^H G W of ``bs_contribution`` alone.

    Takes the same shapes and returns its ``Q``, bit for bit, without
    forming the Nt x Nt distortion covariance.
    """
    H_b, W_b = np.ascontiguousarray(H_b), np.ascontiguousarray(W_b)
    g = bussgang_gain_diag(W_b, pa)
    return np.swapaxes(H_b.conj(), -1, -2) @ (g[..., None] * W_b)


def sum_contributions(Q_parts, p_parts, sigma2) -> MetricsInputs:
    """Aggregates from the (B, K, K) and (B, K) stacks of BS contributions.

    The parts are added one BS after another from zero, which makes the sum
    reproducible bit for bit: a solver's cache of contributions sums to
    exactly what ``build_metrics_inputs`` returns for the same beamformers.
    One ``add.accumulate`` over the BS axis keeps that order for every K
    (``sum(axis=0)`` switches to pairwise summation when K = 1); adding 0.0
    turns the -0.0 an all-(-0.0) column accumulates into the loop's +0.0.
    The BS axis is counted from the end, so (n, B, K, K) and (n, B, K)
    stacks give n aggregates, bit for bit n calls.
    """
    Qsum = np.add.accumulate(np.asarray(Q_parts, dtype=complex),
                             axis=-3)[..., -1, :, :] + 0.0
    psum = np.add.accumulate(np.asarray(p_parts, dtype=float),
                             axis=-2)[..., -1, :] + 0.0
    return MetricsInputs(Qsum=Qsum, psum=psum, sigma2=np.asarray(sigma2, dtype=float))


def build_metrics_inputs(H, W, pa: PaModel, sigma2) -> MetricsInputs:
    """From-scratch aggregates over all BSs. H, W have shape (B, Nt, K)."""
    return sum_contributions(*bs_contribution(H, W, pa), sigma2)


def _diagonal(Qsum: np.ndarray) -> np.ndarray:
    """Per-UE signal entries of one aggregate (K,) or of a stack (..., K)."""
    return Qsum.diagonal(0, -2, -1)


def _denominators(inputs: MetricsInputs):
    """(signal power, interference+distortion+noise, full-power denominator).

    Each is per UE; a stack of aggregates gives stacks.
    """
    power = np.abs(inputs.Qsum) ** 2
    total = np.add.reduce(power, axis=-1) + inputs.psum + inputs.sigma2
    signal = np.abs(_diagonal(inputs.Qsum)) ** 2
    return (signal, np.maximum(total - signal, DENOM_FLOOR),
            np.maximum(total, DENOM_FLOOR))


def _zeta(inputs: MetricsInputs, mu: np.ndarray, full: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + np.asarray(mu)) * _diagonal(inputs.Qsum) / full


def sindr(inputs: MetricsInputs) -> np.ndarray:
    """Per-UE signal to interference-noise-and-distortion ratio."""
    signal, without_signal, _ = _denominators(inputs)
    return signal / without_signal


def sum_rate(inputs: MetricsInputs):
    """Sum rate of one aggregate, a float; of a (n, K, K) stack, n rates."""
    rates = np.add.reduce(np.log2(1.0 + sindr(inputs)), axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def update_fp(inputs: MetricsInputs) -> FpState:
    """Both auxiliaries from one evaluation of the denominators."""
    signal, without_signal, full = _denominators(inputs)
    mu = signal / without_signal
    return FpState(mu=mu, zeta=_zeta(inputs, mu, full))


def local_objective(Q_hat, A, p, mu, zeta):
    """Single-BS share of the transformed objective, other BSs frozen.

    ``(A, p)`` is the BS's contribution (``bs_contribution``) and ``Q_hat``
    the other BSs' signal/interference aggregate. Equals the global
    ``delta`` term up to quantities constant in the BS's beamformer; the
    other BSs' distortion is one of those constants. O(K^2). A float for
    one BS; (B, K, K) stacks of ``Q_hat`` and ``A`` and a (B, K) stack of
    ``p`` give B values, bit for bit the per-BS calls.
    """
    aw = np.abs(zeta) ** 2
    total = np.add.reduce  # the sums of ndarray.sum, without its wrapper
    useful = total(2.0 * np.sqrt(1.0 + mu)
                   * (np.conj(zeta) * A.diagonal(0, -2, -1)).real, axis=-1)
    cross = total(aw[:, None] * 2.0 * (np.conj(Q_hat) * A).real, axis=(-2, -1))
    own = total(aw[:, None] * np.abs(A) ** 2, axis=(-2, -1))
    dist = total(aw * p, axis=-1)
    val = useful - dist - cross - own
    return val if val.ndim else float(val)
