"""Third-order memoryless power amplifier and its Bussgang decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PaModel:
    """Polynomial amplifier z = beta1 * x + beta3 * x * |x|^2 (per antenna)."""

    beta1: complex = 1.0
    beta3: complex = 0.0

    def __post_init__(self):
        if self.beta1 == 0:
            raise ValueError("beta1 must be nonzero")

    @classmethod
    def ideal(cls) -> "PaModel":
        return cls(beta1=1.0, beta3=0.0)

    @classmethod
    def reference(cls) -> "PaModel":
        """Measured third-order coefficients used throughout the experiments."""
        return cls(beta1=1.0, beta3=-0.212 * np.exp(-2.816j))

    @property
    def is_ideal(self) -> bool:
        return self.beta3 == 0


def amplify(x: np.ndarray, pa: PaModel) -> np.ndarray:
    """Element-wise nonlinear amplification."""
    x = np.asarray(x)
    return pa.beta1 * x + pa.beta3 * x * np.abs(x) ** 2


def bussgang_gain_diag(W: np.ndarray, pa: PaModel) -> np.ndarray:
    """The Bussgang gain beta1*I + 2*beta3*diag(W W^H), as its diagonal.

    ``W`` is (..., Nt, K); leading axes (one per BS) are kept.
    """
    q = np.add.reduce(np.abs(np.asarray(W)) ** 2, axis=-1)
    return pa.beta1 + 2.0 * pa.beta3 * q


def distortion_cov(W: np.ndarray, pa: PaModel) -> np.ndarray:
    """Distortion covariance 2|beta3|^2 (W W^H o |W W^H|^2).

    ``W`` is (..., Nt, K) and the result (..., Nt, Nt): a stack of BSs gives
    each one's covariance, bit for bit what a call per BS gives. The
    Hadamard product and the scaling are formed in place in the Gram
    matrix's buffer. Written with |beta3|^2 so the result is Hermitian by
    construction.
    """
    W = np.asarray(W)
    C = W @ np.swapaxes(W.conj(), -1, -2)
    np.multiply(C, np.abs(C) ** 2, out=C)
    return np.multiply(2.0 * np.abs(pa.beta3) ** 2, C, out=C)
