"""Evaluation: SINDR/sum-rate under a chosen PA, beam patterns, accounting."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import fp_core
from .pa_model import PaModel, bussgang_gain_diag, distortion_cov
from .scenario import steering_vector


@dataclass
class MetricsReport:
    sindr: np.ndarray            # (K,)
    sum_rate: float              # bit/s/Hz
    per_bs_tx_power: np.ndarray  # (B,) watts
    distortion_power: np.ndarray  # (K,) watts received


@dataclass
class BeamPattern:
    angles: np.ndarray    # radians
    power_db: np.ndarray  # absolute dB

    @property
    def power_db_peak_norm(self) -> np.ndarray:
        return self.power_db - self.power_db.max()


def evaluate(channels, W, eval_pa: PaModel, sigma2) -> MetricsReport:
    """SINDR and sum rate of beamformers ``W`` under ``eval_pa``."""
    H = channels.H if hasattr(channels, "H") else np.asarray(channels)
    W = np.asarray(W)
    inputs = fp_core.build_metrics_inputs(H, W, eval_pa, sigma2)
    gammas = fp_core.sindr(inputs)
    return MetricsReport(
        sindr=gammas,
        sum_rate=float(np.sum(np.log2(1.0 + gammas))),
        per_bs_tx_power=np.sum(np.abs(W) ** 2, axis=(1, 2)),
        distortion_power=inputs.psum,
    )


def default_angle_grid(num: int = 721) -> np.ndarray:
    return np.linspace(-np.pi / 2, np.pi / 2, num)


def beam_pattern(W_b, eval_pa: PaModel, angles, Nt: int, fc: float,
                 d: float) -> BeamPattern:
    """Mean radiated power of the decomposed PA output toward each angle.

    power(theta) = a(theta)^H (G W W^H G^H + Cd) a(theta); the distortion
    covariance contributes the dispersed part of the beam.
    """
    W_b = np.asarray(W_b)
    angles = np.asarray(angles, dtype=float)
    A = steering_vector(angles, Nt, fc, d)  # (n_angles, Nt)
    g = bussgang_gain_diag(W_b, eval_pa)
    GW = g[:, None] * W_b
    lin = np.sum(np.abs(A.conj() @ GW) ** 2, axis=1)
    if eval_pa.is_ideal:
        dist = 0.0
    else:
        Cd = distortion_cov(W_b, eval_pa)
        dist = np.real(np.einsum("an,nm,am->a", A.conj(), Cd, A))
    power = np.maximum(lin + dist, 1e-300)
    return BeamPattern(angles=angles, power_db=10.0 * np.log10(power))


def sidelobe_mainlobe_ratio(pattern: BeamPattern, mainlobe_angles,
                            halfwidth: float = np.deg2rad(4.0)) -> float:
    """Mean sidelobe power over mean mainlobe power (linear scale).

    Mainlobe regions are the angle-grid points within ``halfwidth`` of any
    of ``mainlobe_angles`` (the served directions).
    """
    mainlobe_angles = np.atleast_1d(np.asarray(mainlobe_angles, dtype=float))
    linear = 10.0 ** (pattern.power_db / 10.0)
    dist = np.min(np.abs(pattern.angles[:, None] - mainlobe_angles[None, :]),
                  axis=1)
    main = dist <= halfwidth
    if not main.any() or main.all():
        raise ValueError("mainlobe window covers none or all of the grid")
    return float(linear[~main].mean() / linear[main].mean())


def overhead_ring(K: int, n_iter: int) -> int:
    """Values relayed around the ring after ``n_iter`` visits."""
    if K < 1 or n_iter < 0:
        raise ValueError("K must be >= 1 and n_iter >= 0")
    return n_iter * (K * K + K)


def overhead_star(B: int, K: int, n_iter: int):
    """(download, upload, total) values after ``n_iter`` outer iterations."""
    if B < 1 or K < 1 or n_iter < 0:
        raise ValueError("B, K must be >= 1 and n_iter >= 0")
    download = n_iter * B * (2 * K * K + 2 * K)
    upload = n_iter * B * (2 * K * K + K)
    return download, upload, download + upload


def export_pattern_csv(patterns: dict, path):
    """``patterns`` maps bs index -> BeamPattern on a shared angle grid."""
    keys = sorted(patterns)
    grid = patterns[keys[0]].angles
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "bs", "power_db", "power_db_peak_norm"])
        for b in keys:
            pat = patterns[b]
            norm = pat.power_db_peak_norm
            for i in range(grid.size):
                writer.writerow([
                    repr(float(np.rad2deg(pat.angles[i]))), b,
                    repr(float(pat.power_db[i])), repr(float(norm[i])),
                ])
