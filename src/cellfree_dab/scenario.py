"""Network geometry, sparse mmWave channels, and system configuration.

All randomness flows through an explicit ``numpy.random.Generator`` so that a
(config, seed) pair fully determines the generated geometry and channels.
Functions here keep no state; each draws only from the generator it is given.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s, fixed project-wide


def _finite(x, shape=()) -> np.ndarray | None:
    """``x`` as floats when it is finite numbers of ``shape``, else None."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        return None
    return x if x.shape == shape and np.isfinite(x).all() else None


@dataclass
class SystemConfig:
    """System-level configuration for one cell-free downlink scenario.

    ``sigma2`` is the per-UE noise power in watts (length ``num_ues``).
    ``antenna_spacing`` defaults to half the carrier wavelength when left at
    ``None`` and resolved by ``__post_init__``.
    """

    num_bs: int = 4
    num_antennas: int = 16
    num_ues: int = 6
    power_budget: float = 10 ** ((38.0 - 30.0) / 10.0)  # 38 dBm in watts
    sigma2: np.ndarray | float = 1e-18
    carrier_freq: float = 28e9
    antenna_spacing: float | None = None
    num_paths: int = 3
    pathloss_ref_db: float = 30.0
    ref_distance: float = 1.0
    los_exponent: float = 2.5
    nlos_exponent_range: tuple[float, float] = (3.0, 3.5)
    ue_area_radius: float = 200.0
    rng_seed: int = 0
    bs_positions: list[tuple[float, float]] | None = None

    def __post_init__(self):
        self._validate_integers()
        try:
            sigma2 = np.asarray(self.sigma2, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"sigma2 must be numbers, got {self.sigma2!r}"
                             ) from None
        if sigma2.ndim > 1 or sigma2.size not in (1, self.num_ues):
            raise ValueError(f"sigma2 must be one value or num_ues="
                             f"{self.num_ues} values, got shape {sigma2.shape}")
        self.sigma2 = np.broadcast_to(sigma2, (self.num_ues,)).copy()
        self.validate()
        if self.antenna_spacing is None:
            self.antenna_spacing = SPEED_OF_LIGHT / self.carrier_freq / 2.0

    def _validate_integers(self):
        for name, low in (("num_bs", 1), ("num_antennas", 1), ("num_ues", 1),
                          ("num_paths", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer)) or value < low):
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")

    def validate(self):
        """Raise ``ValueError`` on numbers no solve can use, NaN and inf too."""
        self._validate_integers()
        positive = ["power_budget", "carrier_freq", "ref_distance"]
        if self.antenna_spacing is not None:
            positive.append("antenna_spacing")
        for name in positive:
            x = _finite(getattr(self, name))
            if x is None or x <= 0:
                raise ValueError(f"{name} must be finite and positive")
        x = _finite(self.sigma2, (self.num_ues,))
        if x is None or (x <= 0).any():
            raise ValueError("sigma2 noise powers must be finite and positive")
        x = _finite(self.ue_area_radius)
        if x is None or x < 0:
            raise ValueError("ue_area_radius must be finite and >= 0")
        for name in ("los_exponent", "pathloss_ref_db"):
            if _finite(getattr(self, name)) is None:
                raise ValueError(f"{name} must be finite")
        x = _finite(self.nlos_exponent_range, (2,))
        if x is None or x[0] > x[1]:
            raise ValueError("nlos_exponent_range must be two finite numbers "
                             "[low, high] with low <= high")
        if (self.bs_positions is not None
                and _finite(self.bs_positions, (self.num_bs, 2)) is None):
            raise ValueError(f"bs_positions must be num_bs={self.num_bs} "
                             f"finite (x, y) pairs")

    def to_json(self) -> str:
        doc = asdict(self)
        doc["sigma2"] = np.asarray(self.sigma2).tolist()
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        """The config a JSON object describes; ``ValueError`` for any other
        document, an unknown key, or a value ``validate`` rejects."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got "
                             f"{type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        nlos, bs = doc.get("nlos_exponent_range"), doc.get("bs_positions")
        if isinstance(nlos, list):
            doc["nlos_exponent_range"] = tuple(nlos)
        if isinstance(bs, list) and all(isinstance(p, list) for p in bs):
            doc["bs_positions"] = [tuple(p) for p in bs]
        return cls(**doc)


def desk_profile(**overrides) -> SystemConfig:
    """Small configuration used for fast runs and the acceptance suite.

    The noise power is calibrated so that an 8-44 dBm transmit-power sweep
    spans the noise-limited through distortion-limited regimes at this scale
    and no user stays noise-limited at the distortion-aware operating point;
    see the README for the link-budget reasoning.
    """
    base = dict(num_bs=2, num_antennas=4, num_ues=2, sigma2=1e-23)
    base.update(overrides)
    return SystemConfig(**base)


def full_profile(**overrides) -> SystemConfig:
    """Full-size configuration (4 BSs, 16 antennas, 6 UEs). Long-running."""
    base = dict(num_bs=4, num_antennas=16, num_ues=6, sigma2=1e-18)
    base.update(overrides)
    return SystemConfig(**base)


@dataclass
class NetworkGeometry:
    """BS/UE coordinates plus per-path angles and distances.

    ``path_angles`` and ``path_distances`` have shape (B, K, M); path index 0
    is the line-of-sight path.
    """

    bs_positions: np.ndarray  # (B, 2) meters
    ue_positions: np.ndarray  # (K, 2) meters
    path_angles: np.ndarray   # (B, K, M) radians in [-pi/2, pi/2]
    path_distances: np.ndarray  # (B, K, M) meters, all > 0


@dataclass
class ChannelSet:
    """Per-BS downlink channels. ``H[b]`` is Nt x K; column k serves UE k."""

    H: np.ndarray      # (B, Nt, K) complex
    alpha: np.ndarray  # (B, K, M) complex path gains


def default_bs_layout(num_bs: int) -> np.ndarray:
    """BS coordinates on the circle of radius 200*sqrt(2) m.

    For 4 BSs this reproduces the corner layout (-200,200), (200,200),
    (200,-200), (-200,-200); other counts are spaced evenly on the same
    circle starting from the first corner.
    """
    radius = 200.0 * np.sqrt(2.0)
    angles = 3.0 * np.pi / 4.0 - 2.0 * np.pi * np.arange(num_bs) / num_bs
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def place_network(config: SystemConfig, rng: np.random.Generator) -> NetworkGeometry:
    """Draw BS/UE positions and per-path angles/distances.

    UEs are uniform over the disk of radius ``ue_area_radius`` centered at the
    origin. Path 0 is line-of-sight with geometric angle/distance; the
    remaining paths get angles uniform in [-pi/2, pi/2] and distances uniform
    in [200, 400] m. Each BS array is oriented broadside toward the origin,
    which keeps every in-disk UE within the +-pi/2 visible sector.
    The line-of-sight angles and distances of every (b, k) are one stacked
    expression, bit for bit the per-(b, k) loop (``place_network_loop`` in
    ``tests/reference.py``): ``np.vecdot`` rounds each 2-vector dot and norm
    as the loop does, where a stacked ``@`` or ``norm(axis=-1)`` does not.
    """
    B, K, M = config.num_bs, config.num_ues, config.num_paths
    if config.bs_positions is not None:
        bs_pos = np.asarray(config.bs_positions, dtype=float).reshape(B, 2)
    else:
        bs_pos = default_bs_layout(B)

    radii = config.ue_area_radius * np.sqrt(rng.uniform(0.0, 1.0, size=K))
    azim = rng.uniform(0.0, 2.0 * np.pi, size=K)
    ue_pos = np.stack([radii * np.cos(azim), radii * np.sin(azim)], axis=1)

    boresight = -bs_pos
    norm = np.sqrt(np.vecdot(boresight, boresight))
    at_origin = norm == 0
    boresight = boresight / np.where(at_origin, 1.0, norm)[:, None]
    boresight[at_origin] = (1.0, 0.0)
    vec = ue_pos[None] - bs_pos[:, None]  # (B, K, 2)
    bx, by = boresight[:, 0, None], boresight[:, 1, None]
    angles = np.empty((B, K, M))
    dists = np.empty((B, K, M))
    # signed angle from the boresight toward the UE
    angles[:, :, 0] = np.arctan2(bx * vec[..., 1] - by * vec[..., 0],
                                 np.vecdot(vec, boresight[:, None]))
    dists[:, :, 0] = np.sqrt(np.vecdot(vec, vec))
    if M > 1:
        angles[:, :, 1:] = rng.uniform(-np.pi / 2, np.pi / 2, size=(B, K, M - 1))
        dists[:, :, 1:] = rng.uniform(200.0, 400.0, size=(B, K, M - 1))
    return NetworkGeometry(bs_pos, ue_pos, angles, dists)


def path_loss(r: float, kappa: float, C0: float, D0: float) -> float:
    """Amplitude attenuation 10^(-C0/10) * (r/D0)^(-kappa)."""
    if np.any(np.asarray(r) <= 0):
        raise ValueError("propagation distance must be positive")
    return 10.0 ** (-C0 / 10.0) * (np.asarray(r) / D0) ** (-kappa)


def steering_vector(theta, Nt: int, fc: float, d: float) -> np.ndarray:
    """ULA array response toward ``theta``; element 0 is always 1.

    Accepts a scalar angle (returns shape (Nt,)) or an array of angles
    (returns shape (..., Nt)).
    """
    theta = np.asarray(theta, dtype=float)
    n = np.arange(Nt)
    phase = -2j * np.pi * fc * d * np.sin(theta)[..., None] * n / SPEED_OF_LIGHT
    return np.exp(phase)


def generate_channel(
    geom: NetworkGeometry, config: SystemConfig, rng: np.random.Generator
) -> ChannelSet:
    """Sparse multipath channels h_{b,k} = sum_m alpha_{bkm} a(theta_{bkm}).

    The LoS path uses ``los_exponent``; each NLoS path draws its own exponent
    uniformly from ``nlos_exponent_range`` (one draw per (b, k, m) triple).
    One ``steering_vector`` call covers every (b, k, m) and the path sum is
    one batched (1, M) @ (M, Nt) matmul, bit for bit the per-(b, k) loop
    (``channel_loop`` in ``tests/reference.py``).
    """
    B, Nt, K, M = config.num_bs, config.num_antennas, config.num_ues, config.num_paths
    if geom.path_angles.shape != (B, K, M):
        raise ValueError("geometry does not match config dimensions")

    kappas = np.empty((B, K, M))
    kappas[:, :, 0] = config.los_exponent
    if M > 1:
        lo, hi = config.nlos_exponent_range
        kappas[:, :, 1:] = rng.uniform(lo, hi, size=(B, K, M - 1))

    alpha = path_loss(
        geom.path_distances, kappas, config.pathloss_ref_db, config.ref_distance
    ).astype(complex)

    steer = steering_vector(
        geom.path_angles, Nt, config.carrier_freq, config.antenna_spacing
    )  # (B, K, M, Nt)
    paths = alpha[:, :, None, :] @ steer  # (B, K, 1, Nt): one row per (b, k)
    H = np.ascontiguousarray(np.swapaxes(paths[:, :, 0, :], 1, 2))
    return ChannelSet(H=H, alpha=alpha)


def make_scenario(config: SystemConfig, seed=None):
    """Convenience wrapper: one rng, geometry, channels. Returns (geom, channels)."""
    rng = np.random.default_rng(config.rng_seed if seed is None else seed)
    geom = place_network(config, rng)
    channels = generate_channel(geom, config, rng)
    return geom, channels
