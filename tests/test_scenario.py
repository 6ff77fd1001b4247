import json

import numpy as np
import pytest

from cellfree_dab import scenario
from cellfree_dab.scenario import (
    SystemConfig,
    default_bs_layout,
    desk_profile,
    generate_channel,
    make_scenario,
    path_loss,
    place_network,
    steering_vector,
)


def test_default_layout_four_corners():
    pos = default_bs_layout(4)
    expected = np.array([(-200, 200), (200, 200), (200, -200), (-200, -200)],
                        dtype=float)
    assert np.allclose(pos, expected, atol=1e-9)


def test_default_layout_other_counts_on_circle():
    for B in (1, 2, 3, 5, 7):
        pos = default_bs_layout(B)
        assert pos.shape == (B, 2)
        assert np.allclose(np.linalg.norm(pos, axis=1), 200 * np.sqrt(2))


def test_degenerate_disk_puts_ues_at_origin():
    cfg = SystemConfig(num_bs=4, num_antennas=2, num_ues=3, ue_area_radius=0.0)
    geom = place_network(cfg, np.random.default_rng(0))
    assert np.allclose(geom.ue_positions, 0.0)
    assert np.allclose(geom.path_distances[:, :, 0], 200 * np.sqrt(2))


def test_geometry_determinism():
    cfg = desk_profile(rng_seed=123)
    g1 = place_network(cfg, np.random.default_rng(123))
    g2 = place_network(cfg, np.random.default_rng(123))
    assert np.array_equal(g1.ue_positions, g2.ue_positions)
    assert np.array_equal(g1.path_angles, g2.path_angles)
    assert np.array_equal(g1.path_distances, g2.path_distances)


def test_geometry_invariants():
    cfg = desk_profile(rng_seed=5, num_bs=3)
    geom = place_network(cfg, np.random.default_rng(5))
    assert np.all(geom.path_distances > 0)
    assert np.all(np.abs(geom.path_angles) <= np.pi / 2 + 1e-12)
    # LoS distance equals the Euclidean BS-UE distance
    for b in range(3):
        for k in range(cfg.num_ues):
            d = np.linalg.norm(geom.ue_positions[k] - geom.bs_positions[b])
            assert geom.path_distances[b, k, 0] == pytest.approx(d)
    if cfg.num_paths > 1:
        nlos = geom.path_distances[:, :, 1:]
        assert np.all((nlos >= 200.0) & (nlos <= 400.0))


def test_path_loss_values():
    assert path_loss(1.0, 2.5, 30.0, 1.0) == pytest.approx(1e-3)
    assert path_loss(100.0, 2.5, 30.0, 1.0) == pytest.approx(1e-3 * 100 ** -2.5)
    assert path_loss(100.0, 2.5, 30.0, 1.0) == pytest.approx(1e-8)
    assert path_loss(123.0, 0.0, 30.0, 1.0) == pytest.approx(1e-3)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.5, 30.0, 1.0)
    with pytest.raises(ValueError):
        path_loss(-1.0, 2.5, 30.0, 1.0)


def test_steering_vector_broadside_and_single_antenna():
    assert np.allclose(steering_vector(0.0, 8, 28e9, 0.005), np.ones(8))
    assert np.allclose(steering_vector(0.7, 1, 28e9, 0.005), [1.0])


def test_steering_vector_endfire_half_wavelength():
    fc = 28e9
    lam = scenario.SPEED_OF_LIGHT / fc
    a = steering_vector(np.pi / 2, 6, fc, lam / 2)
    expected = np.array([(-1.0 + 0j) ** n for n in range(6)])
    assert np.allclose(a, expected)


def test_single_path_channel_structure():
    cfg = SystemConfig(num_bs=2, num_antennas=4, num_ues=2, num_paths=1,
                       rng_seed=7)
    geom = place_network(cfg, np.random.default_rng(7))
    geom.path_angles[:] = 0.0
    ch = generate_channel(geom, cfg, np.random.default_rng(8))
    # broadside single path: all entries equal the path gain
    for b in range(2):
        for k in range(2):
            col = ch.H[b][:, k]
            assert np.allclose(col, col[0])
            assert np.allclose(np.abs(col), np.abs(ch.alpha[b, k, 0]))


def test_single_path_norm_follows_pathloss_law():
    cfg = SystemConfig(num_bs=1, num_antennas=4, num_ues=1, num_paths=1,
                       rng_seed=3)
    geom = place_network(cfg, np.random.default_rng(3))
    ch1 = generate_channel(geom, cfg, np.random.default_rng(0))
    geom.path_distances = geom.path_distances * 2.0
    ch2 = generate_channel(geom, cfg, np.random.default_rng(0))
    kappa = cfg.los_exponent
    ratio = np.linalg.norm(ch2.H) / np.linalg.norm(ch1.H)
    assert ratio == pytest.approx(2.0 ** (-kappa), rel=1e-12)


def test_channel_determinism():
    cfg = desk_profile(rng_seed=11)
    _, ch1 = make_scenario(cfg)
    _, ch2 = make_scenario(cfg)
    assert np.array_equal(ch1.H, ch2.H)
    assert np.array_equal(ch1.alpha, ch2.alpha)


def test_config_json_roundtrip():
    cfg = desk_profile(rng_seed=42, power_budget=2.5)
    doc = cfg.to_json()
    back = SystemConfig.from_json(doc)
    assert back.to_json() == doc
    parsed = json.loads(doc)
    assert parsed["num_bs"] == 2 and parsed["rng_seed"] == 42


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_bs=0)
    with pytest.raises(ValueError):
        SystemConfig(power_budget=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(sigma2=0.0)
    # non-finite numbers would otherwise fail deep inside a solve, and a
    # non-positive carrier gives a negative or undefined antenna spacing
    for bad in (dict(power_budget=np.nan), dict(power_budget=np.inf),
                dict(sigma2=np.nan), dict(carrier_freq=-1.0),
                dict(carrier_freq=0.0), dict(carrier_freq=np.nan),
                dict(antenna_spacing=0.0), dict(antenna_spacing=-0.005)):
        with pytest.raises(ValueError):
            desk_profile(**bad)


@pytest.mark.parametrize("field", ["num_bs", "num_antennas", "num_ues",
                                   "num_paths"])
def test_config_counts_must_be_whole(field):
    # checked before sigma2 is broadcast to num_ues entries, so a bad count
    # is named instead of surfacing as a numpy broadcast error
    for bad in (2.5, 0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: bad})
    assert getattr(SystemConfig(**{field: np.int64(2)}), field) == 2


def test_config_rng_seed_must_be_nonnegative_integer():
    # 1.5 used to run as seed 1 (trial_seed truncates it) and -3 to fail
    # inside the first solve with a numpy message that named no field
    for bad in (1.5, -3, True, 2.0, "2"):
        with pytest.raises(ValueError, match="rng_seed"):
            desk_profile(rng_seed=bad)
    assert desk_profile(rng_seed=0).rng_seed == 0
    assert desk_profile(rng_seed=np.uint32(2**32 - 1)).rng_seed == 2**32 - 1


def test_config_sigma2_length_must_match_num_ues():
    with pytest.raises(ValueError, match="sigma2"):
        SystemConfig(num_ues=3, sigma2=[1e-18, 1e-18])
    cfg = SystemConfig(num_ues=3, sigma2=[1e-18, 2e-18, 3e-18])
    assert cfg.sigma2.tolist() == [1e-18, 2e-18, 3e-18]


def test_default_antenna_spacing_is_half_wavelength():
    cfg = SystemConfig(carrier_freq=28e9)
    assert cfg.antenna_spacing == pytest.approx(
        scenario.SPEED_OF_LIGHT / 28e9 / 2
    )
