import numpy as np
import pytest

from cellfree_dab import fp_core, metrics
from cellfree_dab.metrics import (
    BeamPattern,
    beam_pattern,
    default_angle_grid,
    evaluate,
    overhead_ring,
    overhead_star,
    sidelobe_mainlobe_ratio,
)
from cellfree_dab.pa_model import PaModel, amplify
from cellfree_dab.scenario import SPEED_OF_LIGHT, desk_profile, make_scenario, steering_vector


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_evaluate_mrt_closed_form():
    rng = np.random.default_rng(0)
    Nt, Pt, sig = 4, 2.0, 0.3
    h = rand_c(rng, Nt)
    W = (np.sqrt(Pt) * h / np.linalg.norm(h))[None, :, None]

    class Ch:
        H = h[None, :, None]

    rep = evaluate(Ch, W, PaModel.ideal(), np.array([sig]))
    assert rep.sindr[0] == pytest.approx(Pt * np.linalg.norm(h) ** 2 / sig)
    assert rep.sum_rate == pytest.approx(np.log2(1 + rep.sindr[0]))
    assert rep.per_bs_tx_power[0] == pytest.approx(Pt)


def test_evaluate_matches_fp_core_assembly():
    rng = np.random.default_rng(1)
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=4)
    _, ch = make_scenario(cfg)
    W = rand_c(rng, *ch.H.shape, scale=1e-5)
    rep = evaluate(ch, W, pa, cfg.sigma2)
    inputs = fp_core.build_metrics_inputs(ch.H, W, pa, cfg.sigma2)
    assert np.allclose(rep.sindr, fp_core.sindr(inputs))
    assert np.allclose(rep.distortion_power, inputs.psum)


def test_evaluate_is_pure():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=5)
    _, ch = make_scenario(cfg)
    rng = np.random.default_rng(2)
    W = rand_c(rng, *ch.H.shape)
    r1 = evaluate(ch, W, pa, cfg.sigma2)
    r2 = evaluate(ch, W, pa, cfg.sigma2)
    assert np.array_equal(r1.sindr, r2.sindr)
    assert r1.sum_rate == r2.sum_rate


def test_beam_pattern_peak_at_steered_angle():
    # the pattern contracts a(theta)^H against the beamformer, so the beam
    # matched to theta0 is a(theta0) itself in this convention
    Nt, fc = 8, 28e9
    d = SPEED_OF_LIGHT / fc / 2
    theta0 = 0.35
    scale = 0.8
    w = scale * steering_vector(theta0, Nt, fc, d)
    pat = beam_pattern(w[:, None], PaModel.ideal(), default_angle_grid(1441),
                       Nt, fc, d)
    peak_idx = int(np.argmax(pat.power_db))
    assert pat.angles[peak_idx] == pytest.approx(theta0, abs=np.deg2rad(0.3))
    assert 10 ** (pat.power_db[peak_idx] / 10) == pytest.approx(
        Nt ** 2 * scale ** 2, rel=1e-3
    )


def test_beam_pattern_ideal_reduces_to_array_factor():
    rng = np.random.default_rng(3)
    Nt, K, fc = 4, 2, 28e9
    d = SPEED_OF_LIGHT / fc / 2
    W = rand_c(rng, Nt, K)
    angles = default_angle_grid(181)
    pat = beam_pattern(W, PaModel.ideal(), angles, Nt, fc, d)
    A = steering_vector(angles, Nt, fc, d)
    expected = np.sum(np.abs(A.conj() @ W) ** 2, axis=1)
    assert np.allclose(10 ** (pat.power_db / 10), expected)


def test_beam_pattern_monte_carlo():
    rng = np.random.default_rng(4)
    pa = PaModel.reference()
    Nt, K, fc = 4, 2, 28e9
    d = SPEED_OF_LIGHT / fc / 2
    W = rand_c(rng, Nt, K, scale=0.7)
    angles = np.array([-0.7, -0.2, 0.1, 0.6])
    pat = beam_pattern(W, pa, angles, Nt, fc, d)
    n = 100_000
    S = rand_c(rng, K, n, scale=np.sqrt(0.5))
    Z = amplify(W @ S, pa)
    A = steering_vector(angles, Nt, fc, d)
    emp = np.mean(np.abs(A.conj() @ Z) ** 2, axis=1)
    assert np.allclose(emp, 10 ** (pat.power_db / 10), rtol=0.03)


def test_beam_pattern_mean_bounded_by_total_power():
    rng = np.random.default_rng(5)
    Nt, fc = 6, 28e9
    d = SPEED_OF_LIGHT / fc / 2
    W = rand_c(rng, Nt, 3)
    pat = beam_pattern(W, PaModel.ideal(), default_angle_grid(), Nt, fc, d)
    linear = 10 ** (pat.power_db / 10)
    assert linear.mean() <= Nt * np.linalg.norm(W) ** 2 + 1e-9


def test_peak_normalized_column():
    pat = BeamPattern(angles=np.array([0.0, 0.1]),
                      power_db=np.array([3.0, -1.0]))
    assert np.allclose(pat.power_db_peak_norm, [0.0, -4.0])


def test_sidelobe_mainlobe_ratio():
    angles = default_angle_grid(721)
    power_db = np.full(angles.size, -20.0)
    main = np.abs(angles - 0.3) <= np.deg2rad(4.0)
    power_db[main] = 0.0
    pat = BeamPattern(angles=angles, power_db=power_db)
    ratio = sidelobe_mainlobe_ratio(pat, [0.3])
    assert ratio == pytest.approx(1e-2, rel=1e-6)
    with pytest.raises(ValueError):
        sidelobe_mainlobe_ratio(pat, [0.3], halfwidth=np.pi)


def test_overhead_formulas():
    assert overhead_ring(6, 1) == 42
    assert overhead_ring(6, 10) == 420
    assert overhead_ring(6, 0) == 0
    down, up, total = overhead_star(4, 6, 1)
    assert down == 4 * (2 * 36 + 12)
    assert up == 4 * (2 * 36 + 6)
    assert total == 4 * (4 * 36 + 18) == 648
    assert overhead_star(4, 6, 10)[2] == 6480
    assert overhead_star(4, 6, 0) == (0, 0, 0)
    with pytest.raises(ValueError):
        overhead_ring(0, 1)
    with pytest.raises(ValueError):
        overhead_star(1, 1, -1)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(6)
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=7)
    _, ch = make_scenario(cfg)
    W = rand_c(rng, *ch.H.shape, scale=1e-5)
    fc, d = cfg.carrier_freq, cfg.antenna_spacing
    pats = {b: beam_pattern(W[b], pa, default_angle_grid(11), cfg.num_antennas,
                            fc, d)
            for b in range(cfg.num_bs)}
    ppath = tmp_path / "patterns.csv"
    metrics.export_pattern_csv(pats, ppath)
    lines = ppath.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,bs,power_db,power_db_peak_norm"
    assert len(lines) == 1 + cfg.num_bs * 11
