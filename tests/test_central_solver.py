import numpy as np
import pytest

from cellfree_dab import fp_core
from cellfree_dab.common import SolveMode, SolverOptions
from cellfree_dab.central_solver import CENTRAL_TRACE_COLUMNS, run_central
from cellfree_dab.pa_model import PaModel
from cellfree_dab.scenario import desk_profile, make_scenario
from reference import update_mu, update_zeta


def test_mode_constructors():
    pa = PaModel.reference()
    dab = SolveMode.dab(pa)
    assert dab.design_pa == pa and dab.eval_pa == pa
    dub = SolveMode.dub(pa)
    assert dub.design_pa.is_ideal and dub.eval_pa == pa
    ideal = SolveMode.ideal()
    assert ideal.design_pa.is_ideal and ideal.eval_pa.is_ideal
    assert SolveMode.from_tag("DUB", pa) == dub
    with pytest.raises(ValueError):
        SolveMode("BOGUS", pa, pa)
    with pytest.raises(ValueError, match="bogus"):
        SolveMode.from_tag("bogus", pa)


def test_trace_monotone_and_schema():
    pa = PaModel.reference()
    for seed in (0, 1):
        cfg = desk_profile(rng_seed=seed)
        _, ch = make_scenario(cfg)
        rep = run_central(ch, cfg, pa, SolverOptions(max_outer=20, tol=0.0))
        assert rep.trace_columns == CENTRAL_TRACE_COLUMNS
        B = cfg.num_bs
        outer_rates = [row[3] for row in rep.trace][B - 1::B]
        for a, b in zip(outer_rates, outer_rates[1:]):
            assert b >= a - 1e-6


def test_ideal_fp_fixed_point_residuals():
    # moderate SNR so the alternation reaches its fixed point exactly; at
    # extreme SNR the rate keeps crawling along a near-flat ridge forever
    cfg = desk_profile(rng_seed=2, sigma2=1e-18)
    _, ch = make_scenario(cfg)
    rep = run_central(ch, cfg, PaModel.ideal(),
                      SolverOptions(max_outer=300, tol=1e-12))
    inputs = fp_core.build_metrics_inputs(ch.H, rep.W, PaModel.ideal(),
                                          cfg.sigma2)
    mu_star = update_mu(inputs)
    zeta_star = update_zeta(inputs, mu_star)
    mu_res = np.abs(rep.fp.mu - mu_star).max() / max(1.0, np.abs(mu_star).max())
    zeta_res = (np.abs(rep.fp.zeta - zeta_star).max()
                / max(1e-300, np.abs(zeta_star).max()))
    assert mu_res <= 1e-8
    assert zeta_res <= 1e-8


def test_power_budgets_respected():
    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=3, power_budget=2.0)
    _, ch = make_scenario(cfg)
    rep = run_central(ch, cfg, pa, SolverOptions(max_outer=10, tol=0.0))
    powers = np.sum(np.abs(rep.W) ** 2, axis=(1, 2))
    assert np.all(powers <= 2.0 * (1 + 1e-9))


@pytest.mark.parametrize("pa, overrides, max_outer", [
    (PaModel.reference(), dict(rng_seed=4), 6),
    # the linear amplifier takes bs_contribution's distortion-free branch
    (PaModel.ideal(), dict(rng_seed=0, num_bs=1, bs_positions=[(0.0, 283.0)]), 10),
], ids=["reference-2bs", "ideal-1bs"])
def test_determinism(pa, overrides, max_outer):
    cfg = desk_profile(**overrides)
    _, ch = make_scenario(cfg)
    opts = SolverOptions(max_outer=max_outer, tol=0.0)
    r1 = run_central(ch, cfg, pa, opts)
    r2 = run_central(ch, cfg, pa, opts)
    assert np.array_equal(r1.W, r2.W)
    assert r1.sum_rate == r2.sum_rate
