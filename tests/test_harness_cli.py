import csv
import json
import threading

import numpy as np
import pytest

from cellfree_dab.central_solver import run_central
from cellfree_dab.cli import _parse_values, build_parser, cli_main
from cellfree_dab.common import SolverOptions
from cellfree_dab.harness import (
    ExperimentSpec,
    config_for_value,
    dbm_to_watt,
    run_beampattern,
    run_experiment,
    trial_seed,
)
from cellfree_dab.pa_model import PaModel
from cellfree_dab.ring_solver import run_ring
from cellfree_dab.scenario import desk_profile, make_scenario
from cellfree_dab.star_solver import run_star

FAST_OPTS = SolverOptions(max_outer=3, tol=0.0)


def test_dbm_conversion():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(38.0) == pytest.approx(10 ** 0.8)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)


def test_parse_values():
    assert _parse_values("20:2:44") == tuple(float(v) for v in range(20, 45, 2))
    assert len(_parse_values("20:2:44")) == 13
    assert _parse_values("1,2.5,7") == (1.0, 2.5, 7.0)
    with pytest.raises(ValueError, match="empty"):
        _parse_values("44:4:8")
    with pytest.raises(ValueError, match="finite"):
        _parse_values("0:1:inf")


def test_config_for_value():
    base = desk_profile()
    cfg = config_for_value(base, "pt", 38.0)
    assert cfg.power_budget == pytest.approx(dbm_to_watt(38.0))
    cfg = config_for_value(base, "bs", 3)
    assert cfg.num_bs == 3
    cfg = config_for_value(base, "nt", 8)
    assert cfg.num_antennas == 8

    # every field the value does not name is carried over as it is
    base = desk_profile(sigma2=[2e-23, 3e-23], carrier_freq=60e9,
                        bs_positions=[(-50.0, 0.0), (50.0, 10.0)])
    cfg = config_for_value(base, "pt", 20.0)
    assert cfg.power_budget == dbm_to_watt(20.0)
    assert cfg.sigma2.tolist() == [2e-23, 3e-23]
    assert cfg.carrier_freq == 60e9
    assert cfg.antenna_spacing == base.antenna_spacing
    assert cfg.bs_positions == [(-50.0, 0.0), (50.0, 10.0)]
    assert config_for_value(base, "bs", 3).bs_positions is None
    assert base.power_budget == desk_profile().power_budget


def test_trial_seeds_distinct_and_stable():
    s0 = trial_seed(7, 0)
    s1 = trial_seed(7, 1)
    assert s0.entropy != s1.entropy
    assert np.random.default_rng(s0).integers(1 << 30) == np.random.default_rng(
        trial_seed(7, 0)
    ).integers(1 << 30)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(solvers=("mesh",))
    with pytest.raises(ValueError):
        ExperimentSpec(sweep_var="pt", sweep_values=(3.0, 2.0))
    with pytest.raises(ValueError):
        ExperimentSpec(sweep_var="foo", sweep_values=(1.0,))
    # trials=2.5 used to pass and die in range() after the output directory
    # was made; trials=True ran one trial
    for trials in (2.5, True, 1.0, "2", None):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec(trials=trials)
    assert type(ExperimentSpec(trials=np.int64(2)).trials) is int


@pytest.mark.parametrize("field,value", [
    ("max_outer", 0), ("max_outer", 2.5), ("max_outer", True),
    ("tol", np.nan), ("tol", np.inf), ("tol", -1e-4),
    ("varrho", np.nan), ("varrho", np.inf), ("varrho", 0.0)])
def test_solver_options_reject_unusable_values(field, value):
    # NaN, inf and fractional values used to pass: tol=nan silently ran
    # every pass, varrho=inf ended in a LinAlgError, varrho=nan in an FP
    # error and max_outer=2.5 in a TypeError
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_run_experiment_deterministic(tmp_path):
    spec = dict(
        scenario=desk_profile(rng_seed=3),
        solvers=("ring",),
        modes=("DAB",),
        trials=2,
        opts=FAST_OPTS,
    )
    m1 = run_experiment(ExperimentSpec(output_dir=tmp_path / "a", **spec))
    m2 = run_experiment(ExperimentSpec(output_dir=tmp_path / "b", **spec))
    for name in m1["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    assert m1["config_sha256"] == m2["config_sha256"]
    doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert doc["config_sha256"] == m1["config_sha256"]
    assert doc["seeds"] == [[3, 0], [3, 1]]


def test_run_experiment_trace_schema(tmp_path):
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=1), solvers=("ring", "star"),
                          modes=("DAB",), trials=1, output_dir=tmp_path,
                          opts=FAST_OPTS)
    run_experiment(spec)
    ring = (tmp_path / "trace_ring_DAB_trial0.csv").read_text().splitlines()
    assert ring[0] == ("visit,bs,surrogate_objective,sum_rate,"
                       "penalty_residual,exchanged_complex_values_cum")
    star = (tmp_path / "trace_star_DAB_trial0.csv").read_text().splitlines()
    assert star[0] == "iter,sum_rate,consensus_residual,download_cum,upload_cum"


def test_sweep_schema(tmp_path):
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2), solvers=("central",),
                          modes=("DUB", "IDEAL"), sweep_var="pt",
                          sweep_values=(30.0, 38.0), trials=2,
                          output_dir=tmp_path, opts=FAST_OPTS)
    run_experiment(spec)
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == ("value,solver,mode,trial,sum_rate,min_sindr,"
                       "iterations,converged,status")
    assert len(lines) == 1 + 2 * 1 * 2 * 2  # values x solvers x modes x trials


def test_beampattern_outputs(tmp_path):
    cfg = desk_profile(rng_seed=0)
    result = run_beampattern(cfg, PaModel.reference(), FAST_OPTS, tmp_path,
                             solver="ring", modes=("DAB",))
    lines = (tmp_path / "pattern_ring_DAB.csv").read_text().splitlines()
    assert lines[0] == "angle_deg,bs,power_db,power_db_peak_norm"
    assert len(lines) == 1 + cfg.num_bs * 721


def test_beampattern_solves_each_design_once(tmp_path, monkeypatch):
    """DUB and IDEAL share one design solve, and every pattern file is byte
    for byte the one a single-mode call writes."""
    from cellfree_dab import harness

    cfg = desk_profile(rng_seed=0)
    modes = ("IDEAL", "DAB", "DUB")
    for tag in modes:
        run_beampattern(cfg, PaModel.reference(), FAST_OPTS, tmp_path / tag,
                        solver="ring", modes=(tag,))
    real, calls = harness.run_solver, []

    def counted(*args):
        calls.append(args[3].tag)
        return real(*args)

    monkeypatch.setattr(harness, "run_solver", counted)
    result = run_beampattern(cfg, PaModel.reference(), FAST_OPTS,
                             tmp_path / "all", solver="ring", modes=modes)
    assert calls == ["IDEAL", "DAB"]
    assert result["files"] == [f"pattern_ring_{tag}.csv" for tag in modes]
    for tag in modes:
        name = f"pattern_ring_{tag}.csv"
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / tag / name).read_bytes()), tag


def test_solver_abort_recorded_and_run_continues(tmp_path, monkeypatch):
    from cellfree_dab import harness

    real = harness.run_solver

    def flaky(name, channels, config, mode, opts):
        if mode.tag == "DUB":
            raise RuntimeError("synthetic abort")
        return real(name, channels, config, mode, opts)

    monkeypatch.setattr(harness, "run_solver", flaky)
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=4),
                          solvers=("central",), modes=("DAB", "DUB"),
                          trials=1, output_dir=tmp_path, opts=FAST_OPTS)
    run_experiment(spec)
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    statuses = sorted(line.split(",")[-1] for line in lines[1:])
    assert statuses[0] == "error: synthetic abort"
    assert statuses[1] == "ok"


def test_linalg_error_recorded_and_run_continues(tmp_path, monkeypatch):
    from cellfree_dab import harness

    real = harness.run_solver

    def flaky(name, channels, config, mode, opts):
        if name == "star" and mode.tag == "DAB":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(name, channels, config, mode, opts)

    monkeypatch.setattr(harness, "run_solver", flaky)
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=4),
                          solvers=("ring", "star"), modes=("DAB", "DUB"),
                          trials=1, output_dir=tmp_path, opts=FAST_OPTS)
    run_experiment(spec)
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    rows = {tuple(line.split(",")[1:3]): line.split(",")[-1] for line in lines[1:]}
    assert rows.pop(("star", "DAB")) == "error: Eigenvalues did not converge"
    assert sorted(rows.values()) == ["ok", "ok", "ok"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # expected overflow
@pytest.mark.parametrize("run", [run_ring, run_star, run_central],
                         ids=["ring", "star", "central"])
def test_huge_budget_raises_runtime_error(run):
    # at 1100 dBm (1e107 W) every start-point candidate scores a NaN rate
    cfg = desk_profile(rng_seed=1, power_budget=dbm_to_watt(1100.0))
    _, ch = make_scenario(cfg)
    with pytest.raises(RuntimeError, match="Pt="):
        run(ch, cfg, PaModel.reference())


def test_tasks_run_inline_in_grid_order(tmp_path, monkeypatch):
    from cellfree_dab import harness

    real = harness._one_task
    calls = []

    def one_task(spec, value, solver, tag, trial):
        calls.append((threading.get_ident(), value, solver, tag, trial))
        return real(spec, value, solver, tag, trial)

    monkeypatch.setattr(harness, "_one_task", one_task)
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2),
                          solvers=("star", "central"), modes=("DUB",),
                          sweep_var="pt", sweep_values=(30.0, 38.0), trials=2,
                          output_dir=tmp_path, opts=FAST_OPTS)
    run_experiment(spec)
    assert {c[0] for c in calls} == {threading.get_ident()}
    assert [c[1:] for c in calls] == [
        (value, solver, "DUB", trial) for value in (30.0, 38.0)
        for solver in ("star", "central") for trial in (0, 1)]


def _count_draws(monkeypatch):
    """Count make_scenario calls (their num_bs) and config_for_value calls."""
    from cellfree_dab import harness, scenario

    draws, configs = [], []
    real_make, real_config = scenario.make_scenario, harness.config_for_value

    def make_scenario(config, seed=None):
        draws.append(config.num_bs)
        return real_make(config, seed=seed)

    def config_for_value(base, var, value):
        configs.append(value)
        return real_config(base, var, value)

    monkeypatch.setattr(scenario, "make_scenario", make_scenario)
    monkeypatch.setattr(harness, "config_for_value", config_for_value)
    return draws, configs


def test_each_trial_is_drawn_once(tmp_path, monkeypatch):
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2), sweep_var="pt",
                          sweep_values=(30.0, 38.0), trials=2,
                          output_dir=tmp_path, opts=SolverOptions(max_outer=1))
    draws, configs = _count_draws(monkeypatch)
    run_experiment(spec)
    # 3 solvers x 3 modes share each (value, trial): 4 draws, not 36
    assert len(draws) == 4
    assert configs == [30.0, 38.0]


def test_shape_sweep_draws_each_value_with_its_shape(tmp_path, monkeypatch):
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2),
                          solvers=("ring", "central"), modes=("DAB", "DUB"),
                          sweep_var="bs", sweep_values=(1, 2), trials=2,
                          output_dir=tmp_path, opts=FAST_OPTS)
    draws, _ = _count_draws(monkeypatch)
    run_experiment(spec)
    assert draws == [1, 1, 2, 2]
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert all(row["status"] == "ok" for row in csv.DictReader(fh))


def test_rerun_after_new_scenario_draws_again(tmp_path, monkeypatch):
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2), solvers=("ring",),
                          modes=("DAB",), trials=1, output_dir=tmp_path / "a",
                          opts=FAST_OPTS)
    draws, _ = _count_draws(monkeypatch)
    run_experiment(spec)
    first = (tmp_path / "a" / "summary.csv").read_bytes()
    spec.scenario = desk_profile(rng_seed=2, num_bs=3)
    spec.output_dir = tmp_path / "b"
    run_experiment(spec)
    assert draws == [2, 3]
    assert (tmp_path / "b" / "summary.csv").read_bytes() != first


def test_shared_channels_are_read_only(tmp_path, monkeypatch):
    from cellfree_dab import harness

    seen = []

    def writes_channels(name, channels, config, mode, opts):
        seen.append(channels)
        channels.H[0, 0, 0] = 0.0

    monkeypatch.setattr(harness, "run_solver", writes_channels)
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=2), solvers=("ring",),
                          modes=("DAB",), trials=1, output_dir=tmp_path,
                          opts=FAST_OPTS)
    with pytest.raises(ValueError, match="read-only"):
        run_experiment(spec)
    assert not seen[0].alpha.flags.writeable


def test_unexpected_error_ends_the_run_at_once(tmp_path, monkeypatch):
    from cellfree_dab import harness

    calls = []

    def broken(name, channels, config, mode, opts):
        calls.append(name)
        raise TypeError("synthetic bug")

    monkeypatch.setattr(harness, "run_solver", broken)
    spec = ExperimentSpec(scenario=desk_profile(rng_seed=4),
                          solvers=("ring", "central"), modes=("DAB",),
                          trials=2, output_dir=tmp_path, opts=FAST_OPTS)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_experiment(spec)
    assert calls == ["ring"]
    assert not (tmp_path / "summary.csv").exists()


class TestCli:
    def test_overhead_exact_output(self, capsys):
        code = cli_main(["overhead", "--K", "6", "--B", "4", "--iters", "10"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["ring 420", "star 6480"]

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_no_subcommand_exits_1(self):
        assert cli_main([]) == 1

    def test_trials_only_where_trials_run(self, capsys):
        # beampattern always solves trial 0, so it takes no --trials
        assert cli_main(["beampattern", "--trials", "3"]) == 1
        assert "unrecognized arguments: --trials" in capsys.readouterr().err
        parser = build_parser()
        for argv in (["convergence", "--trials", "3"],
                     ["sweep", "--var", "pt", "--values", "8", "--trials", "3"]):
            assert parser.parse_args(argv).trials == 3

    def test_bad_args_exit_1(self):
        assert cli_main(["overhead", "--K", "6"]) == 1
        assert cli_main(["sweep", "--var", "volume", "--values", "1:1:3"]) == 1

    @pytest.mark.parametrize("var,values", [("bs", "2.5"), ("nt", "4,4.5"),
                                            ("bs", "1:0.5:2"), ("nt", "inf")])
    def test_fractional_count_exits_1(self, var, values, tmp_path, capsys):
        code = cli_main(["sweep", "--var", var, "--values", values,
                         "--trials", "1", "--solver", "ring", "--mode", "DAB",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "whole numbers" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("var,values,bad", [
        ("pt", "8,44,nan", "nan"), ("pt", "8,1e6", "1000000.0"),
        ("bs", "0,2", "0"), ("nt", "2,4,0", "0")])
    def test_bad_sweep_value_exits_1_before_any_solve(self, var, values, bad,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        from cellfree_dab import harness

        calls = []

        def counted(name, channels, config, mode, opts):
            calls.append(name)
            raise RuntimeError("no solve expected")

        monkeypatch.setattr(harness, "run_solver", counted)
        code = cli_main(["sweep", "--var", var, "--values", values,
                         "--trials", "1", "--solver", "ring", "--mode", "DAB",
                         "--out", str(tmp_path)])
        assert code == 1
        assert f"error: sweep value {bad}:" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "summary.csv").exists()

    def test_sweep_runs(self, tmp_path):
        code = cli_main([
            "sweep", "--var", "pt", "--values", "30,38", "--trials", "1",
            "--solver", "central", "--mode", "DUB", "--seed", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # expected overflow
    def test_sweep_huge_budget_fails_only_its_rows(self, tmp_path):
        code = cli_main([
            "sweep", "--var", "pt", "--values", "8,1100", "--mode", "DAB",
            "--trials", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3 * 2  # values x solvers x trials
        for row in rows:
            if float(row["value"]) == 8.0:
                assert row["status"] == "ok", row
            else:
                assert row["status"].startswith("error:"), row

    @pytest.mark.parametrize("field,value", [
        ("num_ues", 2.5), ("num_ues", 0), ("num_bs", True), ("num_paths", 2.0),
        ("sigma2", [1e-23, 1e-23, 1e-23]), ("rng_seed", 1.5),
        ("rng_seed", -3)])
    def test_config_with_bad_count_exits_1(self, field, value, tmp_path, capsys):
        doc = json.loads(desk_profile().to_json())
        doc[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = cli_main(["sweep", "--var", "pt", "--values", "30",
                         "--config", str(cfg_path), "--trials", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert not (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.parametrize("doc,field", [
        ('{"bogus": 1}', "bogus"),
        ("[1, 2]", "JSON object"),
        ('{"nlos_exponent_range": 5}', "nlos_exponent_range"),
        ('{"ref_distance": "x"}', "ref_distance"),
        ('{"nlos_exponent_range": [3.0, NaN]}', "nlos_exponent_range"),
        ('{"los_exponent": NaN}', "los_exponent"),
        ('{"ref_distance": NaN}', "ref_distance"),
        ('{"pathloss_ref_db": Infinity}', "pathloss_ref_db"),
        ('{"ue_area_radius": -5}', "ue_area_radius"),
        ('{"num_bs": 2, "bs_positions": [[0.0, 0.0]]}', "bs_positions"),
        ('{"sigma2": {}}', "sigma2"), ('{"sigma2": -1}', "sigma2")])
    def test_malformed_config_exits_1_naming_the_field(self, doc, field,
                                                        tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        code = cli_main(["convergence", "--config", str(cfg_path),
                         "--trials", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and field in line
                   for line in err.splitlines()), err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_config_roundtrip_through_cli(self, tmp_path):
        cfg = desk_profile(rng_seed=9)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        code = cli_main([
            "convergence", "--config", str(cfg_path), "--trials", "1",
            "--solver", "ring", "--mode", "DAB", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert (tmp_path / "o" / "manifest.json").exists()
