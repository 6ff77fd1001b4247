import csv
import json

import numpy as np
import pytest

from cellfree_dab.central_solver import run_central
from cellfree_dab.cli import _parse_values, cli_main
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


def test_worker_env_cap(monkeypatch):
    from cellfree_dab import harness

    monkeypatch.setenv(harness.THREADS_ENV, "2")
    assert harness._worker_count() == 2
    monkeypatch.delenv(harness.THREADS_ENV)
    assert harness._worker_count() >= 1


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
