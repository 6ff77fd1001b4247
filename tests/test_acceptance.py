"""Acceptance suite: the twelve primary criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Desk scale means B=2, Nt=4, K=2 unless a criterion says
otherwise.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cellfree_dab import fp_core, local_solver as ls, metrics
import reference as ref
from cellfree_dab.common import SolverOptions
from cellfree_dab.central_solver import run_central
from cellfree_dab.fp_core import FpState, MetricsInputs
from cellfree_dab.pa_model import PaModel, amplify, distortion_cov
from cellfree_dab.ring_solver import run_ring
from cellfree_dab.star_solver import aggregate, run_star
from cellfree_dab.scenario import desk_profile, full_profile, make_scenario
from cellfree_dab.metrics import beam_pattern, evaluate, sidelobe_mainlobe_ratio
from reference import bussgang_gain

N_SEEDS = 20
PT_DEFAULT_DBM = 38.0
PT_HIGH_DBM = 44.0


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {desc}")


def rand_c(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def dbm(p):
    return 10.0 ** ((p - 30.0) / 10.0)


def rel_converged_within(rates, budget, tol=1e-4):
    for i in range(1, min(len(rates), budget)):
        if abs(rates[i] - rates[i - 1]) <= tol * max(1.0, abs(rates[i - 1])):
            return True
    return False


# ---------------------------------------------------------------------------
# shared solver runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def convergence_runs():
    """ring + star at the desk default power, 20 seeds."""
    pa = PaModel.reference()
    opts = SolverOptions(max_outer=30, tol=0.0)
    out = []
    for seed in range(N_SEEDS):
        cfg = desk_profile(rng_seed=seed, power_budget=dbm(PT_DEFAULT_DBM))
        _, ch = make_scenario(cfg)
        out.append({
            "cfg": cfg,
            "ring": run_ring(ch, cfg, pa, opts),
            "star": run_star(ch, cfg, pa, opts),
        })
    return out


@pytest.fixture(scope="module")
def ordering_runs():
    """All five arms at the distortion-dominant power, 20 seeds."""
    pa = PaModel.reference()
    opts = SolverOptions(max_outer=30, tol=1e-4)
    rows = []
    for seed in range(N_SEEDS):
        cfg = desk_profile(rng_seed=seed, power_budget=dbm(PT_HIGH_DBM))
        _, ch = make_scenario(cfg)
        rep_dub = run_central(ch, cfg, PaModel.ideal(), opts)
        inputs = fp_core.build_metrics_inputs(ch.H, rep_dub.W, pa, cfg.sigma2)
        interference = (np.sum(np.abs(inputs.Qsum) ** 2, axis=1)
                        - np.abs(np.diag(inputs.Qsum)) ** 2)
        rows.append({
            "ideal": evaluate(ch, run_central(ch, cfg, PaModel.ideal(), opts).W,
                              PaModel.ideal(), cfg.sigma2).sum_rate,
            "central": evaluate(ch, run_central(ch, cfg, pa, opts).W,
                                pa, cfg.sigma2).sum_rate,
            "star": evaluate(ch, run_star(ch, cfg, pa, opts).W, pa,
                             cfg.sigma2).sum_rate,
            "ring": evaluate(ch, run_ring(ch, cfg, pa, opts).W, pa,
                             cfg.sigma2).sum_rate,
            "dub": evaluate(ch, rep_dub.W, pa, cfg.sigma2).sum_rate,
            "dist_over_interf": float(np.sum(inputs.psum)
                                      / max(np.sum(interference), 1e-300)),
        })
    return rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_bussgang_monte_carlo():
    with criterion(1, "Bussgang gain within 2% and covariance within 5% "
                      "at 1e5 Gaussian symbols, 10 beamformers"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        pa = PaModel.reference()
        assert pa.beta1 == 1.0
        assert pa.beta3 == pytest.approx(-0.212 * np.exp(-2.816j))
        Nt, K, n = 4, 2, 100_000
        for _ in range(10):
            W = rand_c(rng, Nt, K, scale=0.7)
            S = rand_c(rng, K, n, scale=np.sqrt(0.5))
            X = W @ S
            Z = amplify(X, pa)
            G = bussgang_gain(W, pa)
            Czx = Z @ X.conj().T / n
            Cxx = X @ X.conj().T / n
            gain_err = (np.linalg.norm(Czx - G @ Cxx)
                        / np.linalg.norm(G @ Cxx))
            assert gain_err <= 0.02
            D = Z - G @ X
            Cd = distortion_cov(W, pa)
            cd_err = np.linalg.norm(D @ D.conj().T / n - Cd) / np.linalg.norm(Cd)
            assert cd_err <= 0.05
        assert time.monotonic() - start < 30.0


def test_criterion_02_w_step_oracle():
    with criterion(2, "closed-form w-step matches projected gradient within "
                      "1e-6 on 20 instances, power always feasible"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        pa = PaModel.reference()
        opts = SolverOptions()
        Nt, K, Pt = 3, 2, 1.0
        cases = []
        for _ in range(20):
            H = rand_c(rng, Nt, K)
            fp = FpState(mu=rng.uniform(0.1, 2.0, K),
                         zeta=rand_c(rng, K, scale=0.7))
            ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
            state = ls.state_from_beamformer(rand_c(rng, Nt, K, scale=0.5),
                                             rho=float(rng.uniform(0.5, 3.0)))
            A, C = ls.w_subproblem_terms(state, ws, pa)
            rho = state.rho
            ls.update_w(state, ws, pa, Pt)
            w = state.w
            assert np.linalg.norm(w) ** 2 <= Pt * (1 + 1e-9)
            cases.append((w, A, C, rho))

        # projected gradient, all 20 instances stacked into one iteration
        Afull = np.stack([np.kron(np.eye(K), A) for _, A, _, _ in cases])
        c = np.stack([ls.vec(C) for _, _, C, _ in cases])
        rho = np.array([r for _, _, _, r in cases])[:, None]
        x = np.zeros_like(c)
        lips = (2 * np.linalg.eigvalsh(Afull).real.max(axis=1)[:, None]
                + 8 * rho * Pt)
        for _ in range(20000):
            n2 = np.sum(np.abs(x) ** 2, axis=1, keepdims=True)
            g = 2 * (np.einsum("cij,cj->ci", Afull, x) + c) + 4 * rho * n2 * x
            x = x - g / lips
            n2 = np.sum(np.abs(x) ** 2, axis=1, keepdims=True)
            x = np.where(n2 > Pt, x * np.sqrt(Pt / n2), x)
        for (w, A, C, r), x_pg in zip(cases, x):
            obj = ref.w_subproblem_objective(w, A, C, r, Nt, K)
            obj_pg = ref.w_subproblem_objective(x_pg, A, C, r, Nt, K)
            assert obj <= obj_pg + 1e-6 * max(1.0, abs(obj_pg))
        assert time.monotonic() - start < 10.0


def test_criterion_03_r_step_stationarity():
    with criterion(3, "closed-form R-step: finite-difference gradient at the "
                      "solution and dense stationarity solve within 1e-8"):
        start = time.monotonic()
        rng = np.random.default_rng(11)
        pa = PaModel.reference()
        Nt, K = 2, 2
        N = Nt * K
        h_fd = 1e-6
        for _ in range(10):
            H = rand_c(rng, Nt, K)
            fp = FpState(mu=rng.uniform(0.1, 2.0, K),
                         zeta=rand_c(rng, K, scale=0.7))
            ws = ls.build_workspace(H, fp, Nt, K, rand_c(rng, K, K, scale=0.5))
            w = rand_c(rng, N, scale=0.7)
            rho = float(rng.uniform(0.5, 3.0))
            state = ls.state_from_beamformer(ls.unvec(w, Nt, K), rho=rho)
            lag = ls.lagged_factor(state.R)
            R = ref.expand(ls.update_R(state, ws, pa, lag))

            def obj(Rm):
                return ref.r_subproblem_objective(w, Rm, ws, pa, rho, lag)

            grad = np.zeros(2 * N * N)
            for i in range(N * N):
                pos = np.unravel_index(i, (N, N), order="F")
                for part, off in ((0, h_fd), (1, 1j * h_fd)):
                    dR = np.zeros((N, N), dtype=complex)
                    dR[pos] = off
                    grad[part * N * N + i] = (obj(R + dR) - obj(R - dR)) / (2 * h_fd)
            _, c_R = ref.build_r_system(w, ws, pa, rho, lag)
            assert np.linalg.norm(grad) <= 1e-5 * (1 + np.linalg.norm(c_R))

            R_dense = ref.solve_r_dense(w, ws, pa, rho, lag)
            assert np.abs(R - R_dense).max() <= 1e-8 * max(1.0, np.abs(R).max())
        assert time.monotonic() - start < 30.0


def test_criterion_04_lifting_matrix_chain_rule():
    with criterion(4, "gain lifting matrix reproduces the finite-difference "
                      "Jacobian of the lifted gain within 1e-6"):
        rng = np.random.default_rng(13)
        pa = PaModel.reference()
        for Nt in (2, 3):
            for K in (1, 2):
                N = Nt * K
                J = (ref.gain_lifting_matrix(Nt, K)
                     @ ref.gain_jacobian(pa, Nt, K))
                R = rand_c(rng, N, N)

                def gbar(Rm):
                    G = np.diag(ref.dense_gain_diag(Rm, pa, Nt, K))
                    return ls.vec(np.kron(np.eye(K), G))

                base = gbar(R)
                eps = 1e-6
                J_fd = np.zeros_like(J)
                for i in range(N * N):
                    dR = np.zeros(N * N, dtype=complex)
                    dR[i] = eps
                    J_fd[:, i] = (gbar(R + ls.unvec(dR, N, N)) - base) / eps
                scale = max(np.abs(J).max(), 1.0)
                assert np.abs(J - J_fd).max() <= 1e-6 * scale


def test_criterion_05_fp_equivalence():
    with criterion(5, "transformed objective equals the sum rate at the "
                      "optimal auxiliaries within 1e-9, 50 instances"):
        rng = np.random.default_rng(17)
        for _ in range(50):
            K = int(rng.integers(1, 5))
            inputs = MetricsInputs(Qsum=rand_c(rng, K, K),
                                   psum=rng.uniform(0, 0.5, K),
                                   sigma2=rng.uniform(0.1, 1.0, K))
            fp = fp_core.update_fp(inputs)
            lhs = ref.transformed_objective(inputs, fp)
            rhs = fp_core.sum_rate(inputs)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_criterion_06_monotone_convergence(convergence_runs):
    with criterion(6, "ring and star traces non-decreasing (1e-6) and "
                      "converged within 30 outer iterations on >= 18/20 seeds"):
        conv_ring = conv_star = 0
        for row in convergence_runs:
            B = row["cfg"].num_bs
            ring_rates = [r[3] for r in row["ring"].trace][B - 1::B]
            star_rates = [r[1] for r in row["star"].trace]
            for a, b in zip(ring_rates, ring_rates[1:]):
                assert b >= a - 1e-6
            for a, b in zip(star_rates, star_rates[1:]):
                assert b >= a - 1e-6
            conv_ring += rel_converged_within(ring_rates, 30)
            conv_star += rel_converged_within(star_rates, 30)
        assert conv_ring >= 18
        assert conv_star >= 18


def test_criterion_07_performance_ordering(ordering_runs):
    with criterion(7, "mean ordering IDEAL >= central >= star >= ring >= DUB "
                      "with 1% slack in the distortion-dominant regime"):
        means = {k: float(np.mean([row[k] for row in ordering_runs]))
                 for k in ("ideal", "central", "star", "ring", "dub")}
        dist_ratio = float(np.mean([row["dist_over_interf"]
                                    for row in ordering_runs]))
        assert dist_ratio >= 1.0, "chosen power is not distortion dominant"
        assert means["ideal"] >= 0.99 * means["central"], means
        assert means["central"] >= 0.99 * means["star"], means
        assert means["star"] >= 0.99 * means["ring"], means
        assert means["ring"] >= 0.99 * means["dub"], means


def test_criterion_08_dub_nonmonotone_dab_saturates():
    with criterion(8, "mean DUB sweep peaks strictly before the top power; "
                      "DAB curves flat within 0.05 bit over the last 10 dB"):
        pa = PaModel.reference()
        opts = SolverOptions(max_outer=30, tol=1e-4)
        pts = [9.0, 14.0, 19.0, 24.0, 29.0, 34.0, 39.0, 44.0]
        trials = 10
        curves = {"dub": [], "central": [], "ring": [], "star": []}
        for pt in pts:
            acc = {k: [] for k in curves}
            for seed in range(trials):
                cfg = desk_profile(rng_seed=seed, power_budget=dbm(pt))
                _, ch = make_scenario(cfg)
                acc["dub"].append(
                    evaluate(ch, run_central(ch, cfg, PaModel.ideal(), opts).W,
                             pa, cfg.sigma2).sum_rate)
                acc["central"].append(
                    evaluate(ch, run_central(ch, cfg, pa, opts).W,
                             pa, cfg.sigma2).sum_rate)
                acc["ring"].append(
                    evaluate(ch, run_ring(ch, cfg, pa, opts).W, pa,
                             cfg.sigma2).sum_rate)
                acc["star"].append(
                    evaluate(ch, run_star(ch, cfg, pa, opts).W, pa,
                             cfg.sigma2).sum_rate)
            for k in curves:
                curves[k].append(float(np.mean(acc[k])))
        # DUB: rises from the noise-limited edge, then collapses
        peak = int(np.argmax(curves["dub"]))
        assert peak < len(pts) - 1
        assert curves["dub"][peak] > curves["dub"][-1]
        # DAB: saturation, no collapse over the last decade
        i_minus_10db = pts.index(pts[-1] - 10.0)
        for k in ("central", "ring", "star"):
            assert curves[k][-1] >= curves[k][i_minus_10db] - 0.05, (k, curves)


def test_criterion_09_overhead_counters(convergence_runs, ordering_runs):
    with criterion(9, "exchange counters equal the closed-form overhead "
                      "formulas exactly for every run"):
        for row in convergence_runs:
            K, B = row["cfg"].num_ues, row["cfg"].num_bs
            ring = row["ring"]
            visits = ring.counters["visits"]
            assert (ring.counters["exchanged_complex_values"]
                    == metrics.overhead_ring(K, visits))
            star = row["star"]
            n = star.counters["iterations"]
            down, up, total = metrics.overhead_star(B, K, n)
            assert star.counters["download_values"] == down
            assert star.counters["upload_values"] == up
            assert star.counters["total_values"] == total


def test_criterion_10_ring_state_consistency(convergence_runs):
    with criterion(10, "token aggregates equal the from-scratch recomputation "
                       "within 1e-8 after every visit"):
        for row in convergence_runs:
            assert row["ring"].diagnostics["consistency_error_max"] <= 1e-8


def test_criterion_11_star_consensus(convergence_runs):
    with criterion(11, "final consensus residual <= 1e-3 on >= 18/20 seeds; "
                       "aggregation matches a dense solve within 1e-8"):
        good = sum(row["star"].diagnostics["consensus_residual"] <= 1e-3
                   for row in convergence_runs)
        assert good >= 18, [row["star"].diagnostics["consensus_residual"]
                            for row in convergence_runs]

        rng = np.random.default_rng(23)
        B, K = 2, 2
        Q_L = rand_c(rng, B, K, K)
        lam = rand_c(rng, B, K * K)
        fp = FpState(mu=rng.uniform(0.1, 2, K), zeta=rand_c(rng, K))
        varrho = 5.0
        Q_C = aggregate(Q_L, lam, fp, varrho)

        dim = 2 * B * K * K

        def x_to_Q(x):
            half = B * K * K
            flat = x[:half] + 1j * x[half:]
            return np.stack([ls.unvec(flat[b * K * K:(b + 1) * K * K], K, K)
                             for b in range(B)])

        def objective(x):
            Q = x_to_Q(x)
            val = -ref.central_objective_star(list(Q), fp)
            for b in range(B):
                val += 0.5 * varrho * np.linalg.norm(
                    ls.vec(Q[b]) - ls.vec(Q_L[b]) + lam[b] / varrho) ** 2
            return val

        e = np.eye(dim)
        f0 = objective(np.zeros(dim))
        grad = np.zeros(dim)
        fs = np.zeros(dim)
        Hq = np.zeros((dim, dim))
        for i in range(dim):
            fp_v, fm = objective(e[i]), objective(-e[i])
            grad[i] = (fp_v - fm) / 2
            Hq[i, i] = fp_v + fm - 2 * f0
            fs[i] = fp_v
        for i in range(dim):
            for j in range(i + 1, dim):
                Hq[i, j] = Hq[j, i] = objective(e[i] + e[j]) - fs[i] - fs[j] + f0
        Q_ref = x_to_Q(np.linalg.solve(Hq, -grad))
        assert np.abs(Q_C - Q_ref).max() <= 1e-8 * max(1.0, np.abs(Q_ref).max())


def test_criterion_12_beam_pattern_sidelobes():
    with criterion(12, "distortion-aware patterns have no worse sidelobe-to-"
                       "mainlobe ratio than distortion-unaware on >= 8/10 seeds"):
        pa = PaModel.reference()
        opts = SolverOptions(max_outer=30, tol=1e-4)
        wins = 0
        checked = 0
        for seed in range(10):
            # Nt=16 needs a higher budget for distortion dominance
            cfg = desk_profile(rng_seed=seed, num_antennas=16,
                               power_budget=dbm(54.0))
            geom, ch = make_scenario(cfg)
            rep_dab = run_ring(ch, cfg, pa, opts)
            rep_dub = run_ring(ch, cfg, PaModel.ideal(), opts)

            inputs = fp_core.build_metrics_inputs(ch.H, rep_dub.W, pa,
                                                  cfg.sigma2)
            interference = (np.sum(np.abs(inputs.Qsum) ** 2, axis=1)
                            - np.abs(np.diag(inputs.Qsum)) ** 2)
            assert np.sum(inputs.psum) >= np.sum(interference), \
                "not distortion dominant"

            angles = metrics.default_angle_grid()
            ratios = {"dab": [], "dub": []}
            for b in range(cfg.num_bs):
                mainlobes = geom.path_angles[b, :, 0]
                for tag, rep in (("dab", rep_dab), ("dub", rep_dub)):
                    pat = beam_pattern(rep.W[b], pa, angles, cfg.num_antennas,
                                       cfg.carrier_freq, cfg.antenna_spacing)
                    ratios[tag].append(
                        sidelobe_mainlobe_ratio(pat, mainlobes))
            checked += 1
            if np.mean(ratios["dab"]) <= np.mean(ratios["dub"]):
                wins += 1
        assert checked == 10
        assert wins >= 8, f"wins={wins}"


# ---------------------------------------------------------------------------
# pinned rates
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_rates.json"
GOLDEN_REGEN_ENV = "CELLFREE_DAB_REGEN_GOLDEN"
GOLDEN_RTOL = 1e-9


def golden_cases(convergence_runs, ordering_runs):
    """Sum rate, plus the iteration count where a report is kept, per case."""
    cases = {}
    for seed, row in enumerate(convergence_runs):
        for solver in ("ring", "star"):
            rep = row[solver]
            cases[f"convergence/seed{seed:02d}/{solver}"] = {
                "sum_rate": rep.sum_rate, "iterations": rep.iterations}
    for seed, row in enumerate(ordering_runs):
        for arm in ("ideal", "central", "star", "ring", "dub"):
            cases[f"ordering/seed{seed:02d}/{arm}"] = {"sum_rate": row[arm]}
    cfg = full_profile(rng_seed=1)
    _, ch = make_scenario(cfg)
    for tag, pa in (("DAB", PaModel.reference()), ("IDEAL", PaModel.ideal())):
        for name, run in (("ring", run_ring), ("star", run_star),
                          ("central", run_central)):
            rep = run(ch, cfg, pa)
            cases[f"full_profile/seed01/{name}/{tag}"] = {
                "sum_rate": rep.sum_rate, "iterations": rep.iterations}
    return cases


def test_golden_rates(convergence_runs, ordering_runs):
    """Every pinned rate within 1e-9 relative, every iteration count exact.

    ``python tests/regen_golden_rates.py`` rewrites the file; a rewrite
    changes what this test checks.
    """
    cases = golden_cases(convergence_runs, ordering_runs)
    if os.environ.get(GOLDEN_REGEN_ENV):
        GOLDEN_PATH.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(cases) == sorted(golden)
    moved = []
    for key, want in golden.items():
        got = cases[key]
        if (abs(got["sum_rate"] - want["sum_rate"])
                > GOLDEN_RTOL * abs(want["sum_rate"])
                or got.get("iterations") != want.get("iterations")):
            moved.append(f"{key}: {got} != {want}")
    assert not moved, f"{len(moved)} of {len(golden)} cases moved:\n" + \
        "\n".join(moved)
