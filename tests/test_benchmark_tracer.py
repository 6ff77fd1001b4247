"""The benchmark's span tracer still reaches the layers it reports.

``perfbench/tracer.py`` times library calls by replacing module attributes
(``TRACED``), so a call that stops going through the patched module global
silently drops out of ``perfbench/run.py --trace 1``. This runs one short
solve per solver under the tracer and checks the spans it records.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

from cellfree_dab import SolveMode, harness
from cellfree_dab.common import SolverOptions
from cellfree_dab.pa_model import PaModel
from cellfree_dab.scenario import desk_profile, make_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_solves_record_setup_and_sweeps():
    tracer = load_tracer()
    bindings = [(importlib.import_module(f"{tracer.PACKAGE}.{module}"), attr)
                for module, attr, _ in tracer.TRACED]
    missing = [f"{m.__name__}.{a}" for m, a in bindings if not hasattr(m, a)]
    assert missing == []
    before = [getattr(m, a) for m, a in bindings]

    pa = PaModel.reference()
    cfg = desk_profile(rng_seed=0)
    _, channels = make_scenario(cfg)
    opts = SolverOptions(max_outer=1)
    t = tracer.Tracer()
    t.install()
    try:
        for solver in harness.SOLVERS:
            harness.run_solver(solver, channels, cfg, SolveMode.dab(pa), opts)
        buffers = t.drain()
    finally:
        t.restore()
    assert [getattr(m, a) for m, a in bindings] == before

    spans = [span for buf in buffers for span in buf]
    solves = {s.solve for s in spans if s.name == tracer.SOLVE_ROOT}
    assert len(solves) == len(harness.SOLVERS)
    setups = Counter(s.solve for s in spans
                     if s.name == "common.initial_beamformers")
    for solve in solves:
        assert setups[solve] == 1
    # the R-step and the diagnostics feed the per-layer R-step metrics; a
    # call that bypasses the module global would read 0 there
    for name in ("local_solver.sweep", "local_solver.update_R",
                 "local_solver.penalty_residual"):
        per_solve = Counter(s.solve for s in spans if s.name == name)
        for solve in solves:
            assert per_solve[solve] >= 1, (name, solve)

    # one stacked contribution for the initial cache, then one per visit
    # plus one per rejected attempt; no report reads the Hermitian deviation
    per_solve = {name: Counter(s.solve for s in spans if s.name == name)
                 for name in ("local_solver.sweep", "local_solver.update_w",
                              "local_solver.hermitian_deviation",
                              "local_solver.local_penalized_objective")}
    solver_of = {s.solve: s.name for s in spans
                 if s.name in ("ring_solver.run_ring", "star_solver.run_star",
                               "central_solver.run_central")}
    contributions = Counter(
        span.solve for buf in buffers for i, span in enumerate(buf)
        if span.name == "fp_core.bs_contribution"
        and not under(buf, i, "common.initial_beamformers"))
    for solve in solves:
        visits = per_solve["local_solver.sweep"][solve]
        rejected = per_solve["local_solver.update_w"][solve] - visits
        assert contributions[solve] == 1 + visits + rejected, solve
        assert per_solve["local_solver.hermitian_deviation"][solve] == 0
        # the surrogate objective once per visit, for the ring or central
        # trace row that reports it; star's trace has no such column
        star = solver_of[solve] == "star_solver.run_star"
        assert (per_solve["local_solver.local_penalized_objective"][solve]
                == (0 if star else visits)), solve


def under(buf, i, name):
    """Whether span ``i`` of a thread buffer runs inside a span ``name``."""
    parent = buf[i].parent
    while parent >= 0:
        if buf[parent].name == name:
            return True
        parent = buf[parent].parent
    return False
