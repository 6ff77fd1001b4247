"""Print SHA-256 digests of solver outputs, to diff two versions of the code.

Usage::

    PYTHONPATH=src python tests/solve_digests.py > digests.txt

Each line names one solve (shape, solver, mode) and digests its W, the repr of
its sum rate, its trace, its counters and its diagnostics. The reprs keep the
value types, so a float that turns into a numpy scalar shows too. Each shape
first gets one ``draw`` line: the digests of its scenario's four geometry
arrays (station and user positions, path angles and distances), its channel
``H`` and its path gains ``alpha``, so a moved draw shows on its own line.
Then one ``scan`` line: the digest of the start point
(``common.initial_beamformers`` on the normalized channel, as the solvers call
it) under each design amplifier, so a change to the scan alone shows on its
own line. Run it on two checkouts and ``diff`` the outputs: a refactor that
claims bit-for-bit results must print the same lines. The shapes are the desk
profile (seeds 0-5, at 8 and 44 dBm), the paper's full profile, the 16-station
network and the 64-antenna, 12-UE array. After the solves it prints one line
per file that ``cellfree-dab convergence --trials 2``, ``cellfree-dab sweep
--var pt --values 8,44 --trials 2`` and ``cellfree-dab sweep --var bs --values
1,2 --trials 2`` (a sweep whose network shape changes with the value) write,
with ``manifest.json`` digested without its timestamp, so one ``diff`` also
checks the CLI outputs byte for byte. The file is not a test module; pytest
does not collect it.

``--drop KEY`` (repeatable) digests the counters and diagnostics without the
named keys. A change that removes a report key shows that nothing else moved
when this script prints the same lines for the old code with ``--drop KEY``
and for the new code without it::

    PYTHONPATH=old/src python tests/solve_digests.py --drop KEY > old.txt
    PYTHONPATH=src python tests/solve_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from cellfree_dab import harness
from cellfree_dab.cli import cli_main
from cellfree_dab.common import (SolveMode, SolverOptions, channel_scale,
                                 initial_beamformers)
from cellfree_dab.pa_model import PaModel
from cellfree_dab.scenario import desk_profile, full_profile, make_scenario

SOLVERS = ("ring", "star", "central")
MODES = ("DAB", "DUB", "IDEAL")
COMMANDS = {
    "convergence": ["convergence", "--trials", "2"],
    "sweep": ["sweep", "--var", "pt", "--values", "8,44", "--trials", "2"],
    "sweep_bs": ["sweep", "--var", "bs", "--values", "1,2", "--trials", "2"],
}


def cases():
    """(name, config, options) of every digested shape."""
    for seed in range(6):
        for dbm in (8, 44):
            cfg = desk_profile(rng_seed=seed,
                               power_budget=harness.dbm_to_watt(dbm))
            yield f"desk/seed{seed}/{dbm}dBm", cfg, SolverOptions()
    yield "full/seed1", full_profile(rng_seed=1), SolverOptions()
    yield ("wide/seed1", full_profile(rng_seed=1, num_bs=16),
           SolverOptions(max_outer=4))
    yield ("large/seed1", full_profile(rng_seed=1, num_antennas=64, num_ues=12),
           SolverOptions(max_outer=2))


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = repr((data.shape, data.dtype.str)).encode() + data.tobytes()
    elif not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--drop", action="append", default=[], metavar="KEY",
                        help="leave this counter or diagnostics key out of "
                             "the digests (repeatable)")
    drop = set(parser.parse_args().drop)

    def kept(report_dict):
        return sorted((k, v) for k, v in report_dict.items() if k not in drop)

    pa = PaModel.reference()
    for name, cfg, opts in cases():
        geom, channels = make_scenario(cfg)
        print(name, "draw", *(
            f"{field}=" + digest(value) for field, value in (
                ("bs_positions", geom.bs_positions),
                ("ue_positions", geom.ue_positions),
                ("path_angles", geom.path_angles),
                ("path_distances", geom.path_distances),
                ("H", channels.H), ("alpha", channels.alpha))))
        scale = channel_scale(channels.H)
        H, sigma2 = channels.H / scale, cfg.sigma2 / scale**2
        print(name, "scan", *(
            f"{amp}=" + digest(initial_beamformers(H, cfg.power_budget, design,
                                                   sigma2))
            for amp, design in (("reference", pa), ("ideal", PaModel.ideal()))))
        for solver in SOLVERS:
            for tag in MODES:
                mode = SolveMode.from_tag(tag, pa)
                try:
                    rep = harness.run_solver(solver, channels, cfg, mode, opts)
                except (RuntimeError, np.linalg.LinAlgError) as exc:
                    print(name, solver, tag, "error:", exc)
                    continue
                print(name, solver, tag,
                      f"W={digest(np.ascontiguousarray(rep.W))}",
                      f"rate={digest(repr(rep.sum_rate))}",
                      f"iterations={rep.iterations}",
                      f"converged={rep.converged}",
                      f"trace={digest(rep.trace)}",
                      f"counters={digest(kept(rep.counters))}",
                      f"diagnostics={digest(kept(rep.diagnostics))}")

    print_file_digests()


def print_file_digests():
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*argv, "--out", tmp])
            print(f"files/{name}", f"exit={code}")
            for path in sorted(Path(tmp).iterdir()):
                data = path.read_bytes()
                if path.name == "manifest.json":
                    doc = json.loads(data)
                    doc.pop("timestamp")
                    data = json.dumps(doc, sort_keys=True).encode()
                print(f"files/{name}/{path.name}",
                      f"sha256={hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main()
