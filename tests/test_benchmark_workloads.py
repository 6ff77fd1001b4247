"""Each benchmark workload still runs and passes its own correctness checks.

``perfbench/run.py`` reads library names that its span tracer does not
list: the harness's pool and task functions, the CLI's value parser, the
channel scale, report counters and the ``sum_rate`` trace column. A change
that breaks one of them would only show when the benchmark runs; this runs
one round of every workload under the benchmark's solve recorder and asks
its checks for no error and no violation.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["paper_full", "large_array", "wide_network",
                                  "desk_sweep"])
def test_workload_round_is_correct(name, tmp_path):
    workloads = load_workloads()
    wl = workloads.make_workload(name, 1, tmp_path)
    wl.setup()
    with workloads.Recorder() as recorder:
        extras = wl.round(recorder)
    records = recorder.take()
    assert records
    assert extras.get("problems", []) == []
    assert [(rec.key, rec.error) for rec in records if rec.error] == []
    found = {rec.key: workloads.violations(rec) for rec in records}
    assert {key: v for key, v in found.items() if v} == {}
