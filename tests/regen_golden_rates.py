"""Rewrite ``golden_rates.json`` from the current solvers and list what moved.

Run from the repository root::

    python tests/regen_golden_rates.py

It runs ``test_acceptance.py::test_golden_rates`` with
``CELLFREE_DAB_REGEN_GOLDEN`` set, which writes the file and skips the
comparison, then prints every case that moved against the previous file and
the largest relative move. A rewrite changes what Tier-1 checks, so the change
that makes one lists those moves.
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_rates.json"


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    os.environ["CELLFREE_DAB_REGEN_GOLDEN"] = "1"
    code = pytest.main(["-q", "-p", "no:cacheprovider", "-rs",
                        f"{HERE / 'test_acceptance.py'}::test_golden_rates"])
    if code != pytest.ExitCode.OK:
        return int(code)
    new = json.loads(GOLDEN.read_text())
    largest = 0.0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a != b:
            print(f"moved {key}: {a} -> {b}")
            if a and b:
                largest = max(largest, abs(b["sum_rate"] - a["sum_rate"])
                              / abs(a["sum_rate"]))
    print(f"{len(new)} cases, largest relative rate move {largest:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
