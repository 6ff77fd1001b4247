#!/usr/bin/env python3
"""Compare the per-solve sum rates of two ``run.py --rates-out`` files.

    python3 perfbench/compare.py before.json after.json

Cases are keyed by workload, seed, scenario (or sweep, power and trial),
solver and mode. Prints the number of shared cases, the cases found in only
one file, and the largest relative difference of the design-amplifier rate
(``report.sum_rate``) and of the evaluation-amplifier rate. Exits 1 when a
difference exceeds ``RATE_TOL`` or the files share no case.
"""

from __future__ import annotations

import argparse
import json
import sys

# The ROADMAP's rule for speed-ups: no per-solve rate may move by more.
RATE_TOL = 1e-9


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    prefix = f"{doc['workload']}/seed{doc['seed']}/"
    return {prefix + key: rates for key, rates in doc["rates"].items()}


def rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(before, after):
    """(shared keys, keys in one file only, max rel diff per rate, worst key)."""
    shared = sorted(before.keys() & after.keys())
    only = sorted(before.keys() ^ after.keys())
    worst = [0.0, 0.0]
    worst_key = None
    for key in shared:
        for i in range(2):
            d = rel_diff(before[key][i], after[key][i])
            if d > worst[i]:
                worst[i] = d
                worst_key = key
    return shared, only, worst, worst_key


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    shared, only, worst, worst_key = compare(load(args.before), load(args.after))
    print(f"shared cases: {len(shared)}; in one file only: {len(only)}")
    where = f" (at {worst_key})" if worst_key else ""
    print(f"max relative difference: design rate {worst[0]:.3e}, "
          f"evaluation rate {worst[1]:.3e}{where}")
    ok = bool(shared) and max(worst) <= RATE_TOL
    print("rates match" if ok else f"rates differ by more than {RATE_TOL:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
