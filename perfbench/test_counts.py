#!/usr/bin/env python3
"""Exact-count determinism test of the serving benchmark.

The traced fresh-mixtures run replays the first 2000 requests of the request
stream in-process, so its search and aggregation counts depend only on the
seed. This test runs it twice with one seed and once with another, and
checks that the counts repeat exactly for the same seed and change with the
seed. Run from the repository root:

  python3 perfbench/test_counts.py
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNTS = (
    "bbtree.kl_evals_per_query",
    "rank.lists_per_query",
    "rank.union_items_per_query",
)


def counts(seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "fresh-mixtures", "--seed",
         str(seed), "--seconds", "2", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], f"seed {seed}: run reported incorrect answers"
    return {c: result["metrics"][c]["value"] for c in COUNTS}


def main():
    first, again, other = counts(11), counts(11), counts(12)
    for c in COUNTS:
        print(f"{c}: seed 11 {first[c]!r} / {again[c]!r}, seed 12 {other[c]!r}")
    failures = [f"{c} differs between two runs of seed 11"
                for c in COUNTS if first[c] != again[c]]
    failures += [f"{c} is the same for seeds 11 and 12"
                 for c in COUNTS if first[c] == other[c]]
    for f in failures:
        print("FAIL:", f)
    print("PASS" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
