#!/usr/bin/env python3
"""Time the three fast counting kernels across a range of sizes.

recurrence: prefix evaluation of the counting recurrence (O(n*r) for r
nonzero lags of the denominator D; r = 1 or 2 for unbounded alphabets).
det: column 0 of the Hessenberg charpoly table, O(n * nonzero band
entries) exact additions. conv: weak counts with two zeros as the series
of N^3 / D^3, O(n * 3 deg D). One `suite n seconds digits` line per
point; digits of the computed value double as a sanity check (the
n=10000 recurrence count has 3010 digits).
"""

import argparse
import sys
import time

from compcount.alphabet import PartAlphabet
from compcount.hessenberg import build_matrix, det_hessenberg
from compcount.recurrence import count_compositions
from compcount.weakforms import count_weak_convolution

SIZES = {
    "recurrence": (1000, 5000, 10000),
    "det": (200, 500, 1000),
    "conv": (100, 250, 500),
}

KERNELS = {
    "recurrence": lambda n, a: count_compositions(n, a),
    "det": lambda n, a: det_hessenberg(build_matrix(a, n)),
    "conv": lambda n, a: count_weak_convolution(n, 2, a),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SIZES) + ["all"], default="all")
    args = parser.parse_args(argv)

    suites = sorted(SIZES) if args.suite == "all" else [args.suite]
    alphabet = PartAlphabet.at_least(1)
    for suite in suites:
        for n in SIZES[suite]:
            started = time.perf_counter()
            value = KERNELS[suite](n, alphabet)
            elapsed = time.perf_counter() - started
            print(f"suite={suite} n={n} seconds={elapsed:.3f} digits={len(str(value))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
