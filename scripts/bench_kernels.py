#!/usr/bin/env python3
"""Time the fast counting kernels on `all` across a range of sizes.

recurrence: prefix evaluation of the counting recurrence (O(n*r) for r
nonzero lags of the denominator D; r = 1 or 2 for unbounded alphabets).
det: column 0 of the Hessenberg charpoly table, n + 1 cells of one
addition per nonzero head lag plus one for the band's constant tail (a
running sum), so O(n) additions for an unbounded alphabet. charpoly: the
whole table, O(n^2) such cells. minors: the weak count with six zeros as
the sum of order-n minors of the order-(n+6) matrix, a table cut to
(n+1) * 7 cells. conv: weak counts with two zeros as the series of
N^3 / D^3, O(n * 3 deg D). brute: the brute-force oracle, one tally per
weak sequence in the grid, so 2^n tallies for count_compositions_brute(n)
on `all` (the weak table with no zeros) and more for weak_brute_table(n,
k), which visits every sequence with sum <= n and at most k zeros. One
`suite n [k] seconds digits` line per point; digits of the computed value
(the grid's corner cell for a table) double as a sanity check (the
n=10000 recurrence count has 3010 digits).
"""

import argparse
import sys
import time

from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute, weak_brute_table
from compcount.hessenberg import build_matrix, charpoly, det_hessenberg
from compcount.recurrence import count_compositions
from compcount.weakforms import count_weak_convolution, count_weak_minor_sum

SIZES = {
    "recurrence": (1000, 5000, 10000),
    "det": (10000, 20000, 40000),
    "charpoly": (250, 500, 1000),
    "minors": (1000, 5000, 10000),
    "conv": (100, 250, 500),
    "brute": (16, 18, 20, (10, 3), (11, 3), (12, 3)),
}

KERNELS = {
    "recurrence": lambda n, a: count_compositions(n, a),
    "det": lambda n, a: det_hessenberg(build_matrix(a, n)),
    "charpoly": lambda n, a: charpoly(build_matrix(a, n)),
    "minors": lambda n, a: count_weak_minor_sum(n, 6, a),
    "conv": lambda n, a: count_weak_convolution(n, 2, a),
    "brute": lambda size, a: (
        count_compositions_brute(size, a) if isinstance(size, int)
        else weak_brute_table(*size, a)[size[0]][size[1]]
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SIZES) + ["all"], default="all")
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    suites = sorted(SIZES) if args.suite == "all" else [args.suite]
    alphabet = PartAlphabet.at_least(1)
    for suite in suites:
        for size in SIZES[suite]:
            started = time.perf_counter()
            value = KERNELS[suite](size, alphabet)
            elapsed = time.perf_counter() - started
            point = f"n={size}" if isinstance(size, int) else "n={} k={}".format(*size)
            print(f"suite={suite} {point} seconds={elapsed:.3f} digits={len(str(value))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
