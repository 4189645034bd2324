#!/usr/bin/env python3
"""Time the counting kernels across a range of sizes.

recurrence: one count c(n) by Bostan-Mori halving, O(log n) polynomial
products, each one Kronecker-packed big-int multiply; on `upto:3` up to
n = 10^6 and on the wide denominator of `upto:1000`. series: the first
n + 1 terms of N/D term by term (extend_series), O(n*r) for r nonzero lags
of D, which `table` and the weak counts use. det: column 0 of the
Hessenberg charpoly table, n + 1 cells of one addition per nonzero head
lag plus one for the band's constant tail (a running sum), so O(n)
additions for an unbounded alphabet. charpoly: the whole table, O(n^2)
such cells. minors: the weak count with six zeros as the sum of order-n
minors of the order-(n+6) matrix, a table cut to (n+1) * 7 cells. conv:
weak counts with two zeros as the series of N^3 / D^3, O(n * 3 deg D).
brute: the brute-force oracle, one tally per weak sequence in the grid,
so 2^n tallies for count_compositions_brute(n) on `all` (the weak table
with no zeros) and more for weak_brute_table(n, k), which visits every
sequence with sum <= n and at most k zeros; its table cache is cleared
before every run.

One line per point: the median seconds of 5 timed runs, the tracemalloc
peak of one more run, and the bit length of the computed value
(the last term of a series, the constant coefficient of a charpoly, the
grid's corner cell of a brute table) as a sanity check: c(10^6) on
`upto:3` has 879146 bits.
"""

import argparse
import statistics
import sys
import time
import tracemalloc

from compcount import enumeration
from compcount.cli import parse_alphabet
from compcount.enumeration import count_compositions_brute, weak_brute_table
from compcount.hessenberg import build_matrix, charpoly, det_hessenberg
from compcount.recurrence import count_compositions, extend_series
from compcount.weakforms import count_weak_convolution, count_weak_minor_sum

RUNS = 5
POINTS = {
    "recurrence": (("upto:3", 10**4), ("upto:3", 10**5), ("upto:3", 10**6),
                   ("upto:1000", 5000)),
    "series": (("all", 5000), ("all", 10000), ("all", 20000), ("upto:20", 10000)),
    "det": (("all", 10000), ("all", 20000), ("all", 40000)),
    "charpoly": (("all", 250), ("all", 500), ("all", 1000)),
    "minors": (("all", 1000), ("all", 5000), ("all", 10000)),
    "conv": (("all", 100), ("all", 250), ("all", 500)),
    "brute": (("all", 16), ("all", 18), ("all", 20), ("all", (10, 3)), ("all", (11, 3)),
              ("all", (12, 3))),
}


def _brute(size, alphabet):
    enumeration._weak_table.cache_clear()
    if isinstance(size, int):
        return count_compositions_brute(size, alphabet)
    return weak_brute_table(*size, alphabet)[size[0]][size[1]]


KERNELS = {
    "recurrence": lambda n, a: count_compositions(n, a),
    "series": lambda n, a: extend_series([], *a.generating_function(n + 1), n + 1)[n],
    "det": lambda n, a: det_hessenberg(build_matrix(a, n)),
    "charpoly": lambda n, a: charpoly(build_matrix(a, n)).coefficient(0),
    "minors": lambda n, a: count_weak_minor_sum(n, 6, a),
    "conv": lambda n, a: count_weak_convolution(n, 2, a),
    "brute": _brute,
}


def measure(kernel, size, alphabet):
    """(median seconds of RUNS runs, tracemalloc peak in bytes, value)."""
    seconds = []
    for _ in range(RUNS):
        started = time.perf_counter()
        kernel(size, alphabet)
        seconds.append(time.perf_counter() - started)
    tracemalloc.start()
    try:
        value = kernel(size, alphabet)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(POINTS) + ["all"], default="all")
    args = parser.parse_args(argv)

    suites = sorted(POINTS) if args.suite == "all" else [args.suite]
    for suite in suites:
        for spec, size in POINTS[suite]:
            seconds, peak, value = measure(KERNELS[suite], size, parse_alphabet(spec))
            point = f"n={size}" if isinstance(size, int) else "n={} k={}".format(*size)
            print(f"suite={suite} alphabet={spec} {point} median_s={seconds:.4f}"
                  f" peak_mb={peak / 2**20:.2f} bits={value.bit_length()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
