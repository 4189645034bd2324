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
before every run. startup: whole `python` processes, alternated round by
round so that a drift of the machine's load falls on all of them alike: a
bare interpreter, `import argparse`, `import compcount.cli` and
`-m compcount count 5`; the gap between the first and the last is the
package's own start-up, and the gap between the last two is the count.

One line per kernel point: the median seconds of 5 timed runs, the
tracemalloc peak of one more run, and the bit length of the computed value
(the last term of a series, the constant coefficient of a charpoly, the
grid's corner cell of a brute table) as a sanity check: c(10^6) on
`upto:3` has 879146 bits. One line per start-up command: the median
seconds of STARTUP_RUNS runs, after one untimed run of each that fills the
bytecode cache.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import compcount
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
    "series": lambda n, a: extend_series(*a.generating_function(n + 1), n + 1)[n],
    "det": lambda n, a: det_hessenberg(build_matrix(a, n)),
    "charpoly": lambda n, a: charpoly(build_matrix(a, n))[0],
    "minors": lambda n, a: count_weak_minor_sum(n, 6, a),
    "conv": lambda n, a: count_weak_convolution(n, 2, a),
    "brute": _brute,
}

STARTUP_RUNS = 21
STARTUP = (
    ("pass", ("-c", "pass")),
    ("import argparse", ("-c", "import argparse")),
    ("import compcount.cli", ("-c", "import compcount.cli")),
    ("count 5", ("-m", "compcount", "count", "5")),
)


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


def measure_startup() -> dict[str, float]:
    """Median wall seconds of each STARTUP command in a fresh interpreter
    that imports this script's compcount, the commands taking turns."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(compcount.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    seconds = {name: [] for name, _ in STARTUP}
    for timed in [False] + [True] * STARTUP_RUNS:
        for name, args in STARTUP:
            started = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            if timed:
                seconds[name].append(time.perf_counter() - started)
    return {name: statistics.median(times) for name, times in seconds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(POINTS) + ["startup", "all"], default="all")
    args = parser.parse_args(argv)

    if args.suite in ("startup", "all"):
        for name, seconds in measure_startup().items():
            print(f"suite=startup command={name!r} median_s={seconds:.4f}"
                  f" runs={STARTUP_RUNS}", flush=True)
    suites = {"all": sorted(POINTS), "startup": []}.get(args.suite, [args.suite])
    for suite in suites:
        for spec, size in POINTS[suite]:
            seconds, peak, value = measure(KERNELS[suite], size, parse_alphabet(spec))
            point = f"n={size}" if isinstance(size, int) else "n={} k={}".format(*size)
            print(f"suite={suite} alphabet={spec} {point} median_s={seconds:.4f}"
                  f" peak_mb={peak / 2**20:.2f} bits={value.bit_length()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
