#!/usr/bin/env python3
"""Time the counting kernels across a range of sizes.

recurrence: one count c(n) by Bostan-Mori halving, O(log n) polynomial
products, each one Kronecker-packed big-int multiply; on `upto:3` up to
n = 10^6, on `upto:K` for K = 4, 8, 13, 32 at n = 2 * 10^5, and on the wide
denominator of `upto:1000`. series: the weak series with no zeros, the
first n + 1 terms of N/D, N divided by D in place (divide_series), O(n*r)
for r nonzero lags of D, which `table` and the weak counts use; `upto:50`
and `upto:2000` take the run form of their generating function, whose D
has three nonzero terms. det: column 0 of the Hessenberg charpoly table,
n + 1 cells of one addition per nonzero head lag plus one for the band's
constant tail (a running sum), so O(n) additions for an unbounded
alphabet. charpoly: the
whole table, O(n^2) such cells. minors: the weak count with six zeros as
the sum of order-n minors of the order-(n+6) matrix, a table cut to
(n+1) * 7 cells.
subsets: the sum of the order-r principal minors of the order-n matrix by
every index subset, C(n, r) Bareiss determinants of order r read from one
dense grid, which `matrix --minorsum` runs under its subset guard. conv:
weak counts with two zeros as the series of N^3 / D^3, N^3 divided three
times by D in place, O(n * r) for r nonzero lags of D, on `all`, on the
wide intervals `upto:50` and `upto:2000` (run form), and on the dense
bounded `upto:3`, `1x2,3`, `upto:13` and unbounded `atleast:5`.
brute: the brute-force oracle, which walks by levels: every sequence of
one length is one character of a string, the sum it leaves, grouped by
the product of its parts' colors and its zeros left; one 1:1
str.translate per part value extends a group, deleting the sequences the
part does not fit, a zero moves a whole group to one zero fewer, and
str.count tallies it. So count_compositions_brute(n) on `all` (the weak
table with no zeros) visits 2^n sequences and weak_brute_table(n, k)
more, every sequence with sum <= n and at most k zeros.
serialize: the rows of a table as text, by row count and bit length: the
int series (weak_counts) with str() of every row, against the same series
seeded with Decimal(1) in the exact context that `table` uses, whose str()
is linear, and `table`'s own rows (cli.cmd_table), which take one of the
two by its crossover rule; at points on both sides of the rule, at the
b-file sizes of the benchmark's big-terms workload and at a 20 000-row
table. Each point checks that the two renderers give the same bytes.
startup: whole `python` processes, alternated round by round so that a
drift of the machine's load falls on all of them alike: a bare
interpreter, `import compcount.cli`, `-m compcount count 5`, `-m compcount
weak 500 5 --alphabet upto:3` and `import decimal`; the gap between the
first two is the package's own start-up, the gaps after it are the
requests, and the last gap is the import that a table past the crossover
adds. The children see this script's environment less
PYTHONDONTWRITEBYTECODE, so the untimed first run fills the bytecode cache
and no timed run compiles a module that was just edited.

One line per kernel point: the median seconds of 5 timed runs, the
tracemalloc peak of one more run, and the bit length of the computed value
(the last term of a series, the constant coefficient of a charpoly, the
grid's corner cell of a brute table) as a sanity check: c(10^6) on
`upto:3` has 879146 bits, and every det and charpoly point on `all` at
order n has n bits, since its value is +-2^(n-1). One line per serialize
point: the median seconds of the int rows, the Decimal rows and `table`,
RUNS runs of each, and the bits of c(n), which the rule reads. One line
per start-up
command: the median seconds of STARTUP_RUNS runs, after one untimed run of
each that fills the bytecode cache.
"""

import argparse
import decimal
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import compcount
from compcount.cli import cmd_table, parse_alphabet
from compcount.enumeration import count_compositions_brute, weak_brute_table
from compcount.hessenberg import (
    build_matrix, charpoly, count_weak_minor_sum, det_hessenberg, minor_sum_subsets)
from compcount.recurrence import count_compositions, count_weak_convolution, weak_counts

RUNS = 5
POINTS = {
    "recurrence": (("upto:3", 10**4), ("upto:3", 10**5), ("upto:3", 10**6),
                   ("upto:4", 2 * 10**5), ("upto:8", 2 * 10**5), ("upto:13", 2 * 10**5),
                   ("upto:32", 2 * 10**5), ("upto:1000", 5000)),
    "series": (("all", 5000), ("all", 10000), ("all", 20000), ("upto:20", 10000),
               ("upto:50", 10000), ("upto:2000", 10000)),
    "det": (("all", 10000), ("all", 20000), ("all", 40000)),
    "charpoly": (("all", 250), ("all", 500), ("all", 1000)),
    "minors": (("all", 1000), ("all", 5000), ("all", 10000)),
    "subsets": (("all", (13, 6)), ("all", (15, 7))),
    "conv": (("all", 100), ("all", 250), ("all", 500), ("upto:50", 500),
             ("upto:2000", 2000), ("upto:3", 5000), ("1x2,3", 5000), ("atleast:5", 3000),
             ("upto:13", 2000)),
    # (n-max, k): the crossover on all (its first Decimal row at k = 0 is
    # 2116), upto:3 and a wide-row alphabet; b-files of 2400-2600 and
    # 1900-3200 rows; the 20 000-row table.
    "serialize": (("all", (1000, 0)), ("all", (1500, 0)), ("all", (2000, 0)),
                  ("all", (2115, 0)), ("all", (2116, 0)), ("all", (3000, 0)), ("all", (2000, 3)), ("all", (3000, 3)),
                  ("upto:3", (1500, 0)), ("upto:3", (2500, 0)), ("1x2,3", (2500, 0)),
                  ("1,2x2,5", (2500, 0)), ("atleast:2", (3200, 0)),
                  ("1x1000000", (100, 0)), ("1x1000000", (200, 0)), ("1x1000000", (200, 10)),
                  ("1x1000000", (400, 10)), ("upto:13", (2000, 3)), ("upto:3", (300, 3)),
                  ("upto:3", (20000, 3))),
    "brute": (("all", 16), ("all", 18), ("all", 20), ("all", (10, 3)), ("all", (11, 3)),
              ("all", (12, 3)), ("1x2,3", (16, 3))),
}


def _brute(size, alphabet):
    if isinstance(size, int):
        return count_compositions_brute(size, alphabet)
    return weak_brute_table(*size, alphabet)[size[0]][size[1]]


def _decimal_counts(n, k, alphabet):
    with decimal.localcontext(decimal.Context(
            prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])):
        return weak_counts(n, k, alphabet, one=decimal.Decimal(1))


def _serialize(size, alphabet):
    """Seconds of the int rows' text, the Decimal rows' text and table's
    rows, after checking that the first two are the same bytes."""
    texts, seconds = [], []
    args = {"n-max": size[0], "k": size[1], "alphabet": alphabet, "bfile": True}
    for render in (lambda: "\n".join(map(str, weak_counts(*size, alphabet))),
                   lambda: "\n".join(map(str, _decimal_counts(*size, alphabet))),
                   lambda: "\n".join(cmd_table(args))):
        started = time.perf_counter()
        texts.append(render())
        seconds.append(time.perf_counter() - started)
    if texts[0] != texts[1]:
        raise AssertionError(f"the renderers differ at {size} on {alphabet}")
    return seconds


KERNELS = {
    "recurrence": lambda n, a: count_compositions(n, a),
    "series": lambda n, a: count_weak_convolution(n, 0, a),
    "det": lambda n, a: det_hessenberg(build_matrix(a, n)),
    "charpoly": lambda n, a: charpoly(build_matrix(a, n))[0],
    "minors": lambda n, a: count_weak_minor_sum(n, 6, a),
    "subsets": lambda size, a: minor_sum_subsets(build_matrix(a, size[0]), size[1]),
    "conv": lambda n, a: count_weak_convolution(n, 2, a),
    "brute": _brute,
}

STARTUP_RUNS = 21
STARTUP = (
    ("pass", ("-c", "pass")),
    ("import compcount.cli", ("-c", "import compcount.cli")),
    ("count 5", ("-m", "compcount", "count", "5")),
    ("weak 500 5 --alphabet upto:3", ("-m", "compcount", "weak", "500", "5", "--alphabet",
                                      "upto:3")),
    ("import decimal", ("-c", "import decimal")),
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
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    seconds = {name: [] for name, _ in STARTUP}
    for timed in [False] + [True] * STARTUP_RUNS:
        for name, args in STARTUP:
            started = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            if timed:
                seconds[name].append(time.perf_counter() - started)
    return {name: statistics.median(times) for name, times in seconds.items()}


def measure_serialize(spec, size):
    """One line: the median seconds of each renderer and of table, RUNS
    runs taking turns, and the bits of the last zero-free count, which the
    rule reads."""
    alphabet = parse_alphabet(spec)
    runs = [_serialize(size, alphabet) for _ in range(RUNS)]
    int_s, decimal_s, table_s = (statistics.median(r[i] for r in runs) for i in range(3))
    bits = count_compositions(size[0], alphabet).bit_length()
    print(f"suite=serialize alphabet={spec} n={size[0]} k={size[1]} int_s={int_s:.4f}"
          f" decimal_s={decimal_s:.4f} table_s={table_s:.4f} bits={bits}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(POINTS) + ["startup", "all"], default="all")
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # the serialize suite prints every digit
        sys.set_int_max_str_digits(0)

    if args.suite in ("startup", "all"):
        for name, seconds in measure_startup().items():
            print(f"suite=startup command={name!r} median_s={seconds:.4f}"
                  f" runs={STARTUP_RUNS}", flush=True)
    suites = {"all": sorted(POINTS), "startup": []}.get(args.suite, [args.suite])
    for suite in suites:
        if suite == "serialize":
            for spec, size in POINTS[suite]:
                measure_serialize(spec, size)
            continue
        for spec, size in POINTS[suite]:
            seconds, peak, value = measure(KERNELS[suite], size, parse_alphabet(spec))
            point = f"n={size}" if isinstance(size, int) else "n={} {}={}".format(
                size[0], "r" if suite == "subsets" else "k", size[1])
            print(f"suite={suite} alphabet={spec} {point} median_s={seconds:.4f}"
                  f" peak_mb={peak / 2**20:.2f} bits={value.bit_length()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
