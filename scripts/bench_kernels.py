#!/usr/bin/env python3
"""Time the counting kernels across a range of sizes, and gate their values.

recurrence: one count c(n) by Bostan-Mori halving, O(log n) polynomial
products, each one Kronecker-packed big-int multiply; on `upto:3` up to
n = 10^6, on `upto:K` for K = 4, 8, 13, 32 at n = 2 * 10^5, on the wide
denominator of `upto:1000`, and on `upto:1000000000` at n = 10^5, whose D
ends at its last term below x^(n+1), so it halves the two terms of all's D
and costs what `all` costs. At n = 10^4, both sides of the rule that picks
the form of N/D (alphabet.RUN_FORM_MARGIN) from the runs cut at n (a run
that reaches n is read in the run form): `upto:22`, the last interval
read dense, `upto:23`, the first read in the run form, the wide colored
run `1x2,...,60x2`, read in the run form, and `1,2,3,20000,...,20100`,
whose wide run lies past n: it is read dense, as `upto:3` is, and its
count is upto:3's. series: the weak series with no zeros, the first
n + 1 terms of 1 / (1 - P), 1 divided in place (divide_series) by
1 - P, the terms alphabet.lag_terms reads from the alphabet's runs,
O(n*r) for r terms, which `table` and the weak counts use; `all` is one
edge, and `upto:20`, `upto:50` and `upto:2000` two. det: the
band, filled one slice per run of the alphabet, then the determinant as
the one-slot row of the Hessenberg charpoly table: n rows of plain ints,
each one addition per term of the band's runs (alphabet.lag_terms),
holding a ring of the reach + 1 rows the terms read; so `upto:1000` at
2000 costs what `all` costs.
charpoly: the last row of the table, either n packed rows, each a shift
and an addition per term on one int of n + 1 slots, or, where the slots
are 2240 bits wide or more (`all` at 2000) or the ring of rows too
large, n + 1 columns, O(n^2) cells of the same additions; `upto:3`,
`1x2,3` and `1,2x2,5` at 250 are the benchmark's shapes. The rest are
packed rows near the slot bound: `1,2x2,5` at 1500 (2192-bit slots), a
band of singles only, where adding the always-zero run of a band with
no run of three or more entries would copy the whole row every step,
and `upto:3` at 1500 and `atleast:2` at 2000 (2024- and 2008-bit slots),
a bounded and an unbounded run, whose peak_mb shows the ring's size.
minors: the weak count with k zeros, six where no k is given, as the
sum of order-n minors of the order-(n+k) matrix, always read from k + 1
columns cut to n + 1 cells: where k is past n (`all` at (5, 10^5) and
(50, 2000)), where the cells are wide (`upto:1999` at (2000, 10), whose
one run is two terms), and at mid k (`atleast:2` at (500, 50), `upto:3`
at (1000, 100)), which packed rows cut to k + 1 slots would take in half
to three quarters of the time. conv: weak counts with two zeros as the
series of 1 / (1 - P)^3, 1 divided three times by 1 - P in place, O(n * r)
for r terms of the same runs: on `all` and `atleast:5` (one edge), on the
intervals `upto:5`, `upto:6`, `upto:13`, `upto:50` and `upto:2000` (two
edges), on `upto:3` (two edges), and on `1x2,3` and `upto:2` (two
singles), whose division reads no edge; `upto:2` is the alphabet of eq1
and thm11.
closed: `weak --method closed` (cli.cmd_weak, so its own choice of
formula by alphabet): on `upto:2`, term to term from C(n+k, k), at
(954, 6), the shape of the benchmark's slowest closed requests, and at
(2000, 10); on `all`, at most n terms of binomials and shifts, at
(2000, 10).
eq1: `verify --identity eq1`'s whole report (verify.check_fib_convolution_identity)
at max_n 100 and 200 on its alphabet `upto:2`: the weak series side, one
chain of weak columns, column k cut to the max_n - k + 1 cells read, and
the closed side, count_weak_parts12_closed per cell, over the max_n^2 / 2
cells of the grid. The value is the lhs at (max_n, max_n // 2), the weak
count over `upto:2` at (max_n - max_n // 2, max_n // 2), with its bits
pinned.
brute: the brute-force oracle's walk by levels (see enumeration), read
at its cell [n][k]: with no zeros that is c(n), whose walk visits 2^n
sequences on `all`, and with k zeros more, every sequence with sum <= n
and at most k zeros.
serialize: the rows of a table as text, by row count and bit length: the
int series (weak_counts) with str() of every row, against the same series
as exact Decimals (decimal_weak_counts), whose str() is linear, and
`table`'s own rows (cli.cmd_table), which print the Decimal series.
startup: whole `python` processes, alternated round by round so that a
drift of the machine's load falls on all of them alike: a bare
interpreter, `import compcount.cli`, `-m compcount count 5`, `-m compcount
weak 500 5 --alphabet upto:3` and `import decimal`; the gap between the
first two is the package's own start-up, the gaps after it are the
requests, and the last gap is the import that every table pays. The
children see this script's environment less PYTHONDONTWRITEBYTECODE, so
one untimed first round fills the bytecode cache and no timed run
compiles a module that was just edited.

RUNS is 11, so that every median, and every --against ratio, rests on
at least ten runs a side (ten alternated pairs against REV).

One line per point: for a kernel, the median seconds of RUNS timed runs,
the tracemalloc peak of one more run, and the bit length of the value
(the last term of a series, the constant coefficient of a charpoly, the
grid's corner cell of a brute table); for serialize, the median seconds
of the int rows, the Decimal rows and `table`, RUNS runs of each, and the
bits of c(n); for startup, the median seconds of STARTUP_RUNS runs.

--record PATH appends one point of this run to the JSON list in PATH,
creating the file if it is missing, once every gate has passed: the
commit (`git rev-parse HEAD`, and whether a tracked file differs from it;
null outside a git checkout), the Python version, the median seconds of
FLOOR_RUNS alternated runs each of `python -c pass` and `python -S -c pass`
(the machine's floor, which drifts between points), and one object per
printed line, with that line's fields as numbers; a kernel's object also
holds its spread, (max - min) / median of its RUNS runs. It takes no
--against, whose timings are of two trees (exit 2).

--against REV is an A/B of two trees in one interpreter: REV's
src/compcount, exported by `git archive`, and this checkout's, each
imported under a name of its own by two_trees.py (beside this script),
each with its own kernel table and its own alphabet objects. It takes the
kernel suites only (recurrence ... brute, or all of them for `all`); with
serialize or startup, or an unknown REV, it is a usage error (exit 2).
After one untimed round, each point runs RUNS times on each tree, the trees
alternating run by run and taking turns to go first. Its line gives each
side's median (rev_s, tree_s), their ratio tree_s / rev_s (below 1 the
working tree is faster), each side's spread, (max - min) / median, and the
bits. Trees that return different values fail the point (one
`bench_kernels:` line, exit 1); the gates below judge the working tree's
value.

The gates, checked as each point is measured; after the suite, each
failure is one `bench_kernels:` line on stderr, and the exit status is 1:
- every det, charpoly and series point on `all`, and every brute point on
  `all` without k, has n bits: c(n) = 2^(n-1), and so are the order-n
  determinant and charpoly constant term up to sign;
- a point with a third entry in POINTS has that many bits: c(10^6) on
  `upto:3` has 879146, and c(10^5) on `upto:1000000000`, 2^(10^5 - 1),
  has 10^5; the recurrence points at 10^4 pin the bits of the order-n
  determinant, det_hessenberg(build_matrix(a, n)), which shares no kernel
  with the count; the charpoly, det and minors points off `all` pin the
  bits that the column-at-a-time kernel gave;
- at every serialize point the int and Decimal rows are the same bytes.
"""

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import compcount
from compcount.cli import cmd_table, parse_alphabet
from compcount.recurrence import count_compositions, decimal_weak_counts, weak_counts

RUNS = 11
POINTS = {
    "recurrence": (("upto:3", 10**4), ("upto:3", 10**5), ("upto:3", 10**6, 879146),
                   ("upto:4", 2 * 10**5), ("upto:8", 2 * 10**5), ("upto:13", 2 * 10**5),
                   ("upto:32", 2 * 10**5), ("upto:1000", 5000),
                   ("upto:1000000000", 10**5, 100000), ("upto:22", 10**4, 9999),
                   ("upto:23", 10**4, 9999),
                   (",".join(f"{v}x2" for v in range(1, 61)), 10**4, 15850),
                   ("1,2,3," + ",".join(map(str, range(20000, 20101))), 10**4, 8791)),
    "series": (("all", 5000), ("all", 10000), ("all", 20000), ("upto:20", 10000),
               ("upto:50", 10000), ("upto:2000", 10000)),
    "det": (("all", 10000), ("all", 20000), ("all", 40000), ("upto:1000", 2000, 1999)),
    "charpoly": (("all", 250), ("all", 500), ("all", 1000), ("all", 2000),
                 ("upto:3", 250, 220), ("1x2,3", 250, 286), ("1,2x2,5", 250, 257),
                 ("1,2x2,5", 1500, 1541), ("upto:3", 1500, 1319), ("atleast:2", 2000, 1387)),
    # n, or (n, k) for a weak count with k zeros instead of six
    "minors": (("all", 1000), ("all", 5000), ("all", 10000), ("upto:1999", (2000, 10), 2077),
               ("all", (5, 10**5), 77), ("all", (50, 2000), 337),
               ("atleast:2", (500, 50), 502), ("upto:3", (1000, 100), 1295)),
    "conv": (("all", 100), ("all", 250), ("all", 500), ("upto:50", 500),
             ("upto:2000", 2000), ("upto:3", 5000), ("1x2,3", 5000), ("atleast:5", 3000),
             ("upto:13", 2000), ("upto:5", 2000), ("upto:6", 2000), ("upto:2", 3000)),
    "closed": (("upto:2", (954, 6), 709), ("upto:2", (2000, 10), 1472),
               ("all", (2000, 10), 2077)),
    # max_n of verify --identity eq1, whose alphabet is always upto:2
    "eq1": (("upto:2", 100, 118), ("upto:2", 200, 239)),
    # (n-max, k): all, upto:3 and a wide-row alphabet; b-files of
    # 2400-2600 and 1900-3200 rows; the 20 000-row table.
    "serialize": (("all", (1000, 0)), ("all", (1500, 0)), ("all", (2000, 0)),
                  ("all", (3000, 0)), ("all", (2000, 3)), ("all", (3000, 3)),
                  ("upto:3", (1500, 0)), ("upto:3", (2500, 0)), ("1x2,3", (2500, 0)),
                  ("1,2x2,5", (2500, 0)), ("atleast:2", (3200, 0)),
                  ("1x1000000", (100, 0)), ("1x1000000", (200, 0)), ("1x1000000", (200, 10)),
                  ("1x1000000", (400, 10)), ("upto:13", (2000, 3)), ("upto:3", (300, 3)),
                  ("upto:3", (20000, 3))),
    "brute": (("all", 16), ("all", 18), ("all", 20), ("all", (10, 3)), ("all", (11, 3)),
              ("all", (12, 3)), ("1x2,3", (16, 3))),
}


def _serialize(size, alphabet):
    """Seconds of the int rows' text, the Decimal rows' text and table's
    rows, and whether the first two are the same bytes."""
    texts, seconds = [], []
    args = {"n-max": size[0], "k": size[1], "alphabet": alphabet, "bfile": True}
    for render in (lambda: "\n".join(map(str, weak_counts(*size, alphabet))),
                   lambda: "\n".join(map(str, decimal_weak_counts(*size, alphabet))),
                   lambda: "\n".join(cmd_table(args))):
        started = time.perf_counter()
        texts.append(render())
        seconds.append(time.perf_counter() - started)
    return seconds, texts[0] == texts[1]


def kernels(package="compcount"):
    """Each kernel suite's function of (size, alphabet), from the modules of
    the package imported as ``package``. It reads only long-standing names
    (count_compositions, weak_counts, build_matrix, det_hessenberg,
    charpoly, count_weak_minor_sum, weak_brute_table, cli.cmd_weak and
    verify.check_fib_convolution_identity), so that `--against` builds one
    table from each tree, an older REV's too."""
    recurrence, hessenberg, enumeration, cli, verify = (
        importlib.import_module(f"{package}.{name}")
        for name in ("recurrence", "hessenberg", "enumeration", "cli", "verify"))

    def brute(size, alphabet):
        n, k = (size, 0) if isinstance(size, int) else size
        return enumeration.weak_brute_table(n, k, alphabet)[n][k]

    def minors(size, alphabet):
        n, k = (size, 6) if isinstance(size, int) else size
        return hessenberg.count_weak_minor_sum(n, k, alphabet)

    def eq1(max_n, alphabet):  # the alphabet is eq1's own, upto:2
        points = verify.check_fib_convolution_identity(max_n).points
        return points[max_n * (max_n + 1) // 2 + max_n // 2].lhs  # (max_n, max_n // 2)

    return {
        "recurrence": recurrence.count_compositions,
        "series": lambda n, a: recurrence.weak_counts(n, 0, a)[n],
        "det": lambda n, a: hessenberg.det_hessenberg(hessenberg.build_matrix(a, n)),
        "charpoly": lambda n, a: hessenberg.charpoly(hessenberg.build_matrix(a, n))[0],
        "minors": minors,
        "conv": lambda n, a: recurrence.weak_counts(n, 2, a)[n],
        "closed": lambda size, a: next(cli.cmd_weak(
            {"n": size[0], "k": size[1], "alphabet": a, "method": "closed"})),
        "eq1": eq1,
        "brute": brute,
    }


KERNELS = kernels()

STARTUP_RUNS = 21
FLOOR_RUNS = 5
FLOORS = (("python -c pass", ("-c", "pass")), ("python -S -c pass", ("-S", "-c", "pass")))
STARTUP = (
    ("pass", ("-c", "pass")),
    ("import compcount.cli", ("-c", "import compcount.cli")),
    ("count 5", ("-m", "compcount", "count", "5")),
    ("weak 500 5 --alphabet upto:3", ("-m", "compcount", "weak", "500", "5", "--alphabet",
                                      "upto:3")),
    ("import decimal", ("-c", "import decimal")),
)


def spread(seconds) -> float:
    """(max - min) / median of a point's timed runs."""
    return (max(seconds) - min(seconds)) / statistics.median(seconds)


def emit(points, spelling, **fields):
    """Print one point's line, ``spelling`` filled from ``fields``, and keep
    the fields in ``points`` for --record."""
    print(spelling.format(**fields), flush=True)
    points.append(fields)


def measure(kernel, size, alphabet):
    """(median seconds of RUNS runs, their spread, tracemalloc peak in
    bytes, value)."""
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
    return statistics.median(seconds), spread(seconds), peak, value


def measure_startup(commands=STARTUP, runs=STARTUP_RUNS) -> dict[str, float]:
    """Median wall seconds of each command in a fresh interpreter that
    imports this script's compcount, the commands taking turns."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(compcount.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    seconds = {name: [] for name, _ in commands}
    for timed in [False] + [True] * runs:
        for name, args in commands:
            started = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            if timed:
                seconds[name].append(time.perf_counter() - started)
    return {name: statistics.median(times) for name, times in seconds.items()}


def measure_serialize(points, spec, size):
    """One line: the median seconds of each renderer and of table, RUNS
    runs taking turns, and the bits of the last zero-free count. Returns
    the failure line if the renderers differed."""
    alphabet = parse_alphabet(spec)
    runs = [_serialize(size, alphabet) for _ in range(RUNS)]
    int_s, decimal_s, table_s = (statistics.median(r[0][i] for r in runs) for i in range(3))
    emit(points, "suite={suite} alphabet={alphabet} n={n} k={k} int_s={int_s:.4f}"
         " decimal_s={decimal_s:.4f} table_s={table_s:.4f} bits={bits}",
         suite="serialize", alphabet=spec, n=size[0], k=size[1], int_s=int_s,
         decimal_s=decimal_s, table_s=table_s,
         bits=count_compositions(size[0], alphabet).bit_length())
    if not all(same for _, same in runs):
        return (f"bench_kernels: suite=serialize alphabet={spec} {spell(size)}:"
                " the int and Decimal rows differ")


def compare(rev, pair, suites):
    """Print the --against line of each point of ``suites`` on ``pair``,
    REV's package and the working tree's, and return the failure lines."""
    sides = [(kernels(tree.__name__),
              importlib.import_module(f"{tree.__name__}.alphabet").PartAlphabet) for tree in pair]
    failures = []
    for suite in suites:
        for spec, size, *pinned in POINTS[suite]:
            runs = tuple(parse_alphabet(spec))
            calls = [(table[suite], alphabet(runs)) for table, alphabet in sides]
            # The untimed round pays each tree's lazy imports and gives its value.
            values = [kernel(size, alphabet) for kernel, alphabet in calls]
            same = values[0] == values[1]
            seconds = ([], [])
            for run in range(RUNS):
                for side in (0, 1) if run % 2 == 0 else (1, 0):
                    kernel, alphabet = calls[side]
                    started = time.perf_counter()
                    value = kernel(size, alphabet)
                    seconds[side].append(time.perf_counter() - started)
                    same = same and value == values[side]
            rev_s, tree_s = map(statistics.median, seconds)
            rev_spread, tree_spread = map(spread, seconds)
            point = spell(size)
            bits = [value.bit_length() for value in values]
            print(f"suite={suite} alphabet={spec} {point} rev_s={rev_s:.6f} tree_s={tree_s:.6f}"
                  f" ratio={tree_s / rev_s:.3f} rev_spread={rev_spread:.3f}"
                  f" tree_spread={tree_spread:.3f} bits={bits[1]}", flush=True)
            if not same:
                failures.append(f"bench_kernels: suite={suite} alphabet={spec} {point}: {rev}"
                                f" and the working tree return different values (bits {bits[0]}"
                                f" and {bits[1]})")
            failures.append(gate(suite, spec, size, bits[1], *pinned))
    return failures


def spell(size) -> str:
    """A point's size as its lines print it: `n=N`, or `n=N k=K`."""
    return f"n={size}" if isinstance(size, int) else f"n={size[0]} k={size[1]}"


def gate(suite, spec, size, bits, *pinned):
    """The failure line of a kernel point whose value has the wrong bit
    length, else None: the bits pinned beside its POINTS entry, or n for
    det, charpoly, series and brute on `all` at n (no k)."""
    if not pinned and spec == "all" and suite in ("det", "charpoly", "series", "brute"):
        pinned = (size,) if isinstance(size, int) else ()
    if pinned and bits != pinned[0]:
        return (f"bench_kernels: suite={suite} alphabet={spec} {spell(size)} bits={bits}"
                f" expected_bits={pinned[0]}")


def commit():
    """{"rev": HEAD, "dirty": whether a tracked file differs from it}, or
    None outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                             capture_output=True, text=True)
        if rev.returncode:
            return None
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=Path(__file__).parent)
    except OSError:  # no git at all
        return None
    return {"rev": rev.stdout.strip(), "dirty": diff.returncode != 0}


def record(path, points):
    """Append this run's point to the JSON list in ``path``."""
    path = Path(path)
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append({"commit": commit(), "python": platform.python_version(),
                       "floors_s": measure_startup(FLOORS, FLOOR_RUNS), "points": points})
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(POINTS) + ["startup", "all"], default="all")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="REV",
                      help="time each kernel point on REV's tree and on this checkout's")
    mode.add_argument("--record", metavar="PATH",
                      help="append this run's point to the JSON list in PATH")
    args = parser.parse_args(argv)
    if args.against and args.suite in ("serialize", "startup"):
        parser.error(f"--against times the kernel suites only, not {args.suite}")
    if hasattr(sys, "set_int_max_str_digits"):  # the serialize suite prints every digit
        sys.set_int_max_str_digits(0)

    suites = {"all": sorted(POINTS), "startup": []}.get(args.suite, [args.suite])
    if args.against:
        import two_trees  # beside this script: only --against needs it, and git

        try:
            with two_trees.trees(args.against) as pair:
                failures = compare(args.against, pair, [s for s in suites if s in KERNELS])
        except two_trees.ExportError as exc:
            parser.error(str(exc))
    else:
        points = []
        if args.suite in ("startup", "all"):
            for name, seconds in measure_startup().items():
                emit(points, "suite={suite} command={command!r} median_s={median_s:.4f}"
                     " runs={runs}", suite="startup", command=name, median_s=seconds,
                     runs=STARTUP_RUNS)
        failures = []
        for suite in suites:
            for spec, size, *pinned in POINTS[suite]:
                if suite == "serialize":
                    failures.append(measure_serialize(points, spec, size))
                    continue
                seconds, scatter, peak, value = measure(KERNELS[suite], size, parse_alphabet(spec))
                sizes = {"n": size} if isinstance(size, int) else dict(zip("nk", size))
                emit(points, "suite={suite} alphabet={alphabet} n={n}" + " k={k}" * ("k" in sizes)
                     + " median_s={median_s:.4f} peak_mb={peak_mb:.2f} bits={bits}",
                     suite=suite, alphabet=spec, **sizes, median_s=seconds,
                     peak_mb=peak / 2**20, bits=value.bit_length(), spread=scatter)
                failures.append(gate(suite, spec, size, value.bit_length(), *pinned))
        if args.record and not any(failures):
            record(args.record, points)
    for line in filter(None, failures):
        print(line, file=sys.stderr)
    return 1 if any(failures) else 0


if __name__ == "__main__":
    sys.exit(main())
