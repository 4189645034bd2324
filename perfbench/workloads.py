"""Seeded request streams for the three workloads.

A stream is a list of rounds. Every round of a workload holds the same
slots (kinds of request), each with parameters drawn from a narrow band
by a ``random.Random`` seeded from the workload name, the seed and the
round number, and the slots run in a seeded shuffled order. Alphabets
and variants rotate from round to round, and a cycle is one full
rotation; runs play whole cycles. The mix of request kinds is therefore
the same in every run while the inputs differ from seed to seed.

The slots of a round fall into fast, middle and heavy groups, with the
middle and heavy sizes scaled per alphabet to a target cost measured at
the seed commit. The median request is then a middle-group request and
the tail a heavy-group one in every run, so that both are medians of
many similar requests rather than of whichever two kinds happen to meet
in the middle. That keeps them steady on a noisy shared machine.
"""

import math
import random
from dataclasses import dataclass

from reference import generating_function, verify_exit

# Defects of the program, known when the benchmark was written, that show
# up as failed requests: (workload, stderr signature, description).
KNOWN_DEFECTS = (
    ("big-terms", "Exceeds the limit (4300 digits)",
     "a count past 4300 digits makes str() raise ValueError: traceback and exit 1"),
)

# Rounds in one cycle, and nominal seconds of one cycle at the seed
# commit on 2 cores of a shared machine; a run of S seconds plays
# max(1, round(S / CYCLE_SECONDS)) cycles.
ROUNDS_PER_CYCLE = {"weak-series": 4, "big-terms": 4, "verify-grid": 12}
CYCLE_SECONDS = {"weak-series": 15.0, "big-terms": 12.5, "verify-grid": 14.5}

# Seconds of a request that does no work (interpreter start and import),
# and the target seconds of middle-group and heavy-group requests.
BASE_S = 0.125
MIDDLE_S = 0.25
HEAVY_S = 0.45
WEAK_ALPHABETS = ("all", "upto:3", "atleast:2", "1x2,3")
# convolution_power at n with k+1 folds takes about c * k * n^a seconds;
# (c, a) per alphabet, fitted at n = 400 and 800 at the seed commit.
CONV_COST = {"all": (1.886e-7, 1.951), "upto:3": (3.504e-9, 2.535),
             "atleast:2": (4.788e-9, 2.457), "1x2,3": (2.675e-9, 2.592)}
BIG_ALPHABETS = ("all", "upto:3", "atleast:2", "1x2,3", "1,2x2,5")
UNBOUNDED = ("all", "atleast:2")
BOUNDED = ("upto:3", "1x2,3", "1,2x2,5")
# big-terms requests of kind K on alphabet A take about BIG_BASE_S + c * n^a
# seconds; (c, a) per (K, A), fitted at two sizes near the targets at the
# seed commit, with the medians of five interleaved runs each. Only the
# kinds and alphabets that are sized to a target are listed: a charpoly or
# a b-file of a bounded alphabet stays near start-up time at any order the
# workload uses.
BIG_BASE_S = 0.105
BIG_COST = {
    ("count", "all"): (7.625e-09, 1.601),
    ("count", "atleast:2"): (2.708e-09, 1.673),
    ("count", "upto:3"): (2.576e-09, 1.768),
    ("count", "1x2,3"): (2.99e-08, 1.535),
    ("count", "1,2x2,5"): (2.215e-09, 1.805),
    ("det", "all"): (1.129e-09, 2.645),
    ("det", "atleast:2"): (1.933e-09, 2.558),
    ("det", "upto:3"): (2.767e-10, 2.725),
    ("det", "1x2,3"): (2.335e-08, 2.151),
    ("det", "1,2x2,5"): (1.033e-07, 1.944),
    ("charpoly", "all"): (1.646e-09, 3.540),
    ("charpoly", "atleast:2"): (7.352e-08, 2.857),
    ("bfile", "all"): (2.703e-09, 2.386),
    ("bfile", "atleast:2"): (6.823e-09, 2.247),
}
BIG_MIDDLE_S = 0.3
BIG_HEAVY_S = 0.6
# Digits of the count that fits under CPython's 4300-digit int-to-str
# limit, and the least and most digits of the counts that pass it.
FITTING_DIGITS = (2500, 2700)
PAST_LIMIT_DIGITS = (5000, 20000)
MAX_COUNT_N = 60000
VERIFY_IDENTITIES = ("eq1", "thm8", "thm9", "thm10", "thm11", "thm12", "all")
# The heavy group of verify-grid, two requests a round of about 0.2 s each
# at the seed commit (near 0.3 s when the shared machine is busy): a
# brute-force count and a verify grid whose brute oracle dominates. A
# 30-s run has 48 of them, so the tail (eleventh slowest) falls well inside
# this group. atleast:2 has too few compositions at n <= 18 to be heavy,
# so its brute count is not among them.
HEAVY_BRUTE = (("all", 15), ("upto:3", 16), ("1x2,3", 14))
HEAVY_VERIFY = (("thm11", 11, 4), ("thm8", 10, 3), ("thm10", 11, 3), ("all", 10, 3))


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect_exit: int
    kind: str  # a Checker method: count, weak, charpoly, ...
    params: tuple

    def label(self) -> str:
        return " ".join(self.argv)


def _req(argv, kind, params, expect_exit=0):
    return Request(tuple(str(a) for a in argv), expect_exit, kind, tuple(params))


def digits_per_index(spec: str) -> float:
    """log10 of the growth rate of c(n): 1/r for the smallest root r of D."""
    _, den = generating_function(spec)
    lo, hi = 0.0, 1.0  # D(0) = 1 > 0 >= D(1)
    for _ in range(60):
        mid = (lo + hi) / 2
        if sum(d * mid ** i for i, d in enumerate(den)) > 0:
            lo = mid
        else:
            hi = mid
    return -math.log10(hi)


def _weak_series_round(rng, r):
    alpha = [WEAK_ALPHABETS[(r + i) % 4] for i in range(4)]

    def weak(spec, k, method, seconds):
        c, a = CONV_COST[spec]
        n = int(rng.uniform(0.98, 1.02) * ((seconds - BASE_S) / (c * k)) ** (1 / a))
        return _req(["weak", n, k, "--alphabet", spec, "--method", method], "weak", (spec, n, k))

    k_table = 1 + r % 3
    # A table sums c * k * m^a over m = 1..N: about c * k * N^(a+1) / (a+1).
    c, a = CONV_COST[alpha[2]]
    n_table = int(rng.uniform(0.98, 1.02)
                  * ((HEAVY_S - BASE_S) * (a + 1) / (c * k_table)) ** (1 / (a + 1)))
    small = [_req(["weak", n, k, "--alphabet", spec, "--method", method], "weak", (spec, n, k))
             for spec, n, k, method in (
                 ("all", rng.randint(500, 1000), rng.randint(1, 20), "closed"),
                 ("upto:2", rng.randint(500, 1000), rng.randint(1, 20), "closed"),
                 (alpha[0], rng.randint(20, 150), rng.randint(0, 5), "conv"),
                 (alpha[1], rng.randint(50, 150), rng.randint(1, 4), "minors"))]
    return small + [
        weak(alpha[0], 5, "conv", MIDDLE_S),
        weak(alpha[1], 3, "minors", MIDDLE_S),
        weak(alpha[2], 8, "conv", MIDDLE_S),
        weak(alpha[3], 4, "conv", HEAVY_S),
        weak(alpha[0], 20, "conv", HEAVY_S),
        weak(alpha[1], 6, "minors", HEAVY_S),
        _req(["table", "--alphabet", alpha[2], "--k", k_table, "--n-max", n_table],
             "table_k", (alpha[2], k_table, n_table)),
    ]


def _sized(rng, kind, spec, seconds):
    """An order or size of ``kind`` on ``spec`` that takes about ``seconds``."""
    c, a = BIG_COST[kind, spec]
    return int(rng.uniform(0.98, 1.02) * ((seconds - BIG_BASE_S) / c) ** (1 / a))


def _big_terms_round(rng, r):
    """Three fast, three middle and three heavy requests. Each middle and
    heavy request is sized per alphabet to one target time, so that the
    median falls among the middle group and the tail among the heavy group
    in every run. Only compute-bound kinds are heavy: a big count is held
    in memory whole, and its time moves with the machine's memory load."""
    def count(spec, n):
        return _req(["count", n, "--alphabet", spec], "count", (spec, n))

    def det(spec, n):
        return _req(["count", n, "--alphabet", spec, "--method", "det"], "count", (spec, n))

    def charpoly(spec, n):
        return _req(["matrix", n, "--alphabet", spec, "--charpoly"], "charpoly", (spec, n))

    def bfile(spec, n):
        return _req(["table", "--alphabet", spec, "--bfile", "--n-max", n], "bfile", (spec, n))

    fits = BIG_ALPHABETS[r % 5]
    past = BIG_ALPHABETS[(r + 2) % 5]
    lo, hi = (d / digits_per_index(past) for d in PAST_LIMIT_DIGITS)
    n_past = int(min(MAX_COUNT_N, hi, max(lo, _sized(rng, "count", past, BIG_MIDDLE_S))))
    return [
        count(fits, int(rng.uniform(*FITTING_DIGITS) / digits_per_index(fits))),
        bfile(BOUNDED[r % 3], rng.randint(2400, 2600)),
        charpoly(BOUNDED[(r + 1) % 3], rng.randint(240, 260)),
        count(past, n_past),
        det(BOUNDED[(r + 2) % 3], _sized(rng, "det", BOUNDED[(r + 2) % 3], BIG_MIDDLE_S)),
        bfile(UNBOUNDED[r % 2], _sized(rng, "bfile", UNBOUNDED[r % 2], BIG_MIDDLE_S)),
        det(UNBOUNDED[r % 2], _sized(rng, "det", UNBOUNDED[r % 2], BIG_HEAVY_S)),
        charpoly(UNBOUNDED[(r + 1) % 2], _sized(rng, "charpoly", UNBOUNDED[(r + 1) % 2], BIG_HEAVY_S)),
        bfile(UNBOUNDED[(r + 1) % 2], _sized(rng, "bfile", UNBOUNDED[(r + 1) % 2], BIG_HEAVY_S)),
    ]


def _verify(rng, index):
    identity = VERIFY_IDENTITIES[index % len(VERIFY_IDENTITIES)]
    max_k = 1 + (index // len(VERIFY_IDENTITIES)) % 4
    # Brute weak counts behind thm8/9/10 and "all" grow fast with n + 2k.
    light = identity in ("eq1", "thm11", "thm12")
    max_n = rng.randint(6, 10 if light else 8)
    return _verify_request(identity, max_n, max_k, index % 2 == 1)


def _verify_request(identity, max_n, max_k, as_json):
    argv = ["verify", "--identity", identity, "--max-n", max_n, "--max-k", max_k]
    return _req(argv + (["--json"] if as_json else []), "verify",
                (identity, max_n, max_k, as_json), verify_exit(identity, max_n, max_k))


def _verify_grid_round(rng, r):
    spec = WEAK_ALPHABETS[r % 4]
    n_weak, k_weak = rng.randint(6, 12), rng.randint(0, 3)
    order = rng.randint(10, 13)
    r_minor = rng.randint(1, order)
    refusals = [
        _req(["count", rng.randint(26, 40), "--method", "brute"], "refusal", (), 3),
        _req(["weak", rng.randint(26, 40), rng.randint(0, 4), "--method", "brute"], "refusal", (), 3),
        _req(["matrix", rng.randint(23, 30), "--minorsum", 2], "refusal", (), 3),
    ]
    heavy_spec, n = HEAVY_BRUTE[r % 3]
    identity, max_n, max_k = HEAVY_VERIFY[r % 4]
    return [_verify(rng, 2 * r + j) for j in range(2)] + [
        _req(["count", n, "--alphabet", heavy_spec, "--method", "brute"], "count", (heavy_spec, n)),
        _verify_request(identity, max_n, max_k, r // 4 % 2 == 1),
        _req(["weak", n_weak, k_weak, "--alphabet", spec, "--method", "brute"], "weak",
             (spec, n_weak, k_weak)),
        _req(["matrix", order, "--alphabet", spec, "--minorsum", r_minor], "minorsum",
             (spec, order, r_minor)),
        refusals[r % 3],
    ]


ROUNDS = {
    "weak-series": _weak_series_round,
    "big-terms": _big_terms_round,
    "verify-grid": _verify_grid_round,
}


def stream(workload: str, seed: int, cycles: int) -> list[list[Request]]:
    """``cycles`` cycles of rounds of requests; the same arguments give the
    same list."""
    out = []
    for r in range(cycles * ROUNDS_PER_CYCLE[workload]):
        rng = random.Random(f"{workload}/{seed}/{r}")
        requests = ROUNDS[workload](rng, r)
        rng.shuffle(requests)
        out.append(requests)
    return out
