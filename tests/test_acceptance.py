"""Acceptance suite: one test per exit criterion, each at its stated grid
and time budget, printing one pass line (visible with `pytest -s` / `-rA`).

Grids lean on the brute-force oracle, which caches nothing: each brute
count is its own walk.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute, count_weak_brute
from compcount.hessenberg import (
    build_matrix,
    charpoly,
    count_weak_minor_sum,
    det_hessenberg,
)
from compcount.recurrence import count_compositions, count_weak_convolution
from compcount.reports import summary
from compcount.verify import BATTERY, adjudicate_fib_block_identity, check_fib_convolution_identity
from compcount.weakforms import (
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
)

from residues import residue, weak_residues

from paper_refs import (
    convolution_power,
    dense_matrix,
    det_bareiss,
    fibonacci,
    kstep_fibonacci,
    minor_product_formula,
    minor_sum_subsets,
    principal_minor,
    sequence_prefix,
)

ALL_PARTS = PartAlphabet.at_least(1)


class _Criterion:
    """Timed scope that prints one pass line when its block completes."""

    def __init__(self, number, description, budget_seconds=None):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        if exc_type is not None:
            print(f"criterion {self.number:2d}: FAIL ({self.description})")
            return False
        if self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        print(f"criterion {self.number:2d}: PASS in {elapsed:.2f}s ({self.description})")
        return False


def test_criterion_01_unrestricted_counts_are_powers_of_two():
    with _Criterion(1, "c(n) = 2^(n-1) by recurrence (n<=200) and determinant (n<=40)", 1.0):
        for n in range(1, 201):
            assert count_compositions(n, ALL_PARTS) == 2 ** (n - 1)
        for n in range(1, 41):
            assert det_hessenberg(build_matrix(ALL_PARTS, n)) == 2 ** (n - 1)


def test_criterion_02_bounded_parts_match_kstep_fibonacci():
    with _Criterion(2, "c(n,[k]) = k-step Fibonacci (n<=40) and brute (n<=15), k=2..4", 5.0):
        for k in (2, 3, 4):
            alphabet = PartAlphabet.upto(k)
            for n in range(41):
                assert count_compositions(n, alphabet) == kstep_fibonacci(k, n + 1)
            for n in range(16):
                assert count_compositions(n, alphabet) == count_compositions_brute(n, alphabet)


def test_criterion_03_parts_at_least_two_match_shifted_fibonacci():
    with _Criterion(3, "c(n, parts>=2) = F_(n-1) for 2<=n<=60", 1.0):
        alphabet = PartAlphabet.at_least(2)
        for n in range(2, 61):
            assert count_compositions(n, alphabet) == fibonacci(n - 1)


def test_criterion_04_determinants_reproduce_the_sequence():
    with _Criterion(4, "det = a_(n+1) (n<=40) and Bareiss agrees (n<=15), battery", 10.0):
        for _, alphabet in BATTERY:
            terms = sequence_prefix(alphabet, 40)
            for n in range(1, 41):
                assert det_hessenberg(build_matrix(alphabet, n)) == terms[n]
            for n in range(1, 16):
                matrix = build_matrix(alphabet, n)
                assert det_bareiss(dense_matrix(matrix)) == terms[n]


def test_criterion_05_minor_sums_and_products():
    with _Criterion(5, "subset minor sums = convolution (n<=12) and gap products (n<=8)", 60.0):
        for _, alphabet in BATTERY:
            for n in range(1, 13):
                matrix = build_matrix(alphabet, n)
                for k in range(n + 1):
                    assert minor_sum_subsets(matrix, n - k) == convolution_power(
                        sequence_prefix(alphabet, n - k), k + 1, n - k
                    ), (alphabet, n, k)
        for _, alphabet in BATTERY:
            for n in range(1, 9):
                matrix = build_matrix(alphabet, n)
                for size in range(n + 1):
                    for deleted in itertools.combinations(range(1, n + 1), size):
                        assert principal_minor(matrix, deleted) == minor_product_formula(
                            alphabet, n, deleted
                        ), (alphabet, n, deleted)


def test_criterion_06_fibonacci_convolution_closed_form():
    with _Criterion(6, "Fibonacci convolution = binomial sum for 0<=k<=n<=25", 5.0):
        for p in check_fib_convolution_identity(25).points:
            shifted = [fibonacci(j + 1) for j in range(p.n - p.k + 1)]
            assert p.lhs == p.rhs == convolution_power(shifted, p.k + 1, p.n - p.k), (p.n, p.k)


def test_criterion_07_weak_convolution_matches_brute():
    with _Criterion(7, "weak convolution = brute for n<=12, k<=4, battery", 120.0):
        for _, alphabet in BATTERY:
            for n in range(13):
                for k in range(5):
                    assert count_weak_convolution(n, k, alphabet) == count_weak_brute(
                        n, k, alphabet
                    ), (alphabet, n, k)


def test_criterion_08_weak_minor_sums_match_brute():
    with _Criterion(8, "weak minor sums = brute on the same grid"):
        for _, alphabet in BATTERY:
            for n in range(13):
                for k in range(5):
                    assert count_weak_minor_sum(n, k, alphabet) == count_weak_brute(
                        n, k, alphabet
                    ), (alphabet, n, k)


def test_criterion_09_unrestricted_closed_form():
    with _Criterion(9, "unrestricted closed form = brute for n<=12, k<=6"):
        assert count_weak_unrestricted_closed(1, 1) == 2
        for n in range(1, 13):
            for k in range(7):
                assert count_weak_unrestricted_closed(n, k) == count_weak_brute(
                    n, k, ALL_PARTS
                ), (n, k)


def test_criterion_10_parts12_closed_form():
    with _Criterion(10, "parts-{1,2} closed form = brute for n<=12, k<=4"):
        alphabet = PartAlphabet.upto(2)
        for n in range(13):
            for k in range(5):
                assert count_weak_parts12_closed(n, k) == count_weak_brute(
                    n, k, alphabet
                ), (n, k)


def test_criterion_11_fib_block_identity_adjudication():
    with _Criterion(11, "closed = convolution (n<=10,k<=3); labelled target disagrees at (2,1)"):
        for n in range(1, 11):
            blocks = [1] + [fibonacci(j) for j in range(1, n + 1)]  # b_0 = 1, b_j = F_j
            for k in range(4):
                assert fib_block_closed(n, k) == convolution_power(blocks, k + 1, n), (n, k)
        report = adjudicate_fib_block_identity(6, 2)
        internal, oracle, _ = summary(report)
        assert internal, "closed and convolution columns must agree"
        point = next(p for p in report.points if (p.n, p.k) == (2, 1))
        assert point.lhs == 3 and point.rhs == 3
        assert point.oracle == 2
        assert not point.agree
        assert oracle is False


def test_criterion_12_charpoly_coefficients_are_minor_sums():
    with _Criterion(12, "charpoly coeff of x^(n-r) = (-1)^r S_r for n<=10, battery"):
        for _, alphabet in BATTERY:
            for n in range(1, 11):
                matrix = build_matrix(alphabet, n)
                poly = charpoly(matrix)
                for r in range(n + 1):
                    sign = 1 if r % 2 == 0 else -1
                    assert poly[n - r] == sign * minor_sum_subsets(matrix, r)


def test_criterion_13_performance_smoke():
    # The stated derivation of the expected digit count is the digit count
    # of 2^9999, which is 3010 (3011 is the digit count of 2^10000); the
    # assertion pins the exact value, which is strictly stronger.
    with _Criterion(13, "recurrence count at n=10000 in < 5 s with the exact value", 5.0):
        value = count_compositions(10_000, ALL_PARTS)
        assert value == 2 ** 9_999
        assert len(str(value)) == len(str(2 ** 9_999)) == 3010


def test_criterion_14_a_big_table_prints_every_row_exactly():
    # 20 001 rows of up to 17 600 bits, 53 MB of text: str() of each row as
    # the reference would cost seconds, so each row is read by its residue.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["table", "--n-max", "20000", "--k", "3", "--alphabet", "upto:3"]
    with _Criterion(14, "table --n-max 20000 --k 3 --alphabet upto:3 in < 2.5 s,"
                        " every row checked by its residue", 15.0):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "compcount", *argv], capture_output=True,
                              env=env, timeout=60)
        elapsed = time.perf_counter() - started
        assert (done.returncode, done.stderr) == (0, b"")
        assert elapsed < 2.5, f"the table took {elapsed:.2f}s"
        header, *rows = done.stdout.decode().splitlines()
        want = weak_residues(20_000, 3, PartAlphabet.upto(3))
        assert header == "n,k,count" and len(rows) == 20_000
        for n, row in enumerate(rows, start=1):
            index, k, count = row.split(",")
            assert (int(index), k, residue(count)) == (n, "3", want[n]), row
