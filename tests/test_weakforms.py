import decimal
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount.enumeration import weak_brute_table
from compcount.errors import DomainError
from compcount.hessenberg import count_weak_minor_sum, weak_minor_table
from compcount.recurrence import (
    count_compositions, decimal_weak_counts, weak_columns, weak_counts)
from compcount.verify import BATTERY, adjudicate_fib_block_identity
from compcount.weakforms import (
    binomial,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
)

from paper_refs import (
    convolution_power, fibonacci, insertion_sum, sequence_prefix, shifted_fibonacci)
from residues import P, weak_residues
from strategies import alphabets


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (4, 2, 6),
        (3, -1, 0),
        (0, 0, 1),
        (5, 0, 1),
        (5, 5, 1),
        (5, 6, 0),
        (-3, -1, 0),
        (60, 30, 118264581564861424),
    ],
)
def test_binomial_convention(a, b, expected):
    assert binomial(a, b) == expected


@pytest.mark.parametrize("a,b", [(-1, 0), (-5, 3), (-1, 1)])
def test_binomial_rejects_negative_upper_index(a, b):
    with pytest.raises(DomainError):
        binomial(a, b)


@given(st.integers(1, 60), st.integers(0, 60))
def test_binomial_pascal(a, b):
    b = min(a, b)
    assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@settings(max_examples=60, deadline=None)
@given(alphabets(), st.integers(0, 60), st.integers(0, 6))
# Two singles and an edge with no end over the zero counts below x^5.
@example(PartAlphabet(((5, 6, 1), (20, 60, 2))), 30, 0)
# A negative end edge, -2 at x^9, times the zero counts: -0 unless stored as 0.
@example(PartAlphabet(((5, 8, 2),)), 30, 0)
# A run from 1 read as two edges, its end edge x^7 inside n.
@example(PartAlphabet.upto(6), 30, 3)
def test_a_decimal_weak_series_holds_no_negative_zero(alphabet, n, k):
    terms = decimal_weak_counts(n, k, alphabet)
    assert isinstance(terms[0], decimal.Decimal)
    assert "-0" not in map(str, terms)


@pytest.mark.parametrize("n", range(9))
def test_unrestricted_closed_at_k_far_above_n(n):
    alphabet = PartAlphabet.at_least(1)
    for k in (0, 1, n, 10**3, 10**5, 10**18):
        assert count_weak_unrestricted_closed(n, k) == insertion_sum(n, k, alphabet)


@settings(max_examples=15, deadline=None)
@given(alphabets(), st.integers(0, 6))
def test_weak_counts_at_k_far_above_n(alphabet, n):
    assert weak_counts(n, 10**4, alphabet)[n] == insertion_sum(n, 10**4, alphabet)


@pytest.mark.parametrize(
    "n,k,alphabet,expected",
    [
        (2, 1, PartAlphabet.upto(2), 5),
        (3, 2, PartAlphabet.upto(3), 25),
        (0, 4, PartAlphabet.upto(2), 1),
    ],
)
def test_weak_counts_cell_values(n, k, alphabet, expected):
    assert weak_counts(n, k, alphabet)[n] == expected


def test_weak_counts_without_zeros_is_plain_count():
    for _, alphabet in BATTERY:
        for n in range(12):
            assert weak_counts(n, 0, alphabet)[n] == count_compositions(n, alphabet)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(alphabets(), st.integers(1, 4).map(PartAlphabet.at_least),
              st.integers(1, 60).map(PartAlphabet.upto)),
    st.integers(0, 30),
    st.integers(0, 12),
)
def test_weak_counts_equal_folded_count_sequence(alphabet, n, k):
    prefix = sequence_prefix(alphabet, n)
    counts = weak_counts(n, k, alphabet)
    assert counts == [convolution_power(prefix, k + 1, j) for j in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(alphabets(), st.integers(0, 60), st.integers(0, 10))
def test_every_weak_column_equals_the_minor_sums(alphabet, n, max_k):
    # The minors fill the charpoly table from the band, a kernel the series
    # shares nothing with, so every column is checked, not only the last.
    columns = list(weak_columns(n, max_k, alphabet))
    minors = weak_minor_table(alphabet, n, max_k)
    assert len(columns) == len(minors) == max_k + 1
    for k in range(max_k + 1):
        for m in range(n + 1):
            assert columns[k][m] == minors[k][m], (k, m)


@pytest.mark.parametrize("n,k", [(-1, 0), (0, -1), (-3, -2)])
def test_the_weak_series_refuses_a_negative_size_in_one_wording(n, k):
    message = f"^target and zero count must be >= 0, got n={n}, k={k}$"
    with pytest.raises(DomainError, match=message):
        list(weak_columns(n, k, PartAlphabet.upto(2)))
    with pytest.raises(DomainError, match=message):
        weak_counts(n, k, PartAlphabet.upto(2))


@pytest.mark.parametrize(
    "n,k,alphabet,expected",
    [
        (2, 1, PartAlphabet.upto(2), 5),
        (1, 1, PartAlphabet.of(1), 2),
        (0, 0, PartAlphabet.upto(2), 1),
    ],
)
def test_count_weak_minor_sum_values(n, k, alphabet, expected):
    assert count_weak_minor_sum(n, k, alphabet) == expected


def test_count_weak_minor_sum_k0_is_determinant_count():
    for _, alphabet in BATTERY:
        for n in range(1, 12):
            assert count_weak_minor_sum(n, 0, alphabet) == count_compositions(n, alphabet)


@pytest.mark.parametrize("n,k", [(3, 2000), (0, 5000)])
def test_count_weak_minor_sum_large_k(n, k):
    # order n+k, minors of order n: only a window of n+1 cells per column
    alphabet = PartAlphabet.at_least(1)
    assert count_weak_minor_sum(n, k, alphabet) == weak_counts(n, k, alphabet)[n]


def test_weak_routes_match_brute_across_battery():
    for _, alphabet in BATTERY:
        for n in range(10):
            for k in range(4):
                brute = weak_brute_table(n, k, alphabet)[n][k]
                assert weak_counts(n, k, alphabet)[n] == brute, (alphabet, n, k)
                assert count_weak_minor_sum(n, k, alphabet) == brute, (alphabet, n, k)


@settings(max_examples=40, deadline=None)
@given(alphabets(), st.integers(0, 7), st.integers(0, 3))
# A run from 1 read as two edges, its end edge x^7 inside n.
@example(PartAlphabet.upto(6), 7, 3)
# The cut at n: a run that ends at n, n below the first value, and n = 0.
@example(PartAlphabet.of((1, 2), 4, 5, 6, 7, 8), 8, 3)
@example(PartAlphabet.at_least(5), 3, 2)
@example(PartAlphabet.of(2, 3, (4, 2)), 0, 1)
def test_weak_routes_match_brute_random(alphabet, n, k):
    brute = weak_brute_table(n, k, alphabet)[n][k]
    assert weak_counts(n, k, alphabet)[n] == brute
    assert count_weak_minor_sum(n, k, alphabet) == brute


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize(
    "alphabet,n",
    [
        # Runs of two values (two singles) against three (two edges).
        (PartAlphabet.upto(2), 30), (PartAlphabet.upto(3), 30),
        (PartAlphabet.of(2, 3), 30), (PartAlphabet.of(2, 3, 4), 30),
        # A bounded run that ends at n - 1 (its end edge x^n), at n and at n + 1.
        (PartAlphabet(((2, 29, 3),)), 30), (PartAlphabet(((2, 30, 3),)), 30),
        (PartAlphabet(((2, 31, 3),)), 30),
        # Long runs that meet: their edges merge, 4: -2 + 1.
        (PartAlphabet(((1, 3, 2), (4, 6, 1))), 30),
        # A colored open tail after a run, meeting it and after a gap.
        (PartAlphabet(((1, 4, 1), (5, None, 2))), 30),
        (PartAlphabet(((1, 4, 1), (7, None, 3))), 30),
        # A first value above n (nothing to divide by), and a run ending far past n.
        (PartAlphabet.of(10**12), 50), (PartAlphabet.upto(10**9), 50),
    ],
)
def test_weak_series_matches_the_dense_residues(alphabet, n, k):
    # weak_residues divides by the dense 1 - P mod 2^61 - 1 and shares no code with recurrence.
    want = weak_residues(n, k, alphabet)
    assert [c % P for c in weak_counts(n, k, alphabet)] == want
    assert [int(c) % P for c in decimal_weak_counts(n, k, alphabet)] == want


@pytest.mark.parametrize(
    "n,k,lhs,rhs",
    [
        (4, 1, 10, 10),
        (3, 0, 3, 3),
        (6, 6, 1, 1),
        (6, 2, 51, 51),
    ],
)
def test_convolved_fibonacci_point_values(n, k, lhs, rhs):
    # eq1's sides: the weak count over {1, 2} and its closed form at (n - k, k)
    assert weak_counts(n - k, k, PartAlphabet.upto(2))[n - k] == lhs
    assert count_weak_parts12_closed(n - k, k) == rhs
    assert convolution_power(shifted_fibonacci(n - k), k + 1, n - k) == lhs


def test_convolved_fibonacci_rejects_bad_arguments():
    # eq1 read at (n - k, k): a zero count above the target, or a negative
    # target, is no weak count
    for n, k in ((3, 4), (-1, 0)):
        with pytest.raises(DomainError):
            weak_counts(n - k, k, PartAlphabet.upto(2))
        with pytest.raises(DomainError):
            count_weak_parts12_closed(n - k, k)


@pytest.mark.parametrize("n,k,expected", [(2, 1, 5), (3, 2, 25), (1, 1, 2)])
def test_unrestricted_closed_values(n, k, expected):
    assert count_weak_unrestricted_closed(n, k) == expected


def test_unrestricted_closed_matches_brute():
    alphabet = PartAlphabet.at_least(1)
    for n in range(1, 11):
        for k in range(6):
            assert count_weak_unrestricted_closed(n, k) == weak_brute_table(n, k, alphabet)[n][k]


def test_unrestricted_closed_zero_and_negative_targets():
    assert [count_weak_unrestricted_closed(0, k) for k in range(4)] == [1, 1, 1, 1]
    with pytest.raises(DomainError):
        count_weak_unrestricted_closed(-1, 2)


@pytest.mark.parametrize("function,args,message", [
    (count_weak_minor_sum, (-1, 2, PartAlphabet.at_least(1)), "got n=-1, k=2"),
    (count_weak_minor_sum, (3, -1, PartAlphabet.upto(2)), "got n=3, k=-1"),
    (count_weak_unrestricted_closed, (3, -1), "zero count must be >= 0, got -1"),
    (fib_block_closed, (0, 1), "got n=0, k=1"),
    (fib_block_closed, (1, -1), "got n=1, k=-1"),
    (adjudicate_fib_block_identity, (0, 1), "need max_n >= 1 and max_k >= 0, got 0, 1"),
    (adjudicate_fib_block_identity, (1, -1), "need max_n >= 1 and max_k >= 0, got 1, -1"),
], ids=["minor-sum-n", "minor-sum-k", "closed-k", "block-closed-n", "block-closed-k",
        "adjudicate-max-n", "adjudicate-max-k"])
def test_each_route_refuses_arguments_outside_its_domain(function, args, message):
    # No other test reaches these checks: verify's grids never pass such
    # arguments, and the CLI tests give no negative size to these routes.
    # One argument is out at a time, and the route's own check must name
    # it: without that check a later one refuses with another message
    # (the minor order, an empty alphabet, the brute walk's k) or, for
    # fib_block_closed(1, -1), none refuses and it returns 0.
    with pytest.raises(DomainError, match=re.escape(message)):
        function(*args)


def test_unrestricted_closed_equals_minor_sum_of_the_tailed_band():
    assert count_weak_minor_sum(617, 6, PartAlphabet.at_least(1)) == (
        count_weak_unrestricted_closed(617, 6)
    )


@pytest.mark.parametrize("n,k,expected", [(2, 1, 5), (2, 0, 2), (0, 3, 1)])
def test_parts12_closed_values(n, k, expected):
    assert count_weak_parts12_closed(n, k) == expected


def test_parts12_closed_matches_brute():
    alphabet = PartAlphabet.upto(2)
    for n in range(11):
        for k in range(5):
            assert count_weak_parts12_closed(n, k) == weak_brute_table(n, k, alphabet)[n][k]


# The closed form steps term to term with an exact division: at n = k = 0
# and n = 1 it takes no step, and in the hundreds its terms run to
# hundreds of digits, where a step that rounded would show.
@pytest.mark.parametrize("k", [0, 3, 17])
@pytest.mark.parametrize("n", [0, 1, 300, 517, 901])
def test_parts12_closed_equals_the_series(n, k):
    assert count_weak_parts12_closed(n, k) == weak_counts(n, k, PartAlphabet.upto(2))[n]


@pytest.mark.parametrize(
    "n,k,closed,convolution",
    [
        (3, 0, 2, 2),
        (2, 1, 3, 3),
        (1, 0, 1, 1),
        (5, 2, 54, 54),
    ],
)
def test_fib_block_point_values(n, k, closed, convolution):
    assert fib_block_closed(n, k) == closed
    assert convolution_power(_fib_blocks(n), k + 1, n) == convolution


def _fib_blocks(top):
    """b_0 = 1, b_j = F_j for 1 <= j <= top: F_j counts the compositions
    of j into odd parts."""
    return [1] + [fibonacci(j) for j in range(1, top + 1)]


def test_fib_block_convolution_with_no_zeros_is_fibonacci():
    # thm12's convolution side at k = 0: the zero-free series over odd parts
    assert weak_counts(11, 0, PartAlphabet.of(1, 3, 5, 7, 9, 11))[1:] == [
        fibonacci(n) for n in range(1, 12)
    ]


def test_fib_block_convolution_is_the_literal_convolution():
    # b_0 = 1, b_j = F_j, convolved directly, against the convolution side
    # that thm12 reads from its weak series over odd parts
    for p in adjudicate_fib_block_identity(15, 4).points:
        assert p.rhs == convolution_power(_fib_blocks(p.n), p.k + 1, p.n), (p.n, p.k)


def test_fib_block_closed_equals_convolution():
    for n in range(1, 11):
        for k in range(4):
            assert fib_block_closed(n, k) == convolution_power(_fib_blocks(n), k + 1, n), (n, k)
