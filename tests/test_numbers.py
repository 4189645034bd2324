import pytest
from hypothesis import given, strategies as st

from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute
from compcount.errors import DomainError
from compcount.recurrence import count_compositions, divide_series
from compcount.weakforms import binomial

from paper_refs import convolution_power, fibonacci, kstep_fibonacci


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


def test_fibonacci_seed_and_small_values():
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    assert fibonacci(7) == 13


@pytest.mark.parametrize("i", [0, -3])
def test_fibonacci_rejects_nonpositive_index(i):
    with pytest.raises(DomainError):
        fibonacci(i)


def test_fibonacci_is_two_step():
    for i in range(1, 61):
        assert fibonacci(i) == kstep_fibonacci(2, i)


@pytest.mark.parametrize(
    "k,i,expected",
    [
        (2, 6, 8),
        (3, 5, 7),
        (2, 1, 1),
        (2, 2, 1),
        (4, 8, 56),
    ],
)
def test_kstep_values(k, i, expected):
    assert kstep_fibonacci(k, i) == expected


@pytest.mark.parametrize("k,i", [(1, 3), (0, 1), (2, 0), (3, -1)])
def test_kstep_domain_errors(k, i):
    with pytest.raises(DomainError):
        kstep_fibonacci(k, i)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kstep_counts_bounded_compositions_brute(k):
    # the derived seed for (3, 5): compositions of 4 with parts <= 3
    assert kstep_fibonacci(3, 5) == count_compositions_brute(4, PartAlphabet.upto(3))
    for n in range(13):
        assert kstep_fibonacci(k, n + 1) == count_compositions_brute(n, PartAlphabet.upto(k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kstep_counts_bounded_compositions_recurrence(k):
    for n in range(30):
        assert kstep_fibonacci(k, n + 1) == count_compositions(n, PartAlphabet.upto(k))


_coefficients = st.integers(-(2**70), 2**70) | st.integers(-3, 3)


@given(st.lists(_coefficients, max_size=40), st.lists(_coefficients, max_size=12))
def test_divide_series_divides_in_place(series, tail):
    den = [1, *tail]
    terms = list(series)
    assert divide_series(terms, den) is None
    # The quotient's prefix times den, cut to the same length, is S again.
    assert [sum(d * terms[m - i] for i, d in enumerate(den[: m + 1]))
            for m in range(len(terms))] == series
    empty = []
    divide_series(empty, den)
    assert empty == []


def test_convolution_power_single_fold_reads_off_sequence():
    assert convolution_power([5, 7, 11], 1, 2) == 11


def test_convolution_power_matches_expanded_square():
    # (1 + x + 2x^2)^2 = 1 + 2x + 5x^2 + 4x^3 + 4x^4
    seq = [1, 1, 2]
    assert [convolution_power(seq, 2, i) for i in range(5)] == [1, 2, 5, 4, 4]


def test_convolution_power_rejects_bad_arguments():
    with pytest.raises(DomainError):
        convolution_power([1], 0, 1)
    with pytest.raises(DomainError):
        convolution_power([1], 2, -1)
