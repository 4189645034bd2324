import pytest
from hypothesis import example, given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount.enumeration import weak_brute_table
from compcount.errors import DomainError
from compcount.hessenberg import build_matrix, det_hessenberg, weak_minor_table
from compcount.recurrence import count_compositions, weak_columns
from compcount.verify import BATTERY
from compcount.weakforms import (
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
)

from paper_refs import convolution_power, fibonacci, kstep_fibonacci, partition_table
from strategies import alphabets


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
    assert kstep_fibonacci(3, 5) == weak_brute_table(4, 0, PartAlphabet.upto(3))[4][0]
    for n in range(13):
        assert kstep_fibonacci(k, n + 1) == weak_brute_table(n, 0, PartAlphabet.upto(k))[n][0]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kstep_counts_bounded_compositions_recurrence(k):
    for n in range(30):
        assert kstep_fibonacci(k, n + 1) == count_compositions(n, PartAlphabet.upto(k))


def test_the_partition_walk_equals_the_brute_walk_on_the_verify_battery():
    # verify's default grid, 8 x 3, on every battery alphabet
    for label, alphabet in BATTERY:
        assert partition_table(8, 3, alphabet) == weak_brute_table(8, 3, alphabet), label


def test_the_partition_walk_refuses_a_negative_size():
    for n, k in ((-1, 0), (0, -1)):
        with pytest.raises(DomainError):
            partition_table(n, k, PartAlphabet.upto(2))


ODD = PartAlphabet.of(*range(1, 41, 2))
# alphabet -> its closed form at (n, k), n >= 1 (thm10, thm11, thm12)
CLOSED = {
    PartAlphabet.at_least(1): count_weak_unrestricted_closed,
    PartAlphabet.upto(2): count_weak_parts12_closed,
    ODD: fib_block_closed,
}


@settings(max_examples=40, deadline=None)
@given(st.one_of(alphabets(), st.sampled_from(tuple(CLOSED))), st.integers(0, 40),
       st.integers(0, 3))
@example(PartAlphabet.at_least(1), 40, 3)
@example(ODD, 40, 3)
@example(PartAlphabet.of((1, 2), 3, (5, 3)), 40, 3)
def test_every_route_equals_the_partition_walk(alphabet, n, max_k):
    # The walk over partitions reaches n = 40 on `all` (p(40) = 37 338)
    # where the brute walk stops at 25, and shares no kernel with a route.
    table = partition_table(n, max_k, alphabet)
    columns = list(weak_columns(n, max_k, alphabet))
    minors = weak_minor_table(alphabet, n, max_k)
    closed = CLOSED.get(alphabet)
    assert len(columns) == len(minors) == max_k + 1
    for m in range(n + 1):
        for k in range(max_k + 1):
            assert columns[k][m] == minors[k][m] == table[m][k], (m, k)
            if closed and m:
                assert closed(m, k) == table[m][k], (m, k)
    assert count_compositions(n, alphabet) == det_hessenberg(build_matrix(alphabet, n)) == (
        table[n][0])
