import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount import enumeration
from compcount.enumeration import (
    count_compositions_brute,
    count_weak_brute,
    count_weak_insertion,
    enumerate_compositions,
    weak_brute_table,
)
from compcount.errors import DomainError, GuardExceeded
from compcount.verify import BATTERY

from strategies import alphabets


def values_of(stream):
    return [tuple(v for v, _ in comp) for comp in stream]


def test_enumeration_is_lexicographic_by_values_then_colors():
    stream = list(enumerate_compositions(3, PartAlphabet.upto(3)))
    assert values_of(stream) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    keys = [(tuple(v for v, _ in c), tuple(q for _, q in c)) for c in stream]
    assert keys == sorted(keys)


def test_enumeration_matches_exhaustive_listing():
    stream = set(values_of(enumerate_compositions(3, PartAlphabet.upto(3))))
    assert stream == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_zero_target_yields_exactly_the_empty_composition():
    assert list(enumerate_compositions(0, PartAlphabet.upto(5))) == [()]


def test_colored_enumeration_materializes_every_color():
    stream = list(enumerate_compositions(2, PartAlphabet.of((1, 2))))
    assert stream == [
        ((1, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 1)),
        ((1, 2), (1, 2)),
    ]


@pytest.mark.parametrize(
    "n,alphabet,expected",
    [
        (4, PartAlphabet.upto(4), 8),
        (5, PartAlphabet.upto(2), 8),
        (6, PartAlphabet.at_least(2), 5),
        (2, PartAlphabet.of((1, 2)), 4),
    ],
)
def test_count_compositions_brute(n, alphabet, expected):
    assert count_compositions_brute(n, alphabet) == expected


def test_stream_length_equals_brute_count():
    for _, alphabet in BATTERY:
        for n in range(9):
            stream = enumerate_compositions(n, alphabet)
            assert sum(1 for _ in stream) == count_compositions_brute(n, alphabet)


@pytest.mark.parametrize(
    "n,k,alphabet,expected",
    [
        (1, 1, PartAlphabet.of(1), 2),
        (2, 1, PartAlphabet.upto(2), 5),
        (0, 3, PartAlphabet.upto(2), 1),
        (2, 1, PartAlphabet.at_least(2), 2),
    ],
)
def test_count_weak_brute_values(n, k, alphabet, expected):
    assert count_weak_brute(n, k, alphabet) == expected


@pytest.mark.parametrize(
    "n,k,alphabet,expected",
    [
        (2, 1, PartAlphabet.upto(2), 5),
        (3, 2, PartAlphabet.upto(3), 25),
        (0, 4, PartAlphabet.upto(3), 1),
    ],
)
def test_count_weak_insertion_values(n, k, alphabet, expected):
    assert count_weak_insertion(n, k, alphabet) == expected


def test_weak_with_no_zeros_reduces_to_compositions():
    for _, alphabet in BATTERY:
        for n in range(10):
            stream = enumerate_compositions(n, alphabet)
            assert count_weak_brute(n, 0, alphabet) == sum(1 for _ in stream)


def test_weak_brute_table_matches_insertion_across_battery():
    for _, alphabet in BATTERY:
        table = weak_brute_table(10, 3, alphabet)
        assert [len(row) for row in table] == [4] * 11
        for n in range(11):
            for k in range(4):
                assert table[n][k] == count_weak_insertion(n, k, alphabet), (alphabet, n, k)


@settings(max_examples=40, deadline=None)
@given(alphabets(), st.integers(0, 8), st.integers(0, 3))
def test_weak_brute_table_vs_insertion_random_alphabets(alphabet, max_n, max_k):
    table = weak_brute_table(max_n, max_k, alphabet)
    assert table == tuple(
        tuple(count_weak_insertion(n, k, alphabet) for k in range(max_k + 1))
        for n in range(max_n + 1)
    )


def test_weak_brute_table_cache_is_bounded():
    walk = enumeration._weak_table
    for n in range(40):
        weak_brute_table(n % 8, n // 8, PartAlphabet.upto(2))
    assert walk.cache_info().currsize <= walk.cache_info().maxsize


def test_equal_alphabets_built_differently_share_one_cached_table():
    enumeration._weak_table.cache_clear()
    first = weak_brute_table(6, 2, PartAlphabet.of(1, 2))
    second = weak_brute_table(6, 2, PartAlphabet.upto(2))
    info = enumeration._weak_table.cache_info()
    enumeration._weak_table.cache_clear()
    assert first is second
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_weak_brute_table_allocates_only_for_reachable_sums(monkeypatch):
    # One part value of 200000: only the sums 0 and 200000 are reached, so
    # the other 199999 rows are one shared zero row, not a row each.
    monkeypatch.setenv("COMPCOUNT_GUARD", "300000")
    enumeration._weak_table.cache_clear()
    tracemalloc.start()
    try:
        table = weak_brute_table(200000, 0, PartAlphabet.of(200000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        enumeration._weak_table.cache_clear()
    assert (table[0], table[200000], len(table)) == ((1,), (1,), 200001)
    assert sum(map(sum, table)) == 2
    assert peak < 5 << 20


def test_weak_brute_agrees_with_insertion_across_battery():
    for _, alphabet in BATTERY:
        for n in range(13):
            for k in range(5):
                assert count_weak_brute(n, k, alphabet) == count_weak_insertion(
                    n, k, alphabet
                ), (alphabet, n, k)


@settings(max_examples=40, deadline=None)
@given(alphabets(), st.integers(0, 8), st.integers(0, 3))
def test_weak_brute_vs_insertion_random_alphabets(alphabet, n, k):
    assert count_weak_brute(n, k, alphabet) == count_weak_insertion(n, k, alphabet)


def test_guard_refuses_large_targets():
    with pytest.raises(GuardExceeded):
        enumerate_compositions(26, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        count_compositions_brute(26, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        count_weak_brute(26, 0, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        count_weak_brute(1, 26, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        weak_brute_table(26, 0, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        weak_brute_table(0, 26, PartAlphabet.upto(2))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("COMPCOUNT_GUARD", "30")
    assert count_compositions_brute(27, PartAlphabet.of((27, 1))) == 1
    monkeypatch.setenv("COMPCOUNT_GUARD", "4")
    assert count_compositions_brute(4, PartAlphabet.upto(2)) == 5
    with pytest.raises(GuardExceeded):
        count_compositions_brute(5, PartAlphabet.upto(2))
    with pytest.raises(GuardExceeded):
        weak_brute_table(5, 2, PartAlphabet.upto(2))


def test_negative_targets_rejected():
    with pytest.raises(DomainError):
        count_compositions_brute(-1, PartAlphabet.upto(2))
    with pytest.raises(DomainError):
        count_weak_brute(2, -1, PartAlphabet.upto(2))
    with pytest.raises(DomainError):
        weak_brute_table(-1, 0, PartAlphabet.upto(2))
