import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount import enumeration
from compcount.enumeration import count_compositions_brute, count_weak_brute, weak_brute_table
from compcount.errors import DomainError, GuardExceeded
from compcount.recurrence import weak_counts
from compcount.verify import BATTERY

from paper_refs import count_weak_insertion, enumerate_compositions
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


def _colored_with_runs(alphabet):
    return len(alphabet.runs) > 1 and any(colors > 1 for *_, colors in alphabet.runs)


@settings(max_examples=40, deadline=None)
@given(st.one_of(alphabets(), alphabets().filter(_colored_with_runs)),
       st.integers(0, 9), st.integers(0, 3))
@example(PartAlphabet.of((1, 2), 3, (5, 3), (6, 3)), 9, 3)
@example(PartAlphabet(((1, 2, 3), (3, None, 1))), 9, 3)
def test_level_walk_equals_insertion_on_colored_multi_run_alphabets(alphabet, max_n, max_k):
    # Every level of a colored alphabet splits by weight and zeros left;
    # each part value extends it through its own translate table, and a
    # zero moves a whole group to one zero fewer.
    assert weak_brute_table(max_n, max_k, alphabet) == tuple(
        tuple(count_weak_insertion(n, k, alphabet) for k in range(max_k + 1))
        for n in range(max_n + 1)
    )


def test_weak_brute_table_allocates_only_for_reachable_sums(monkeypatch):
    # One part value of 200000: only the sums 0 and 200000 are reached, so
    # the other 199999 rows are one shared zero row, not a row each.
    monkeypatch.setenv("COMPCOUNT_GUARD", "300000")
    tracemalloc.start()
    try:
        table = weak_brute_table(200000, 0, PartAlphabet.of(200000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (table[0], table[200000], len(table)) == ((1,), (1,), 200001)
    assert sum(map(sum, table)) == 2
    assert peak < 5 << 20


def test_a_walk_past_the_ascii_fast_path_equals_the_series(monkeypatch):
    # Parts >= 40 leave 162 distinct sums below 200, so the states run past
    # the 128 code points of str.translate's ASCII fast path.
    monkeypatch.setenv("COMPCOUNT_GUARD", "200")
    alphabet = PartAlphabet.at_least(40)
    table = weak_brute_table(200, 2, alphabet)
    assert sum(1 for row in table if any(row)) == 162
    assert [list(column) for column in zip(*table)] == [
        weak_counts(200, k, alphabet) for k in range(3)
    ]


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


def test_a_refusal_does_not_depend_on_earlier_calls(monkeypatch):
    # Under a default guard of 12 the walk's budget is 2^12 sequences,
    # fewer than this table needs; a raised guard of 14 lets it through
    # once, and must not let the same call through again once it is gone.
    monkeypatch.setattr(enumeration, "DEFAULT_GUARD", 12)
    monkeypatch.setenv("COMPCOUNT_GUARD", "14")
    assert weak_brute_table(11, 1, PartAlphabet.at_least(1))[11] == (1024, 7168)
    monkeypatch.delenv("COMPCOUNT_GUARD")
    with pytest.raises(GuardExceeded):
        weak_brute_table(11, 1, PartAlphabet.at_least(1))


def test_negative_targets_rejected():
    with pytest.raises(DomainError):
        count_compositions_brute(-1, PartAlphabet.upto(2))
    with pytest.raises(DomainError):
        count_weak_brute(2, -1, PartAlphabet.upto(2))
    with pytest.raises(DomainError):
        weak_brute_table(-1, 0, PartAlphabet.upto(2))
