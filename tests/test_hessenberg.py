import itertools

import pytest
from hypothesis import given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount import hessenberg
from compcount.errors import DomainError, GuardExceeded
from compcount.hessenberg import (
    build_matrix,
    charpoly,
    det_bareiss,
    det_hessenberg,
    minor_sum,
    minor_sum_subsets,
    parse_matrix,
)
from compcount.recurrence import count_compositions
from compcount.verify import BATTERY
from compcount.weakforms import count_weak_unrestricted_closed

from paper_refs import (
    dense_matrix,
    fibonacci,
    format_matrix,
    minor_product_formula,
    principal_minor,
    sequence_prefix,
)
from strategies import bands


def det_cofactor(rows):
    """Tiny first-row Laplace expansion, the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


@pytest.mark.parametrize(
    "alphabet,n,expected",
    [
        (PartAlphabet.upto(3), 3, [[1, 1, 1], [-1, 1, 1], [0, -1, 1]]),
        (PartAlphabet.upto(2), 2, [[1, 1], [-1, 1]]),
        (PartAlphabet.of((1, 2)), 2, [[2, 0], [-1, 2]]),
        (PartAlphabet.at_least(2), 4, [[0, 1, 1, 1], [-1, 0, 1, 1], [0, -1, 0, 1], [0, 0, -1, 0]]),
    ],
)
def test_build_matrix_shape(alphabet, n, expected):
    assert dense_matrix(build_matrix(alphabet, n)) == expected


def test_matrix_entries_and_bounds():
    m = build_matrix(PartAlphabet.upto(2), 3)
    assert m == (1, 1, 0)
    grid = list(hessenberg._rows(m))
    assert grid[1][0] == -1
    assert grid[2][0] == 0
    assert grid[0][1] == 1
    with pytest.raises(DomainError):
        build_matrix(PartAlphabet.upto(2), -1)
    # The empty band is the order-0 matrix: the empty composition's count.
    assert build_matrix(PartAlphabet.upto(2), 0) == ()
    assert det_hessenberg(()) == 1
    assert charpoly(()) == (1,)
    assert minor_sum((), 0) == 1
    assert minor_sum_subsets((), 0) == 1


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (build_matrix(PartAlphabet.upto(3), 3), 4),
        (build_matrix(PartAlphabet.upto(2), 5), 8),
        ((7,), 7),
    ],
)
def test_det_hessenberg_values(matrix, expected):
    assert det_hessenberg(matrix) == expected


def test_det_counts_compositions_across_battery():
    for _, alphabet in BATTERY:
        for n in range(1, 26):
            assert det_hessenberg(build_matrix(alphabet, n)) == count_compositions(
                n, alphabet
            )


def test_det_bareiss_basics():
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([]) == 1
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(DomainError):
        det_bareiss([[1, 2]])


def test_det_bareiss_handles_zero_pivots_with_swaps():
    rows = [[0, 0, 2], [0, 3, 1], [5, 1, 7]]
    assert det_bareiss(rows) == det_cofactor(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_det_bareiss_matches_cofactor_oracle(rows):
    assert det_bareiss(rows) == det_cofactor(rows)


@settings(max_examples=60, deadline=None)
@given(bands())
def test_det_hessenberg_matches_bareiss_on_any_band(band):
    assert det_hessenberg(band) == det_bareiss(dense_matrix(band))


def test_det_hessenberg_of_constant_tails_at_large_order():
    assert det_hessenberg(build_matrix(PartAlphabet.at_least(1), 3000)) == 2**2999
    assert det_hessenberg(build_matrix(PartAlphabet.at_least(2), 3000)) == fibonacci(2999)


def test_det_hessenberg_matches_bareiss_across_battery():
    for _, alphabet in BATTERY:
        for n in range(1, 13):
            matrix = build_matrix(alphabet, n)
            assert det_hessenberg(matrix) == det_bareiss(dense_matrix(matrix))


def test_principal_minor_values():
    m = build_matrix(PartAlphabet.upto(3), 3)
    assert principal_minor(m, {1}) == 2
    assert principal_minor(m, {2}) == 1
    assert principal_minor(m, {3}) == 2
    assert principal_minor(m, ()) == det_hessenberg(m)
    assert principal_minor(m, {1, 2, 3}) == 1


def test_principal_minor_index_validation():
    m = build_matrix(PartAlphabet.upto(3), 3)
    with pytest.raises(DomainError):
        principal_minor(m, {0})
    with pytest.raises(DomainError):
        principal_minor(m, {4})


@pytest.mark.parametrize(
    "alphabet,n,deleted,expected",
    [
        (PartAlphabet.upto(3), 3, {2}, 1),
        (PartAlphabet.upto(2), 4, {1, 3}, 1),
        (PartAlphabet.upto(2), 4, (), 5),
    ],
)
def test_minor_product_formula_values(alphabet, n, deleted, expected):
    assert minor_product_formula(alphabet, n, deleted) == expected


def test_minor_product_formula_matches_minors_exhaustively():
    for _, alphabet in BATTERY:
        for n in range(1, 7):
            matrix = build_matrix(alphabet, n)
            for size in range(n + 1):
                for deleted in itertools.combinations(range(1, n + 1), size):
                    assert principal_minor(matrix, deleted) == minor_product_formula(
                        alphabet, n, deleted
                    ), (alphabet, n, deleted)


def test_minor_sums_by_subsets(monkeypatch):
    m3 = build_matrix(PartAlphabet.upto(3), 3)
    assert minor_sum_subsets(m3, 2) == 5
    assert minor_sum_subsets(m3, 0) == 1
    assert minor_sum_subsets(m3, 3) == det_hessenberg(m3)
    m2 = build_matrix(PartAlphabet.upto(2), 2)
    assert minor_sum_subsets(m2, 1) == 2  # the trace
    with pytest.raises(DomainError):
        minor_sum_subsets(m3, 4)
    with pytest.raises(GuardExceeded):
        minor_sum_subsets(build_matrix(PartAlphabet.upto(2), 23), 1)
    monkeypatch.setattr(hessenberg, "SUBSET_GUARD", 23)
    assert minor_sum_subsets(build_matrix(PartAlphabet.upto(2), 23), 23) \
        == det_hessenberg(build_matrix(PartAlphabet.upto(2), 23))


def test_minor_sum_values():
    assert minor_sum(build_matrix(PartAlphabet.upto(3), 3), 2) == 5
    assert minor_sum(build_matrix(PartAlphabet.upto(2), 2), 1) == 2
    for n in (1, 4, 9):
        assert minor_sum(build_matrix(PartAlphabet.upto(2), n), n) == sequence_prefix(
            PartAlphabet.upto(2), n
        )[n]
        assert minor_sum(build_matrix(PartAlphabet.upto(2), n), 0) == 1
    with pytest.raises(DomainError):
        minor_sum(build_matrix(PartAlphabet.upto(2), 3), 4)
    with pytest.raises(DomainError):
        minor_sum(build_matrix(PartAlphabet.upto(2), 3), -1)


def test_minor_sum_matches_subsets():
    for _, alphabet in BATTERY:
        for n in range(1, 9):
            matrix = build_matrix(alphabet, n)
            for r in range(n + 1):
                assert minor_sum(matrix, r) == minor_sum_subsets(matrix, r), (alphabet, n, r)


def test_battery_minors_are_nonnegative():
    # empirical: nonnegative bands with the -1 subdiagonal appear to have
    # nonnegative principal minors (observed, not proved)
    for _, alphabet in BATTERY:
        for n in range(1, 11):
            matrix = build_matrix(alphabet, n)
            for size in range(n + 1):
                for deleted in itertools.combinations(range(1, n + 1), size):
                    assert principal_minor(matrix, deleted) >= 0


@pytest.mark.parametrize(
    "matrix,expected",
    [
        (build_matrix(PartAlphabet.upto(2), 2), (2, -2, 1)),
        ((1,), (-1, 1)),
        (build_matrix(PartAlphabet.upto(3), 3), (-4, 5, -3, 1)),
    ],
)
def test_charpoly_values(matrix, expected):
    assert charpoly(matrix) == expected


def test_charpoly_is_monic_of_full_degree():
    for _, alphabet in BATTERY:
        for n in range(1, 9):
            poly = charpoly(build_matrix(alphabet, n))
            assert len(poly) - 1 == n
            assert poly[n] == 1


def test_charpoly_coefficients_are_signed_minor_sums():
    for _, alphabet in BATTERY:
        for n in range(1, 7):
            matrix = build_matrix(alphabet, n)
            poly = charpoly(matrix)
            for r in range(n + 1):
                sign = 1 if r % 2 == 0 else -1
                assert poly[n - r] == sign * minor_sum_subsets(matrix, r)


@settings(max_examples=40, deadline=None)
@given(bands(max_order=5))
def test_charpoly_coefficients_on_random_bands(band):
    n = len(band)
    poly = charpoly(band)
    for r in range(n + 1):
        sign = 1 if r % 2 == 0 else -1
        assert poly[n - r] == sign * minor_sum_subsets(band, r)
        assert minor_sum(band, r) == minor_sum_subsets(band, r)


def test_charpoly_of_all_parts_matches_unrestricted_closed_form():
    n = 200
    poly = charpoly(build_matrix(PartAlphabet.at_least(1), n))
    for r in range(1, n + 1):
        sign = 1 if r % 2 == 0 else -1
        assert poly[n - r] == sign * count_weak_unrestricted_closed(r, n - r)


def test_matrix_text_format_round_trip():
    m = build_matrix(PartAlphabet.upto(3), 3)
    text = format_matrix(dense_matrix(m))
    assert text == "1 1 1\n-1 1 1\n0 -1 1"
    assert parse_matrix(text) == dense_matrix(m)
    assert format_matrix([[1]]) == "1"


def test_parse_matrix_rejects_bad_grids():
    with pytest.raises(DomainError):
        parse_matrix("")
    with pytest.raises(DomainError):
        parse_matrix("1 2\n3")
    with pytest.raises(ValueError):
        parse_matrix("1 x\n3 4")
