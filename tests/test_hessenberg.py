import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from compcount import hessenberg
from compcount.alphabet import PartAlphabet
from compcount.cli import parse_alphabet
from compcount.errors import DomainError
from compcount.hessenberg import (
    build_matrix,
    charpoly,
    count_weak_minor_sum,
    det_hessenberg,
    parse_matrix,
)
from compcount.recurrence import count_compositions, weak_counts
from compcount.verify import BATTERY
from compcount.weakforms import count_weak_unrestricted_closed

from paper_refs import (
    charpoly_table_row,
    dense_matrix,
    det_bareiss,
    fibonacci,
    format_matrix,
    minor_product_formula,
    minor_sum_subsets,
    principal_minor,
    sequence_prefix,
)
from strategies import alphabets, bands


def column_minor_sum(band, r):
    """The sum of all order-r principal minors of ``band``'s matrix,
    c_{n-r}(n), read by the column kernel alone: the last cell of columns
    0..n-r of the charpoly table, each cut to r + 1 cells."""
    n = len(band)
    *_, column = hessenberg._charpoly_columns(hessenberg._terms(band), n, n - r, r)
    return column[-1]


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


def _band_by_value(alphabet, n):
    band = [0] * n
    for value, colors in alphabet.parts_within(n):
        band[value - 1] = colors
    return tuple(band)


@settings(max_examples=200, deadline=None)
@given(st.one_of(alphabets(), alphabets(max_value=40)), st.integers(0, 40))
def test_build_matrix_fills_the_band_value_by_value(alphabet, n):
    assert build_matrix(alphabet, n) == _band_by_value(alphabet, n)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_build_matrix_cuts_each_run_at_the_order(n):
    # Runs that start at, end at, straddle and pass n, open or closed.
    for runs in (((n, None, 1),), ((n, n + 2, 2),), ((1, n, 3),),
                 ((max(1, n - 1), n + 1, 2),), ((n + 1, None, 1),),
                 ((1, 1, 2), (n + 1, 10**12, 3)), ((1, 10**9, 1),)):
        alphabet = PartAlphabet(runs)
        assert build_matrix(alphabet, n) == _band_by_value(alphabet, n), runs


def test_matrix_entries_and_bounds():
    m = build_matrix(PartAlphabet.upto(2), 3)
    assert m == (1, 1, 0)
    grid = dense_matrix(m)
    assert grid[1][0] == -1
    assert grid[2][0] == 0
    assert grid[0][1] == 1
    with pytest.raises(DomainError):
        build_matrix(PartAlphabet.upto(2), -1)
    # The empty band is the order-0 matrix: the empty composition's count.
    assert build_matrix(PartAlphabet.upto(2), 0) == ()
    assert det_hessenberg(()) == 1
    assert charpoly(()) == (1,)
    assert count_weak_minor_sum(0, 0, PartAlphabet.upto(2)) == 1
    assert column_minor_sum((), 0) == 1
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


def test_minor_sums_by_subsets():
    m3 = build_matrix(PartAlphabet.upto(3), 3)
    assert minor_sum_subsets(m3, 2) == 5
    assert minor_sum_subsets(m3, 0) == 1
    assert minor_sum_subsets(m3, 3) == det_hessenberg(m3)
    m2 = build_matrix(PartAlphabet.upto(2), 2)
    assert minor_sum_subsets(m2, 1) == 2  # the trace
    with pytest.raises(DomainError):
        minor_sum_subsets(m3, 4)
    assert minor_sum_subsets(build_matrix(PartAlphabet.upto(2), 23), 23) \
        == det_hessenberg(build_matrix(PartAlphabet.upto(2), 23))


def test_minor_sum_values():
    # The order-r minor sum of the order-N matrix is the weak count of r
    # with N - r zeros: order 2 of upto:3 at N = 3, the trace of upto:2 at
    # N = 2, the determinant at r = N and the empty minor at r = 0.
    assert count_weak_minor_sum(2, 3 - 2, PartAlphabet.upto(3)) == 5
    assert count_weak_minor_sum(1, 2 - 1, PartAlphabet.upto(2)) == 2
    for n in (1, 4, 9):
        assert count_weak_minor_sum(n, 0, PartAlphabet.upto(2)) == sequence_prefix(
            PartAlphabet.upto(2), n
        )[n]
        assert count_weak_minor_sum(0, n, PartAlphabet.upto(2)) == 1
    # Orders 4 and -1 of the order-3 matrix: a negative zero count, a
    # negative target.
    with pytest.raises(DomainError):
        count_weak_minor_sum(4, 3 - 4, PartAlphabet.upto(2))
    with pytest.raises(DomainError):
        count_weak_minor_sum(-1, 3 + 1, PartAlphabet.upto(2))


def test_minor_sum_matches_subsets():
    for _, alphabet in BATTERY:
        for n in range(1, 9):
            matrix = build_matrix(alphabet, n)
            for r in range(n + 1):
                assert count_weak_minor_sum(r, n - r, alphabet) == minor_sum_subsets(matrix, r), (
                    alphabet, n, r)


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
        assert column_minor_sum(band, r) == minor_sum_subsets(band, r)


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


# The two loops of charpoly, forced in turn through the seam that picks
# between them: packed rows at the band's exact slot width, or the column
# loop.
LOOPS = {
    "rows": lambda band, terms: hessenberg._slot_width(band),
    "columns": lambda band, terms: 0,
}


@settings(max_examples=120, deadline=None)
@given(bands(max_order=40))
def test_both_loops_read_the_table_cell_by_cell(band):
    n = len(band)
    row = charpoly_table_row(band)
    assert det_hessenberg(band) == row[0]
    assert [column_minor_sum(band, r) for r in range(n + 1)] == [
        row[n - r] for r in range(n + 1)]
    expected = tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(row))
    for loop, width in LOOPS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hessenberg, "_charpoly_width", width)
            assert charpoly(band) == expected, loop


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 4), st.booleans())
def test_charpoly_fills_its_slots_at_a_byte_edge(n, j, negative):
    # The band (v, 0, ..., 0) of order n, |v| = 2^m - 2, has R_n(1) =
    # (2^m - 1)^n, of m n bits, a whole number of bytes, and the charpoly
    # (x - v)^n, whose constant term needs all m n bits for its magnitude:
    # only the slot's byte past them holds the sign.
    m = 8 * j // math.gcd(n, 8)
    v = (1 - 2 * negative) * ((1 << m) - 2)
    assert (((1 << m) - 1) ** n).bit_length() == m * n
    assert abs(v) ** n >= 1 << (m * n - 1)
    expected = tuple(math.comb(n, i) * (-v) ** (n - i) for i in range(n + 1))
    assert charpoly((v,) + (0,) * (n - 1)) == expected


def test_the_terms_read_runs_of_three_or_more_as_two_edges():
    # 1, 2x2, 0, three 4s, a 1, then a tail of 5s from lag 9.
    band = (1, 2, 2, 0, 4, 4, 4, 1, 5, 5, 5, 5)
    assert hessenberg._terms(band) == (((-1, 1), (-2, 2), (-3, 2), (-8, 1)),
                                       ((-5, 4), (-8, -4), (-9, 5)))
    assert det_hessenberg(band) == charpoly_table_row(band)[0]


def _loop_used(monkeypatch, run):
    """The loop, "rows" or "columns", that ``run`` reads the table with,
    and what ``run`` returns."""
    used = []
    columns = hessenberg._charpoly_columns
    monkeypatch.setattr(hessenberg, "_charpoly_columns",
                        lambda *args: used.append("columns") or columns(*args))
    value = run()
    return used[0] if used else "rows", value


@pytest.mark.parametrize("n,loop", [(1607, "rows"), (1608, "columns")])
def test_the_charpoly_of_all_leaves_packed_rows_at_order_1608(monkeypatch, n, loop):
    # Either side of the rule's edge: slots of 2232 bits at 1607, where
    # moving a slot's bits costs as much as the interpreter's work per cell.
    band = build_matrix(PartAlphabet.at_least(1), n)
    used, poly = _loop_used(monkeypatch, lambda: charpoly(band))
    assert (used, poly[0], poly[n]) == (loop, (-1) ** n * 2 ** (n - 1), 1)


@pytest.mark.parametrize("spec,n,loop", [("1,2x2,5", 1531, "rows"), ("1,2x2,5", 1532, "columns"),
                                         ("atleast:2", 2000, "rows")],
                         ids=["1531-rows", "1532-columns", "atleast:2-2000-rows"])
def test_the_charpoly_of_a_colored_band_leaves_packed_rows_at_order_1532(monkeypatch, spec, n, loop):
    # The same edge on singles and a colored run: slots of 2232 bits at
    # 1531 and of SLOT_BITS = 2240 at 1532. atleast:2 at order 2000 packs
    # rows of 2008-bit slots, past the order of the edge on all, through a
    # band with a head gap and then a tail.
    alphabet = parse_alphabet(spec)
    band = build_matrix(alphabet, n)
    used, poly = _loop_used(monkeypatch, lambda: charpoly(band))
    assert (used, poly[0], poly[n]) == (loop, (-1) ** n * count_compositions(n, alphabet), 1)


@pytest.mark.parametrize("ring_bits,loop", [(2**30, "rows"), (171_776, "rows"),
                                           (171_775, "columns"), (10**5, "columns")])
def test_packed_rows_hold_a_ring_of_at_most_ring_bits(monkeypatch, ring_bits, loop):
    # upto:30 at order 60 holds 31 + 1 rows of 61 slots of 88 bits: 171 776
    # bits, a ring that fits a bound of exactly its size and no bit less.
    monkeypatch.setattr(hessenberg, "RING_BITS", ring_bits)
    band = build_matrix(PartAlphabet.upto(30), 60)
    used, poly = _loop_used(monkeypatch, lambda: charpoly(band))
    assert (used, poly[0]) == (loop, count_compositions(60, PartAlphabet.upto(30)))


@pytest.mark.parametrize("spec", ["all", "upto:3", "1,2x2,5"])
def test_packed_rows_peak_near_the_ring_of_the_rows_the_terms_read(spec):
    # The ring holds reach + 1 rows of n + 1 slots of w bits; the rest of
    # the peak is a row step's temporaries and the unpacked coefficients.
    band = build_matrix(parse_alphabet(spec), 1000)
    row_bytes = 1001 * hessenberg._slot_width(band) // 8
    tracemalloc.start()
    try:
        poly = charpoly(band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly[0] == count_compositions(1000, parse_alphabet(spec))
    assert peak < (hessenberg._reach(hessenberg._terms(band)) + 8) * row_bytes


def test_weak_minors_far_past_n_never_compute_a_slot_width(monkeypatch):
    # Weak minors read the columns whatever the table's shape, so no
    # determinant of the order n + k matrix is spent on w: neither for
    # 10^4 + 1 columns of six cells on all nor for 51 columns of 501 cells
    # on atleast:2. They hold two columns and the band at a time, 0.23 and
    # 0.08 MiB: the 1 MiB bound fails a read that keeps every column's
    # tail, 2.9 and 1.7 MiB.
    monkeypatch.setattr(hessenberg, "_slot_width", lambda band: pytest.fail("w computed"))
    for n, k, spec in ((5, 10**4, "all"), (500, 50, "atleast:2")):
        alphabet = parse_alphabet(spec)
        tracemalloc.start()
        try:
            value = count_weak_minor_sum(n, k, alphabet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == weak_counts(n, k, alphabet)[n], (n, k, spec)
        assert peak < 2**20, (n, k, spec, peak)


@pytest.mark.parametrize("n,k,spec", [(2000, 10, "upto:1999"), (50, 2000, "all")])
def test_weak_minors_equal_the_weak_series_at_large_orders(n, k, spec):
    alphabet = parse_alphabet(spec)
    assert count_weak_minor_sum(n, k, alphabet) == weak_counts(n, k, alphabet)[n]


def test_the_determinant_holds_a_window_of_rows_not_the_column():
    # Under 1 MiB each: the order-40000 determinant of all, its band built
    # beforehand, and the weak count of 20000 on upto:3 with no zeros, its
    # band built inside the trace. Column 0 of the charpoly table, which the
    # weak count would read at k = 0 without the determinant, peaks at
    # 23.4 MiB there.
    band = build_matrix(PartAlphabet.at_least(1), 40000)
    for read, expected in ((lambda: det_hessenberg(band), 2**39999),
                           (lambda: count_weak_minor_sum(20000, 0, PartAlphabet.upto(3)),
                            count_compositions(20000, PartAlphabet.upto(3)))):
        tracemalloc.start()
        try:
            value = read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 2**20, peak
