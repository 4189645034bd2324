import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount import alphabet as alphabet_module
from compcount.alphabet import PartAlphabet
from compcount.enumeration import weak_brute_table
from compcount.errors import DomainError
from compcount import recurrence
from compcount.recurrence import count_compositions, divide_series, series_term
from compcount.verify import BATTERY

from paper_refs import fibonacci, kstep_fibonacci, sequence_prefix
from strategies import alphabets


# Each case pins the terms that c(0), ..., c(length - 1) read, so at n = length - 1.
@pytest.mark.parametrize(
    "alphabet,length,expected",
    [
        (PartAlphabet.at_least(1), 9, ((1, -1), (1, -2))),
        (PartAlphabet.at_least(3), 9, ((1, -1), (1, -1, 0, -1))),
        # No run within n: the dense 1, which the rule reads from no runs.
        (PartAlphabet.at_least(3), 3, ((1,), (1,))),
        (PartAlphabet.of((1, 2), 3), 9, ((1,), (1, -2, 0, -1))),
        (PartAlphabet.of((2, 3), (5, 1)), 9, ((1,), (1, 0, -3, 0, 0, -1))),
        (PartAlphabet.of((2, 3), (5, 1)), 4, ((1,), (1, 0, -3))),
        (PartAlphabet.of(10**12), 4, ((1,), (1,))),
        (PartAlphabet.upto(3), 9, ((1,), (1, -1, -1, -1))),
        (PartAlphabet.upto(10**9), 4, ((1, -1), (1, -2))),
        (PartAlphabet.of(2, 3, 4), 9, ((1,), (1, 0, -1, -1, -1))),
        # The run 2..4 cut at n = 2 reaches n: the run form, with no end edge.
        (PartAlphabet.of(2, 3, 4), 3, ((1, -1), (1, -1, -1))),
        (PartAlphabet(((5, 10**12, 1),)), 4, ((1,), (1,))),
        # Up to x^n the same series as all's: the run reaches n, so it has no
        # end edge, and D ends at its last term.
        (PartAlphabet.upto(2000), 2001, ((1, -1), (1, -2))),
        # A wide colored run: five nonzero terms, whatever its width.
        (PartAlphabet.of(*((v, 3) for v in range(1, 5001))), 6000,
         ((1, -1), (1, -4) + (0,) * 4999 + (3,))),
        # Either side of the rule's edge, a fifth: 24 dense terms against 5 run
        # terms stays dense, 25 against 5 takes the run form.
        (PartAlphabet.upto(22), 30, ((1,), (1,) + (-1,) * 22)),
        (PartAlphabet.upto(23), 30, ((1, -1), (1, -2) + (0,) * 22 + (1,))),
    ],
)
def test_generating_function_transcribes_the_alphabet(alphabet, length, expected):
    assert alphabet.generating_function(length - 1) == expected


def _singles(den):
    """The dense den = 1 - P as divide_series' terms: every lag a single."""
    return tuple((i, -d) for i, d in enumerate(den) if i and d), ()


def _both_forms(alphabet, n):
    """(N expected, (N, D)) for each form of the alphabet's N/D at n: a
    RUN_FORM_MARGIN of 0 forces the run form, N = (1, -1), and one above any
    term count the dense form, N = (1,), unless a run reaches n, which the
    rule reads in the run form whatever the margin."""
    runs = alphabet.runs_within(n)
    dense = (1, -1) if runs and runs[-1][1] == n else (1,)
    forms = []
    for margin, num in ((0, (1, -1)), (n + 3, dense)):
        with patch.object(alphabet_module, "RUN_FORM_MARGIN", margin):
            forms.append((num, alphabet.generating_function(n)))
    return forms


def test_divide_series_expands_the_fibonacci_series():
    # 1 / (1 - x - x^2) is the Fibonacci series
    terms = [1, 0, 0, 0, 0, 0, 0]
    divide_series(terms, *_singles((1, -1, -1)))
    assert terms == [1, 1, 2, 3, 5, 8, 13]


@settings(max_examples=60, deadline=None)
@given(st.one_of(alphabets(max_multiplicity=1), st.integers(1, 4).map(PartAlphabet.at_least)))
def test_generating_function_series_matches_brute(alphabet):
    # One color per value keeps the brute stream at n = 12 within 2^11
    # compositions; colored alphabets meet the brute oracle at n <= 9 below.
    expected = [weak_brute_table(n, 0, alphabet)[n][0] for n in range(13)]
    for form_num, (num, den) in _both_forms(alphabet, 12):
        assert num == form_num
        series = [*num] + [0] * (13 - len(num))
        divide_series(series, *_singles(den))
        assert series == expected, form_num


# A huge single value and runs wider than any n, drawn beside small alphabets.
_HUGE = (PartAlphabet.of(10**12), PartAlphabet.upto(10**9), PartAlphabet(((5, 10**12, 1),)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(alphabets(), st.sampled_from(_HUGE)), st.integers(0, 60))
def test_generating_function_ends_at_a_nonzero_term(alphabet, n):
    for form_num, (num, den) in _both_forms(alphabet, n):
        assert num == form_num and den[0] == 1 and den[-1] != 0, form_num


@settings(max_examples=100, deadline=None)
@given(alphabets(), st.integers(0, 60))
@example(PartAlphabet(((1, 3, 1),)), 60)
def test_a_run_past_n_changes_no_generating_function(alphabet, n):
    # The wide run appended past the cut is one that runs_within(n) drops:
    # neither the terms nor the form may read it.
    if alphabet[-1][1] is not None:
        start = max(n + 1, alphabet[-1][1] + 2)
        alphabet = PartAlphabet((*alphabet, (start, start + 10**6, 1)))
    runs = alphabet.runs_within(n)
    if runs:
        assert alphabet.generating_function(n) == PartAlphabet(runs).generating_function(n)


def test_an_interval_wider_than_n_counts_as_its_open_run():
    # upto:10^9 at n = 10^5 reads the two terms of all's D, not 10^5 + 1.
    alphabet = PartAlphabet.upto(10**9)
    assert alphabet.generating_function(10**5)[1] == (1, -2)
    assert count_compositions(10**5, alphabet) == count_compositions(
        10**5, PartAlphabet.at_least(1))


@pytest.mark.parametrize(
    "alphabet,n,expected",
    [
        (PartAlphabet.at_least(1), 4, [1, 1, 2, 4, 8]),
        (PartAlphabet.upto(2), 5, [1, 1, 2, 3, 5, 8]),
        (PartAlphabet.at_least(2), 6, [1, 0, 1, 1, 2, 3, 5]),
    ],
)
def test_sequence_prefix(alphabet, n, expected):
    assert sequence_prefix(alphabet, n) == expected


def test_sequence_prefix_starts_at_one_and_returns_fresh_lists():
    alphabet = PartAlphabet.of((2, 2), (5, 1))
    long = sequence_prefix(alphabet, 12)
    short = sequence_prefix(alphabet, 4)
    assert long[0] == 1
    assert long[:5] == short
    short[0] = 999  # a caller's edit must not reach a later call
    assert sequence_prefix(alphabet, 4)[0] == 1


@pytest.mark.parametrize(
    "n,alphabet,expected",
    [
        (10, PartAlphabet.upto(10), 512),
        (10, PartAlphabet.at_least(1), 512),
        (7, PartAlphabet.upto(3), 44),
        (0, PartAlphabet.of(4), 1),
    ],
)
def test_count_compositions_values(n, alphabet, expected):
    assert count_compositions(n, alphabet) == expected


def test_count_rejects_negative_target():
    with pytest.raises(DomainError):
        count_compositions(-1, PartAlphabet.upto(2))


def test_count_matches_brute_across_battery():
    for _, alphabet in BATTERY:
        for n in range(16):
            assert count_compositions(n, alphabet) == weak_brute_table(
                n, 0, alphabet
            )[n][0], (alphabet, n)


def test_unrestricted_count_is_power_of_two():
    alphabet = PartAlphabet.at_least(1)
    for n in range(1, 201):
        assert count_compositions(n, alphabet) == 2 ** (n - 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bounded_parts_count_is_kstep_fibonacci(k):
    for n in range(41):
        assert count_compositions(n, PartAlphabet.upto(k)) == kstep_fibonacci(k, n + 1)


def test_parts_at_least_two_count_is_shifted_fibonacci():
    alphabet = PartAlphabet.at_least(2)
    for n in range(2, 61):
        assert count_compositions(n, alphabet) == fibonacci(n - 1)


def test_unbounded_alphabet_matches_explicit_expansion():
    # counts only see values <= n, so {k, k+1, ...} behaves like {k..n}
    for k in (1, 2, 3):
        unbounded = PartAlphabet.at_least(k)
        for n in range(k, 15):
            explicit = PartAlphabet.of(*range(k, n + 1))
            assert count_compositions(n, unbounded) == count_compositions(n, explicit)


@settings(max_examples=60, deadline=None)
@given(alphabets(), st.integers(0, 9))
def test_recurrence_agrees_with_brute_on_random_alphabets(alphabet, n):
    expected = weak_brute_table(n, 0, alphabet)[n][0]
    assert count_compositions(n, alphabet) == expected
    for form_num, (num, den) in _both_forms(alphabet, n):
        assert num == form_num
        assert series_term(num, den, n) == expected, form_num


def test_a_wide_colored_run_matches_brute():
    # 1x3,...,60x3 cut at n reaches n and takes the run form, so the -4x of
    # (1 - x) - 3x is checked against the oracle directly.
    alphabet = PartAlphabet.of(*((v, 3) for v in range(1, 61)))
    assert alphabet.generating_function(10) == ((1, -1), (1, -4))
    assert [count_compositions(n, alphabet) for n in range(11)] == [
        weak_brute_table(n, 0, alphabet)[n][0] for n in range(11)
    ]


@settings(max_examples=20, deadline=None)
@given(alphabets(), st.permutations(list(range(8))))
def test_prefixes_agree_in_any_request_order(alphabet, order):
    expected = sequence_prefix(alphabet, 8)
    for n in order:
        assert sequence_prefix(alphabet, n) == expected[: n + 1]


_coefficients = st.integers(-(2**70), 2**70) | st.integers(-3, 3)


@given(st.lists(_coefficients, max_size=40), st.lists(_coefficients, max_size=12))
def test_divide_series_divides_in_place(series, tail):
    den = [1, *tail]
    terms = list(series)
    assert divide_series(terms, *_singles(den)) is None
    # The quotient's prefix times den, cut to the same length, is S again.
    assert [sum(d * terms[m - i] for i, d in enumerate(den[: m + 1]))
            for m in range(len(terms))] == series
    empty = []
    divide_series(empty, *_singles(den))
    assert empty == []


@st.composite
def _quotients(draw):
    """(num, den, n) with den[0] = 1: zero, negative and huge coefficients,
    trailing zeros on either side, numerators as long as the denominator or
    longer, and n from 0 up."""
    den = [1] + draw(st.lists(_coefficients, max_size=12))
    num = draw(st.lists(_coefficients, max_size=2 * len(den) + 2))
    den += [0] * draw(st.integers(0, 3))
    num += [0] * draw(st.integers(0, 3))
    return tuple(num), tuple(den), draw(st.integers(0, 200))


@settings(max_examples=300, deadline=None)
@given(_quotients())
def test_series_term_is_the_series_coefficient(quotient):
    num, den, n = quotient
    terms = [*num[: n + 1]] + [0] * (n + 1 - len(num))
    divide_series(terms, *_singles(den))
    assert series_term(num, den, n) == terms[n]


@pytest.mark.parametrize(
    "num,den,n,expected",
    [
        ((), (1, -1), 5, 0),
        ((7,), (1,), 0, 7),
        ((7,), (1,), 3, 0),
        ((0, 0, 5), (1,), 2, 5),
        ((1, 2, 3, 4, 5), (1, -1), 4, 15),  # numerator longer than D
        ((1,), (1, 1), 9, -1),  # 1 / (1 + x) alternates
        ((1, -1), (1, -2, 0, 0), 30, 2**29),  # trailing zeros in D
    ],
)
def test_series_term_edge_cases(num, den, n, expected):
    assert series_term(num, den, n) == expected


def _schoolbook(a, b, count):
    c = [0] * count
    for i, x in enumerate(a):
        for j, y in enumerate(b[: max(count - i, 0)]):
            c[i + j] += x * y
    return c


def _byte_edge(m, t, extra=0, alternate=False):
    """[M] * (L + extra) and [M] * L, M = 2^m - 1 and L = 2^t - 1: their
    product's slots take bits = 2m + t, and coefficient L - 1 is ±L M^2,
    within a factor of two of 2^bits for m >= 2; signs alternate if asked,
    so that the product's slots meet the negative extreme too."""
    sign = -1 if alternate else 1
    low, length = (1 << m) - 1, (1 << t) - 1
    a = [sign**i * low for i in range(length + extra)]
    return a, a[:length]


# Kronecker slots at a byte edge: 2m + t = 8j bits fill j whole bytes, so
# only _product's spare byte holds the sign and the borrow.
@pytest.mark.parametrize("m,t", [(2, 4), (3, 2), (5, 6), (6, 4), (4, 8), (31, 2), (61, 6)])
@pytest.mark.parametrize("alternate", [False, True])
def test_product_fills_its_slots_at_a_byte_edge(m, t, alternate):
    a, b = _byte_edge(m, t, alternate=alternate)
    count = 2 * len(a) - 1
    expected = _schoolbook(a, b, count)
    assert abs(expected[len(a) - 1]) == len(a) * a[0] ** 2 >= 1 << (2 * m + t - 1)
    assert recurrence._product(a, b, count) == expected
    assert recurrence._product(a, a, count) == expected  # the squaring path


def test_product_of_fifteen_threes_at_one_byte():
    assert recurrence._product([3] * 15, [3] * 15, 29)[14] == 135


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.sampled_from([2, 4, 6]), st.integers(0, 9), st.booleans(),
       st.integers(0, 40))
def test_product_at_any_byte_edge_is_the_schoolbook_product(j, t, extra, alternate, cut):
    m = 4 * j - t // 2  # 2m + t = 8j: the edge of j bytes
    a, b = _byte_edge(m, t, extra, alternate)
    count = len(a) + len(b) - 1 - min(cut, len(b) - 1)
    assert recurrence._product(a, b, count) == _schoolbook(a, b, count)


def test_a_million_part_count_is_a_power_of_two():
    # Try n = 10^6 only on a kernel that holds no prefix: the prefix of
    # 10^6 terms would need about 60 GB. At n = 10^4 it holds 6 MB.
    tracemalloc.start()
    try:
        count_compositions(10**4, PartAlphabet.at_least(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert count_compositions(10**6, PartAlphabet.at_least(1)) == 1 << (10**6 - 1)


def test_a_single_count_holds_no_prefix():
    # One count leaves nothing behind once it returns, at module level or
    # anywhere else, and its peak stays within a few copies of the result:
    # the series of all terms up to n would hold about n/2 of them.
    names = dict(vars(recurrence))
    tracemalloc.start()
    try:
        value = count_compositions(60000, PartAlphabet.upto(3))
        _, peak = tracemalloc.get_traced_memory()
        size = (value.bit_length() + 7) // 8
        del value
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vars(recurrence) == names
    assert peak < 8 * size
    assert left < size // 2
