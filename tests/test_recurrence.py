import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute
from compcount.errors import DomainError
from compcount import recurrence
from compcount.recurrence import count_compositions, divide_series, series_term
from compcount.verify import BATTERY

from paper_refs import fibonacci, kstep_fibonacci, sequence_prefix
from strategies import alphabets, margins, run_form_margin


@pytest.mark.parametrize(
    "alphabet,length,expected",
    [
        (PartAlphabet.at_least(1), 9, ((1, -1), (1, -2))),
        (PartAlphabet.at_least(3), 9, ((1, -1), (1, -1, 0, -1))),
        (PartAlphabet.at_least(3), 3, ((1, -1), (1, -1, 0))),
        (PartAlphabet.of((1, 2), 3), 9, ((1,), (1, -2, 0, -1))),
        (PartAlphabet.of((2, 3), (5, 1)), 9, ((1,), (1, 0, -3, 0, 0, -1))),
        (PartAlphabet.of((2, 3), (5, 1)), 4, ((1,), (1, 0, -3, 0))),
        (PartAlphabet.of(10**12), 4, ((1,), (1, 0, 0, 0))),
        (PartAlphabet.upto(3), 9, ((1,), (1, -1, -1, -1))),
        (PartAlphabet.upto(10**9), 4, ((1, -1), (1, -2, 0, 0))),
        (PartAlphabet.of(2, 3, 4), 9, ((1,), (1, 0, -1, -1, -1))),
        (PartAlphabet.of(2, 3, 4), 3, ((1,), (1, 0, -1))),
        (PartAlphabet(((5, 10**12, 1),)), 4, ((1, -1), (1, -1, 0, 0))),
        # The same series as all's ((1, -1), (1, -2)), cut one term past x^n.
        (PartAlphabet.upto(2000), 2001, ((1, -1), (1, -2) + (0,) * 1999)),
        # A wide colored run: five nonzero terms, whatever its width.
        (PartAlphabet.of(*((v, 3) for v in range(1, 5001))), 6000,
         ((1, -1), (1, -4) + (0,) * 4999 + (3,))),
        # Either side of the margin: 24 dense terms against 5 run terms
        # stays dense, 25 against 5 takes the run form.
        (PartAlphabet.upto(22), 30, ((1,), (1,) + (-1,) * 22)),
        (PartAlphabet.upto(23), 30, ((1, -1), (1, -2) + (0,) * 22 + (1,))),
    ],
)
def test_generating_function_transcribes_the_alphabet(alphabet, length, expected):
    assert alphabet.generating_function(length) == expected


def test_divide_series_expands_the_fibonacci_series():
    # 1 / (1 - x - x^2) is the Fibonacci series
    terms = [1, 0, 0, 0, 0, 0, 0]
    divide_series(terms, (1, -1, -1))
    assert terms == [1, 1, 2, 3, 5, 8, 13]


@settings(max_examples=60, deadline=None)
@given(st.one_of(alphabets(max_multiplicity=1), st.integers(1, 4).map(PartAlphabet.at_least)),
       margins)
def test_generating_function_series_matches_brute(alphabet, margin):
    # One color per value keeps the brute stream at n = 12 within 2^11
    # compositions; colored alphabets meet the brute oracle at n <= 9 below.
    with run_form_margin(margin):
        num, den = alphabet.generating_function(13)
    series = [*num] + [0] * (13 - len(num))
    divide_series(series, den)
    assert series == [count_compositions_brute(n, alphabet) for n in range(13)]


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
            assert count_compositions(n, alphabet) == count_compositions_brute(
                n, alphabet
            ), (alphabet, n)


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
@given(alphabets(), st.integers(0, 9), margins)
def test_recurrence_agrees_with_brute_on_random_alphabets(alphabet, n, margin):
    with run_form_margin(margin):
        count = count_compositions(n, alphabet)
    assert count == count_compositions_brute(n, alphabet)


def test_a_wide_colored_run_matches_brute():
    # 1x3,...,60x3 takes the run form at the module's margin, so the -4x
    # of (1 - x) - 3(x - x^61) is checked against the oracle directly.
    alphabet = PartAlphabet.of(*((v, 3) for v in range(1, 61)))
    assert alphabet.generating_function(11)[0] == (1, -1)
    assert [count_compositions(n, alphabet) for n in range(11)] == [
        count_compositions_brute(n, alphabet) for n in range(11)
    ]


@settings(max_examples=20, deadline=None)
@given(alphabets(), st.permutations(list(range(8))))
def test_prefixes_agree_in_any_request_order(alphabet, order):
    expected = sequence_prefix(alphabet, 8)
    for n in order:
        assert sequence_prefix(alphabet, n) == expected[: n + 1]


_coefficients = st.integers(-(2**70), 2**70) | st.integers(-3, 3)


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
    divide_series(terms, den)
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
