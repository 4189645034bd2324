import decimal
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount import verify
from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_weak_brute, weak_brute_table
from compcount.errors import DomainError, GuardExceeded
from compcount.hessenberg import count_weak_minor_sum
from compcount.recurrence import (
    count_compositions, count_weak_convolution, decimal_weak_counts, weak_counts)
from compcount.reports import GridPoint, Report, summary, to_json, to_text
from compcount.verify import (
    BATTERY,
    _point,
    adjudicate_fib_block_identity,
    check_fib_convolution_identity,
    run_identity,
)
from compcount.weakforms import (
    binomial,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
)

from paper_refs import (
    convolution_power, fibonacci, insertion_sum, sequence_prefix, to_json_dict)
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
# A run form with a negative lag times a zero count: -0 unless stored as 0.
@example(PartAlphabet(((5, 6, 1), (20, 60, 2))), 30, 0)
# The narrowest interval from 1 in the run form.
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
def test_count_weak_convolution_values(n, k, alphabet, expected):
    assert count_weak_convolution(n, k, alphabet) == expected


def test_count_weak_convolution_without_zeros_is_plain_count():
    for _, alphabet in BATTERY:
        for n in range(12):
            assert count_weak_convolution(n, 0, alphabet) == count_compositions(n, alphabet)


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
    assert count_weak_minor_sum(n, k, alphabet) == count_weak_convolution(n, k, alphabet)


def test_weak_routes_match_brute_across_battery():
    for _, alphabet in BATTERY:
        for n in range(10):
            for k in range(4):
                brute = count_weak_brute(n, k, alphabet)
                assert count_weak_convolution(n, k, alphabet) == brute, (alphabet, n, k)
                assert count_weak_minor_sum(n, k, alphabet) == brute, (alphabet, n, k)


@settings(max_examples=40, deadline=None)
@given(alphabets(), st.integers(0, 7), st.integers(0, 3))
# The narrowest interval from 1 in the run form, its edge x^7 inside n.
@example(PartAlphabet.upto(6), 7, 3)
def test_weak_routes_match_brute_random(alphabet, n, k):
    brute = count_weak_brute(n, k, alphabet)
    assert count_weak_convolution(n, k, alphabet) == brute
    assert count_weak_minor_sum(n, k, alphabet) == brute


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
    assert count_weak_convolution(n - k, k, PartAlphabet.upto(2)) == lhs
    assert count_weak_parts12_closed(n - k, k) == rhs
    assert convolution_power(_shifted_fibonacci(n - k), k + 1, n - k) == lhs


def _shifted_fibonacci(top):
    """F_1, ..., F_{top+1}: F_{j+1} counts the compositions of j into {1, 2}."""
    return [fibonacci(j + 1) for j in range(top + 1)]


def test_convolved_fibonacci_identity_grid():
    report = check_fib_convolution_identity(25)
    assert len(report.points) == 26 * 27 // 2
    for p in report.points:
        fib_convolution = convolution_power(_shifted_fibonacci(p.n - p.k), p.k + 1, p.n - p.k)
        assert p.lhs == p.rhs == fib_convolution, (p.n, p.k)


def test_convolved_fibonacci_rejects_bad_arguments():
    # eq1 read at (n - k, k): a zero count above the target, or a negative
    # target, is no weak count
    for n, k in ((3, 4), (-1, 0)):
        with pytest.raises(DomainError):
            count_weak_convolution(n - k, k, PartAlphabet.upto(2))
        with pytest.raises(DomainError):
            count_weak_parts12_closed(n - k, k)


@pytest.mark.parametrize("n,k,expected", [(2, 1, 5), (3, 2, 25), (1, 1, 2)])
def test_unrestricted_closed_values(n, k, expected):
    assert count_weak_unrestricted_closed(n, k) == expected


def test_unrestricted_closed_matches_brute():
    alphabet = PartAlphabet.at_least(1)
    for n in range(1, 11):
        for k in range(6):
            assert count_weak_unrestricted_closed(n, k) == count_weak_brute(n, k, alphabet)


def test_unrestricted_closed_zero_and_negative_targets():
    assert [count_weak_unrestricted_closed(0, k) for k in range(4)] == [1, 1, 1, 1]
    with pytest.raises(DomainError):
        count_weak_unrestricted_closed(-1, 2)


@pytest.mark.parametrize("function,args", [
    (count_weak_minor_sum, (-1, 2, PartAlphabet.at_least(1))),
    (count_weak_minor_sum, (3, -1, PartAlphabet.upto(2))),
    (count_weak_unrestricted_closed, (3, -1)),
    (fib_block_closed, (0, 1)),
    (adjudicate_fib_block_identity, (0, 1)),
], ids=["minor-sum-n", "minor-sum-k", "closed-k", "block-closed-n", "adjudicate-max-n"])
def test_each_route_refuses_arguments_outside_its_domain(function, args):
    # No other test reaches these checks: verify's grids never pass such
    # arguments, and the CLI tests give no negative size to these routes.
    with pytest.raises(DomainError):
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
            assert count_weak_parts12_closed(n, k) == count_weak_brute(n, k, alphabet)


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


def test_adjudication_report_structure():
    report = adjudicate_fib_block_identity(6, 2)
    assert report.identity == "thm12"
    assert len(report.points) == 18
    internal, oracle, agree = summary(report)
    assert internal
    assert oracle is False
    assert not agree
    point = next(p for p in report.points if (p.n, p.k) == (2, 1))
    assert (point.lhs, point.rhs, point.oracle) == (3, 3, 2)
    assert not point.agree
    point = next(p for p in report.points if (p.n, p.k) == (3, 0))
    assert (point.lhs, point.rhs, point.oracle) == (2, 2, 1)
    assert any("n+1" in note for note in report.notes)


@pytest.mark.parametrize("max_n,max_k", [(5, 4), (7, 1)])
def test_adjudication_passes_the_guard_when_its_largest_point_fits(max_n, max_k, monkeypatch):
    monkeypatch.setenv("COMPCOUNT_GUARD", "8")
    assert len(adjudicate_fib_block_identity(max_n, max_k).points) == max_n * (max_k + 1)


@pytest.mark.parametrize("max_n,max_k", [(6, 4), (8, 1), (8, 0)])
def test_adjudication_refuses_past_the_guard(max_n, max_k, monkeypatch):
    # the largest brute totals read are max_n + max_k - 1 (with k zeros)
    # and max_n + 1 (the shifted k = 0 check); either past 8 is refused
    monkeypatch.setenv("COMPCOUNT_GUARD", "8")
    with pytest.raises(GuardExceeded):
        adjudicate_fib_block_identity(max_n, max_k)


def test_adjudication_text_serialization():
    report = adjudicate_fib_block_identity(3, 1)
    text = to_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("# identity=thm12 lhs=closed rhs=convolution")
    records = [line for line in lines if not line.startswith("#")]
    assert len(records) == len(report.points)
    first = records[0].split()
    assert first == ["thm12", "1", "0", "1", "1", "1", "agree"]
    assert lines[-1].endswith("lhs_vs_rhs=agree oracle=disagree overall=disagree")


def test_grid_point_verdict_is_pure_function_of_values():
    assert _point(1, 0, 3, 3, 3).agree
    assert _point(1, 0, 3, 3, None).agree
    assert not _point(1, 0, 3, 3, 2).agree
    assert not _point(1, 0, 3, 2, None).agree


@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_grid_point_verdict_property(n, k, lhs, rhs, oracle):
    point = _point(n, k, lhs, rhs, oracle)
    values = {lhs, rhs} | ({oracle} if oracle is not None else set())
    assert point == GridPoint(n, k, lhs, rhs, oracle, len(values) == 1)
    verdict = _json(Report("demo", (point,), "a", "b"))["points"][0]["verdict"]
    assert verdict == ("agree" if point.agree else "disagree")


def _json(report):
    """The one report of the JSON document that to_json prints for it."""
    return json.loads(to_json([report]))["reports"][0]


def test_report_json_dict_field_names():
    report = Report(
        identity="demo",
        points=(_point(1, 0, 2, 2, 2),),
        lhs_label="a",
        rhs_label="b",
    )
    data = _json(report)
    assert set(data["points"][0]) == {"identity", "n", "k", "lhs", "rhs", "oracle", "verdict"}
    assert data["summary"] == {"lhs_vs_rhs": True, "oracle": True, "agree": True}


_small_points = st.builds(
    _point,
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 2),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 2)),
)


@given(
    st.lists(_small_points, max_size=6),
    st.lists(st.text("abc =#", max_size=8), max_size=2),
)
def test_text_and_json_renderers_read_one_summary(points, notes):
    report = Report("demo", tuple(points), "a", "b", tuple(notes))
    internal, oracle, agree = summary(report)
    assert internal == all(p.lhs == p.rhs for p in points)
    with_oracle = [p for p in points if p.oracle is not None]
    assert oracle == (all(p.agree for p in with_oracle) if with_oracle else None)
    assert agree == all(p.agree for p in points)

    words = {True: "agree", False: "disagree", None: "n/a"}
    lines = to_text(report).splitlines()
    data = _json(report)
    assert data["summary"] == {"lhs_vs_rhs": internal, "oracle": oracle, "agree": agree}
    assert lines[-1] == (
        f"# summary identity=demo lhs_vs_rhs={words[internal]}"
        f" oracle={words[oracle]} overall={words[agree]}"
    )
    records = [line.split() for line in lines if not line.startswith("#")]
    assert [r[-1] for r in records] == [p["verdict"] for p in data["points"]]
    assert [r[-1] for r in records] == [words[p.agree] for p in points]


_any_ints = st.one_of(st.integers(), st.integers(-(2**10000), 2**10000))
_any_points = st.builds(_point, _any_ints, _any_ints, _any_ints, _any_ints,
                        st.one_of(st.none(), _any_ints))
_reports = st.builds(Report, st.text(), st.lists(_any_points, max_size=4).map(tuple), st.text(),
                     st.text(), st.lists(st.text(), max_size=3).map(tuple))


@settings(max_examples=200)
@given(st.lists(_reports, max_size=4))
@example([Report('q"\\\n\x00\x1f\x7f\u00e9\u2028\U0001f600', (_point(0, 0, 1, 1),), "", "",
                 ("",))])
@example([Report("empty", (), "a", "b")])
def test_json_renderer_prints_the_bytes_of_json_dumps(reports):
    """Strings with quotes, backslashes, control and non-ASCII characters,
    absent oracles, empty grids and notes, and ints of thousands of digits
    print as json.dumps prints the reference dicts."""
    expected = json.dumps({"reports": [to_json_dict(r) for r in reports]}, indent=2)
    assert to_json(reports) == expected


def test_identity_runners_agree_on_small_grids():
    assert summary(check_fib_convolution_identity(12))[2]
    assert all(summary(r)[2] for r in run_identity("thm8", 7, 2))
    assert all(summary(r)[2] for r in run_identity("thm9", 7, 2))
    assert all(summary(r)[2] for r in run_identity("thm10", 8, 4))
    assert all(summary(r)[2] for r in run_identity("thm11", 8, 3))


def test_thm8_reads_one_weak_series_per_alphabet_and_zero_count(monkeypatch):
    columns = []

    def weak_column(n, k, alphabet):
        columns.append((n, k, alphabet))
        return weak_counts(n, k, alphabet)

    monkeypatch.setattr(verify, "weak_counts", weak_column)
    reports = run_identity("thm8", 7, 2)
    assert sorted(columns, key=repr) == sorted(
        ((7, k, alphabet) for _, alphabet in BATTERY for k in range(3)), key=repr)
    assert all(summary(r)[2] for r in reports)


def test_thm12_reads_one_weak_series_per_zero_count(monkeypatch):
    columns = []

    def weak_column(n, k, alphabet):
        columns.append((n, k, alphabet))
        return weak_counts(n, k, alphabet)

    monkeypatch.setattr(verify, "weak_counts", weak_column)
    (report,) = run_identity("thm12", 7, 2)
    assert columns == [(7, k, PartAlphabet.of(1, 3, 5, 7)) for k in range(3)]
    assert all(p.lhs == p.rhs for p in report.points)


def test_verify_walks_each_brute_table_once_per_call(monkeypatch):
    # thm8 and thm9 read the battery's six tables, thm10 and thm11 two of
    # them again, and thm12 one of its own: seven walks, not fifteen.
    expected = run_identity("all", 4, 2)
    walks = []

    def walk(*args):
        walks.append(args)
        return weak_brute_table(*args)

    monkeypatch.setattr(verify, "weak_brute_table", walk)
    assert run_identity("all", 4, 2) == expected
    assert len(walks) == len(set(walks)) == 7


def test_run_identity_dispatch():
    reports = run_identity("all", 5, 2)
    identities = [r.identity for r in reports]
    assert identities[0] == "eq1"
    assert identities[-1] == "thm12"
    assert sum(1 for name in identities if name.startswith("thm8[")) == len(BATTERY)
    with pytest.raises(DomainError):
        run_identity("nope", 5, 2)
