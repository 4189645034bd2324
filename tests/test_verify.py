import json

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount import verify
from compcount.alphabet import PartAlphabet
from compcount.enumeration import weak_brute_table
from compcount.errors import DomainError, GuardExceeded
from compcount.recurrence import weak_columns
from compcount.reports import GridPoint, Report, summary, to_json, to_text
from compcount.verify import (
    BATTERY,
    _point,
    adjudicate_fib_block_identity,
    check_fib_convolution_identity,
    run_identity,
)

from paper_refs import convolution_power, shifted_fibonacci, to_json_dict


def test_convolved_fibonacci_identity_grid():
    report = check_fib_convolution_identity(25)
    assert len(report.points) == 26 * 27 // 2
    for p in report.points:
        fib_convolution = convolution_power(shifted_fibonacci(p.n - p.k), p.k + 1, p.n - p.k)
        assert p.lhs == p.rhs == fib_convolution, (p.n, p.k)


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


def _record_chains(monkeypatch) -> list:
    """The (n, max_k, alphabet) of every weak_columns chain verify reads."""
    chains = []

    def chain(n, max_k, alphabet):
        chains.append((n, max_k, alphabet))
        return weak_columns(n, max_k, alphabet)

    monkeypatch.setattr(verify, "weak_columns", chain)
    return chains


def test_thm8_reads_one_chain_of_weak_columns_per_alphabet(monkeypatch):
    chains = _record_chains(monkeypatch)
    reports = run_identity("thm8", 7, 2)
    assert sorted(chains, key=repr) == sorted(((7, 2, a) for _, a in BATTERY), key=repr)
    assert all(summary(r)[2] for r in reports)


def test_thm12_reads_one_chain_of_weak_columns(monkeypatch):
    chains = _record_chains(monkeypatch)
    (report,) = run_identity("thm12", 7, 2)
    assert chains == [(7, 2, PartAlphabet.of(1, 3, 5, 7))]
    assert all(p.lhs == p.rhs for p in report.points)


def test_eq1_reads_one_chain_of_weak_columns(monkeypatch):
    chains = _record_chains(monkeypatch)
    (report,) = run_identity("eq1", 12, 3)
    assert chains == [(12, 12, PartAlphabet.upto(2))]
    assert len(report.points) == 13 * 14 // 2 and summary(report)[2]


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
