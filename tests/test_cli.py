import contextlib
import copy
import decimal
import inspect
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount import cli, enumeration, hessenberg, verify
from compcount.alphabet import PartAlphabet, lag_terms
from compcount.cli import main, parse_alphabet
from compcount.errors import CompCountError, DomainError
from compcount.recurrence import weak_counts

from paper_refs import dense_matrix, format_matrix, minor_sum_subsets
from residues import residue, weak_residues
from strategies import alphabets


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("all", PartAlphabet.at_least(1)),
        ("upto:2", PartAlphabet.upto(2)),
        ("atleast:3", PartAlphabet.at_least(3)),
        ("1x2,3", PartAlphabet.of((1, 2), (3, 1))),
        ("2", PartAlphabet.of(2)),
        (" 1,2x3 ", PartAlphabet.of((1, 1), (2, 3))),
    ],
)
def test_parse_alphabet(spec, expected):
    assert parse_alphabet(spec) == expected


@pytest.mark.parametrize("spec,token", [
    ("upto:x", "x"),
    ("1,two", "two"),
    ("3,2", "2"),
    ("1x0", "1x0"),
    ("1x", "1x"),
    ("", "''"),
    # PartAlphabet refuses these values and multiplicities; the message
    # names the spec, and a closed run below 1 is not a threshold.
    ("0", "'0'"),
    ("0", "part values must be positive integers, got 0"),
    ("-3", "part values must be positive integers, got -3"),
    ("1x-1", "1x-1"),
    ("1,2x0", "1,2x0"),
])
def test_parse_alphabet_errors_name_the_token(spec, token):
    with pytest.raises(DomainError) as excinfo:
        parse_alphabet(spec)
    assert token in str(excinfo.value)


def test_a_run_of_one_color_values_is_its_interval():
    assert PartAlphabet.of(1, 2) == PartAlphabet.upto(2)
    assert hash(PartAlphabet.of(1, 2)) == hash(PartAlphabet.upto(2))
    assert parse_alphabet("1,2,3") == PartAlphabet.upto(3)
    assert parse_alphabet("2,3,4") == PartAlphabet(((2, 4, 1),))
    assert str(PartAlphabet.of(2, 3, 4)) == "2,3,4"
    assert parse_alphabet("1,3") != parse_alphabet("1,2,3") != parse_alphabet("1,2x2,3")
    assert PartAlphabet.upto(2) != (1, 2)
    assert PartAlphabet.upto(2) == ((1, 2, 1),)
    # upto's bound is the run's last value, and last = None is an open run.
    assert PartAlphabet.upto(None) == PartAlphabet.at_least(1)


@pytest.mark.parametrize("alphabet,limit,runs", [
    (PartAlphabet.upto(10**9), 3, ((1, 3, 1),)),
    (PartAlphabet.at_least(2), 0, ()),
    (PartAlphabet.at_least(2), 5, ((2, 5, 1),)),
    (PartAlphabet.of((1, 2), 3), 2, ((1, 1, 2),)),
])
def test_runs_within_cuts_each_run_at_the_limit(alphabet, limit, runs):
    assert alphabet.runs_within(limit) == runs


@settings(max_examples=200)
@given(alphabets(), st.integers(0, 20))
def test_runs_within_gives_each_value_up_to_the_limit_its_colors(alphabet, limit):
    runs = alphabet.runs_within(limit)
    previous = 0
    for first, last, colors in runs:  # ascending, inside 1..limit, none empty
        assert previous < first <= last <= limit and colors >= 1
        previous = last

    def colors_of(value):  # a scan of the uncut runs
        for first, last, colors in alphabet:
            if first <= value and (last is None or value <= last):
                return colors
        return 0

    cut = {v: colors for first, last, colors in runs for v in range(first, last + 1)}
    assert cut == {v: colors_of(v) for v in range(1, limit + 1) if colors_of(v)}


@st.composite
def _signed_runs(draw):
    """(runs, limit, T): ascending runs of a nonzero signed v, one to five
    lags wide, after a gap or meeting the run before (with the same v or
    not), the last cut at limit or running to it; T a list of limit + 1 ints."""
    limit, runs, last = draw(st.integers(1, 24)), [], 0
    while last < limit and draw(st.integers(0, 4)):
        first = last + draw(st.integers(1, 3))
        if first > limit:
            break
        last = min(limit, first + draw(st.integers(0, 4)))
        runs.append((first, last, draw(st.integers(-4, 4).filter(bool))))
    if runs and draw(st.booleans()):
        runs[-1] = (runs[-1][0], limit, runs[-1][2])
    size = limit + 1
    return tuple(runs), limit, draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))


@settings(max_examples=200)
@given(_signed_runs())
@example((((1, 3, 2), (4, 6, 2), (7, 7, -1)), 9, list(range(1, 11))))  # an edge merges to 0
@example((((2, 3, 1), (4, 9, -3)), 9, [1] * 10))  # singles, then a run to the limit
def test_lag_terms_read_each_lag_of_the_runs_once(case):
    # Singles plus the running sum W of the edges give sum_d v_d T(t - d) at
    # every t <= limit, T zero before it starts, for any T: each lag once.
    runs, limit, values = case
    singles, edges = lag_terms(runs, limit)
    assert all(1 <= lag <= limit and u for lag, u in (*singles, *edges))
    dense = {d: v for first, last, v in runs for d in range(first, last + 1)}

    def T(t):
        return values[t] if t >= 0 else 0

    run = 0
    for t in range(limit + 1):
        run += sum(u * T(t - e) for e, u in edges)
        assert sum(v * T(t - d) for d, v in singles) + run == sum(
            v * T(t - d) for d, v in dense.items()), (t, singles, edges)


def test_lag_terms_drop_an_edge_that_merges_to_zero_and_the_end_edge_at_the_limit():
    assert lag_terms(((1, 3, 2), (4, 6, 2), (7, 7, -1)), 9) == (((7, -1),), ((1, 2), (7, -2)))
    assert lag_terms(((2, 3, 1), (4, 9, -3)), 9) == (((2, 1), (3, 1)), ((4, -3),))


@pytest.mark.parametrize("attribute", ["runs", "extra"])
def test_an_alphabet_cannot_be_changed(attribute):
    # Alphabets key verify's sharing of brute walks within a call.
    alphabet = PartAlphabet.upto(2)
    with pytest.raises(AttributeError):
        setattr(alphabet, attribute, ())
    with pytest.raises(AttributeError):
        delattr(alphabet, attribute)
    assert alphabet == PartAlphabet.upto(2)


@pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda alphabet: pickle.loads(pickle.dumps(alphabet))])
@pytest.mark.parametrize("alphabet", [
    PartAlphabet.upto(3), PartAlphabet.at_least(2), PartAlphabet.of((1, 2), 3, (5, 3), (6, 3))])
def test_an_alphabet_copies_and_pickles_to_an_equal_alphabet(copy_of, alphabet):
    copied = copy_of(alphabet)
    assert type(copied) is PartAlphabet
    assert (copied, tuple(copied), hash(copied)) == (alphabet, tuple(alphabet), hash(alphabet))


@pytest.mark.parametrize("build,message", [
    (lambda: PartAlphabet(((0, None, 1),)), "threshold must be a positive integer"),
    (lambda: PartAlphabet.at_least(0), "threshold must be a positive integer"),
    (lambda: PartAlphabet(((3, 2, 1),)), "empty interval 3..2"),
    (lambda: PartAlphabet(()), "needs at least one part value"),
    (lambda: PartAlphabet.of(2, 1), "strictly increasing, got 1"),
    (lambda: PartAlphabet.of((1, 1), (1, 2)), "strictly increasing, got 1"),
    (lambda: PartAlphabet.of((3, 0)), "multiplicity of part 3 must be >= 1"),
    (lambda: PartAlphabet(((1, None, 1), (5, 6, 1))), "strictly increasing, got 5"),
    (lambda: PartAlphabet(((1, 2, 1), (3, 4, 1))), "run from 3 continues the run before it"),
    (lambda: PartAlphabet.upto(0), "empty interval 1..0"),
    (lambda: PartAlphabet.upto("3"), r"run \(1, '3', 1\): .* must be ints"),
    (lambda: PartAlphabet.of((2.7, 1)), r"run \(2\.7, 2\.7, 1\): .* must be ints"),
    (lambda: PartAlphabet.upto(2.5), r"run \(1, 2\.5, 1\): .* must be ints"),
    (lambda: PartAlphabet.at_least(1.5), r"run \(1\.5, None, 1\): .* must be ints"),
    (lambda: PartAlphabet.of(True), r"run \(True, True, 1\): .* must be ints"),
    (lambda: PartAlphabet.of(2.7), r"part 2\.7: not a value or a \(value, count\) pair"),
    (lambda: PartAlphabet.of((1, 2, 3)), r"part \(1, 2, 3\): not a value"),
    (lambda: PartAlphabet.of((1,)), r"part \(1,\): not a value"),
    (lambda: PartAlphabet.of("3"), r"part '3': not a value"),
])
def test_an_invalid_alphabet_is_a_domain_error(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_the_identity_choices_match_the_verify_table():
    assert cli.IDENTITY_NAMES == verify.IDENTITY_NAMES


def test_an_interval_alphabet_holds_nothing_per_value(capsys):
    # upto:K is one run, not K pairs: the count reads values below 6 only.
    tracemalloc.start()
    try:
        code = main(["count", "5", "--alphabet", "upto:1000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "16\n")
    assert peak < 1 << 20


@settings(max_examples=50)
@given(alphabets())
def test_alphabet_string_round_trips_through_parser(alphabet):
    assert parse_alphabet(str(alphabet)) == alphabet


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("count", "10", "--alphabet", "all", "--method", "recurrence"), "512"),
        (("count", "5", "--alphabet", "upto:2", "--method", "det"), "8"),
        (("count", "0", "--alphabet", "all"), "1"),
        (("count", "6", "--alphabet", "atleast:2", "--method", "brute"), "5"),
        (("weak", "2", "1", "--alphabet", "upto:2", "--method", "closed"), "5"),
        (("weak", "3", "2", "--alphabet", "all", "--method", "conv"), "25"),
        (("weak", "4", "0", "--alphabet", "all", "--method", "minors"), "8"),
        (("weak", "2", "1", "--alphabet", "all", "--method", "closed"), "5"),
        (("matrix", "2", "--alphabet", "upto:2", "--det"), "2"),
        (("matrix", "1", "--alphabet", "all", "--print"), "1"),
        (("matrix", "3", "--alphabet", "all", "--charpoly"), "-4 5 -3 1"),
        (("matrix", "3", "--alphabet", "all", "--minorsum", "2"), "5"),
        (("count", "7", "--alphabet", "1000000000000"), "0"),
        (("weak", "3", "1", "--alphabet", "1,2", "--method", "closed"), "10"),
    ],
)
def test_single_value_commands(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_matrix_grid_output(capsys):
    code, out, _ = run_cli(capsys, "matrix", "3", "--alphabet", "all")
    assert code == 0
    assert out == "1 1 1\n-1 1 1\n0 -1 1\n"


def test_the_grid_printed_row_by_row_is_the_dense_grid(capsys):
    for label, alphabet in verify.BATTERY:
        for n in range(1, 13):
            code, out, _ = run_cli(capsys, "matrix", str(n), "--alphabet", label)
            dense = dense_matrix(hessenberg.build_matrix(alphabet, n))
            assert (code, out) == (0, format_matrix(dense) + "\n"), (label, n)


def test_minor_sums_printed_are_the_subset_expansion(capsys):
    for label, alphabet in verify.BATTERY:
        for n in range(1, 11):
            band = hessenberg.build_matrix(alphabet, n)
            for r in range(n + 1):
                code, out, _ = run_cli(capsys, "matrix", str(n), "--minorsum", str(r),
                                       "--alphabet", label)
                assert (code, out) == (0, f"{minor_sum_subsets(band, r)}\n"), (label, n, r)


def test_the_minor_sum_at_the_order_limit_counts_weak_compositions(capsys):
    # Order-11 minors of the order-22 matrix: weak compositions of 11 with
    # 11 zeros.
    code, out, _ = run_cli(capsys, "matrix", "22", "--minorsum", "11")
    assert (code, out) == run_cli(capsys, "weak", "11", "11")[:2]
    assert code == 0


def test_the_grid_is_printed_in_memory_linear_in_its_order():
    # The dense order-1500 grid and its joined text peak at about 27 MB.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["matrix", "1500"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("method", ["recurrence", "det", "brute"])
def test_count_methods_agree(capsys, method):
    for n in (0, 1, 5, 9):
        code, out, _ = run_cli(capsys, "count", str(n), "--alphabet", "1,2x3", "--method", method)
        assert code == 0
        reference = main(["count", str(n), "--alphabet", "1,2x3"])
        expected = capsys.readouterr().out
        assert reference == 0
        assert out == expected


@pytest.mark.parametrize("method", ["conv", "minors", "closed", "brute"])
def test_weak_methods_agree(capsys, method):
    for n, k in ((0, 2), (3, 1), (6, 2)):
        code, out, _ = run_cli(capsys, "weak", str(n), str(k), "--alphabet", "upto:2",
                               "--method", method)
        assert code == 0
        main(["weak", str(n), str(k), "--alphabet", "upto:2"])
        assert out == capsys.readouterr().out


@pytest.mark.parametrize("method", ["conv", "minors", "closed", "brute"])
@pytest.mark.parametrize("k", [0, 3])
def test_weak_of_zero_prints_one(capsys, method, k):
    code, out, _ = run_cli(capsys, "weak", "0", str(k), "--alphabet", "all", "--method", method)
    assert (code, out) == (0, "1\n")


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--alphabet", "all", "--n-max", "5")
    assert code == 0
    assert out.splitlines() == ["n,count", "1,1", "2,2", "3,4", "4,8", "5,16"]


def test_table_shifted_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "table", "--alphabet", "atleast:2", "--n-max", "8")
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert code == 0
    assert values == ["0", "1", "1", "2", "3", "5", "8", "13"]


def test_table_bounded_parts(capsys):
    code, out, _ = run_cli(capsys, "table", "--alphabet", "upto:3", "--n-max", "6")
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert code == 0
    assert values == ["1", "2", "4", "7", "13", "24"]


def test_table_with_zero_count_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--alphabet", "upto:2", "--n-max", "3", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["n,k,count", "1,1,2", "2,1,5", "3,1,10"]


def test_table_bfile_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--alphabet", "all", "--n-max", "4", "--bfile")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 2", "3 4", "4 8"]


def test_verify_identity_agreement_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "eq1", "--max-n", "20")
    assert code == 0
    assert "overall=agree" in out


def test_verify_thm10_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm10", "--max-n", "10",
                           "--max-k", "5")
    assert code == 0


def test_verify_adjudication_disagrees_with_json_records(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "thm12",
                             "--max-n", "6", "--max-k", "2", "--json")
    assert code == 1
    data = json.loads(out)
    report = data["reports"][0]
    assert report["summary"] == {"lhs_vs_rhs": True, "oracle": False, "agree": False}
    records = report["points"]
    assert all(
        set(record) == {"identity", "n", "k", "lhs", "rhs", "oracle", "verdict"}
        for record in records
    )
    bad = [r for r in records if r["n"] == 2 and r["k"] == 1]
    assert bad == [
        {"identity": "thm12", "n": 2, "k": 1, "lhs": 3, "rhs": 3, "oracle": 2,
         "verdict": "disagree"}
    ]
    assert "disagree" in err


def test_verify_all_reports_every_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "all",
                           "--max-n", "5", "--max-k", "2", "--json")
    assert code == 1  # the adjudicated identity disagrees with its target
    data = json.loads(out)
    names = [r["identity"] for r in data["reports"]]
    assert names[0] == "eq1" and names[-1] == "thm12"


def test_exit_code_guard(capsys):
    code, out, err = run_cli(capsys, "count", "30", "--method", "brute")
    assert code == 3
    assert out == ""
    assert "guard" in err


def test_count_25_by_brute_force_is_the_last_walk_inside_the_default_budget(
        capsys, monkeypatch):
    # The walk visits the 2^25 - 1 nonempty compositions of sums up to 25:
    # the default budget exactly.
    monkeypatch.delenv("COMPCOUNT_GUARD", raising=False)
    assert run_cli(capsys, "count", "25", "--method", "brute") == (0, "16777216\n", "")


def test_verify_defaults_to_max_n_8_and_max_k_3(capsys):
    bare = run_cli(capsys, "verify")
    assert bare == run_cli(capsys, "verify", "--max-n", "8", "--max-k", "3")
    assert (bare[0], bare[1].count("\n")) == (1, 610)


def test_thm12_reads_a_max_n_of_0_as_1(capsys):
    argv = ("verify", "--identity", "thm12", "--max-k", "1", "--json")
    clamped = run_cli(capsys, *argv, "--max-n", "0")
    assert clamped == run_cli(capsys, *argv, "--max-n", "1")
    points = json.loads(clamped[1])["reports"][0]["points"]
    assert [(p["n"], p["k"]) for p in points] == [(1, 0), (1, 1)]


def test_verify_past_the_guard_is_refused_before_any_grid_work(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "26")
    assert code == 3
    assert out == ""
    assert "guard" in err


def _module_env(**variables):
    """The environment of a child that runs this checkout's package, less
    COMPCOUNT_GUARD and PYTHONUNBUFFERED, plus ``variables``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("COMPCOUNT_GUARD", None)
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **variables}


def _run_module(*argv, guard=None, text=True, preexec_fn=None):
    """``python -m compcount`` on ``argv``, with COMPCOUNT_GUARD=``guard``
    if given, against this checkout's package; stdout and stderr as str,
    or as bytes if not ``text``; ``preexec_fn`` runs in the child before
    it starts. Without PYTHONUNBUFFERED, so that stdout is block-buffered,
    as a pipe from a shell is, and a lost flush shows."""
    env = _module_env() if guard is None else _module_env(COMPCOUNT_GUARD=str(guard))
    return subprocess.run([sys.executable, "-m", "compcount", *argv], capture_output=True,
                          text=text, env=env, timeout=60, preexec_fn=preexec_fn)


def test_the_console_entry_flushes_every_byte_before_it_exits(capsys):
    # run() ends the process with os._exit, after flushing: a table of
    # 3000 rows must reach the pipe whole, a refusal must arrive with its
    # exit code and its one line on stderr, and a disagreement with its
    # whole report and then its one line.
    code, out, _ = run_cli(capsys, "table", "--n-max", "3000")
    done = _run_module("table", "--n-max", "3000", text=False)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")
    assert len(done.stdout) > 1 << 20
    refused = _run_module("count", "30", "--method", "brute")
    assert (refused.returncode, refused.stdout) == (3, "")
    assert refused.stderr == "compcount: n=30 exceeds the enumeration guard 25\n"
    argv = ("verify", "--identity", "thm12", "--max-n", "3", "--max-k", "1")
    code, out, _ = run_cli(capsys, *argv)
    disagreed = _run_module(*argv)
    assert (disagreed.returncode, disagreed.stdout) == (1, out) and code == 1
    assert disagreed.stderr == "compcount: 5 disagreeing grid point(s) found\n"


@pytest.mark.parametrize("variables", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "PYTHONUNBUFFERED"])
def test_the_disagreement_line_follows_the_reports_on_a_merged_stream(capsys, variables):
    # `compcount verify ... 2>&1`: the console entry writes stdout in
    # blocks whatever PYTHONUNBUFFERED says, so the stderr line must wait
    # for the reports before it.
    argv = ("verify", "--identity", "thm12", "--max-n", "3", "--max-k", "1")
    code, out, _ = run_cli(capsys, *argv)
    done = subprocess.run([sys.executable, "-m", "compcount", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, env=_module_env(**variables),
                          timeout=60)
    assert (code, done.returncode) == (1, 1)
    assert done.stdout == out + "compcount: 5 disagreeing grid point(s) found\n"


# The console entry on `weak 5 10^18`, its handler replaced by one that
# writes "ready" and then runs ``body``: the real handler, whose kernel
# runs on for hours, or a stub that sleeps.
_INTERRUPTED = """
import sys, time
from compcount import cli
def handler(args):
    sys.stdout.write("ready\\n")
    sys.stdout.flush()
    {body}
cli.COMMANDS["weak"] = (handler, *cli.COMMANDS["weak"][1:])
sys.argv[1:] = ["weak", "5", "1000000000000000000"]
cli.run()
"""


@pytest.mark.parametrize("body", ["yield from cli.cmd_weak(args)", "time.sleep(600); yield"],
                         ids=["kernel", "sleep"])
def test_an_interrupted_request_writes_one_line_and_ends_by_sigint(body):
    # Ctrl-C: one stderr line and no traceback, and the child ends by SIGINT,
    # so that a shell sees an interrupt. The child starts with SIGINT at its
    # default, as from a terminal, not ignored, as a shell's background job.
    with subprocess.Popen([sys.executable, "-c", _INTERRUPTED.format(body=body)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_module_env(),
                          preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL)
                          ) as child:
        try:
            assert child.stdout.readline() == "ready\n"
            time.sleep(0.5)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert (child.returncode, err) == (-signal.SIGINT, "compcount: interrupted\n")


_INTERRUPTED_BLOCKED = """
from compcount import cli
def main():
    raise KeyboardInterrupt
cli.main = main
cli.run()
"""


def test_an_interrupt_with_sigint_blocked_exits_130():
    # run() ends an interrupted request by SIGINT at its default action. A
    # child that blocks SIGINT never takes it, so run() exits by itself
    # with the status a shell gives an interrupt: 128 + 2.
    done = subprocess.run([sys.executable, "-c", _INTERRUPTED_BLOCKED], capture_output=True,
                          text=True, env=_module_env(), timeout=60,
                          preexec_fn=lambda: signal.pthread_sigmask(signal.SIG_BLOCK,
                                                                    {signal.SIGINT}))
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "compcount: interrupted\n")


def test_brute_walk_deeper_than_the_recursion_limit_answers():
    # 1501 levels of zeros: the level walk keeps no frame per level.
    done = _run_module("weak", "0", "1500", "--method", "brute", guard=2000)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


def test_brute_walk_past_its_step_budget_is_a_guard_violation():
    # Inside the default guard's corner, but parts >= 2 with up to 24 zeros
    # give more than 2^25 sequences: refused in seconds, not run for minutes.
    done = _run_module("verify", "--identity", "thm12", "--max-n", "0", "--max-k", "24")
    assert done.returncode == 3
    assert done.stdout == ""
    assert "step budget of 2^25" in done.stderr
    assert "Traceback" not in done.stderr


def test_brute_walk_with_more_nodes_than_code_points_is_a_guard_violation():
    # 1201 sums times 1201 zero counts is more (sum, zeros) cells than the
    # walk's cell table may hold.
    done = _run_module("weak", "1200", "1200", "--method", "brute", guard=5000)
    assert done.returncode == 3
    assert done.stdout == ""
    assert "0x110000" in done.stderr
    assert "Traceback" not in done.stderr


HUGE = "1000000000000000000000"


@pytest.mark.parametrize("argv", [
    ("table", "--n-max", HUGE),
    ("matrix", HUGE),
    ("matrix", HUGE, "--det"),
    ("weak", HUGE, "0"),
    ("weak", HUGE, "0", "--method", "closed"),
    ("verify", "--identity", "eq1", "--max-n", HUGE),
    ("count", "100000000000000000000", "--alphabet", "atleast:100000000000000000000"),
    ("count", HUGE),
    ("weak", HUGE, "0", "--alphabet", "upto:2", "--method", "closed"),
])
def test_a_size_past_the_machine_word_is_a_guard_violation(argv):
    # An int past sys.maxsize is refused as it is parsed. In a child with a
    # timeout: count and the closed form on upto:2 would otherwise run on.
    done = _run_module(*argv)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.count("\n") == 1 and "too large for this machine" in done.stderr


def test_an_int_argument_may_be_the_machine_word_and_no_more(capsys):
    # thm10's empty grid (max_n = 0) walks nothing, so any max_k answers.
    argv = ("verify", "--identity", "thm10", "--max-n", "0", "--max-k")
    code, _, err = run_cli(capsys, *argv, str(sys.maxsize))
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, *argv, str(sys.maxsize + 1))
    assert (code, out) == (3, "")
    assert err == f"compcount: too large for this machine: --max-k={sys.maxsize + 1}\n"


def test_an_alphabet_bound_past_the_machine_word_is_no_size(capsys):
    assert run_cli(capsys, "count", "5", "--alphabet", f"upto:{HUGE}") == (0, "16\n", "")


def test_a_size_past_the_address_limit_is_a_guard_violation():
    # Under an 800 MB address limit, set in the child only, each request
    # fails to allocate its series in about a second.
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    for argv in (("weak", "100000000", "0", "--alphabet", "upto:3"),
                 ("table", "--n-max", "100000000")):
        done = _run_module(*argv, preexec_fn=limit_address_space)
        assert (done.returncode, done.stdout) == (3, ""), argv
        assert done.stderr == "compcount: too large for this machine: MemoryError()\n", argv


@pytest.mark.parametrize("argv,code,lines", [(("count", "5"), 0, 0), (("count", HUGE), 3, 1)],
                         ids=["answer", "refusal"])
def test_a_closed_stdout_keeps_the_exit_code(argv, code, lines):
    # `compcount count 5 >&-`: fd 1 is closed in the child before it starts,
    # so its output goes nowhere and its exit code is the command's own.
    done = _run_module(*argv, preexec_fn=lambda: os.close(1))
    assert done.returncode == code
    assert done.stderr.count("\n") == lines and "Traceback" not in done.stderr
    assert done.stderr.count("compcount: ") == lines


@pytest.mark.parametrize("argv,code", [
    (("frobnicate",), 2),
    (("count", "30", "--method", "brute"), 3),
    (("weak", "2", "1", "--alphabet", "3", "--method", "closed"), 4),
    (("verify", "--identity", "thm12", "--max-n", "3", "--max-k", "1"), 1),
], ids=["usage", "guard", "closed-form", "disagreement"])
def test_a_closed_stderr_keeps_the_exit_code(argv, code):
    # `compcount ... 2>&-`: the one stderr line goes nowhere, not to stdout,
    # and the exit code is the command's own.
    done = _run_module(*argv, preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stdout) == (code, _run_module(*argv).stdout)


class _ClosedStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


def test_main_returns_its_exit_code_when_stderr_fails(capsys, monkeypatch):
    argv = ("verify", "--identity", "thm12", "--max-n", "3", "--max-k", "1")
    code, out, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "stderr", _ClosedStream())
    assert main(["count", "30", "--method", "brute"]) == 3
    assert (main(list(argv)), capsys.readouterr().out) == (code, out)


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(capsys, "count", "5", "--alphabet", "upto:x")
    assert code == 2
    assert "upto:x" in err


def test_exit_code_unsupported_closed_form(capsys):
    code, out, err = run_cli(capsys, "weak", "2", "1", "--alphabet", "3", "--method", "closed")
    assert code == 4
    assert "closed form" in err


@pytest.mark.parametrize("method", ["conv", "minors", "closed", "brute"])
@pytest.mark.parametrize("spec", ["all", "upto:2", "upto:3"])
@pytest.mark.parametrize("n,k", [("-1", "2"), ("2", "-1")])
def test_a_negative_weak_argument_is_one_refusal_for_every_method(capsys, method, spec, n, k):
    # Before the route: upto:3 has no closed form, yet a negative argument
    # is a usage error there too, with the message every method shares.
    code, out, err = run_cli(capsys, "weak", n, k, "--method", method, "--alphabet", spec)
    assert (code, out) == (2, "")
    assert err == f"compcount: target and zero count must be >= 0, got n={n}, k={k}\n"


def test_each_nonzero_error_exit_code_has_one_class():
    classes, seen = [], [CompCountError]
    while seen:
        subclasses = seen.pop().__subclasses__()
        classes += subclasses
        seen += subclasses
    assert sorted(cls.exit_code for cls in classes) == [1, 2, 3, 4]


def test_the_guard_is_no_function_argument():
    # The guard comes from COMPCOUNT_GUARD (brute oracle) or the constant
    # cli.SUBSET_GUARD alone, never from a caller.
    for module in (enumeration, hessenberg, verify):
        functions = [f for f in vars(module).values()
                     if inspect.isfunction(f) and f.__module__ == module.__name__]
        if module is verify:
            functions += verify._REPORT_BUILDERS.values()
        for function in functions:
            assert "guard" not in inspect.signature(function).parameters, function


def test_usage_error_exits_two(capsys):
    assert main(["count", "5", "--method", "nonsense"]) == 2


@pytest.mark.parametrize("argv,token", [
    (("frobnicate", "5"), "frobnicate"),  # unknown command
    (("count", "5", "--alph", "upto:3"), "--alph"),  # unknown option; no prefix abbreviations
    (("count", "5", "--alphabet"), "--alphabet"),  # missing value
    (("table", "--alphabet", "--bfile", "--n-max", "3"), "--alphabet"),  # an option is no value
    (("verify", "--max-n", "x"), "'x'"),  # bad int
    (("weak", "5", "1.5"), "'1.5'"),  # bad positional int
    (("count", "5", "--method=nonsense"), "nonsense"),  # bad choice
    (("weak", "5"), "'5'"),  # wrong positional count
    (("verify", "7"), "'7'"),
    (("matrix", "3", "--det", "--charpoly"), "--charpoly"),  # mode clash
    (("table", "--k", "2"), "--n-max"),  # missing required option
    (("verify", "--json=1"), "--json=1"),  # a flag takes no value
], ids=["command", "option", "value", "option-as-value", "int", "positional-int", "choice",
        "too-few", "too-many", "clash", "required", "flag-value"])
def test_each_usage_error_exits_two_and_names_its_token(capsys, argv, token):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert token in err and "usage: compcount" in err


def test_help_prints_the_usage_of_every_command_and_no_argv_is_a_usage_error(capsys):
    for argv in (["--help"], ["count", "--help"], ["-h"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert all(f"usage: compcount {name}" in out for name in cli.COMMANDS)
        assert "Alphabet mini-grammar" in out
    code, out, err = run_cli(capsys)
    assert (code, out) == (2, "")
    assert "no command" in err


@pytest.mark.parametrize("joined,split", [
    (("weak", "50", "5", "--alphabet=upto:3"), ("weak", "50", "5", "--alphabet", "upto:3")),
    (("table", "--n-max=9", "--k=1"), ("table", "--n-max", "9", "--k", "1")),
])
def test_an_option_value_may_follow_an_equals_sign(capsys, joined, split):
    result = run_cli(capsys, *joined)
    assert result == run_cli(capsys, *split)
    assert result[0] == 0 and result[1]


def test_positionals_and_options_mix_in_any_order(capsys):
    expected = run_cli(capsys, "weak", "9", "2", "--alphabet", "upto:3", "--method", "minors")
    assert run_cli(capsys, "weak", "--method", "conv", "9", "--alphabet", "upto:3", "2",
                   "--method", "minors") == expected
    assert run_cli(capsys, "weak", "--alphabet", "upto:3", "--method", "minors", "9",
                   "2") == expected


def test_guard_env_override_allows_larger_brute(capsys, monkeypatch):
    monkeypatch.setenv("COMPCOUNT_GUARD", "27")
    code, out, _ = run_cli(capsys, "count", "26", "--alphabet", "atleast:26",
                           "--method", "brute")
    assert code == 0
    assert out.strip() == "1"


def test_non_integer_guard_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COMPCOUNT_GUARD", "abc")
    code, out, err = run_cli(capsys, "count", "5", "--method", "brute")
    assert code == 2
    assert out == ""
    assert "COMPCOUNT_GUARD" in err


@pytest.mark.parametrize("argv", [
    ("table", "--n-max", "-3"),
    ("table", "--n-max", "-1", "--k", "2", "--bfile"),
    ("verify", "--identity", "thm12", "--max-n", "-2"),
    ("verify", "--identity", "eq1", "--max-k", "-1"),
])
def test_negative_grid_sizes_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert ">= 0" in err


def test_counts_past_the_int_str_digit_limit_print_in_full(capsys):
    code, out, _ = run_cli(capsys, "count", "20000")
    assert code == 0
    assert out == f"{2 ** 19999}\n"
    assert len(out.strip()) == 6021


def _option(flag, values):
    return values.map(lambda value: [flag, value])


def _options(*options):
    """Up to four of the given options, repeats and clashes included."""
    return st.lists(st.one_of(*options), max_size=4).map(
        lambda groups: [token for group in groups for token in group]
    )


# Small or malformed ints: brute-force work stays tiny at every value;
# and an int past the machine word, which is refused as it is parsed.
_INTS = st.sampled_from([str(i) for i in range(-2, 6)] + ["x", "1.5", HUGE])
_SPECS = st.sampled_from([
    "all", "upto:1", "upto:3", "upto:0", "upto:x", "atleast:2", "atleast:0", "atleast:-1",
    "atleast:1000000000000", "1x2,3", "2,7x3", "3,2", "1,1", "1x", "1x0", "0", "x", "", " , ",
    "1000000000000",
])
_ALPHABET = _option("--alphabet", _SPECS)
_ARGV = st.one_of(
    st.tuples(st.just(["count"]), st.lists(_INTS, min_size=1, max_size=1), _options(
        _ALPHABET, _option("--method", st.sampled_from(["recurrence", "det", "brute", "x"])))),
    st.tuples(st.just(["weak"]), st.lists(_INTS, min_size=2, max_size=2), _options(
        _ALPHABET, _option("--method", st.sampled_from(["conv", "minors", "closed", "brute"])))),
    st.tuples(st.just(["matrix"]), st.lists(_INTS, min_size=1, max_size=1), _options(
        _ALPHABET, _option("--minorsum", _INTS),
        st.sampled_from([["--print"], ["--det"], ["--charpoly"]]))),
    st.tuples(st.just(["verify"]), st.just([]), _options(
        _option("--identity", st.sampled_from(["eq1", "thm8", "thm9", "thm10", "thm11",
                                               "thm12", "all", "thm7"])),
        _option("--max-n", _INTS), _option("--max-k", _INTS), st.just(["--json"]))),
    st.tuples(st.just(["table"]), st.just([]), _options(
        _ALPHABET, _option("--n-max", _INTS), _option("--k", _INTS), st.just(["--bfile"]))),
    st.sampled_from([[], ["count"], ["weak", "1"], ["matrix", "1", "2"], ["bench"], ["nope"]])
    .map(lambda argv: [argv, [], []]),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=150, deadline=None)
@given(_ARGV, st.sampled_from([None, "abc", "", "-1", "0", "3", "25", " 7 ", "1e3"]))
def test_exit_code_contract_on_random_argv(argv, guard):
    """Exit codes stay in 0..4, 1 only from verify, and nothing escapes
    main(), usage errors included."""
    with pytest.MonkeyPatch.context() as patch:
        if guard is None:
            patch.delenv("COMPCOUNT_GUARD", raising=False)
        else:
            patch.setenv("COMPCOUNT_GUARD", guard)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in range(5), argv
    assert code != 1 or argv[0] == "verify", argv


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_cli_output(capsys, monkeypatch, case):
    """stdout and exit code match those recorded, under the default guard,
    before the routes they run were last changed (the counts, weak counts
    and tables moving onto the rational generating function; eq1 and
    thm12 moving onto the series route; the weak series becoming k + 1
    divisions by D; the reports becoming namedtuples with one summary).
    The goldens also hold the CLI's exit-code checks (usage errors, guard
    refusals, sizes past the machine word, no closed form), both sides
    of each cross-route check in _ROUTE_PAIRS, most at sizes the other
    tests do not reach, and charpolys whose slot bound is a whole number
    of bytes (`1x254`, `1x200` and `1,2x10` at order 4 need the slot's
    byte past that bound for the sign; `1x127`, at the same 8-bit bound,
    does not). CI replays every case through the console script too.
    stderr keeps its contract: empty on exit 0, else one or more lines
    that start with `compcount: ` and hold no traceback."""
    monkeypatch.delenv("COMPCOUNT_GUARD", raising=False)
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    if code:
        assert err.startswith("compcount: ") and "Traceback" not in err, err
    else:
        assert err == ""


# Two routes to one number, each side a golden case: the minor-sum table
# against the weak series, an interval as wide as n against its open run, the
# binomial closed form against the series and the minors, and the
# determinant against the recurrence. The last four are the cut at n
# (PartAlphabet.runs_within): a run that starts past n and one that crosses
# n, each read by the weak series and the minors, and by the band's
# determinant and the count. Runs that end at n, and n at 0 or below the
# first value, are examples of test_weak_routes_match_brute_random.
_CUT_CASES = [("2x2,3,11x3,12x3,13x3", 10, 2), ("1x2,4x3,5x3,6x3,7x3,8x3,9x3,10x3", 7, 2)]
_ROUTE_PAIRS = [
    ("matrix 22 --minorsum 11", "weak 11 11"),
    ("weak 2000 10 --alphabet upto:2000", "weak 2000 10 --alphabet all"),
    ("count 100000 --alphabet upto:1000000000", "count 100000"),
    ("weak 5 100000", "weak 5 100000 --method closed"),
    ("matrix 2000 --det --alphabet upto:1000", "count 2000 --alphabet upto:1000"),
    ("weak 2000 10 --alphabet upto:1999 --method minors",
     "weak 2000 10 --alphabet upto:1999 --method conv"),
    ("weak 5 100000 --method minors", "weak 5 100000 --method closed"),
    ("weak 1000 100 --alphabet upto:3 --method minors",
     "weak 1000 100 --alphabet upto:3 --method conv"),
    *((f"weak {n} {k} --alphabet {spec} --method conv",
       f"weak {n} {k} --alphabet {spec} --method minors") for spec, n, k in _CUT_CASES),
    *((f"count {n} --alphabet {spec} --method det", f"count {n} --alphabet {spec}")
      for spec, n, _ in _CUT_CASES),
]


def test_each_route_pair_is_two_goldens_that_agree():
    # Re-recording one side of a pair alone, or recording an argv twice,
    # fails here.
    recorded = {}
    for case in GOLDEN:
        assert " ".join(case["argv"]) not in recorded, case["argv"]
        recorded[" ".join(case["argv"])] = case
    for left, right in _ROUTE_PAIRS:
        assert recorded[left]["exit"] == recorded[right]["exit"] == 0, (left, right)
        assert recorded[left]["stdout"] == recorded[right]["stdout"] != "", (left, right)


def test_a_closed_stdout_pipe_ends_quietly_with_exit_zero():
    # `compcount table ... | head -1`: the reader stops after one line and
    # closes the pipe; exit 1 would claim an identity disagreement.
    child = subprocess.Popen([sys.executable, "-m", "compcount", "table", "--n-max", "3000"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    try:
        assert child.stdout.readline() == b"n,count\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""


def _table(alphabet, n_max, k=None):
    """What ``table`` prints for these arguments, without a trailing newline."""
    return "\n".join(cli.cmd_table({"alphabet": alphabet, "n-max": n_max, "k": k,
                                     "bfile": False}))


def _str_of_the_int_series(alphabet, n_max, k=None):
    sep = "," if k is None else f",{k},"
    return "\n".join(["n,count" if k is None else "n,k,count"] + [
        f"{n}{sep}{value}" for n, value in enumerate(weak_counts(n_max, k or 0, alphabet)[1:], 1)])


@pytest.mark.parametrize("prec", [None, 3], ids=["int", "decimal"])
@settings(max_examples=60, deadline=None)
@given(alphabets(), st.integers(1, 60), st.none() | st.integers(0, 4))
# Singles and an edge over the zero counts below x^5: a -0 in Decimal would print.
@example(PartAlphabet(((5, 6, 1), (20, 60, 2))), 30, None)
def test_a_table_prints_str_of_the_int_series_on_either_path(prec, alphabet, n_max, k):
    # Every table renders its Decimal series. A caller that computes in ints
    # sets no decimal context; one in a 3-digit context must not round it.
    caller = contextlib.nullcontext() if prec is None else decimal.localcontext(
        decimal.Context(prec=prec))
    with caller:
        assert _table(alphabet, n_max, k) == _str_of_the_int_series(alphabet, n_max, k)


def test_a_table_with_zero_rows_prints_every_row_in_full():
    # On 2x1000000 every odd row is 0 and row n = 2m is 10^(6m) = 10^(3n):
    # n-max 2001 ends on a zero row, n-max 2000 on a row of 6001 digits.
    for n_max in (2000, 2001):
        done = _run_module("table", "--alphabet", "2x1000000", "--n-max", str(n_max))
        assert done.stdout == "".join(["n,count\n"] + [
            f"{n},{0 if n % 2 else '1' + '0' * (3 * n)}\n" for n in range(1, n_max + 1)])


def test_the_residue_check_fails_on_any_changed_digit():
    row = _table(PartAlphabet.upto(3), 300, 3).rsplit("\n", 1)[1]
    count = row.split(",")[2]
    want = weak_residues(300, 3, PartAlphabet.upto(3))[300]
    assert residue(count) == want and len(count) > 80
    for i, digit in enumerate(count):
        for other in "0123456789".replace(digit, ""):
            assert residue(count[:i] + other + count[i + 1:]) != want, (i, other)


def test_minor_subsets_past_the_guard_are_refused_before_the_matrix_is_built(capsys):
    tracemalloc.start()
    try:
        code = main(["matrix", "10000000", "--minorsum", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "subset guard" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("mode,out", [
    ((), ""), (("--det",), "1\n"), (("--charpoly",), "1\n"), (("--minorsum", "0"), "1\n")],
    ids=["grid", "det", "charpoly", "minorsum"])
def test_a_matrix_of_order_zero_is_the_empty_band(capsys, mode, out):
    # No grid line; 1 as determinant, characteristic polynomial and the
    # order-0 minor sum, as `count 0 --method det` prints.
    assert run_cli(capsys, "matrix", "0", *mode) == (0, out, "")


@pytest.mark.parametrize("mode,message", [
    ((), "matrix order must be >= 0, got -1"),
    (("--det",), "matrix order must be >= 0, got -1"),
    (("--charpoly",), "matrix order must be >= 0, got -1"),
    (("--minorsum", "0"), "minor order must be within 0..-1, got 0")],
    ids=["grid", "det", "charpoly", "minorsum"])
def test_a_negative_matrix_order_is_refused_in_every_mode(capsys, mode, message):
    code, out, err = run_cli(capsys, "matrix", "-1", *mode)
    assert (code, out, err) == (2, "", f"compcount: {message}\n")


@pytest.mark.parametrize("n,order", [("3", "4"), ("3", "-1"), ("23", "24")])
def test_a_minor_order_outside_the_matrix_is_refused_before_the_guard(capsys, n, order):
    code, out, err = run_cli(capsys, "matrix", n, "--minorsum", order)
    assert (code, out) == (2, "")
    assert f"minor order must be within 0..{n}, got {order}" in err
