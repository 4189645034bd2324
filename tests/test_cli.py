import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compcount import cli, enumeration, hessenberg, verify
from compcount.alphabet import PartAlphabet
from compcount.cli import main, parse_alphabet
from compcount.errors import CompCountError, DomainError

from paper_refs import dense_matrix, format_matrix
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
    assert PartAlphabet.upto(2) != ((1, 2, 1),)


@pytest.mark.parametrize("attribute", ["runs", "extra"])
def test_an_alphabet_cannot_be_changed(attribute):
    # Alphabets key the brute walk's cache.
    alphabet = PartAlphabet.upto(2)
    with pytest.raises(AttributeError):
        setattr(alphabet, attribute, ())
    with pytest.raises(AttributeError):
        delattr(alphabet, attribute)
    assert alphabet == PartAlphabet.upto(2)


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
    (lambda: PartAlphabet.upto(0), "upper bound must be a positive integer"),
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


def test_verify_past_the_guard_is_refused_before_any_grid_work(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "26")
    assert code == 3
    assert out == ""
    assert "guard" in err


def test_brute_walk_deeper_than_the_recursion_limit_is_a_guard_violation():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COMPCOUNT_GUARD": "2000",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "compcount", "weak", "0", "1500", "--method",
                           "brute"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert "depth" in done.stderr
    assert "Traceback" not in done.stderr


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(capsys, "count", "5", "--alphabet", "upto:x")
    assert code == 2
    assert "upto:x" in err


def test_exit_code_unsupported_closed_form(capsys):
    code, out, err = run_cli(capsys, "weak", "2", "1", "--alphabet", "3", "--method", "closed")
    assert code == 4
    assert "closed form" in err


def test_each_nonzero_error_exit_code_has_one_class():
    classes, seen = [], [CompCountError]
    while seen:
        subclasses = seen.pop().__subclasses__()
        classes += subclasses
        seen += subclasses
    assert sorted(cls.exit_code for cls in classes) == [2, 3, 4]


def test_the_guard_is_no_function_argument():
    # The guard comes from COMPCOUNT_GUARD (brute oracle) or the constant
    # hessenberg.SUBSET_GUARD alone, never from a caller.
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


# Small or malformed ints: brute-force work stays tiny at every value.
_INTS = st.sampled_from([str(i) for i in range(-2, 6)] + ["x", "1.5"])
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
def test_golden_cli_output(capsys, case):
    """stdout and exit code match those recorded before the routes they
    run were last changed (the counts, weak counts and tables moving onto
    the rational generating function; eq1 and thm12 moving onto the
    series route; the weak series becoming k + 1 divisions by D; the
    reports becoming namedtuples with one summary)."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_a_closed_stdout_pipe_ends_quietly_with_exit_zero():
    # `compcount table ... | head -1`: the reader stops after one line and
    # closes the pipe; exit 1 would claim an identity disagreement.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-m", "compcount", "table", "--n-max", "3000"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert child.stdout.readline() == b"n,count\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_a_matrix_order_below_one_is_refused_before_its_minor_order(capsys, n):
    code, out, err = run_cli(capsys, "matrix", n, "--minorsum", "0")
    assert (code, out) == (2, "")
    assert f"matrix order must be >= 1, got {n}" in err
