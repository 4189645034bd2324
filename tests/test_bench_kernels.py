"""The kernel timing script's gates, on stand-in kernels, its --record
point, and its --against mode; --record and --against run the small
`closed` suite, one test reads the eq1 kernel at max_n 10, and no other
test here times or runs a real kernel."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from compcount.cli import parse_alphabet
from compcount.weakforms import count_weak_parts12_closed

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernels.py"
_SPEC = importlib.util.spec_from_file_location("bench_kernels", _PATH)
bench_kernels = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_kernels)


def test_a_point_off_by_one_bit_fails_and_a_right_one_passes():
    assert bench_kernels.gate("det", "all", 10000, 10000) is None
    assert bench_kernels.gate("det", "all", 10000, 9999) == (
        "bench_kernels: suite=det alphabet=all n=10000 bits=9999 expected_bits=10000")
    assert bench_kernels.gate("recurrence", "upto:3", 10**6, 879146, 879146) is None
    assert bench_kernels.gate("recurrence", "upto:3", 10**6, 879147, 879146) == (
        "bench_kernels: suite=recurrence alphabet=upto:3 n=1000000 bits=879147"
        " expected_bits=879146")
    # No expected bits: a weak count with zeros, a brute grid with k, another alphabet.
    for point in (("conv", "all", 100), ("brute", "all", (10, 3)), ("det", "upto:3", 10)):
        assert bench_kernels.gate(*point, 1) is None


def test_a_failed_gate_spells_an_n_k_point_as_its_line_does():
    assert bench_kernels.gate("minors", "all", (5, 10**5), 76, 77) == (
        "bench_kernels: suite=minors alphabet=all n=5 k=100000 bits=76 expected_bits=77")


def test_the_recurrence_suite_pins_its_largest_count():
    assert ("upto:3", 10**6, 879146) in bench_kernels.POINTS["recurrence"]


def test_the_recurrence_suite_pins_the_interval_wider_than_n():
    # c(10^5) on upto:10^9 is 2^(10^5 - 1): a D padded to x^n would show in
    # the point's time, and a wrong count in its bits.
    assert ("upto:1000000000", 10**5, 100000) in bench_kernels.POINTS["recurrence"]


def test_the_recurrence_suite_times_both_sides_of_the_form_rule():
    # upto:22 is the last interval read dense, upto:23 the first read in the
    # run form, 1x2,...,60x2 a colored run read in the run form, and
    # 1,2,3,20000,...,20100 is read dense: its wide run lies past n.
    colored = ",".join(f"{v}x2" for v in range(1, 61))
    past_n = "1,2,3," + ",".join(map(str, range(20000, 20101)))
    points = {spec: size for spec, size, *_ in bench_kernels.POINTS["recurrence"]}
    for spec, num in (("upto:22", (1,)), ("upto:23", (1, -1)), (colored, (1, -1)),
                      (past_n, (1,))):
        assert points[spec] == 10**4
        assert parse_alphabet(spec).generating_function(10**4)[0] == num


def test_the_eq1_suite_pins_the_middle_cell_of_the_last_row():
    # The cell (max_n, max_n // 2) is the weak count over upto:2 at
    # (max_n - max_n // 2, max_n // 2), whose closed form sets the pins.
    eq1 = bench_kernels.KERNELS["eq1"]
    assert eq1(10, parse_alphabet("upto:2")) == count_weak_parts12_closed(5, 5)
    assert eq1(11, parse_alphabet("upto:2")) == count_weak_parts12_closed(6, 5)
    for spec, max_n, bits in bench_kernels.POINTS["eq1"]:
        half = max_n // 2
        assert (spec, count_weak_parts12_closed(max_n - half, half).bit_length()) == (
            "upto:2", bits)


@pytest.mark.parametrize("value,code,failures", [(1 << 4, 0, 0), (1 << 5, 1, 1)],
                         ids=["right", "one-bit-over"])
def test_the_suite_exits_1_with_one_stderr_line_per_failure(monkeypatch, capsys, value, code,
                                                            failures):
    monkeypatch.setattr(bench_kernels, "POINTS", {"det": (("all", 5),)})
    monkeypatch.setattr(bench_kernels, "KERNELS", {"det": lambda n, a: value})
    assert bench_kernels.main(["--suite", "det"]) == code
    out, err = capsys.readouterr()
    assert out.startswith("suite=det alphabet=all n=5 median_s=")
    assert out.endswith(f" bits={value.bit_length()}\n")
    assert err.count("\n") == failures
    assert err.count("bench_kernels: suite=det alphabet=all n=5 bits=6 expected_bits=5") == failures


def test_renderers_that_differ_fail_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(bench_kernels, "POINTS", {"serialize": (("all", (3, 0)),)})
    monkeypatch.setattr(bench_kernels, "decimal_weak_counts", lambda n, k, alphabet: [0])
    assert bench_kernels.main(["--suite", "serialize"]) == 1
    assert capsys.readouterr().err == (
        "bench_kernels: suite=serialize alphabet=all n=3 k=0: the int and Decimal rows differ\n")


_SCRIPTS = _PATH.parent


def _in_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=_SCRIPTS,
                              capture_output=True).returncode == 0
    except OSError:
        return False


needs_git = pytest.mark.skipif(not _in_git_checkout(), reason="not in a git checkout")


def test_record_appends_one_point_with_every_field(capsys, tmp_path):
    path = tmp_path / "BENCH_kernels.json"
    assert bench_kernels.main(["--suite", "closed", "--record", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    [point] = json.loads(path.read_text())
    assert sorted(point) == ["commit", "floors_s", "points", "python"]
    if _in_git_checkout():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_SCRIPTS, capture_output=True,
                              text=True).stdout.strip()
        assert sorted(point["commit"]) == ["dirty", "rev"]
        assert point["commit"]["rev"] == head and type(point["commit"]["dirty"]) is bool
    else:
        assert point["commit"] is None
    assert point["python"] == ".".join(map(str, sys.version_info[:3]))
    assert list(point["floors_s"]) == ["python -c pass", "python -S -c pass"]
    assert all(type(s) is float and 0 < s < 60 for s in point["floors_s"].values())
    assert len(point["points"]) == len(lines) == len(bench_kernels.POINTS["closed"])
    for line, fields, (spec, (n, k), bits) in zip(lines, point["points"],
                                                  bench_kernels.POINTS["closed"]):
        assert list(fields) == ["suite", "alphabet", "n", "k", "median_s", "peak_mb", "bits",
                                "spread"]
        assert (fields["suite"], fields["alphabet"], fields["n"], fields["k"], fields["bits"]) == (
            "closed", spec, n, k, bits)
        assert all(type(fields[name]) is float and fields[name] >= 0
                   for name in ("median_s", "peak_mb", "spread"))
        # The line prints the same fields but the spread, rounded.
        assert line == (f"suite=closed alphabet={spec} n={n} k={k}"
                        f" median_s={fields['median_s']:.4f} peak_mb={fields['peak_mb']:.2f}"
                        f" bits={bits}")
    assert bench_kernels.main(["--suite", "closed", "--record", str(path)]) == 0
    first, second = json.loads(path.read_text())
    assert first == point and sorted(second) == sorted(point)


def test_a_failed_gate_records_no_point(monkeypatch, capsys, tmp_path):
    path = tmp_path / "BENCH_kernels.json"
    monkeypatch.setattr(bench_kernels, "POINTS", {"det": (("all", 5),)})
    monkeypatch.setattr(bench_kernels, "KERNELS", {"det": lambda n, a: 1 << 5})
    assert bench_kernels.main(["--suite", "det", "--record", str(path)]) == 1
    assert not path.exists()


@needs_git
def test_against_head_prints_both_trees_and_exits_0():
    done = subprocess.run([sys.executable, str(_PATH), "--against", "HEAD", "--suite", "closed"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(_SCRIPTS.parent / "src")})
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == len(bench_kernels.POINTS["closed"])
    for line, (spec, (n, k), bits) in zip(lines, bench_kernels.POINTS["closed"]):
        fields = line.split()
        assert fields[:4] == ["suite=closed", f"alphabet={spec}", f"n={n}", f"k={k}"]
        assert [field.partition("=")[0] for field in fields[4:]] == [
            "rev_s", "tree_s", "ratio", "rev_spread", "tree_spread", "bits"]
        assert fields[-1] == f"bits={bits}"


@needs_git
def test_against_a_tree_that_returns_a_wrong_value_exits_1(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    import two_trees

    kernels = bench_kernels.kernels

    def planted(package):
        table = kernels(package)
        if package == two_trees.TREE_NAME:
            closed = table["closed"]
            table["closed"] = lambda size, alphabet: closed(size, alphabet) + 1
        return table

    monkeypatch.setattr(bench_kernels, "POINTS", {"closed": (("upto:2", (5, 2)),)})
    monkeypatch.setattr(bench_kernels, "kernels", planted)
    assert bench_kernels.main(["--against", "HEAD", "--suite", "closed"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("suite=closed alphabet=upto:2 n=5 k=2 rev_s=")
    assert err == ("bench_kernels: suite=closed alphabet=upto:2 n=5 k=2: HEAD and the working"
                   " tree return different values (bits 7 and 7)\n")


@pytest.mark.parametrize("argv,reason", [
    (["--against", "HEAD", "--suite", "serialize"],
     "--against times the kernel suites only, not serialize"),
    (["--against", "HEAD", "--suite", "startup"],
     "--against times the kernel suites only, not startup"),
    pytest.param(["--against", "no/such/rev", "--suite", "closed"],
                 "cannot export 'no/such/rev': ", marks=needs_git),
    (["--against", "HEAD", "--record", "BENCH_kernels.json"],
     "argument --record: not allowed with argument --against"),
], ids=["serialize", "startup", "unknown-rev", "record"])
def test_against_refuses_a_usage_error_with_exit_2(monkeypatch, capsys, argv, reason):
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    with pytest.raises(SystemExit) as exited:
        bench_kernels.main(argv)
    assert exited.value.code == 2
    assert f": error: {reason}" in capsys.readouterr().err
