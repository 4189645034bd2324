"""The kernel timing script's gates, on stand-in kernels: no test here
times or runs a real kernel."""

import importlib.util
from pathlib import Path

import pytest

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


def test_the_recurrence_suite_pins_its_largest_count():
    assert ("upto:3", 10**6, 879146) in bench_kernels.POINTS["recurrence"]


def test_the_recurrence_suite_pins_the_interval_wider_than_n():
    # c(10^5) on upto:10^9 is 2^(10^5 - 1): a D padded to x^n would show in
    # the point's time, and a wrong count in its bits.
    assert ("upto:1000000000", 10**5, 100000) in bench_kernels.POINTS["recurrence"]


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
    monkeypatch.setattr(bench_kernels, "_decimal_counts", lambda n, k, alphabet: [0])
    assert bench_kernels.main(["--suite", "serialize"]) == 1
    assert capsys.readouterr().err == (
        "bench_kernels: suite=serialize alphabet=all n=3 k=0: the int and Decimal rows differ\n")
