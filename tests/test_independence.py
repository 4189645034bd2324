"""Route independence: two routes that a ``verify`` identity or a
``count`` / ``weak --method`` choice compares must share no code that
computes.

Each route runs once per alphabet under ``sys.setprofile``, which records
every compcount function it calls. Two compared routes may both call into
``alphabet`` (the input) and ``errors``, and into the names in
``SHARED_OK``, and into nothing else.
"""

import sys
from pathlib import Path

import pytest

import compcount
from compcount import enumeration
from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute, count_weak_brute
from compcount.hessenberg import build_matrix, det_hessenberg
from compcount.recurrence import count_compositions
from compcount.weakforms import (
    convolved_fibonacci,
    convolved_fibonacci_binomial,
    count_weak_convolution,
    count_weak_minor_sum,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
    fib_block_convolution,
)

PACKAGE = Path(compcount.__file__).parent
ALPHABETS = (PartAlphabet.at_least(2), PartAlphabet.of((1, 2), (3, 1)))
ALWAYS_SHARED = ("alphabet.", "errors.")
# Argument checks that compute nothing, with the pair that shares them.
SHARED_OK = {
    ("fib_convolution", "fib_binomial"): {"weakforms._check_fib_args"},
}


def _brute(alphabet):
    enumeration._weak_table.cache_clear()  # a cached table would hide the walk
    count_weak_brute(6, 2, alphabet)
    count_compositions_brute(7, alphabet)


def _charpoly(alphabet):
    det_hessenberg(build_matrix(alphabet, 9))
    count_weak_minor_sum(6, 2, alphabet)


# route: (run on an alphabet, its kernel, which the trace must contain)
ROUTES = {
    "series_term": (lambda a: count_compositions(9, a), "recurrence.series_term"),
    "series": (lambda a: count_weak_convolution(6, 2, a), "recurrence.extend_series"),
    "charpoly": (_charpoly, "hessenberg._charpoly_columns"),
    "brute": (_brute, "enumeration._weak_table.<locals>.walk"),
    "unrestricted_closed": (lambda a: count_weak_unrestricted_closed(6, 2),
                            "weakforms.count_weak_unrestricted_closed"),
    "parts12_closed": (lambda a: count_weak_parts12_closed(6, 2),
                       "weakforms.count_weak_parts12_closed"),
    "fib_block_closed": (lambda a: fib_block_closed(6, 2), "weakforms.fib_block_closed"),
    "fib_block_convolution": (lambda a: fib_block_convolution(6, 2), "numbers.convolve_prefix"),
    "fib_convolution": (lambda a: convolved_fibonacci(6, 2), "numbers.convolve_prefix"),
    "fib_binomial": (lambda a: convolved_fibonacci_binomial(6, 2), "numbers.binomial"),
}

# Every pair of routes whose results are set against each other.
COMPARED = [
    ("series_term", "charpoly"),  # count --method recurrence / det
    ("series_term", "brute"),  # count --method recurrence / brute
    ("charpoly", "brute"),  # count --method det / brute, thm9
    ("series", "brute"),  # thm8
    ("series", "charpoly"),  # weak --method conv / minors
    ("series", "unrestricted_closed"),  # weak --method conv / closed
    ("series", "parts12_closed"),
    ("charpoly", "unrestricted_closed"),  # weak --method minors / closed
    ("charpoly", "parts12_closed"),
    ("unrestricted_closed", "brute"),  # thm10
    ("parts12_closed", "brute"),  # thm11
    ("fib_block_closed", "fib_block_convolution"),  # thm12
    ("fib_block_closed", "brute"),
    ("fib_block_convolution", "brute"),
    ("fib_convolution", "fib_binomial"),  # eq1
    ("series_term", "series"),  # count and thm8 stay on different kernels
]


def _trace(run) -> set[str]:
    """module.qualname of every compcount function ``run`` calls."""
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == PACKAGE:
            name = getattr(code, "co_qualname", code.co_name)
            called.add(f"{Path(code.co_filename).stem}.{name}")

    sys.setprofile(profile)
    try:
        for alphabet in ALPHABETS:
            run(alphabet)
    finally:
        sys.setprofile(None)
    return called


@pytest.fixture(scope="module")
def traces():
    return {route: _trace(run) for route, (run, _) in ROUTES.items()}


@pytest.mark.parametrize("route", ROUTES)
def test_each_trace_holds_its_own_kernel(traces, route):
    assert ROUTES[route][1] in traces[route]


@pytest.mark.parametrize("pair", COMPARED, ids="-".join)
def test_compared_routes_share_no_function(traces, pair):
    first, second = pair
    shared = {
        name for name in traces[first] & traces[second]
        if not name.startswith(ALWAYS_SHARED)
    }
    assert shared <= SHARED_OK.get(pair, set()), shared


def test_the_trace_sees_what_a_route_calls():
    # A route that shares a helper must fail the check above.
    shared = _trace(lambda a: count_compositions(5, a)) & _trace(
        lambda a: count_compositions(7, a)
    )
    assert "recurrence._product" in shared
