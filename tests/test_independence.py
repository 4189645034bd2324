"""Route independence: two routes that a ``verify`` identity or a
``count`` / ``weak --method`` choice compares must share no code that
computes.

Each route runs once per alphabet under ``sys.setprofile``, which records
every compcount function it calls. Two compared routes may both call into
``alphabet`` (the input) and ``errors``, and into nothing else.

Independence holds at import time too: a fresh interpreter that imports
the package, or one route's module, or runs one command, loads no other
route's module.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compcount
from compcount.alphabet import PartAlphabet
from compcount.enumeration import count_compositions_brute, count_weak_brute
from compcount.hessenberg import build_matrix, count_weak_minor_sum, det_hessenberg
from compcount.recurrence import count_compositions, count_weak_convolution
from compcount.weakforms import (
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
)

PACKAGE = Path(compcount.__file__).parent
ALPHABETS = (PartAlphabet.at_least(2), PartAlphabet.of((1, 2), (3, 1)))
ALWAYS_SHARED = ("alphabet.", "errors.")


def _brute(alphabet):
    count_weak_brute(6, 2, alphabet)
    count_compositions_brute(7, alphabet)


def _charpoly(alphabet):
    det_hessenberg(build_matrix(alphabet, 9))
    count_weak_minor_sum(6, 2, alphabet)


# route: (run on an alphabet, its kernel, which the trace must contain)
ROUTES = {
    "series_term": (lambda a: count_compositions(9, a), "recurrence.series_term"),
    "series": (lambda a: count_weak_convolution(6, 2, a), "recurrence.divide_series"),
    "charpoly": (_charpoly, "hessenberg._charpoly_columns"),
    "brute": (_brute, "enumeration._weak_table"),
    "unrestricted_closed": (lambda a: count_weak_unrestricted_closed(6, 2),
                            "weakforms.count_weak_unrestricted_closed"),
    "parts12_closed": (lambda a: count_weak_parts12_closed(6, 2),
                       "weakforms.count_weak_parts12_closed"),
    "fib_block_closed": (lambda a: fib_block_closed(6, 2), "weakforms.fib_block_closed"),
    # thm12's convolution side at (6, 2): the weak series over odd parts
    "fib_block_convolution": (lambda a: count_weak_convolution(6, 2, PartAlphabet.of(1, 3, 5)),
                              "recurrence.divide_series"),
    # eq1 at (n, k) = (6, 2) reads both sides at (n - k, k)
    "fib_convolution": (lambda a: count_weak_convolution(4, 2, PartAlphabet.upto(2)),
                        "recurrence.divide_series"),
    "fib_binomial": (lambda a: count_weak_parts12_closed(4, 2), "weakforms.binomial"),
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
    assert shared == set(), shared


def test_the_trace_sees_what_a_route_calls():
    # A route that shares a helper must fail the check above.
    shared = _trace(lambda a: count_compositions(5, a)) & _trace(
        lambda a: count_compositions(7, a)
    )
    assert "recurrence._product" in shared


def _modules_after(statement, *flags) -> set[str]:
    """Every module a fresh interpreter, started with ``flags``, holds after
    ``statement``."""
    code = f"import sys; {statement}; print(); print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return set(done.stdout.splitlines()[-1].split())


@functools.cache
def _bare_modules() -> frozenset[str]:
    """What a bare interpreter in the same environment already holds (``site``
    and its ``.pth`` files differ between machines)."""
    return frozenset(_modules_after("pass"))


def _loaded_modules(statement) -> set[str]:
    """The modules ``statement`` adds to a fresh interpreter."""
    return _modules_after(statement) - _bare_modules()


def _loaded_submodules(statement) -> set[str]:
    """The compcount submodules a fresh interpreter holds after ``statement``."""
    return {name for name in _loaded_modules(statement) if name.startswith("compcount.")}


def _command(*argv) -> str:
    return f"from compcount import cli; cli.main({list(argv)!r})"


def test_importing_the_package_loads_no_submodule():
    assert _loaded_submodules("import compcount") == set()


# route module: the modules besides itself that it may load
ROUTE_INPUTS = {
    "recurrence": {"alphabet", "errors"},
    "hessenberg": {"alphabet", "errors"},
    "enumeration": {"alphabet", "errors"},
    "weakforms": {"errors"},
}


@pytest.mark.parametrize("route", ROUTE_INPUTS)
def test_a_route_module_loads_no_other_route(route):
    assert _loaded_submodules(f"import compcount.{route}") == {
        f"compcount.{name}" for name in {route, *ROUTE_INPUTS[route]}
    }


def test_a_count_loads_only_the_recurrence_and_no_heavy_standard_module():
    loaded = _loaded_modules(_command("count", "5"))
    assert {name for name in loaded if name.startswith("compcount.")} == {
        "compcount.cli", "compcount.errors", "compcount.alphabet", "compcount.recurrence"
    }
    heavy = {"dataclasses", "inspect", "json", "argparse", "gettext", "locale", "decimal"}
    assert loaded & heavy == set()


def test_a_table_loads_decimal_only_past_the_crossover():
    # On `all`, c(n) = 2^(n - 1) has n bits, and the rule's crossover lies
    # between 2000 and 3000 rows (test_cli pins it to one row).
    for n_max in ("5", "2000"):
        assert "decimal" not in _loaded_modules(_command("table", "--n-max", n_max))
    assert "decimal" in _modules_after(_command("table", "--n-max", "3000"))


def test_a_count_without_site_loads_neither_collections_nor_functools():
    # A site whose .pth files load these would hide them from the check
    # above; PartAlphabet is a plain tuple subclass so that no request pays
    # for them.
    loaded = _modules_after(_command("count", "5"), "-S")
    assert {"collections", "functools"} & loaded == set()


@pytest.mark.parametrize("argv,unused", [
    (("weak", "5", "1"), {"compcount.enumeration", "compcount.reports", "compcount.verify"}),
    (("matrix", "5", "--det"),
     {"compcount.recurrence", "compcount.weakforms", "compcount.enumeration"}),
    (("table", "--n-max", "5"), {"compcount.hessenberg", "compcount.weakforms"}),
    (("weak", "5", "1", "--method", "closed"), {"compcount.recurrence", "compcount.hessenberg"}),
    (("weak", "5", "1", "--method", "minors"), {"compcount.recurrence", "compcount.weakforms"}),
], ids=["weak", "matrix-det", "table", "weak-closed", "weak-minors"])
def test_a_command_loads_no_route_it_does_not_run(argv, unused):
    assert _loaded_submodules(_command(*argv)) & unused == set()
