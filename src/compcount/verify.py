"""Identity verification drivers: evaluate both sides of each identity
over a small grid, against the brute-force oracle where it claims a count.
Each identity yields ``(n, k, lhs, rhs[, oracle])`` cells, and ``_report``
makes every report from them, ``_point`` fixing each point's verdict.
Identities that read the same (grid, alphabet) share its one brute walk
within a call of ``run_identity``; no table outlives the call.

The fixed alphabet battery below is shared with the test suite; it mixes
unbounded, bounded, and multi-colored alphabets so every code path sees
colors, gaps (values with zero multiplicity), and unbounded expansion.
"""

from functools import cache, partial

from .alphabet import PartAlphabet
from .enumeration import weak_brute_table
from .errors import DomainError
from .hessenberg import weak_minor_table
from .recurrence import weak_columns
from .reports import GridPoint, Report
from .weakforms import count_weak_parts12_closed, count_weak_unrestricted_closed, fib_block_closed

BATTERY: tuple[tuple[str, PartAlphabet], ...] = (
    ("atleast:1", PartAlphabet.at_least(1)),
    ("1,2", PartAlphabet.upto(2)),
    ("1,2,3", PartAlphabet.upto(3)),
    ("atleast:2", PartAlphabet.at_least(2)),
    ("1x2", PartAlphabet.of((1, 2))),
    ("1,2x3", PartAlphabet.of((1, 1), (2, 3))),
)


def _point(n, k, lhs, rhs, oracle=None) -> GridPoint:
    """A grid point that agrees exactly when every recorded value is equal."""
    agree = lhs == rhs and (oracle is None or oracle == lhs)
    return GridPoint(n, k, lhs, rhs, oracle, agree)


def _report(identity, cells, lhs_label, rhs_label, notes=()) -> Report:
    """The report of ``(n, k, lhs, rhs[, oracle])`` cells, in their order."""
    return Report(identity, tuple(_point(*cell) for cell in cells), lhs_label, rhs_label, notes)


def check_fib_convolution_identity(max_n: int) -> Report:
    """Fibonacci self-convolution vs its binomial double sum, 0 <= k <= n.
    F_{j+1} counts the compositions of j into parts {1, 2}, so the (k+1)-fold
    convolution at n - k is the weak count over {1, 2} at (n - k, k): column
    k of one chain, cut to the max_n - k + 1 cells read, vs its closed form."""
    columns = [column[: max_n - k + 1]
               for k, column in enumerate(weak_columns(max_n, max_n, PartAlphabet.upto(2)))]
    cells = ((n, k, columns[k][n - k], count_weak_parts12_closed(n - k, k))
             for n in range(max_n + 1) for k in range(n + 1))
    return _report("eq1", cells, "fib_convolution", "binomial_sum")


def _oracle_grid(identity, value_fn, table, first_n=0, lhs_label="computed"):
    cells = ((n, k, value_fn(n, k), cell)
             for n in range(first_n, len(table)) for k, cell in enumerate(table[n]))
    return _report(identity, cells, lhs_label, "brute")


def _battery(identity, columns, brute, max_n, max_k) -> list[Report]:
    """``columns(alphabet, max_n, max_k)[k][n]`` vs brute weak counts, per
    battery alphabet; an alphabet's brute table is walked before its
    columns are built, so the guard refuses first."""
    reports = []
    for label, alphabet in BATTERY:
        table = brute(max_n, max_k, alphabet)
        built = columns(alphabet, max_n, max_k)
        reports.append(_oracle_grid(f"{identity}[{label}]", lambda n, k: built[k][n], table))
    return reports


def adjudicate_fib_block_identity(max_n: int, max_k: int) -> Report:
    """Compare the closed form and the convolution against the brute count
    of weak compositions of n+k-1 with k zeros and parts >= 2 — the target
    the identity is labelled with — over 1 <= n <= max_n, 0 <= k <= max_k.

    The two computed sides are expected to agree with each other; whether
    the labelled target matches is exactly what the report records. When
    every k = 0 row instead matches the direct count at total n+1, that
    one-shift observation is noted.
    """
    if max_n < 1 or max_k < 0:
        raise DomainError(f"need max_n >= 1 and max_k >= 0, got {max_n}, {max_k}")
    # One table holds every brute count read below: totals up to
    # max_n + max_k - 1 with k zeros, and max_n + 1 with none.
    brute = weak_brute_table(max(max_n + max_k - 1, max_n + 1), max_k, PartAlphabet.at_least(2))
    # The convolution at n is the weak count over the odd parts; none above max_n counts.
    columns = list(weak_columns(max_n, max_k, PartAlphabet.of(*range(1, max_n + 1, 2))))
    cells = ((n, k, fib_block_closed(n, k), columns[k][n], brute[n + k - 1][k])
             for n in range(1, max_n + 1) for k in range(max_k + 1))
    shifted = all(columns[0][n] == brute[n + 1][0] for n in range(1, max_n + 1))
    notes = ("every k=0 row equals the direct zero-free count at total n+1,"
             " so the labelled target looks shifted by one",) if shifted else ()
    return _report("thm12", cells, "closed", "convolution", notes)


# name -> (brute, max_n, max_k) -> reports, brute being run_identity's shared
# weak_brute_table. Each weak-series side reads one chain of weak columns:
# thm8 per battery alphabet, eq1 over {1, 2}, thm12 over the odd parts. thm9
# reads the minors' columns, cell n of column k being c_k(n + k) of the order
# max_n + max_k charpoly table. thm10 (n >= 1) and thm11 set the closed forms
# for unrestricted parts and for parts {1, 2} against brute.
_REPORT_BUILDERS = {
    "eq1": lambda brute, max_n, max_k: [check_fib_convolution_identity(max_n)],
    "thm8": partial(_battery, "thm8", lambda a, n, k: list(weak_columns(n, k, a))),
    "thm9": partial(_battery, "thm9", weak_minor_table),
    # An empty grid (max_n = 0) reads no brute count, so it meets no guard.
    "thm10": lambda brute, max_n, max_k: [_oracle_grid(
        "thm10", count_weak_unrestricted_closed,
        brute(max_n, max_k, PartAlphabet.at_least(1)) if max_n else (),
        first_n=1, lhs_label="closed",
    )],
    "thm11": lambda brute, max_n, max_k: [_oracle_grid(
        "thm11", count_weak_parts12_closed, brute(max_n, max_k, PartAlphabet.upto(2))
    )],
    "thm12": lambda brute, max_n, max_k: [adjudicate_fib_block_identity(max(max_n, 1), max_k)],
}
IDENTITY_NAMES = tuple(_REPORT_BUILDERS)


def run_identity(name: str, max_n: int, max_k: int) -> list[Report]:
    """Reports for one identity name, or for all of them in a fixed order."""
    if max_n < 0 or max_k < 0:
        raise DomainError(f"grid sizes must be >= 0, got max_n={max_n}, max_k={max_k}")
    if name != "all" and name not in _REPORT_BUILDERS:
        raise DomainError(f"unknown identity {name!r}")
    names = IDENTITY_NAMES if name == "all" else (name,)
    brute = cache(weak_brute_table)  # one walk per (grid, alphabet) in this call
    return [report for n in names for report in _REPORT_BUILDERS[n](brute, max_n, max_k)]
