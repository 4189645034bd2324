"""Identity verification drivers: evaluate both sides of each counting
identity over a small grid, against the brute-force oracle where the
identity claims a count, and collect the results into reports.

The fixed alphabet battery below is shared with the test suite; it mixes
unbounded, bounded, and multi-colored alphabets so every code path sees
colors, gaps (values with zero multiplicity), and unbounded expansion.
"""

from .alphabet import PartAlphabet
from .enumeration import weak_brute_table
from .errors import DomainError
from .reports import GridPoint, VerificationReport
from .weakforms import (
    adjudicate_fib_block_identity,
    convolved_fibonacci,
    convolved_fibonacci_binomial,
    count_weak_convolution,
    count_weak_minor_sum,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
)

BATTERY: tuple[tuple[str, PartAlphabet], ...] = (
    ("atleast:1", PartAlphabet.at_least(1)),
    ("1,2", PartAlphabet.upto(2)),
    ("1,2,3", PartAlphabet.upto(3)),
    ("atleast:2", PartAlphabet.at_least(2)),
    ("1x2", PartAlphabet.of((1, 2))),
    ("1,2x3", PartAlphabet.of((1, 1), (2, 3))),
)


def check_fib_convolution_identity(max_n: int) -> VerificationReport:
    """Fibonacci self-convolution vs its binomial double sum, 0 <= k <= n."""
    points = tuple(
        GridPoint(n=n, k=k, lhs=convolved_fibonacci(n, k), rhs=convolved_fibonacci_binomial(n, k))
        for n in range(max_n + 1)
        for k in range(n + 1)
    )
    return VerificationReport(
        identity="eq1", points=points, lhs_label="fib_convolution", rhs_label="binomial_sum"
    )


def _oracle_grid(
    identity, value_fn, max_n, max_k, alphabet, guard=None, first_n=0, lhs_label="computed"
):
    ns = range(first_n, max_n + 1)
    # An empty grid reads no brute count, so it meets no guard.
    brute = weak_brute_table(max_n, max_k, alphabet, guard) if ns else ()
    points = tuple(
        GridPoint(n=n, k=k, lhs=value_fn(n, k), rhs=brute[n][k])
        for n in ns
        for k in range(max_k + 1)
    )
    return VerificationReport(
        identity=identity, points=points, lhs_label=lhs_label, rhs_label="brute"
    )


def check_weak_block_convolution(max_n, max_k, guard=None) -> list[VerificationReport]:
    """Convolution route vs brute weak counts, per battery alphabet."""
    return [
        _oracle_grid(
            f"thm8[{label}]",
            lambda n, k, a=alphabet: count_weak_convolution(n, k, a),
            max_n,
            max_k,
            alphabet,
            guard,
        )
        for label, alphabet in BATTERY
    ]


def check_weak_minor_sum(max_n, max_k, guard=None) -> list[VerificationReport]:
    """Minor-sum route vs brute weak counts, per battery alphabet."""
    return [
        _oracle_grid(
            f"thm9[{label}]",
            lambda n, k, a=alphabet: count_weak_minor_sum(n, k, a),
            max_n,
            max_k,
            alphabet,
            guard,
        )
        for label, alphabet in BATTERY
    ]


def check_weak_unrestricted_closed(max_n, max_k, guard=None) -> VerificationReport:
    """Unrestricted-parts closed form vs brute, n >= 1."""
    return _oracle_grid(
        "thm10", count_weak_unrestricted_closed, max_n, max_k, PartAlphabet.at_least(1),
        guard, first_n=1, lhs_label="closed",
    )


def check_weak_parts12_closed(max_n, max_k, guard=None) -> VerificationReport:
    """Parts-{1,2} closed form vs brute."""
    return _oracle_grid(
        "thm11", count_weak_parts12_closed, max_n, max_k, PartAlphabet.upto(2), guard
    )


_REPORT_BUILDERS = {
    "eq1": lambda max_n, max_k, guard: [check_fib_convolution_identity(max_n)],
    "thm8": check_weak_block_convolution,
    "thm9": check_weak_minor_sum,
    "thm10": lambda max_n, max_k, guard: [check_weak_unrestricted_closed(max_n, max_k, guard)],
    "thm11": lambda max_n, max_k, guard: [check_weak_parts12_closed(max_n, max_k, guard)],
    "thm12": lambda max_n, max_k, guard: [
        adjudicate_fib_block_identity(max(max_n, 1), max_k, guard)
    ],
}
IDENTITY_NAMES = tuple(_REPORT_BUILDERS)


def run_identity(name: str, max_n: int, max_k: int, guard=None) -> list[VerificationReport]:
    """Reports for one identity name, or for all of them in a fixed order."""
    if max_n < 0 or max_k < 0:
        raise DomainError(f"grid sizes must be >= 0, got max_n={max_n}, max_k={max_k}")
    if name != "all" and name not in _REPORT_BUILDERS:
        raise DomainError(f"unknown identity {name!r}")
    names = IDENTITY_NAMES if name == "all" else (name,)
    return [report for n in names for report in _REPORT_BUILDERS[n](max_n, max_k, guard)]
