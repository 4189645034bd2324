"""Identity verification drivers: evaluate both sides of each identity
over a small grid, against the brute-force oracle where it claims a count;
``_point`` fixes each point's verdict as it puts the point in a report.

The fixed alphabet battery below is shared with the test suite; it mixes
unbounded, bounded, and multi-colored alphabets so every code path sees
colors, gaps (values with zero multiplicity), and unbounded expansion.
"""

from functools import partial

from .alphabet import PartAlphabet
from .enumeration import weak_brute_table
from .errors import DomainError
from .reports import GridPoint, Report
from .weakforms import (
    count_weak_convolution,
    count_weak_minor_sum,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
    fib_block_convolution,
    weak_counts,
)

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


def check_fib_convolution_identity(max_n: int) -> Report:
    """Fibonacci self-convolution vs its binomial double sum, 0 <= k <= n.
    F_{j+1} counts the compositions of j into parts {1, 2}, so the
    (k+1)-fold convolution at n - k is the weak count over {1, 2} at
    (n - k, k), set against that count's closed form. One weak series per
    k holds that count for every n of the grid."""
    columns = [weak_counts(max_n - k, k, PartAlphabet.upto(2)) for k in range(max_n + 1)]
    points = tuple(
        _point(n=n, k=k, lhs=columns[k][n - k], rhs=count_weak_parts12_closed(n - k, k))
        for n in range(max_n + 1)
        for k in range(n + 1)
    )
    return Report(
        identity="eq1", points=points, lhs_label="fib_convolution", rhs_label="binomial_sum"
    )


def _oracle_grid(identity, value_fn, max_n, max_k, alphabet, first_n=0, lhs_label="computed"):
    ns = range(first_n, max_n + 1)
    # An empty grid reads no brute count, so it meets no guard.
    brute = weak_brute_table(max_n, max_k, alphabet) if ns else ()
    points = tuple(
        _point(n=n, k=k, lhs=value_fn(n, k), rhs=brute[n][k])
        for n in ns
        for k in range(max_k + 1)
    )
    return Report(
        identity=identity, points=points, lhs_label=lhs_label, rhs_label="brute"
    )


def _battery(identity, count_fn, max_n, max_k) -> list[Report]:
    """``count_fn(n, k, alphabet)`` vs brute weak counts, per battery alphabet."""
    return [
        _oracle_grid(f"{identity}[{label}]", lambda n, k, a=alphabet: count_fn(n, k, a),
                     max_n, max_k, alphabet)
        for label, alphabet in BATTERY
    ]


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
    points = []
    for n in range(1, max_n + 1):
        for k in range(max_k + 1):
            points.append(
                _point(
                    n=n,
                    k=k,
                    lhs=fib_block_closed(n, k),
                    rhs=fib_block_convolution(n, k),
                    oracle=brute[n + k - 1][k],
                )
            )
    notes = []
    shifted_matches = [p.rhs == brute[p.n + 1][0] for p in points if p.k == 0]
    if shifted_matches and all(shifted_matches):
        notes.append(
            "every k=0 row equals the direct zero-free count at total n+1,"
            " so the labelled target looks shifted by one"
        )
    return Report(
        identity="thm12",
        points=tuple(points),
        lhs_label="closed",
        rhs_label="convolution",
        notes=tuple(notes),
    )


# name -> (max_n, max_k) -> reports. thm8 and thm9 run the convolution
# and the minor-sum routes over the battery; thm10 (n >= 1) and thm11 set
# the closed forms for unrestricted parts and for parts {1, 2} against
# brute.
_REPORT_BUILDERS = {
    "eq1": lambda max_n, max_k: [check_fib_convolution_identity(max_n)],
    "thm8": partial(_battery, "thm8", count_weak_convolution),
    "thm9": partial(_battery, "thm9", count_weak_minor_sum),
    "thm10": lambda max_n, max_k: [_oracle_grid(
        "thm10", count_weak_unrestricted_closed, max_n, max_k, PartAlphabet.at_least(1),
        first_n=1, lhs_label="closed",
    )],
    "thm11": lambda max_n, max_k: [_oracle_grid(
        "thm11", count_weak_parts12_closed, max_n, max_k, PartAlphabet.upto(2)
    )],
    "thm12": lambda max_n, max_k: [adjudicate_fib_block_identity(max(max_n, 1), max_k)],
}
IDENTITY_NAMES = tuple(_REPORT_BUILDERS)


def run_identity(name: str, max_n: int, max_k: int) -> list[Report]:
    """Reports for one identity name, or for all of them in a fixed order."""
    if max_n < 0 or max_k < 0:
        raise DomainError(f"grid sizes must be >= 0, got max_n={max_n}, max_k={max_k}")
    if name != "all" and name not in _REPORT_BUILDERS:
        raise DomainError(f"unknown identity {name!r}")
    names = IDENTITY_NAMES if name == "all" else (name,)
    return [report for n in names for report in _REPORT_BUILDERS[n](max_n, max_k)]
