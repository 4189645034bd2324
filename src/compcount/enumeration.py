"""Brute-force ground truth: count weak compositions by one walk over
every sequence of a grid.

Everything in this module trades speed for trust. It is the oracle the
faster routes are validated against, so nothing here may use a recurrence,
determinant, convolution, or closed form. Counts come from
``weak_brute_table``: one walk visits every sequence of
zeros and alphabet values with sum at most max_n and at most max_k zeros,
once each, and tallies it, weighted by its parts' color counts, into the
cell for its own sum and zero count, so one walk answers a whole (n, k)
grid. Inputs are guarded (limit from the COMPCOUNT_GUARD environment
variable, else 25); exceeding the guard raises instead of truncating,
because an oracle must never return a wrong count.
"""

import os
import sys
from functools import lru_cache

from .alphabet import PartAlphabet
from .errors import DomainError, GuardExceeded

DEFAULT_GUARD = 25
GUARD_ENV_VAR = "COMPCOUNT_GUARD"


def effective_guard() -> int:
    """COMPCOUNT_GUARD if set, else the default."""
    env = os.environ.get(GUARD_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_GUARD
    except ValueError:
        raise DomainError(f"{GUARD_ENV_VAR}={env!r} is not an integer") from None


def _check_guard(label: str, value: int):
    limit = effective_guard()
    if value > limit:
        raise GuardExceeded(f"{label}={value} exceeds the enumeration guard {limit}")


def count_compositions_brute(n: int, alphabet: PartAlphabet) -> int:
    """Colored compositions of ``n``: the weak count with no zeros."""
    return count_weak_brute(n, 0, alphabet)


def count_weak_brute(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Count sequences with exactly ``k`` zero parts and every other part a
    colored alphabet value, summing to ``n``: cell [n][k] of
    ``weak_brute_table(n, k, alphabet)``."""
    _check_table(n, k)
    # The walk is called directly: no extra frame, so every walk depth
    # the recursion limit allowed before still fits.
    return _weak_table(n, k, alphabet)[n][k]


def weak_brute_table(
    max_n: int, max_k: int, alphabet: PartAlphabet
) -> tuple[tuple[int, ...], ...]:
    """t[n][k] for every n <= max_n and k <= max_k: the number of
    sequences with exactly k zero parts and every other part a colored
    alphabet value, summing to n.

    One walk visits each such sequence explicitly, once (zeros may lead,
    trail, or be adjacent); the color choices of a part enter as an exact
    per-part factor. No formula involved. The guard applies to max_n and
    max_k before any work is done.
    """
    _check_table(max_n, max_k)
    return _weak_table(max_n, max_k, alphabet)


def _check_table(max_n, max_k):
    if max_n < 0 or max_k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={max_n}, k={max_k}")
    _check_guard("n", max_n)
    _check_guard("k", max_k)


@lru_cache(maxsize=16)
def _weak_table(max_n, max_k, alphabet):
    parts = alphabet.parts_within(max_n)
    # The walk visits only the sums left to reach that some sequence of
    # parts leaves, as states numbered in the order found, so its
    # ``remaining`` is a state: left_sums[s] is the sum left in state s,
    # state 0 has max_n left, and moves[s] lists (state after a part v,
    # colors of v) for every part v that fits.
    state = {max_n: 0}
    left_sums = [max_n]
    for r in left_sums:  # grows while it is read
        for v, _ in parts:
            if v > r:
                break
            if r - v not in state:
                state[r - v] = len(left_sums)
                left_sums.append(r - v)
    moves = [[(state[r - v], q) for v, q in parts if v <= r] for r in left_sums]
    # left[s][z] tallies the sequences in state s with z zeros left to
    # place, i.e. with sum max_n - left_sums[s] and max_k - z zeros. Column
    # z = 0 holds the most sequences, so it is tallied apart, in done[s],
    # by a walk without the zero test.
    left = [[0] * (max_k + 1) for _ in left_sums]
    done = [0] * len(left_sums)

    def walk_done(remaining, weight):
        done[remaining] += weight
        for rest, colors in moves[remaining]:
            walk_done(rest, weight * colors)

    def walk(remaining, zeros_left, weight):
        left[remaining][zeros_left] += weight
        if zeros_left > 1:
            walk(remaining, zeros_left - 1, weight)
        else:
            walk_done(remaining, weight)
        for rest, colors in moves[remaining]:
            walk(rest, zeros_left, weight * colors)

    try:
        if max_k:
            walk(0, max_k, 1)
        else:
            walk_done(0, 1)
    except RecursionError:
        depth = max_k + (max_n // parts[0][0] if parts else 0)
        raise GuardExceeded(
            f"brute-force walk depth {depth} exceeds the recursion limit"
            f" {sys.getrecursionlimit()}"
        ) from None
    rows = {}
    for r, row, tally in zip(left_sums, left, done):
        row[0] = tally
        rows[max_n - r] = tuple(reversed(row))
    zero = (0,) * (max_k + 1)  # shared by every sum no sequence reaches
    return tuple(rows.get(n, zero) for n in range(max_n + 1))
