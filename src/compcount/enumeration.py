"""Brute-force ground truth: count weak compositions by one walk over
every sequence of a grid.

Everything in this module trades speed for trust. It is the oracle the
faster routes are validated against, so nothing here may use a recurrence,
determinant, convolution, or closed form. Counts come from
``weak_brute_table``: one walk visits every sequence of zeros and alphabet
values with sum at most max_n and at most max_k zeros, once each, and
tallies it, weighted by its parts' color counts, into the cell for its own
sum and zero count, so one walk answers a whole (n, k) grid. It goes by
levels, each sequence one character of a string, the sum it leaves: one
1:1 ``str.translate`` per part value extends a level, a zero moves a whole
string to one zero fewer, and ``str.count`` tallies it. Inputs are guarded
(limit from the COMPCOUNT_GUARD environment variable, else 25): max_n and
max_k may not exceed it, and the walk may visit at most 2^max(guard, 25)
sequences, what ``count 25 --method brute`` visits on ``all``. Exceeding
either raises instead of truncating, because an oracle must never return
a wrong count. Nothing is cached, so a refusal depends on the arguments
and the guard alone; ``verify`` shares a grid's walk within one call.
"""

import os

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
    return weak_brute_table(n, k, alphabet)[n][k]


def weak_brute_table(
    max_n: int, max_k: int, alphabet: PartAlphabet
) -> tuple[tuple[int, ...], ...]:
    """t[n][k] for every n <= max_n and k <= max_k: the number of
    sequences with exactly k zero parts and every other part a colored
    alphabet value, summing to n.

    One walk visits each such sequence explicitly, once (zeros may lead,
    trail, or be adjacent); the color choices of a part enter as an exact
    per-part factor. No formula involved. The guard applies to max_n and
    max_k before any work is done, and to the walk's length as it goes.
    """
    if max_n < 0 or max_k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={max_n}, k={max_k}")
    _check_guard("n", max_n)
    _check_guard("k", max_k)
    return _weak_table(max_n, max_k, alphabet)


def _weak_table(max_n, max_k, alphabet):
    parts = alphabet.parts_within(max_n)
    # The walk visits only the sums left to reach that some sequence of
    # parts leaves, as states numbered in the order found: left_sums[s] is
    # the sum left in state s, and state 0 has max_n left.
    state, left_sums = {max_n: 0}, [max_n]
    for r in left_sums:  # grows while it is read
        for v, _ in parts:
            if v > r:
                break
            if r - v not in state:
                state[r - v] = len(left_sums)
                left_sums.append(r - v)
    # Cell s * width + z tallies state s with z zeros left (max_k - z zeros).
    width = max_k + 1
    nodes = len(left_sums) * width
    if nodes > 0x110000:
        raise GuardExceeded(f"brute-force walk needs {nodes} nodes, more than the"
                            " 0x110000 code points of a str")
    # Part v takes each state to that of its sum left less v, or deletes it
    # (None): a 1:1 table, on CPython's ASCII fast path below 128 states.
    tables = [(q, [state.get(r - v) for r in left_sums]) for v, q in parts]
    fits = [sum(v <= r for v, _ in parts) for r in left_sums]
    # A level maps (weight, z), the product of its parts' colors and its
    # zeros left, to its sequences and the states among them. The next
    # level's length is counted before it is built, so the walk visits at
    # most 2^budget sequences (steps omits the empty one), as `count budget
    # --method brute` on `all`; a lower guard keeps the budget.
    budget = max(effective_guard(), DEFAULT_GUARD)
    cells, steps, level = [0] * nodes, 0, {(1, max_k): ("\0", "\0")}
    while level:
        for (weight, z), (sequences, present) in level.items():
            for s in present:
                count = sequences.count(s)
                cells[ord(s) * width + z] += weight * count
                steps += count * (fits[ord(s)] + (z > 0))
        if steps >> budget:
            raise GuardExceeded(f"brute-force walk exceeds its step budget of 2^{budget} sequences")
        grown = {}
        while level:  # a parent is dropped once it is extended
            (weight, z), (sequences, present) = level.popitem()
            for q, table in tables:
                found = present.translate(table)
                if not found:
                    break  # the parts ascend: no larger one fits either
                seqs, states = grown.setdefault((weight * q, z), ([], set()))
                seqs.append(sequences.translate(table))
                states.update(found)
            if z:  # a zero moves the whole group to one zero fewer
                seqs, states = grown.setdefault((weight, z - 1), ([], set()))
                seqs.append(sequences)
                states.update(present)
        del sequences, present
        level = {key: ("".join(seqs), "".join(states)) for key, (seqs, states) in grown.items()}
    rows = {max_n - r: tuple(reversed(cells[s * width:(s + 1) * width]))
            for s, r in enumerate(left_sums)}
    zero = (0,) * width  # shared by every sum no sequence reaches
    return tuple(rows.get(n, zero) for n in range(max_n + 1))
