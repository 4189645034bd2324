"""Brute-force ground truth: stream every composition, count weak ones by
walking every sequence.

Everything in this module trades speed for trust. It is the oracle the
faster routes are validated against, so nothing here may use a recurrence,
determinant, convolution, or closed form. Inputs are guarded (default
limit 25, overridable per call or via the COMPCOUNT_GUARD environment
variable); exceeding the guard raises instead of truncating, because an
oracle must never return a wrong count.
"""

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .alphabet import PartAlphabet
from .errors import DomainError, GuardExceeded
from .numbers import binomial

DEFAULT_GUARD = 25
GUARD_ENV_VAR = "COMPCOUNT_GUARD"


def effective_guard(guard: int | None = None) -> int:
    """Explicit guard if given, else COMPCOUNT_GUARD, else the default."""
    if guard is not None:
        return guard
    env = os.environ.get(GUARD_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_GUARD
    except ValueError:
        raise DomainError(f"{GUARD_ENV_VAR}={env!r} is not an integer") from None


def _check_guard(label: str, value: int, guard: int | None):
    limit = effective_guard(guard)
    if value > limit:
        raise GuardExceeded(f"{label}={value} exceeds the enumeration guard {limit}")


@dataclass(frozen=True)
class Composition:
    """An ordered sequence of (value, color) parts; zero parts carry color 1."""

    parts: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.parts)

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.parts)

    def total(self) -> int:
        return sum(self.values)


def _value_sequences(n: int, alphabet: PartAlphabet):
    # Ascending first part, then recurse: yields value tuples in
    # lexicographic order (all sequences sum to n, so none is a prefix
    # of another).
    if n == 0:
        yield ()
        return
    for value, _ in alphabet.parts_within(n):
        for tail in _value_sequences(n - value, alphabet):
            yield (value, *tail)


def enumerate_compositions(n: int, alphabet: PartAlphabet, guard: int | None = None):
    """Stream every colored composition of ``n`` over ``alphabet``.

    Order is lexicographic by value sequence, then by color sequence.
    ``n = 0`` yields exactly the empty composition.
    """
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    _check_guard("n", n, guard)
    return _colored_stream(n, alphabet)


def _colored_stream(n, alphabet):
    for values in _value_sequences(n, alphabet):
        color_ranges = [range(1, alphabet.multiplicity(v) + 1) for v in values]
        for colors in itertools.product(*color_ranges):
            yield Composition(tuple(zip(values, colors)))


def count_compositions_brute(n: int, alphabet: PartAlphabet, guard: int | None = None) -> int:
    """Length of the enumerate_compositions stream."""
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    _check_guard("n", n, guard)
    return sum(1 for _ in _colored_stream(n, alphabet))


def count_weak_brute(n: int, k: int, alphabet: PartAlphabet, guard: int | None = None) -> int:
    """Count sequences with exactly ``k`` zero parts and every other part a
    colored alphabet value, summing to ``n``.

    Each placement of zeros and each value sequence is enumerated
    explicitly (zeros may lead, trail, or be adjacent); the color choices
    of a part enter as an exact per-part factor. No formula involved.
    """
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    _check_guard("n", n, guard)
    _check_guard("k", k, guard)
    return _weak_brute(n, k, alphabet)


@lru_cache(maxsize=None)
def _weak_brute(n, k, alphabet):
    parts = alphabet.parts_within(n)

    def rec(remaining, zeros):
        if remaining == 0 and zeros == 0:
            return 1
        total = rec(remaining, zeros - 1) if zeros else 0
        for value, colors in parts:
            if value > remaining:
                break
            total += colors * rec(remaining - value, zeros)
        return total

    return rec(n, k)


def count_weak_insertion(n: int, k: int, alphabet: PartAlphabet, guard: int | None = None) -> int:
    """Semi-independent check: a weak composition with k zeros is a
    zero-free composition with p parts plus a multiset choice of the k
    zero slots among the p+1 gaps, i.e. sum_p c_p * C(p+k, k)."""
    if k < 0:
        raise DomainError(f"zero count must be >= 0, got {k}")
    _check_guard("k", k, guard)
    lengths = Counter(len(comp.parts) for comp in enumerate_compositions(n, alphabet, guard))
    return sum(count * binomial(p + k, k) for p, count in lengths.items())
