"""Composition counts as coefficients of a rational generating function.

Every composition of n >= 1 ends in some allowed value m with one of its
q colors, so c(n) = sum_i q_i * c(n - m_i) with c(0) = 1, and the counts
are the series of the alphabet's N(x) / D(x). One kernel expands any such
quotient; the sequence a_{m+1} = c(m) it yields is also exactly the
determinant sequence of the banded Hessenberg matrices built elsewhere.

Prefixes are cached per alphabet and grow monotonically, so repeated and
increasing requests reuse earlier work; the cache is lock-protected and
callers always receive fresh copies.
"""

import threading

from .alphabet import PartAlphabet
from .errors import DomainError

_prefix_cache: dict[PartAlphabet, list[int]] = {}
_cache_lock = threading.Lock()


def extend_series(terms: list[int], num, den, length: int) -> list[int]:
    """Extend ``terms`` in place to the first ``length`` coefficients of
    num(x) / den(x), den[0] = 1, and return it (pass [] to start afresh):
    t_m = num_m - sum_{i>=1} den_i * t_{m-i}. The sum starts from its first
    term, not 0, and unit lags skip the multiply: either would copy a big
    int per lag and triple the cost of the two-lag unbounded series."""
    lags = [(i, -d) for i, d in enumerate(den) if i and d]
    for m in range(len(terms), length):
        new = num[m] if m < len(num) else 0
        for i, q in lags:
            if i > m:
                break
            t = terms[m - i] if q == 1 else q * terms[m - i]
            new = new + t if new else t
        terms.append(new)
    return terms


def sequence_prefix(alphabet: PartAlphabet, n: int) -> list[int]:
    """The first n+1 terms a_1..a_{n+1}; a_{m+1} counts compositions of m."""
    if n < 0:
        raise DomainError(f"prefix length must be >= 0, got {n}")
    with _cache_lock:
        terms = _prefix_cache.setdefault(alphabet, [])
        extend_series(terms, *alphabet.generating_function(n + 1), n + 1)
        return terms[: n + 1]


def count_compositions(n: int, alphabet: PartAlphabet) -> int:
    """c(n, alphabet); c(0) = 1 for the empty composition."""
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    return sequence_prefix(alphabet, n)[n]
