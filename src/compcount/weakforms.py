"""Weak-composition counting routes and the explicit binomial closed forms.

A weak composition of n with exactly k zeros is cut by its zeros into k+1
(possibly empty) zero-free blocks, so its count is the (k+1)-fold
convolution of the zero-free counts, i.e. [x^n] (N / D)^(k+1) for the
alphabet's generating function N / D: the short N^(k+1) divided k + 1
times by D. The same number is the sum of all order-n principal minors
of the order n+k recurrence matrix, read from that matrix's charpoly
table: a second route that shares no kernel with the first. On top of
these sit three explicit binomial formulas: unrestricted positive parts,
positive parts in {1, 2}, and a shifted Fibonacci-block identity
(``verify`` adjudicates its claimed weak-composition target against the
brute oracle rather than assuming it).
"""

import math

from .alphabet import PartAlphabet
from .errors import DomainError
from .hessenberg import build_matrix, minor_sum
from .recurrence import divide_series


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention C(a, b) = 0 for b < 0 or b > a >= 0.

    A negative ``a`` with ``b >= 0`` is rejected rather than evaluated via
    the generalized identity: the summations in this module never reach
    one, so doing so would mask an index bug.
    """
    if b < 0:
        return 0
    if a < 0:
        raise DomainError(f"binomial({a}, {b}): negative upper index")
    if b > a:
        return 0
    return math.comb(a, b)


def weak_counts(n: int, k: int, alphabet: PartAlphabet) -> list[int]:
    """Weak compositions of 0..n with exactly k zeros over ``alphabet``:
    the first n+1 coefficients of N^(k+1) / D^(k+1), in one list that is
    multiplied by N k+1 times, then divided by D k+1 times, each O(n r) for
    the r nonzero lags of D. k = 0 gives the zero-free counts c(0..n)."""
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    num, den = alphabet.generating_function(n + 1)
    terms = [1] + [0] * n
    for _ in range(k + 1):
        # Times N, top down to read each term before it changes: N is (1,)
        # or (1, -1), so N^(k+1) has at most k + 2 terms.
        for j in range(min(k + 1, n), 0, -1):
            terms[j] += sum(c * terms[j - i] for i, c in enumerate(num[1 : j + 1], 1))
    for _ in range(k + 1):
        divide_series(terms, den)
    return terms


def count_weak_convolution(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Weak compositions of n with exactly k zeros over ``alphabet``: sum
    over j_1+...+j_{k+1} = n (j_t >= 0) of prod_t c(j_t), with c(0) = 1."""
    return weak_counts(n, k, alphabet)[n]


def count_weak_minor_sum(n: int, k: int, alphabet: PartAlphabet) -> int:
    """The same count as the sum of all order-n principal minors of the
    order n+k matrix for ``alphabet``, read from that matrix's charpoly
    table (unguarded), so it shares no kernel with the series route."""
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    return minor_sum(build_matrix(alphabet, n + k), n)


def count_weak_unrestricted_closed(n: int, k: int) -> int:
    """Weak compositions of n with exactly k zeros, positive parts
    unrestricted: sum_{i=0}^{k} 2^{n-k-1+i} * C(k+1, i) * C(n-1, k-i).

    The theorem covers n >= 1; n = 0, outside it, returns 1, because the
    only weak composition of 0 is k zeros. Each term's power of two is
    evaluated with its combined exponent n-k-1+i; whenever that exponent
    is negative the binomial factor must vanish, so the whole sum stays
    in integers. A nonzero factor next to a negative exponent would mean
    the formula was transcribed wrong and raises.
    """
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    if k < 0:
        raise DomainError(f"zero count must be >= 0, got {k}")
    if n == 0:
        return 1
    total = 0
    for i in range(k + 1):
        factor = binomial(k + 1, i) * binomial(n - 1, k - i)
        exponent = n - k - 1 + i
        if exponent < 0:
            if factor:
                raise DomainError(
                    f"negative exponent {exponent} with nonzero factor at i={i}"
                )
            continue
        total += factor << exponent
    return total


def count_weak_parts12_closed(n: int, k: int) -> int:
    """Weak compositions of n with exactly k zeros and positive parts in
    {1, 2}: sum_{i=0}^{floor(n/2)} C(n+k-i, i) * C(n+k-2i, k)."""
    if n < 0 or k < 0:
        raise DomainError(f"arguments must be >= 0, got n={n}, k={k}")
    return sum(
        binomial(n + k - i, i) * binomial(n + k - 2 * i, k)
        for i in range(n // 2 + 1)
    )


def fib_block_convolution(n: int, k: int) -> int:
    """(k+1)-fold convolution at n of the shifted sequence b_0 = 1,
    b_j = F_j (j >= 1): sum over j_1+...+j_{k+1} = n of prod_t b_{j_t}.
    F_j counts the compositions of j into odd parts, so this is the weak
    count over the odd parts up to n."""
    if n < 1 or k < 0:
        raise DomainError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return count_weak_convolution(n, k, PartAlphabet.of(*range(1, n + 1, 2)))


def fib_block_closed(n: int, k: int) -> int:
    """Binomial double sum equal to fib_block_convolution: group the k+1
    blocks by how many are empty (m of them), then apply the Fibonacci
    convolution closed form to the rest:
    sum_{m=0}^{k+1} C(k+1, m) *
        sum_{i=0}^{floor((n-k-1+m)/2)} C(n-1-i, i) * C(n-1-2i, k-m).

    The upper limit m = k+1 is kept as printed; those terms vanish through
    C(., -1) = 0, and inner sums with a negative upper limit are empty.
    """
    if n < 1 or k < 0:
        raise DomainError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    total = 0
    for m in range(k + 2):
        inner = 0
        for i in range((n - k - 1 + m) // 2 + 1):
            inner += binomial(n - 1 - i, i) * binomial(n - 1 - 2 * i, k - m)
        total += binomial(k + 1, m) * inner
    return total

