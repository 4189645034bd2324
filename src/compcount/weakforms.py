"""The explicit binomial formulas for weak compositions, with exactly k
zeros: unrestricted positive parts, positive parts in {1, 2}, and a
shifted Fibonacci-block identity (``verify`` adjudicates its claimed
weak-composition target against the brute oracle rather than assuming
it). The series route is in ``recurrence`` and the minor-sum route in
``hessenberg``; this module shares no code with either.
"""

import math

from .errors import DomainError


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
    return math.comb(a, b)  # 0 for b > a


def count_weak_unrestricted_closed(n: int, k: int) -> int:
    """Weak compositions of n with exactly k zeros, positive parts
    unrestricted: sum_{i=0}^{k} 2^{n-k-1+i} * C(k+1, i) * C(n-1, k-i).

    The theorem covers n >= 1; n = 0, outside it, returns 1, because the
    only weak composition of 0 is k zeros. Below i = k-n+1, C(n-1, k-i)
    vanishes, and from there on every power of two is whole, so the sum
    runs over at most n terms: its cost grows with n, not with k.
    """
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    if k < 0:
        raise DomainError(f"zero count must be >= 0, got {k}")
    if n == 0:
        return 1
    return sum(
        binomial(k + 1, i) * binomial(n - 1, k - i) << (n - k - 1 + i)
        for i in range(max(0, k - n + 1), k + 1)
    )


def count_weak_parts12_closed(n: int, k: int) -> int:
    """Weak compositions of n with exactly k zeros and positive parts in
    {1, 2}: sum_{i=0}^{floor(n/2)} C(n+k-i, i) * C(n+k-2i, k).

    Term i is (n+k-i)! / (i! k! (n-2i)!), so each term is the one before
    times (n-2i)(n-2i-1) / ((i+1)(n+k-i)), an exact division: the sum
    steps term to term from C(n+k, k) instead of taking two binomials a
    term. Only the steps to terms 1..floor(n/2) are taken, so n+k-i >= 2.
    """
    if n < 0 or k < 0:
        raise DomainError(f"arguments must be >= 0, got n={n}, k={k}")
    term = total = binomial(n + k, k)
    for i in range(n // 2):
        term = term * (n - 2 * i) * (n - 2 * i - 1) // ((i + 1) * (n + k - i))
        total += term
    return total


def fib_block_closed(n: int, k: int) -> int:
    """Binomial double sum equal to the (k+1)-fold convolution at n of the
    shifted sequence b_0 = 1, b_j = F_j (j >= 1), that is, to the weak
    count over the odd parts, since F_j counts the compositions of j into
    odd parts. Group the k+1 blocks by how many are empty (m of them),
    then apply the Fibonacci convolution closed form to the rest:
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

