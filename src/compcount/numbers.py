"""Exact integer foundations: binomials, the Fibonacci prefix, and truncated
sequence convolution.

Everything works on plain Python ints, so no value ever overflows and
equality is always exact. No shared mutable state: helpers either loop
locally or are pure, so concurrent callers are safe.
"""

import math

from .errors import DomainError


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention C(a, b) = 0 for b < 0 or b > a >= 0.

    A negative ``a`` with ``b >= 0`` is rejected rather than evaluated via
    the generalized identity: the summations in this package never reach
    one, so doing so would mask an index bug.
    """
    if b < 0:
        return 0
    if a < 0:
        raise DomainError(f"binomial({a}, {b}): negative upper index")
    if b > a:
        return 0
    return math.comb(a, b)


def fibonacci_prefix(count: int) -> list[int]:
    """[F_1, ..., F_count]."""
    values = []
    a, b = 1, 1
    for _ in range(count):
        values.append(a)
        a, b = b, a + b
    return values


def convolve_prefix(xs: list[int], ys: list[int], length: int) -> list[int]:
    """First ``length`` coefficients of the product of two coefficient lists."""
    out = [0] * length
    for i, x in enumerate(xs[:length]):
        if x:
            for j, y in enumerate(ys[: length - i]):
                if y:
                    out[i + j] += x * y
    return out


def power_prefix(seq, folds: int, length: int) -> list[int]:
    """First ``length`` coefficients of (sum_j seq[j] x^j) ** folds, folds >= 1."""
    if folds < 1:
        raise DomainError(f"need at least one convolution factor, got {folds}")
    base = list(seq[:length])
    acc = base + [0] * (length - len(base))
    for _ in range(folds - 1):
        acc = convolve_prefix(acc, base, length)
    return acc


def convolution_power(seq, folds: int, index: int) -> int:
    """Coefficient of x^index in (sum_j seq[j] x^j) ** folds, folds >= 1."""
    if index < 0:
        raise DomainError(f"coefficient index must be >= 0, got {index}")
    return power_prefix(seq, folds, index + 1)[index]
