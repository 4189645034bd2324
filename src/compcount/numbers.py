"""Exact integer foundations: binomials, Fibonacci variants, integer
polynomials, and truncated sequence convolution.

Everything works on plain Python ints, so no value ever overflows and
equality is always exact. No shared mutable state: helpers either loop
locally or are pure, so concurrent callers are safe.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, NegativeUpperIndex


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention C(a, b) = 0 for b < 0 or b > a >= 0.

    A negative ``a`` with ``b >= 0`` is rejected rather than evaluated via
    the generalized identity: the summations in this package never reach
    one, so doing so would mask an index bug.
    """
    if b < 0:
        return 0
    if a < 0:
        raise NegativeUpperIndex(f"binomial({a}, {b}): negative upper index")
    if b > a:
        return 0
    return math.comb(a, b)


def fibonacci(i: int) -> int:
    """F_i with F_1 = F_2 = 1."""
    if i < 1:
        raise DomainError(f"fibonacci index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def fibonacci_prefix(count: int) -> list[int]:
    """[F_1, ..., F_count]."""
    values = []
    a, b = 1, 1
    for _ in range(count):
        values.append(a)
        a, b = b, a + b
    return values


def kstep_fibonacci(k: int, i: int) -> int:
    """Term i of the k-step Fibonacci sequence: two leading 1s, then each
    term is the sum of its min(k, i-1) predecessors."""
    if k < 2:
        raise DomainError(f"step count must be >= 2, got {k}")
    if i < 1:
        raise DomainError(f"index must be >= 1, got {i}")
    terms = [1, 1]
    while len(terms) < i:
        window = min(k, len(terms))
        terms.append(sum(terms[-window:]))
    return terms[i - 1]


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


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree.

    Highest-degree coefficient is nonzero unless this is the zero
    polynomial (empty coefficient tuple).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.coefficients and self.coefficients[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    @classmethod
    def of(cls, coefficients) -> "IntPolynomial":
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __str__(self):
        return " ".join(str(c) for c in self.coefficients)
