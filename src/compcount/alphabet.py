"""Part alphabets: the positive values a composition may use, with colors.

An alphabet is either an explicit list of ``(value, multiplicity)`` pairs
with strictly increasing values (``multiplicity`` = number of
distinguishable colors of that value), or the unbounded family
``{k, k+1, k+2, ...}`` given by a threshold ``k`` with one color each.
For any fixed target ``n`` the unbounded form behaves exactly like the
explicit alphabet ``{k, ..., n}``.

All counts in this package are plain Python ``int`` (arbitrary precision,
exact equality); instances are frozen and hashable so they can key caches.
"""

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PartAlphabet:
    parts: tuple[tuple[int, int], ...] = ()
    at_least_threshold: int | None = None

    def __post_init__(self):
        if self.at_least_threshold is not None:
            if self.parts:
                raise DomainError("an unbounded alphabet carries no explicit parts")
            if self.at_least_threshold < 1:
                raise DomainError("threshold must be a positive integer")
            return
        if not self.parts:
            raise DomainError("alphabet needs at least one part value")
        previous = 0
        for value, multiplicity in self.parts:
            if value <= previous:
                raise DomainError(f"part values must be strictly increasing, got {value}")
            if multiplicity < 1:
                raise DomainError(f"multiplicity of part {value} must be >= 1")
            previous = value

    @classmethod
    def of(cls, *parts) -> "PartAlphabet":
        """Build an explicit alphabet from ints or (value, multiplicity) pairs."""
        normalized = tuple(
            (p, 1) if isinstance(p, int) else (int(p[0]), int(p[1])) for p in parts
        )
        return cls(parts=normalized)

    @classmethod
    def at_least(cls, threshold: int) -> "PartAlphabet":
        """The unbounded alphabet {threshold, threshold+1, ...}, one color each."""
        return cls(at_least_threshold=threshold)

    @classmethod
    def upto(cls, bound: int) -> "PartAlphabet":
        """The explicit alphabet {1, 2, ..., bound}, one color each."""
        if bound < 1:
            raise DomainError("upper bound must be a positive integer")
        return cls(parts=tuple((v, 1) for v in range(1, bound + 1)))

    def generating_function(self, length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, D), D[0] = 1, with sum_n c(n) x^n = N(x) / D(x): 1 / (1 - sum_v
        q_v x^v) for an explicit alphabet, (1 - x) / (1 - x - x^K) for
        {K, K+1, ...}. D is cut modulo x^length, which keeps c(0..length-1)
        and keeps a huge part value from allocating a huge D."""
        if self.at_least_threshold is None:
            num, parts = (1,), self.parts
        else:
            num, parts = (1, -1), ((1, 1), (self.at_least_threshold, 1))
        den = [1] + [0] * min(parts[-1][0], length - 1)
        for value, multiplicity in parts:
            if value < length:
                den[value] -= multiplicity
        return num, tuple(den)

    def multiplicity(self, value: int) -> int:
        """Number of colors of ``value``; 0 when the value is not allowed."""
        if self.at_least_threshold is not None:
            return 1 if value >= self.at_least_threshold else 0
        for v, q in self.parts:
            if v == value:
                return q
            if v > value:
                break
        return 0

    def parts_within(self, limit: int) -> tuple[tuple[int, int], ...]:
        """All (value, multiplicity) pairs with value <= limit, ascending."""
        if self.at_least_threshold is not None:
            return tuple((v, 1) for v in range(self.at_least_threshold, limit + 1))
        return tuple((v, q) for v, q in self.parts if v <= limit)

    def __str__(self):
        if self.at_least_threshold is not None:
            return f"atleast:{self.at_least_threshold}"
        return ",".join(f"{v}x{q}" if q > 1 else str(v) for v, q in self.parts)
