"""Part alphabets: the positive values a composition may use, with colors.

An alphabet is either an interval ``{lo, ..., hi}`` of values with one
color each, where ``hi = None`` means unbounded, or an explicit list of
``(value, multiplicity)`` pairs with strictly increasing values
(``multiplicity`` = number of distinguishable colors of that value). An
explicit list of consecutive one-color values is stored as its interval,
so ``PartAlphabet.of(1, 2) == PartAlphabet.upto(2)``. An interval takes
O(1) space whatever its bounds; for any fixed target ``n`` the unbounded
one behaves exactly like ``{lo, ..., n}``.

All counts in this package are plain Python ``int`` (arbitrary precision,
exact equality); instances are frozen and hashable so they can key caches.
"""

from .errors import DomainError


class PartAlphabet:
    __slots__ = ("parts", "interval")

    def __init__(self, parts: tuple[tuple[int, int], ...] = (),
                 interval: tuple[int, int | None] | None = None):
        if interval is not None:
            lo, hi = interval
            if parts:
                raise DomainError("an interval alphabet carries no explicit parts")
            if lo < 1:
                raise DomainError("threshold must be a positive integer")
            if hi is not None and hi < lo:
                raise DomainError(f"empty interval {lo}..{hi}")
        else:
            if not parts:
                raise DomainError("alphabet needs at least one part value")
            previous = 0
            for value, multiplicity in parts:
                if value <= previous:
                    raise DomainError(f"part values must be strictly increasing, got {value}")
                if multiplicity < 1:
                    raise DomainError(f"multiplicity of part {value} must be >= 1")
                previous = value
            lo, hi = parts[0][0], parts[-1][0]
            if hi - lo + 1 == len(parts) and all(q == 1 for _, q in parts):
                parts, interval = (), (lo, hi)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "interval", interval)

    def __setattr__(self, name, value):
        # Instances key the brute walk's cache, so they must not change.
        raise AttributeError(f"PartAlphabet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PartAlphabet is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PartAlphabet:
            return NotImplemented
        return (self.parts, self.interval) == (other.parts, other.interval)

    def __hash__(self):
        return hash((self.parts, self.interval))

    def __repr__(self):
        return f"PartAlphabet(parts={self.parts!r}, interval={self.interval!r})"

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
        return cls(interval=(threshold, None))

    @classmethod
    def upto(cls, bound: int) -> "PartAlphabet":
        """The alphabet {1, 2, ..., bound}, one color each."""
        if bound < 1:
            raise DomainError("upper bound must be a positive integer")
        return cls(interval=(1, bound))

    def generating_function(self, length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, D), D[0] = 1, with sum_n c(n) x^n = N(x) / D(x): 1 / (1 - sum_v
        q_v x^v) for an explicit alphabet or a bounded interval, (1 - x) /
        (1 - x - x^K) for {K, K+1, ...}. D is cut modulo x^length, which
        keeps c(0..length-1) and keeps a huge part value from allocating a
        huge D."""
        if self.interval is None:
            num, parts, top = (1,), self.parts, self.parts[-1][0]
        else:
            lo, hi = self.interval
            if hi is None:
                num, parts, top = (1, -1), ((1, 1), (lo, 1)), lo
            else:
                num, parts, top = (1,), self.parts_within(length - 1), hi
        den = [1] + [0] * min(top, length - 1)
        for value, multiplicity in parts:
            if value < length:
                den[value] -= multiplicity
        return num, tuple(den)

    def multiplicity(self, value: int) -> int:
        """Number of colors of ``value``; 0 when the value is not allowed."""
        if self.interval is not None:
            lo, hi = self.interval
            return 1 if lo <= value and (hi is None or value <= hi) else 0
        for v, q in self.parts:
            if v == value:
                return q
            if v > value:
                break
        return 0

    def parts_within(self, limit: int) -> tuple[tuple[int, int], ...]:
        """All (value, multiplicity) pairs with value <= limit, ascending."""
        if self.interval is not None:
            lo, hi = self.interval
            top = limit if hi is None else min(hi, limit)
            return tuple((v, 1) for v in range(lo, top + 1))
        return tuple((v, q) for v, q in self.parts if v <= limit)

    def __str__(self):
        if self.interval is not None:
            lo, hi = self.interval
            if hi is None:
                return f"atleast:{lo}"
            if lo == 1:
                return f"upto:{hi}"
            return ",".join(map(str, range(lo, hi + 1)))
        return ",".join(f"{v}x{q}" if q > 1 else str(v) for v, q in self.parts)
