"""Part alphabets: the positive values a composition may use, with colors.

An alphabet is its runs: the maximal ``(first, last, colors)`` runs of
consecutive values that share one color count, ascending, where only the
final run may be open (``last = None``: every value from ``first`` on).
So ``upto:K`` is the one run ``(1, K, 1)`` whatever K is, and
``PartAlphabet.of(1, 2) == PartAlphabet.upto(2)``. A run a..b of q colors
adds q (x^a - x^(b+1)) / (1 - x) to the generating function, so the runs
give it in two forms: the dense 1 / (1 - sum_v q_v x^v), one term per
value, and the run form (1 - x) / ((1 - x) - sum_runs q (x^a - x^(b+1))).

Counts are plain Python ``int``. An alphabet is the tuple of its runs,
so it is immutable and hashable and can key caches.
"""

from .errors import DomainError


class PartAlphabet(tuple):
    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[int, int | None, int], ...]):
        if not runs:
            raise DomainError("alphabet needs at least one part value")
        previous, shade = 0, None
        for first, last, colors in runs:
            if not all(type(x) is int for x in (first, colors, first if last is None else last)):
                raise DomainError(f"run {(first, last, colors)}: values and colors must be ints")
            if previous is None or first <= previous:
                raise DomainError(
                    f"part values must be strictly increasing, got {first}" if previous != 0
                    else "threshold must be a positive integer" if last is None
                    else f"part values must be positive integers, got {first}")
            if last is not None and last < first:
                raise DomainError(f"empty interval {first}..{last}")
            if colors < 1:
                raise DomainError(f"multiplicity of part {first} must be >= 1")
            if first == previous + 1 and colors == shade:
                raise DomainError(f"run from {first} continues the run before it")
            previous, shade = last, colors
        return super().__new__(cls, runs)

    def __repr__(self):
        return f"PartAlphabet({tuple(self)!r})"

    @classmethod
    def of(cls, *parts) -> "PartAlphabet":
        """Build an alphabet from ints or (value, multiplicity) pairs, in
        order, grouped into the maximal runs (first, last, multiplicity) of
        consecutive values that share one multiplicity."""
        runs = []
        for value, count in ((p, 1) if isinstance(p, int) else p for p in parts):
            if runs and runs[-1][1] + 1 == value and runs[-1][2] == count:
                runs[-1] = (runs[-1][0], value, count)
            else:
                runs.append((value, value, count))
        return cls(runs)

    @classmethod
    def at_least(cls, threshold: int) -> "PartAlphabet":
        """The unbounded alphabet {threshold, threshold+1, ...}, one color each."""
        return cls(((threshold, None, 1),))

    @classmethod
    def upto(cls, bound: int) -> "PartAlphabet":
        """The alphabet {1, 2, ..., bound}, one color each."""
        if bound < 1:
            raise DomainError("upper bound must be a positive integer")
        return cls(((1, bound, 1),))

    def generating_function(self, length: int, margin: float
                            ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, D), D[0] = 1, with sum_n c(n) x^n = N(x) / D(x): the run form if
        its nonzero terms are at most 1/margin of the dense form's (always for
        an open run, which has infinitely many dense terms), else the dense one.
        D holds the form's terms below x^length, so c(0..length-1) hold, and
        ends at the last, none being 0: a run past x^length costs what an
        open run costs, and a huge part value allocates nothing."""
        edges = {0: 1, 1: -1}
        for first, last, colors in self:
            edges[first] = edges.get(first, 0) - colors
            if last is not None:
                edges[last + 1] = colors  # runs ascend: no edge is at last + 1 yet
        values = sum(float("inf") if last is None else last - first + 1
                     for first, last, _ in self)
        if margin * (2 + len(edges)) <= 2 + values:
            num, terms = (1, -1), [(p, c) for p, c in edges.items() if p < length]
        else:
            num, terms = (1,), [(0, 1), *((v, -q) for v, q in self.parts_within(length - 1))]
        den = [0] * (max(power for power, _ in terms) + 1)
        for power, coefficient in terms:
            den[power] = coefficient
        return num, tuple(den)

    def parts_within(self, limit: int) -> tuple[tuple[int, int], ...]:
        """All (value, multiplicity) pairs with value <= limit, ascending."""
        return tuple(
            (v, colors)
            for first, last, colors in self
            for v in range(first, (limit if last is None else min(last, limit)) + 1)
        )

    def __str__(self):
        *head, (first, last, colors) = self
        if colors == 1 and not head and (last is None or first == 1):
            return f"atleast:{first}" if last is None else f"upto:{last}"
        # No spec spells an open run after others or with colors: "..." marks it.
        spelled = self.parts_within(first if last is None else last)
        return ",".join(f"{v}x{q}" if q > 1 else str(v) for v, q in spelled) + (
            "..." if last is None else "")
