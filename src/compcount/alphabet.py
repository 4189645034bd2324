"""Part alphabets: the positive values a composition may use, with colors.

An alphabet is its runs: the maximal ``(first, last, colors)`` runs of
consecutive values that share one color count, ascending, where only the
final run may be open (``last = None``: every value from ``first`` on).
So ``upto:K`` is the one run ``(1, K, 1)`` whatever K is, and
``PartAlphabet.of(1, 2) == PartAlphabet.upto(2)``. A run a..b of q colors
adds q (x^a - x^(b+1)) / (1 - x) to the generating function, so the runs
give it in two forms: the dense 1 / (1 - sum_v q_v x^v), one term per
value, and the run form (1 - x) / ((1 - x) - sum_runs q (x^a - x^(b+1))).

Counts are plain Python ``int``. An alphabet is a one-item tuple of its
runs, so it is immutable and hashable and can key caches.
"""

from .errors import DomainError

# generating_function takes the run form when its nonzero terms are at
# most 1/RUN_FORM_MARGIN of the dense form's. One count by Bostan-Mori
# gains nothing from it, since its halving steps make both forms dense:
# upto:13 and upto:16 counted 4-18% slower in the run form, and from about
# upto:20 on the forms timed the same, so upto:K stays dense up to K = 22.
RUN_FORM_MARGIN = 5


def runs(pairs) -> tuple[tuple[int, int, int], ...]:
    """Group (value, count) pairs, in order, into the maximal runs
    (first, last, count) of consecutive values that share one count."""
    grouped = []
    for value, count in pairs:
        if grouped and grouped[-1][1] + 1 == value and grouped[-1][2] == count:
            grouped[-1] = (grouped[-1][0], value, count)
        else:
            grouped.append((value, value, count))
    return tuple(grouped)


class PartAlphabet(tuple):
    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[int, int | None, int], ...]):
        if not runs:
            raise DomainError("alphabet needs at least one part value")
        previous, shade = 0, None
        for first, last, colors in runs:
            if previous is None or first <= previous:
                raise DomainError("threshold must be a positive integer" if previous == 0
                                  else f"part values must be strictly increasing, got {first}")
            if last is not None and last < first:
                raise DomainError(f"empty interval {first}..{last}")
            if colors < 1:
                raise DomainError(f"multiplicity of part {first} must be >= 1")
            if first == previous + 1 and colors == shade:
                raise DomainError(f"run from {first} continues the run before it")
            previous, shade = last, colors
        return super().__new__(cls, (runs,))

    @property
    def runs(self) -> tuple[tuple[int, int | None, int], ...]:
        return self[0]

    def __getnewargs__(self):  # copy and pickle call __new__ with the runs
        return (self.runs,)

    def __repr__(self):
        return f"PartAlphabet({self.runs!r})"

    @classmethod
    def of(cls, *parts) -> "PartAlphabet":
        """Build an alphabet from ints or (value, multiplicity) pairs."""
        return cls(runs(
            (p, 1) if isinstance(p, int) else (int(p[0]), int(p[1])) for p in parts
        ))

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

    def generating_function(self, length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, D), D[0] = 1, with sum_n c(n) x^n = N(x) / D(x), in the run form
        if the margin allows it (an open run has infinitely many dense terms).
        D is cut modulo x^length, which keeps c(0..length-1) and keeps a
        huge part value from allocating a huge D."""
        edges = {0: 1, 1: -1}
        for first, last, colors in self.runs:
            edges[first] = edges.get(first, 0) - colors
            if last is not None:
                edges[last + 1] = edges.get(last + 1, 0) + colors
        values = sum(float("inf") if last is None else last - first + 1
                     for first, last, _ in self.runs)
        if RUN_FORM_MARGIN * (2 + len(edges)) <= 2 + values:
            num, top, terms = (1, -1), max(edges), edges.items()
        else:
            num, top = (1,), self.runs[-1][1]
            terms = [(0, 1)] + [(v, -q) for v, q in self.parts_within(length - 1)]
        den = [0] * (min(top, length - 1) + 1)
        for power, coefficient in terms:
            if power < length:
                den[power] += coefficient
        return num, tuple(den)

    def parts_within(self, limit: int) -> tuple[tuple[int, int], ...]:
        """All (value, multiplicity) pairs with value <= limit, ascending."""
        return tuple(
            (v, colors)
            for first, last, colors in self.runs
            for v in range(first, (limit if last is None else min(last, limit)) + 1)
        )

    def __str__(self):
        *head, (first, last, colors) = self.runs
        if colors == 1 and not head and (last is None or first == 1):
            return f"atleast:{first}" if last is None else f"upto:{last}"
        # No spec spells an open run after others or with colors: "..." marks it.
        spelled = self.parts_within(first if last is None else last)
        return ",".join(f"{v}x{q}" if q > 1 else str(v) for v, q in spelled) + (
            "..." if last is None else "")
