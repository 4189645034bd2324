"""Part alphabets: the positive values a composition may use, with colors.

An alphabet is its runs: the maximal ``(first, last, colors)`` runs of
consecutive values that share one color count, ascending, where only the
final run may be open (``last = None``: every value from ``first`` on).
So ``upto:K`` is the one run ``(1, K, 1)`` whatever K is, and
``PartAlphabet.of(1, 2) == PartAlphabet.upto(2)``. ``runs_within(n)`` is
the one place a run is cut at n: the generating function, the weak
series, the band and ``parts_within`` read it. ``lag_terms`` is the one
place runs become the terms of 1 - P that the weak series and the band
kernels read. A run a..b of q colors adds q (x^a - x^(b+1)) / (1 - x) to
the generating function, so the runs give it in two forms: the dense
1 / (1 - sum_v q_v x^v), one term per value, and the run form (1 - x) /
((1 - x) - sum_runs q (x^a - x^(b+1))). ``generating_function(n)`` picks
one by the rule beside ``RUN_FORM_MARGIN``: no caller chooses a form.
Counts are plain ``int``; an alphabet is the tuple of its runs:
immutable and hashable.
"""

from .errors import DomainError

# The count (Bostan-Mori halving) takes the run form where its nonzero terms
# are at most a fifth of the dense form's. Halving makes both forms dense, so
# near the edge the run form gains nothing: upto:13 and upto:16 counted 4-18%
# slower in it, upto:20 on the same, and from upto:23 (5 terms against 25) to
# upto:200 at n = 10^4 the dense form took 0.85-1.07 of its time. Far past it
# the run form wins: upto:1000 took 6.1-6.2 ms against 6.8-7.2 ms dense at
# n = 5000, and 12.9-14.0 ms against 16.6-17.2 ms at n = 2 * 10^4 (series_term
# in-process, medians of 15 alternated runs, 2-core Xeon, Python 3.11.7).
RUN_FORM_MARGIN = 5


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
        for part in parts:
            try:
                value, count = (part, 1) if isinstance(part, int) else part
            except (TypeError, ValueError):
                raise DomainError(f"part {part!r}: not a value or a (value, count) pair") from None
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
        """The alphabet {1, 2, ..., bound}, one color each: the run
        (1, bound, 1), which ``__new__`` checks (bound None is ``all``)."""
        return cls(((1, bound, 1),))

    def generating_function(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(N, D), D[0] = 1, whose N(x) / D(x) begins c(0), ..., c(n), either form
        read from runs_within(n): the run form, N = (1, -1), if a run reaches n
        (two terms whatever its width) or its nonzero terms are at most
        1/RUN_FORM_MARGIN of the dense form's, else the dense one. No run has
        an end edge past x^n, so D ends at its last term, none being 0, and a
        huge part value allocates nothing."""
        runs = self.runs_within(n)
        edges = {0: 1, 1: -1}
        for first, last, colors in runs:
            edges[first] = edges.get(first, 0) - colors
            if last < n:
                edges[last + 1] = colors  # runs ascend: no edge is at last + 1 yet
        if runs and runs[-1][1] == n or RUN_FORM_MARGIN * (2 + len(edges)) <= 2 + sum(
                last - first + 1 for first, last, _ in runs):
            num, terms = (1, -1), edges.items()
        else:
            num, terms = (1,), [(0, 1), *((v, -q) for v, q in self.parts_within(n))]
        den = [0] * (max(power for power, _ in terms) + 1)
        for power, coefficient in terms:
            den[power] = coefficient
        return num, tuple(den)

    def runs_within(self, limit: int) -> tuple[tuple[int, int, int], ...]:
        """The runs from a value <= limit, each closed at limit if it is open or ends past it."""
        return tuple((first, limit if last is None else min(last, limit), colors)
                     for first, last, colors in self if first <= limit)

    def parts_within(self, limit: int) -> tuple[tuple[int, int], ...]:
        """All (value, multiplicity) pairs with value <= limit, ascending."""
        return tuple((v, colors) for first, last, colors in self.runs_within(limit)
                     for v in range(first, last + 1))

    def __str__(self):
        *head, (first, last, colors) = self
        if colors == 1 and not head and (last is None or first == 1):
            return f"atleast:{first}" if last is None else f"upto:{last}"
        # No spec spells an open run after others or with colors: "..." marks it.
        spelled = self.parts_within(first if last is None else last)
        return ",".join(f"{v}x{q}" if q > 1 else str(v) for v, q in spelled) + (
            "..." if last is None else "")


def lag_terms(runs, limit: int):
    """The terms of sum_d v_d T(t - d), read at t <= limit with T 0 before
    it starts, from ascending (first, last, v) runs of a nonzero v within
    1..limit: (singles, edges) of (lag >= 1, coefficient). A run of one or
    two lags is that many singles (d, v), read as v T(t - d). A longer one
    a..b is, by summation by parts, v (S(t - a) - S(t - b - 1)), S the
    running sum of T: the edges (a, v) and (b + 1, -v), merged where runs
    meet (one that merges to 0 is dropped), and no end edge for a run to
    limit, as it would read only T before it starts. A reader keeps W(t) =
    sum_e u_e S(t - e) as one running value, W(t) = W(t - 1) + sum_e u_e
    T(t - e), so a run costs two additions whatever its length."""
    singles, edges = [], {}
    for first, last, v in runs:
        if last - first < 2:
            singles += [(lag, v) for lag in range(first, last + 1)]
        else:
            edges[first] = edges.get(first, 0) + v
            if last < limit:
                edges[last + 1] = -v  # runs ascend: no edge is at last + 1 yet
    return tuple(singles), tuple((lag, u) for lag, u in edges.items() if u)
