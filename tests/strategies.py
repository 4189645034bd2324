"""Shared hypothesis strategies for the test suite."""

import math

from hypothesis import strategies as st

from compcount.alphabet import PartAlphabet


@st.composite
def alphabets(draw, max_value=8, max_multiplicity=3, max_threshold=4):
    """Small random alphabets: explicit multi-colored, an interval of one to
    max_value values from lo, an unbounded one {lo, lo+1, ...}, or runs of
    consecutive values that share a color count, each one to five values
    wide, the last ending at most five past max_value. So the weak series'
    edges are drawn: an open run is one, and a run of three or more values
    two, merged where two such runs meet."""
    kind = draw(st.sampled_from(("explicit", "interval", "unbounded", "runs")))
    if kind == "unbounded":
        return PartAlphabet.at_least(draw(st.integers(1, max_threshold)))
    if kind == "interval":
        lo = draw(st.integers(1, max_threshold))
        return PartAlphabet(((lo, lo + draw(st.integers(0, max_value - 1)), 1),))
    if kind == "runs":
        pairs, last = [], 0
        while last < max_value and (not pairs or draw(st.booleans())):
            first = last + draw(st.integers(1, 2))
            last = first + draw(st.integers(0, 4))
            colors = draw(st.integers(1, max_multiplicity))
            pairs += [(value, colors) for value in range(first, last + 1)]
        return PartAlphabet.of(*pairs)
    values = draw(
        st.lists(st.integers(1, max_value), min_size=1, max_size=4, unique=True)
    )
    parts = tuple(
        (value, draw(st.integers(1, max_multiplicity))) for value in sorted(values)
    )
    return PartAlphabet.of(*parts)


# Margins for generating_function that give both forms of every alphabet:
# at 0 each takes the run form, and at infinity each bounded one the dense
# form (an open run has only the run form).
margins = st.sampled_from((0, math.inf))


@st.composite
def _tailed_bands(draw, max_order, max_abs):
    order = draw(st.integers(1, max_order))
    start = draw(st.integers(0, order - 1))
    head = draw(st.lists(st.integers(-max_abs, max_abs), min_size=start, max_size=start))
    return tuple(head) + (draw(st.integers(-2, 2)),) * (order - start)


@st.composite
def _run_bands(draw, max_order, max_abs):
    """Runs of one to six equal entries, zero among the values (a gap),
    cut to the order; one-entry runs, interior runs and a run to the end."""
    order, band = draw(st.integers(1, max_order)), []
    while len(band) < order:
        band += [draw(st.integers(-max_abs, max_abs))] * draw(st.integers(1, 6))
    return tuple(band[:order])


def bands(max_order=7, max_abs=9):
    """Random integer bands for Hessenberg matrices: free entries, the empty
    band (the order-0 matrix) among them, a free head followed by a
    constant run starting anywhere, like the band of an unbounded
    alphabet, or runs of equal entries with zero gaps between some, like
    the band of a colored alphabet; entries may be negative."""
    free = st.lists(
        st.integers(-max_abs, max_abs), min_size=0, max_size=max_order
    ).map(tuple)
    return st.one_of(free, _tailed_bands(max_order, max_abs), _run_bands(max_order, max_abs))
