"""Shared hypothesis strategies for the test suite."""

from hypothesis import strategies as st

from compcount.alphabet import PartAlphabet


@st.composite
def alphabets(draw, max_value=8, max_multiplicity=3, max_threshold=4):
    """Small random alphabets: explicit multi-colored or unbounded."""
    if draw(st.booleans()):
        return PartAlphabet.at_least(draw(st.integers(1, max_threshold)))
    values = draw(
        st.lists(st.integers(1, max_value), min_size=1, max_size=4, unique=True)
    )
    parts = tuple(
        (value, draw(st.integers(1, max_multiplicity))) for value in sorted(values)
    )
    return PartAlphabet(parts=parts)


@st.composite
def _tailed_bands(draw, max_order, max_abs):
    order = draw(st.integers(1, max_order))
    start = draw(st.integers(0, order - 1))
    head = draw(st.lists(st.integers(-max_abs, max_abs), min_size=start, max_size=start))
    return tuple(head) + (draw(st.integers(-2, 2)),) * (order - start)


def bands(max_order=7, max_abs=9):
    """Random integer bands for Hessenberg matrices: free entries, or a free
    head followed by a constant run starting anywhere, like the band of an
    unbounded alphabet."""
    free = st.lists(
        st.integers(-max_abs, max_abs), min_size=1, max_size=max_order
    ).map(tuple)
    return st.one_of(free, _tailed_bands(max_order, max_abs))
