"""Shared hypothesis strategies for the test suite, and a switch for the
run-form margin that the series property tests draw."""

from contextlib import contextmanager

from hypothesis import strategies as st

from compcount import alphabet as alphabet_module
from compcount.alphabet import PartAlphabet


@st.composite
def alphabets(draw, max_value=8, max_multiplicity=3, max_threshold=4):
    """Small random alphabets: explicit multi-colored, a bounded interval
    {lo, ..., hi}, an unbounded one {lo, lo+1, ...}, or runs of
    consecutive values that share a color count, each one to five values
    wide, the last ending at most five past max_value."""
    kind = draw(st.sampled_from(("explicit", "interval", "unbounded", "runs")))
    if kind == "unbounded":
        return PartAlphabet.at_least(draw(st.integers(1, max_threshold)))
    if kind == "interval":
        lo = draw(st.integers(1, max_threshold))
        return PartAlphabet(((lo, draw(st.integers(lo, max_value)), 1),))
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


# At the module's margin no bounded run form fits under the brute guard:
# the narrowest, upto:23, needs n >= 24 for its x^24 term, and a brute
# count there visits 2^24 sequences. At margin 1 every alphabet whose run
# form has no more terms than its dense form takes it: upto:3, a run of
# three or more values from 1, or of four or more from higher up.
margins = st.sampled_from((alphabet_module.RUN_FORM_MARGIN, 1))


@contextmanager
def run_form_margin(margin):
    """Let generating_function choose its form at ``margin``."""
    saved = alphabet_module.RUN_FORM_MARGIN
    alphabet_module.RUN_FORM_MARGIN = margin
    try:
        yield
    finally:
        alphabet_module.RUN_FORM_MARGIN = saved


@st.composite
def _tailed_bands(draw, max_order, max_abs):
    order = draw(st.integers(1, max_order))
    start = draw(st.integers(0, order - 1))
    head = draw(st.lists(st.integers(-max_abs, max_abs), min_size=start, max_size=start))
    return tuple(head) + (draw(st.integers(-2, 2)),) * (order - start)


def bands(max_order=7, max_abs=9):
    """Random integer bands for Hessenberg matrices: free entries, the empty
    band (the order-0 matrix) among them, or a free head followed by a
    constant run starting anywhere, like the band of an unbounded
    alphabet."""
    free = st.lists(
        st.integers(-max_abs, max_abs), min_size=0, max_size=max_order
    ).map(tuple)
    return st.one_of(free, _tailed_bands(max_order, max_abs))
