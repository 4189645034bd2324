"""Exact counting of restricted, colored, and weak integer compositions.

Four independent routes — brute-force enumeration, linear recurrence,
banded Hessenberg-Toeplitz determinants / principal minor sums, and
explicit binomial closed forms — compute the same numbers and are
cross-validated against each other at desk scale.
"""

from .alphabet import PartAlphabet
from .enumeration import (
    Composition,
    count_compositions_brute,
    count_weak_brute,
    count_weak_insertion,
    enumerate_compositions,
)
from .errors import (
    AlphabetParseError,
    CompCountError,
    DomainError,
    GuardExceeded,
    IndexOutOfRange,
    NegativeUpperIndex,
    UnsupportedClosedForm,
)
from .hessenberg import (
    HessMatrix,
    build_matrix,
    charpoly,
    det_bareiss,
    det_hessenberg,
    format_matrix,
    minor_product_formula,
    minor_sum,
    minor_sum_subsets,
    parse_matrix,
    principal_minor,
)
from .numbers import IntPolynomial, binomial, fibonacci, kstep_fibonacci
from .recurrence import count_compositions, sequence_prefix
from .reports import GridPoint, VerificationReport
from .weakforms import (
    adjudicate_fib_block_identity,
    convolved_fibonacci,
    convolved_fibonacci_binomial,
    count_weak_convolution,
    count_weak_minor_sum,
    count_weak_parts12_closed,
    count_weak_unrestricted_closed,
    fib_block_closed,
    fib_block_convolution,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetParseError",
    "CompCountError",
    "Composition",
    "DomainError",
    "GridPoint",
    "GuardExceeded",
    "HessMatrix",
    "IndexOutOfRange",
    "IntPolynomial",
    "NegativeUpperIndex",
    "PartAlphabet",
    "UnsupportedClosedForm",
    "VerificationReport",
    "adjudicate_fib_block_identity",
    "binomial",
    "build_matrix",
    "charpoly",
    "convolved_fibonacci",
    "convolved_fibonacci_binomial",
    "count_compositions",
    "count_compositions_brute",
    "count_weak_brute",
    "count_weak_convolution",
    "count_weak_insertion",
    "count_weak_minor_sum",
    "count_weak_parts12_closed",
    "count_weak_unrestricted_closed",
    "det_bareiss",
    "det_hessenberg",
    "enumerate_compositions",
    "fib_block_closed",
    "fib_block_convolution",
    "fibonacci",
    "format_matrix",
    "kstep_fibonacci",
    "minor_product_formula",
    "minor_sum",
    "minor_sum_subsets",
    "parse_matrix",
    "principal_minor",
    "sequence_prefix",
]
