"""Exact counting of restricted, colored, and weak integer compositions.

Four independent routes — brute-force enumeration, linear recurrence,
banded Hessenberg-Toeplitz determinants / principal minor sums, and
explicit binomial closed forms — compute the same numbers and are
cross-validated against each other at desk scale.
"""

__version__ = "0.1.0"
