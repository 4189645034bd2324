"""Exact linear algebra on banded upper Hessenberg-Toeplitz matrices.

The matrices handled here have first row v_1..v_n repeated along the
diagonals (entry(i, j) = v_{j-i+1} for j >= i), a constant -1 on the
subdiagonal, and zeros below. So that band is the whole matrix: the
functions here take the band tuple, and the empty band is the order-0
matrix, of determinant 1. Expanding chi_j = det(xI - M_j) of the leading
order-j block across its last column gives chi_j = x chi_{j-1} + sum_d
(-1)^d v_d chi_{j-d}, so the signed coefficients c_i(j) = (-1)^(j-i)
[x^i] chi_j, each the sum of all order-(j-i) principal minors of M_j,
obey c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d).
One kernel fills that table column by column, and the determinant
c_0(n), the characteristic polynomial and the sums of principal minors
of a fixed order r, c_{n-r}(n), are all read from it. A cell costs one
addition per nonzero band entry before the band's constant nonzero tail
(the band of an unbounded alphabet is constant past its threshold), plus
one for the whole tail, whose lags collapse to a running sum of the
column. Deleting row and column i of such a matrix leaves a
block-triangular matrix whose diagonal blocks are the order i-1 and order
n-i matrices of the same band, which is why principal minors factor into
products of leading determinants. The sum of all order-n principal
minors of the order n+k matrix counts the weak compositions of n with
exactly k zeros, a route that shares no kernel with the weak series.
"""

from .alphabet import PartAlphabet, runs
from .errors import DomainError


def build_matrix(alphabet: PartAlphabet, n: int) -> tuple[int, ...]:
    """Band of the order-n matrix (n >= 0): the alphabet's color
    multiplicities, value d at lag d, one slice per run cut at n (so a run
    past n costs what an open run costs); its determinant counts c(n)."""
    if n < 0:
        raise DomainError(f"matrix order must be >= 0, got {n}")
    band = [0] * n
    for first, last, colors in alphabet.runs:
        band[first - 1 : last] = [colors] * (min(n, last or n) - first + 1)
    return tuple(band)


def _charpoly_columns(band: tuple[int, ...], last: int, width: int):
    """Yield columns 0..``last`` of the charpoly table of ``band``. Column i
    holds, in cell j - i for j = i..min(i + width, n), c_i(j) = (-1)^(j-i)
    [x^i] det(xI - M_j): the sum of all order-(j-i) principal minors of M_j.

    c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d), seeded by c_{-1}(-1) = 1.
    The band's last run, from alphabet.runs over its (lag, value) pairs as
    over an alphabet's (value, colors) pairs, is its tail v_T = ... = v_n
    = v. If v is nonzero, the lags d >= T collapse to v * S_i(t - T), S_i
    being the running sum of the column being filled and t = j - i the
    cell's place in it. So a cell costs one addition per nonzero head lag
    d < T plus one for the tail, and adds instead of multiplying by 1; a
    band ending in 0 has no tail.
    A cell at j reads its own column at i <= j-d and the previous column
    at j-1, so cutting every column at j = i + width leaves the cells it
    keeps exact.
    """
    n = len(band)
    first, _, tail = runs(enumerate((0, *band)))[-1]  # lag 0 (v_0 = 0, never read) gives () a run
    start = first if tail else n + 1  # T, the first lag of the tail; past the band if v = 0
    lags = [(d, v) for d, v in enumerate(band[: start - 1], start=1) if v]
    previous = [1] + [0] * width
    for i in range(last + 1):
        column = []
        run = 0
        for t in range(min(width, n - i) + 1):
            value = previous[t]
            for d, v in lags:
                if d > t:
                    break
                value += column[t - d] if v == 1 else v * column[t - d]
            if t >= start:
                run += column[t - start]
                value += run if tail == 1 else tail * run
            column.append(value)
        yield column
        previous = column


def det_hessenberg(band: tuple[int, ...]) -> int:
    """Determinant c_0(n) from column 0 of the charpoly table: n + 1 cells,
    each one addition per nonzero head lag plus one for a constant tail."""
    return next(_charpoly_columns(band, 0, len(band)))[-1]


def charpoly(band: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the characteristic polynomial det(xI - M), monic of
    degree n, ascending: the coefficient of x^i is (-1)^(n-i) c_i(n), read
    from the last row of the charpoly table.

    The coefficient of x^{n-r} equals (-1)^r times the sum of all order-r
    principal minors.
    """
    n = len(band)
    ends = [column[-1] for column in _charpoly_columns(band, n, n)]
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(ends))


def check_minor_order(n: int, order: int):
    """Refuse a minor order outside 0..n for an order-n matrix."""
    if not 0 <= order <= n:
        raise DomainError(f"minor order must be within 0..{n}, got {order}")


def minor_sum(band: tuple[int, ...], order: int) -> int:
    """Sum of all order-``order`` principal minors, c_{n-r}(n) for
    r = ``order``, from the first n-r+1 columns of the charpoly table cut
    to r+1 cells each: (n-r+1) * (r+1) cells, each one addition per
    nonzero head lag plus one for a constant tail; unguarded."""
    n = len(band)
    check_minor_order(n, order)
    for column in _charpoly_columns(band, n - order, order):
        pass  # only the last column is read
    return column[-1]


def count_weak_minor_sum(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Weak compositions of n with exactly k zeros over ``alphabet``, as the
    sum of all order-n principal minors of the order n+k matrix, read from
    that matrix's charpoly table (unguarded)."""
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    return minor_sum(build_matrix(alphabet, n + k), n)


def grid_lines(band: tuple[int, ...]):
    """The dense grid as text, one row at a time, entries space-separated.
    It is Toeplitz: row i, from 0, is the window [n - i, 2n - i) of one
    line: n - 1 zeros, -1, the band."""
    n = len(band)
    line = ["0"] * (n - 1) + ["-1", *map(str, band)]
    for i in range(n):
        yield " ".join(line[n - i : 2 * n - i])


def parse_matrix(text: str) -> list[list[int]]:
    """Read the grid printed by grid_lines; rejects ragged grids."""
    rows = [[int(tok) for tok in line.split()] for line in text.strip().splitlines()]
    if not rows:
        raise DomainError("empty matrix text")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DomainError("ragged matrix text")
    return rows
