"""Exact linear algebra on banded upper Hessenberg-Toeplitz matrices.

The matrices handled here have first row v_1..v_n repeated along the
diagonals (entry(i, j) = v_{j-i+1} for j >= i), a constant -1 on the
subdiagonal, and zeros below. Expanding chi_j = det(xI - M_j) of the
leading order-j block across its last column gives chi_j = x chi_{j-1} +
sum_d (-1)^d v_d chi_{j-d}, so the signed coefficients
c_i(j) = (-1)^(j-i) [x^i] chi_j, each the sum of all order-(j-i)
principal minors of M_j, obey c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d).
One kernel fills that table column by column, and the determinant
c_0(n), the characteristic polynomial and the sums of principal minors
of a fixed order r, c_{n-r}(n), are all read from it. A cell costs one
addition per nonzero band entry before the band's constant nonzero tail
(the band of an unbounded alphabet is constant past its threshold), plus
one for the whole tail, whose lags collapse to a running sum of the
column. Deleting row and column i of such a matrix leaves a
block-triangular matrix whose diagonal blocks are the order i-1 and order
n-i matrices of the same band, which is why principal minors factor into
products of leading determinants.

General dense determinants (submatrices of a Hessenberg matrix need not
be Hessenberg) go through fraction-free Bareiss elimination: exact
integer arithmetic, divisions that are provably exact, row swaps with
sign tracking for zero pivots.
"""

from itertools import combinations

from .alphabet import PartAlphabet
from .errors import DomainError, GuardExceeded

SUBSET_GUARD = 22


class HessMatrix:
    """Band storage: first-row values only. Order n is the band length."""

    __slots__ = ("band",)

    def __init__(self, band: tuple[int, ...]):
        if not band:
            raise DomainError("matrix order must be >= 1")
        self.band = band

    @property
    def order(self) -> int:
        return len(self.band)

    def entry(self, i: int, j: int) -> int:
        """1-indexed entry: band value on and above the diagonal, -1 on the
        subdiagonal, 0 below."""
        n = self.order
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"entry ({i}, {j}) outside order-{n} matrix")
        if j >= i:
            return self.band[j - i]
        if j == i - 1:
            return -1
        return 0

    def to_dense(self) -> list[list[int]]:
        n = self.order
        return [[self.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def build_matrix(alphabet: PartAlphabet, n: int) -> HessMatrix:
    """Order-n matrix whose band carries the alphabet's color multiplicities
    (value d on diagonal offset d-1); its determinant counts compositions
    of n."""
    if n < 1:
        raise DomainError(f"matrix order must be >= 1, got {n}")
    return HessMatrix(tuple(alphabet.multiplicity(d) for d in range(1, n + 1)))


def _charpoly_columns(matrix: HessMatrix, last: int, width: int) -> list[int]:
    """Fill columns 0..``last`` of the charpoly table of ``matrix`` and
    return the last cell of each column. Column i holds, for j = i..min(i +
    width, n), c_i(j) = (-1)^(j-i) [x^i] det(xI - M_j): the sum of all
    order-(j-i) principal minors of the leading order-j block M_j.

    c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d), seeded by c_{-1}(-1) = 1.
    When the band ends in a nonzero run v_T = ... = v_n = v, the lags
    d >= T collapse to v * S_i(t - T), S_i being the running sum of the
    column being filled and t = j - i the cell's place in it. So a cell
    costs one addition per nonzero head lag d < T plus one for the tail,
    and adds instead of multiplying by 1; a band ending in 0 has no tail.
    A cell at j reads its own column at i <= j-d and the previous column
    at j-1, so cutting every column at j = i + width leaves the cells it
    keeps exact.
    """
    n = matrix.order
    band = matrix.band
    tail = band[-1]
    start = n + 1  # T, the first offset of the tail; past the band if v = 0
    if tail:
        start = n
        while start > 1 and band[start - 2] == tail:
            start -= 1
    lags = [(d, v) for d, v in enumerate(band[: start - 1], start=1) if v]
    ends = []
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
        ends.append(column[-1])
        previous = column
    return ends


def det_hessenberg(matrix: HessMatrix) -> int:
    """Determinant c_0(n) from column 0 of the charpoly table: n + 1 cells,
    each one addition per nonzero head lag plus one for a constant tail."""
    return _charpoly_columns(matrix, 0, matrix.order)[0]


def det_bareiss(rows) -> int:
    """Exact determinant of a dense integer matrix by single-step
    fraction-free elimination; the empty matrix has determinant 1."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("matrix must be square")
    sign = 1
    previous_pivot = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for row in range(col + 1, n):
                if m[row][col]:
                    m[col], m[row] = m[row], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        for row in range(col + 1, n):
            factor = m[row][col]
            target = m[row]
            source = m[col]
            for c in range(col + 1, n):
                target[c] = (target[c] * pivot - factor * source[c]) // previous_pivot
            target[col] = 0
        previous_pivot = pivot
    return sign * m[n - 1][n - 1] if n else 1


def _validate_deleted(deleted, n) -> tuple[int, ...]:
    indices = tuple(sorted(set(deleted)))
    for i in indices:
        if not 1 <= i <= n:
            raise DomainError(f"index {i} outside 1..{n}")
    return indices


def principal_minor(matrix: HessMatrix, deleted) -> int:
    """Determinant of the submatrix retaining the rows and columns not in
    ``deleted`` (1-indexed); deleting everything leaves minor 1."""
    n = matrix.order
    indices = set(_validate_deleted(deleted, n))
    retained = [i for i in range(1, n + 1) if i not in indices]
    dense = [[matrix.entry(i, j) for j in retained] for i in retained]
    return det_bareiss(dense)


def check_minor_subsets(n: int, order: int):
    """Refuse what minor_sum_subsets would refuse for an order-n matrix,
    before the matrix is built: an order the guard refuses may not fit in
    memory."""
    if not 0 <= order <= n:
        raise DomainError(f"minor order must be within 0..{n}, got {order}")
    if n > SUBSET_GUARD:
        raise GuardExceeded(f"matrix order {n} exceeds the subset guard {SUBSET_GUARD}")


def minor_sum_subsets(matrix: HessMatrix, order: int) -> int:
    """Sum of all order-``order`` principal minors, by expanding every
    index subset. Exponential; refused past matrix order SUBSET_GUARD."""
    n = matrix.order
    check_minor_subsets(n, order)
    dense = matrix.to_dense()
    return sum(
        det_bareiss([[dense[i][j] for j in kept] for i in kept])
        for kept in combinations(range(n), order)
    )


def charpoly(matrix: HessMatrix) -> tuple[int, ...]:
    """Coefficients of the characteristic polynomial det(xI - M), monic of
    degree n, ascending: the coefficient of x^i is (-1)^(n-i) c_i(n), read
    from the last row of the charpoly table.

    The coefficient of x^{n-r} equals (-1)^r times the sum of all order-r
    principal minors.
    """
    n = matrix.order
    ends = _charpoly_columns(matrix, n, n)
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(ends))


def minor_sum(matrix: HessMatrix, order: int) -> int:
    """Sum of all order-``order`` principal minors, c_{n-r}(n) for
    r = ``order``, from the first n-r+1 columns of the charpoly table cut
    to r+1 cells each: (n-r+1) * (r+1) cells, each one addition per
    nonzero head lag plus one for a constant tail; unguarded."""
    n = matrix.order
    if not 0 <= order <= n:
        raise DomainError(f"minor order must be within 0..{n}, got {order}")
    return _charpoly_columns(matrix, n - order, order)[-1]


def format_matrix(rows) -> str:
    """Plain text grid: rows newline-separated, entries space-separated."""
    return "\n".join(" ".join(str(entry) for entry in row) for row in rows)


def parse_matrix(text: str) -> list[list[int]]:
    """Inverse of format_matrix; rejects ragged grids."""
    rows = [[int(tok) for tok in line.split()] for line in text.strip().splitlines()]
    if not rows:
        raise DomainError("empty matrix text")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DomainError("ragged matrix text")
    return rows
