"""Exact linear algebra on banded upper Hessenberg-Toeplitz matrices.

The matrices handled here have first row v_1..v_n repeated along the
diagonals (entry(i, j) = v_{j-i+1} for j >= i), a constant -1 on the
subdiagonal, and zeros below. So that band is the whole matrix: the
functions here take the band tuple, and the empty band is the order-0
matrix, of determinant 1. Expanding chi_j = det(xI - M_j) of the leading
order-j block across its last column gives chi_j = x chi_{j-1} + sum_d
(-1)^d v_d chi_{j-d}, so the signed coefficients c_i(j) = (-1)^(j-i)
[x^i] chi_j, each the sum of all order-(j-i) principal minors of M_j,
obey c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d). The determinant c_0(n),
the characteristic polynomial and the sums of principal minors of a
fixed order r, c_{n-r}(n), are all read from that table.

Row j of the table is the polynomial R_j(y) = sum_i c_i(j) y^i, and the
recurrence reads R_j = y R_{j-1} + sum_d v_d R_{j-d}, R_0 = 1. The band
enters by its runs, as alphabet.lag_terms reads them (_terms), so each row
costs O(1) additions per run, whatever the runs' lengths. At y = 2^w a
row is one int, w bits per slot (Kronecker substitution), and a row is a
shift and one addition per term, each done in C (_last_row). A ring of
reach + 1 rows is held, reach being the farthest lag any term reads:
(reach + 1) * (n + 1) * w bits. w is exact: one bit more than the bits
of R_n(1) for the band of |v_d|, which bounds every |c_i(n)|. The
determinant is the row at w = 0, R_j(0) = c_0(j): plain ints, no shift,
so it holds reach + 1 cells, not n + 1.

What is read fixes the loop. The determinant takes that window of
plain-int rows. The characteristic polynomial takes packed rows of all
n + 1 slots, unless _charpoly_width finds its slots SLOT_BITS wide or
more, or its ring past RING_BITS; then it takes the column loop
(_charpoly_columns). One reader takes a single minor sum: the order-r
sum of the order-N matrix, c_{N-r}(N), is count_weak_minor_sum(r, N - r),
read from the determinant's ring at N = r and from the columns otherwise.

Deleting row and column i of such a matrix leaves a block-triangular
matrix whose diagonal blocks are the order i-1 and order n-i matrices of
the same band, which is why principal minors factor into products of
leading determinants. The sum of all order-n principal minors of the
order n+k matrix counts the weak compositions of n with exactly k zeros,
a route that shares no kernel with the weak series.
"""

from itertools import groupby
from operator import itemgetter

from .alphabet import PartAlphabet, lag_terms
from .errors import DomainError


def build_matrix(alphabet: PartAlphabet, n: int) -> tuple[int, ...]:
    """Band of the order-n matrix (n >= 0), its determinant c(n): the color
    count of value d at lag d, one slice per run cut at n by runs_within,
    the one cut, so a run past n costs what an open run costs."""
    if n < 0:
        raise DomainError(f"matrix order must be >= 0, got {n}")
    band = [0] * n
    for first, last, colors in alphabet.runs_within(n):
        band[first - 1 : last] = [colors] * (last - first + 1)
    return tuple(band)


def _terms(band: tuple[int, ...]):
    """The band's runs of equal nonzero entries as lag_terms reads them, T
    being the rows of the charpoly table or the cells of one of its
    columns: (singles, edges) of (-lag, coefficient), negative to index T
    from its end."""
    runs, first = [], 1
    for v, group in groupby(band):
        last = first + len(tuple(group)) - 1
        if v:
            runs.append((first, last, v))
        first = last + 1
    return tuple(tuple((-lag, u) for lag, u in part) for part in lag_terms(runs, len(band)))


def _reach(terms) -> int:
    """The farthest lag any term reads, at least 1."""
    return max([1, *(-lag for part in terms for lag, _ in part)])


def _last_row(terms, n: int, w: int) -> int:
    """Row n of the charpoly table as one int, R_n(2^w): slot i, w bits
    wide, holds c_i(n) (see _unpack). R_j = y R_{j-1} + sum_d v_d R_{j-d}
    costs one shift and one addition per term of ``terms``, each in C on
    the whole row. A ring of reach + 1 items holds the rows, reach being
    _reach(terms): row j goes to item at = j mod (reach + 1), over row
    j - reach - 1, and lag d is item at - d, a negative index wrapping to
    the ring's end. w = 0 is the determinant: R_j(0) = c_0(j) drops
    y R_{j-1}, so no shift."""
    singles, edges = terms
    rows = [1] + [0] * _reach(terms)
    size = len(rows)
    (lag0, u0), *rest = edges or ((0, 0),)  # the placeholder is never read
    run = 0
    for j in range(1, n + 1):
        at = j % size
        if edges:
            run += rows[at + lag0] if u0 == 1 else u0 * rows[at + lag0]
            if rest:
                for lag, u in rest:
                    if u == 1:
                        run += rows[at + lag]
                    elif u == -1:
                        run -= rows[at + lag]
                    else:
                        run += u * rows[at + lag]
            value = (rows[at - 1] << w) + run if w else run
        else:  # no run: adding its 0 would copy the whole row
            value = rows[at - 1] << w if w else 0
        if singles:
            for lag, v in singles:
                value += rows[at + lag] if v == 1 else v * rows[at + lag]
        rows[at] = value
    return rows[n % size]


def _charpoly_columns(terms, n: int, last: int, width: int):
    """Yield columns 0..``last`` of the charpoly table, each cut to cells
    t = 0..min(``width``, n - i) and padded in front with _reach(terms)
    zeros: cell t of column i is c_i(i + t), the sum of all order-t
    principal minors of M_{i+t}. c_i(j) = c_{i-1}(j-1) + sum_d v_d c_i(j-d),
    seeded by c_{-1}(-1) = 1, reads the column through the same terms as
    _last_row reads the rows, at the same cost per cell as per row. A cell
    at j reads its own column at i <= j-d and the previous column at j-1,
    so cutting every column at j = i + width leaves the cells it keeps
    exact."""
    singles, edges = terms
    pad = _reach(terms)
    (lag0, u0), *rest = edges or ((0, 0),)  # the placeholder is never read
    previous = [0] * pad + [1] + [0] * width
    for i in range(last + 1):
        column = [0] * pad
        run = 0
        for t in range(pad, pad + 1 + (width if i <= n - width else n - i)):
            value = previous[t]
            if singles:
                for lag, v in singles:
                    value += column[lag] if v == 1 else v * column[lag]
            if edges:
                run += column[lag0] if u0 == 1 else u0 * column[lag0]
                if rest:
                    for lag, u in rest:
                        if u == 1:
                            run += column[lag]
                        elif u == -1:
                            run -= column[lag]
                        else:
                            run += u * column[lag]
                value += run
            column.append(value)
        yield column
        previous = column


def _slot_width(band: tuple[int, ...]) -> int:
    """Bits per slot that hold every c_i(n) of ``band`` with its sign: one
    more than the bits of R_n(1) for the band of |v_d|, which bounds
    |c_i(n)|, rounded up to whole bytes."""
    wide = [abs(v) for v in band]
    if wide:
        wide[0] += 1  # R_j(1) = R_{j-1}(1) + sum_d |v_d| R_{j-d}(1)
    bound = _last_row(_terms(tuple(wide)), len(wide), 0)
    return (bound.bit_length() + 8) // 8 * 8


def _unpack(packed: int, w: int, slots: int) -> list[int]:
    """The slots of a packed row, each a signed w-bit int: a bias of
    2^(w-1) per slot makes every slot a nonnegative digit."""
    size = w // 8
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    data = ((packed + bias) & ((1 << w * slots) - 1)).to_bytes(size * slots, "little")
    half = 1 << (w - 1)
    return [int.from_bytes(data[at : at + size], "little") - half
            for at in range(0, size * slots, size)]


# The first slot width that packed rows leave to the columns: past it, three
# additions per slot cost more than the column loop's work per cell (fitted
# with scripts/bench_kernels.py; CHANGES.md has the data).
SLOT_BITS = 2240
# The most bits the ring of packed rows may hold (128 MB); the column loop
# holds two columns.
RING_BITS = 2**30


def _charpoly_width(band: tuple[int, ...], terms) -> int:
    """The slot width w if charpoly reads packed rows, else 0 for the
    columns, decided before any cell is filled: rows while w < SLOT_BITS
    and their ring, reach + 1 rows of n + 1 slots, fits RING_BITS."""
    n, w = len(band), _slot_width(band)
    ring = (_reach(terms) + 1) * (n + 1) * w
    return w if w < SLOT_BITS and ring <= RING_BITS else 0


def det_hessenberg(band: tuple[int, ...]) -> int:
    """Determinant c_0(n): the row at w = 0, plain ints, holding a ring of
    reach + 1 rows; a row costs one addition per term."""
    return _last_row(_terms(band), len(band), 0)


def charpoly(band: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the characteristic polynomial det(xI - M), monic of
    degree n, ascending: the coefficient of x^i is (-1)^(n-i) c_i(n), read
    from the last row of the charpoly table, packed or column by column as
    _charpoly_width picks.

    The coefficient of x^{n-r} equals (-1)^r times the sum of all order-r
    principal minors.
    """
    n, terms = len(band), _terms(band)
    w = _charpoly_width(band, terms)
    if w:
        ends = _unpack(_last_row(terms, n, w), w, n + 1)
    else:
        ends = map(itemgetter(-1), _charpoly_columns(terms, n, n, n))
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(ends))


def count_weak_minor_sum(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Weak compositions of n with exactly k zeros over ``alphabet``: the
    sum of all order-n principal minors of the order n+k matrix, c_k(n+k).
    At k = 0 that is the determinant, its ring of reach + 1 plain ints;
    else the last cell of the first k+1 columns of the charpoly table cut
    to n+1 cells each, (k+1) * (n+1) cells (unguarded)."""
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    band = build_matrix(alphabet, n + k)
    if not k:
        return det_hessenberg(band)
    for column in _charpoly_columns(_terms(band), n + k, k, n):
        pass  # only the last is read
    return column[-1]


def weak_minor_table(alphabet: PartAlphabet, max_n: int, max_k: int) -> list[list[int]]:
    """[k][n]: the weak compositions of n with exactly k zeros over
    ``alphabet``, 0 <= n <= max_n and 0 <= k <= max_k, each the cell
    c_k(n + k) of column k of the order max_n + max_k matrix's charpoly
    table, every column cut to max_n + 1 cells (unguarded)."""
    terms = _terms(build_matrix(alphabet, max_n + max_k))
    return [column[-max_n - 1 :]
            for column in _charpoly_columns(terms, max_n + max_k, max_k, max_n)]


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
