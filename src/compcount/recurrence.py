"""Composition counts as coefficients of a rational generating function.

Every composition of n >= 1 ends in some allowed value m with one of its
q colors, so c(n) = sum_i q_i * c(n - m_i) with c(0) = 1, and the counts
are the series of the alphabet's N(x) / D(x). Two kernels read such a
quotient: ``divide_series`` turns a prefix of N into the same prefix of
N / D in place, for callers that need every term, and ``series_term``
finds the single coefficient [x^n] by Bostan-Mori halving, in O(log n)
polynomial products and without the O(n^2) bits of a prefix. The
sequence a_{m+1} = c(m) is also exactly the determinant sequence of the
banded Hessenberg matrices built elsewhere.

A weak composition of n with exactly k zeros is cut by its zeros into
k+1 (possibly empty) zero-free blocks, so its count is the (k+1)-fold
convolution of the zero-free counts, [x^n] (N / D)^(k+1): the short
N^(k+1) divided k + 1 times by D, which ``weak_counts`` reads as a prefix.

Nothing is cached: every call computes from the generating function.
"""

from .alphabet import PartAlphabet
from .errors import DomainError


def divide_series(terms: list[int], den) -> None:
    """Replace the prefix ``terms`` of a series S, in place, with the same
    prefix of S / den, den[0] = 1: t_m = s_m - sum_{i>=1} den_i * t_{m-i},
    s_m read before it is overwritten. The sum starts from its first term,
    not 0, and unit lags skip the multiply: either would copy a big int per
    lag and triple the cost of the two-lag unbounded series."""
    lags = [(i, -d) for i, d in enumerate(den) if i and d]
    for m, new in enumerate(terms):
        for i, q in lags:
            if i > m:
                break
            t = terms[m - i] if q == 1 else q * terms[m - i]
            new = new + t if new else t
        terms[m] = new


def weak_counts(n: int, k: int, alphabet: PartAlphabet, one=1) -> list[int]:
    """Weak compositions of 0..n with exactly k zeros over ``alphabet``:
    the first n+1 coefficients of N^(k+1) / D^(k+1), in one list that is
    multiplied by N k+1 times, then divided by D k+1 times, each O(n r) for
    the r nonzero lags of D. k = 0 gives the zero-free counts c(0..n). The
    kernel only adds, multiplies by small ints and tests truth, so a seed
    ``one`` = Decimal(1) in an exact context gives the counts as Decimals."""
    if n < 0 or k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={k}")
    num, den = alphabet.generating_function(n + 1)
    terms = [one] + [0] * n
    for _ in range(k + 1):
        # Times N, top down to read each term before it changes: N is (1,)
        # or (1, -1), so N^(k+1) has at most k + 2 terms.
        for j in range(min(k + 1, n), 0, -1):
            terms[j] += sum(c * terms[j - i] for i, c in enumerate(num[1 : j + 1], 1))
    for _ in range(k + 1):
        divide_series(terms, den)
    return terms


def count_weak_convolution(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Weak compositions of n with exactly k zeros over ``alphabet``: sum
    over j_1+...+j_{k+1} = n (j_t >= 0) of prod_t c(j_t), with c(0) = 1."""
    return weak_counts(n, k, alphabet)[n]


def series_term(num, den, n: int) -> int:
    """[x^n] num(x) / den(x), den[0] = 1, by Bostan-Mori halving.

    Split P = num and Q = den by parity, P = Pe(x^2) + x Po(x^2) and Q
    likewise. Then P/Q = P(x)Q(-x) / Q(x)Q(-x), whose denominator is
    V(x^2) with V = Qe^2 - y Qo^2, and whose numerator has the halves
    Pe Qe - y Po Qo (even) and Po Qe - Pe Qo (odd). So [x^n] P/Q is
    [y^(n//2)] U/V, U the half at the parity of n. Each step cuts U and V
    to the n//2 + 1 terms the next steps read, so the polynomials never
    outgrow the target. V(0) stays 1, hence at n = 0 the term is U(0)."""
    p = list(num[: n + 1])
    q = list(den[: n + 1])
    while n and p:
        half, odd = divmod(n, 2)
        pe, po, qe, qo = p[::2], p[1::2], q[::2], q[1::2]
        # U's own length is (len(p) + len(q) - 2 - odd) // 2 + 1, V's len(q).
        count = min(half, (len(p) + len(q) - 2 - odd) // 2) + 1
        if odd:
            p = _cross(po, qe, pe, qo, 0, count)
        else:
            p = _cross(pe, qe, po, qo, 1, count)
        if half:
            q = _cross(qe, qe, qo, qo, 1, min(half + 1, len(q)))
        n = half
    return p[0] if p else 0


def _cross(a, b, c, d, lag: int, count: int) -> list[int]:
    """The first ``count`` coefficients of a b - y^lag c d."""
    # c d first: at the last step (n = 1) it is Pe Qo, the one big product,
    # and the other product's list would be held while it runs.
    cd = _product(c, d, count - lag)
    ab = _product(a, b, count)
    return ab[:lag] + [x - y for x, y in zip(ab[lag:], cd)]


# Kronecker substitution: each polynomial is packed into one int, its
# coefficients in slots of ``size`` bytes, and one big-int product is the
# packed product of the polynomials, as long as every coefficient c has
# |c| < 2^(8 size - 1) - 1. The int's two's complement bytes hold in slot
# i the coefficient c_i minus a borrow of 1 when the slots below i hold a
# negative value, which is exactly when slot i - 1, read as signed, is
# negative. So packing and unpacking are one pass of to_bytes / from_bytes
# over signed slots, linear in the slot count, with no int larger than the
# packed one.


def _product(a: list[int], b: list[int], count: int) -> list[int]:
    """The first ``count`` coefficients of a(x) b(x), from one product."""
    if not (a and b and count > 0):
        return [0] * max(count, 0)
    bits = _bits(a) + _bits(b) + min(len(a), len(b)).bit_length()
    size = (bits + 9) // 8
    packed = _pack(a, size)
    value = packed * (packed if b is a else _pack(b, size))
    packed = None  # free the packed copy before unpacking allocates
    return _unpack(value, size, count)


def _bits(poly) -> int:
    return max(max(poly), -min(poly)).bit_length()


def _pack(poly: list[int], size: int) -> int:
    if len(poly) == 1:  # one slot: the coefficient itself, no copy
        return poly[0]
    slots = []
    borrow = False
    for c in poly:
        if borrow:
            c -= 1
        slots.append(c.to_bytes(size, "little", signed=True))
        borrow = c < 0
    return int.from_bytes(b"".join(slots), "little", signed=True)


def _unpack(value: int, size: int, count: int) -> list[int]:
    """The first ``count`` coefficients of a packed polynomial."""
    raw = (value & ((1 << (8 * size * count)) - 1)).to_bytes(size * count, "little")
    coefficients = []
    borrow = False
    for i in range(0, size * count, size):
        c = int.from_bytes(raw[i : i + size], "little", signed=True)
        coefficients.append(c + 1 if borrow else c)
        borrow = c < 0
    return coefficients


def count_compositions(n: int, alphabet: PartAlphabet) -> int:
    """c(n, alphabet); c(0) = 1 for the empty composition."""
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    return series_term(*alphabet.generating_function(n + 1), n)
