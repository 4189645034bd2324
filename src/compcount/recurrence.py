"""Composition counts as coefficients of a rational generating function.

Every composition of n >= 1 ends in some allowed value m with one of its
q colors, so c(n) = sum_i q_i * c(n - m_i) with c(0) = 1, and the counts
are the series of 1 / (1 - P), P = sum_v q_v x^v, or of the alphabet's
N(x) / D(x). ``series_term`` finds the single coefficient [x^n] of N / D by
Bostan-Mori halving, in O(log n) polynomial products and without the
O(n^2) bits of a prefix; ``divide_series`` turns a prefix of a series into
the same prefix of its quotient by 1 - P, in place, for callers that need
every term. The sequence a_{m+1} = c(m) is also exactly the determinant
sequence of the banded Hessenberg matrices built elsewhere.

A weak composition of n with exactly k zeros is cut by its zeros into
k+1 (possibly empty) zero-free blocks, so its count is [x^n] 1 / (1 -
P)^(k+1), the (k+1)-fold convolution of the zero-free counts: 1 divided
k + 1 times by 1 - P; ``weak_columns`` yields every k from one chain.

Nothing is cached: every call computes from the generating function.
"""

from .alphabet import PartAlphabet, lag_terms
from .errors import DomainError


def divide_series(terms: list[int], singles, edges) -> None:
    """Replace the prefix ``terms`` of a series S, in place, with the same
    prefix of S / (1 - P), P given as alphabet.lag_terms gives it: t_m =
    s_m + sum_singles q t_{m-v} + W_m, W_m = W_{m-1} + sum_edges u t_{m-e},
    s_m read before it is overwritten. A lag past m reads a zero padded
    after the prefix, so no lag is tested. A sum starts from its first term
    and unit coefficients skip the multiply: either would copy a big int. A
    zero is stored as 0, never as a Decimal -0."""
    size = len(terms)
    terms += [0] * max((lag for lag, _ in (*singles, *edges)), default=0)
    run = 0
    for m in range(size):
        new = terms[m]
        if singles:
            for v, q in singles:
                t = terms[m - v] if q == 1 else q * terms[m - v]
                new = new + t if new else t
        if edges:
            for e, u in edges:
                if u == 1:
                    run += terms[m - e]
                elif u == -1:
                    run -= terms[m - e]
                else:
                    run += u * terms[m - e]
            new = new + run if new else run
        terms[m] = new or 0
    del terms[size:]


def weak_columns(n: int, max_k: int, alphabet: PartAlphabet, one=1):
    """Column k = 0..max_k of the weak series to x^n: the prefix after division
    k+1 of 1 by 1 - P (a copy, but for the last), P the lag_terms of
    runs_within(n). It only adds, multiplies by small ints and tests truth:
    one = Decimal(1) gives Decimals."""
    if n < 0 or max_k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={n}, k={max_k}")
    singles, edges = lag_terms(alphabet.runs_within(n), n)
    terms = [one] + [0] * n
    for k in range(max_k + 1):
        divide_series(terms, singles, edges)
        yield terms if k == max_k else terms[:]  # no division follows the last


def weak_counts(n: int, k: int, alphabet: PartAlphabet, one=1) -> list[int]:
    """The last column of weak_columns(n, k, alphabet, one)."""
    columns = weak_columns(n, k, alphabet, one)
    for _ in range(k):  # each dropped at once, so none outlives the next division
        next(columns)
    return next(columns)


def decimal_weak_counts(n: int, k: int, alphabet: PartAlphabet) -> list:
    """weak_counts seeded with Decimal(1) in the one exact context, which
    traps any rounding, so no digit can be wrong: the same counts, whose
    str() is linear in their digits."""
    import decimal

    with decimal.localcontext(decimal.Context(
            prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])):
        return weak_counts(n, k, alphabet, one=decimal.Decimal(1))


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
    return series_term(*alphabet.generating_function(n), n)
