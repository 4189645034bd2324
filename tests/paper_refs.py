"""Reference sequences and formulas from the paper that only the tests use:
the Fibonacci and k-step Fibonacci numbers the counts are checked against,
the direct convolution power that weak counts are checked against, the
prefix of counts by the recurrence itself, the counting matrix written out
entry by entry from its band, its charpoly table cell by cell, its
principal minors, by fraction-free (Bareiss) elimination and as products
of counts, their sums of a fixed order by expanding every index subset,
a stream of every colored composition, with the weak counts it gives by inserting zeros, that
checks the brute walk, the whole weak-count table by a walk over partitions (Trudi's formula),
and a report as the dict whose json.dumps the JSON renderer must print."""

import itertools
import math
from collections import Counter

from compcount.alphabet import PartAlphabet
from compcount.enumeration import _check_guard, effective_guard
from compcount.errors import DomainError


def fibonacci(i: int) -> int:
    """F_i with F_1 = F_2 = 1."""
    if i < 1:
        raise DomainError(f"fibonacci index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def shifted_fibonacci(top: int) -> list[int]:
    """F_1, ..., F_{top+1}: F_{j+1} counts the compositions of j into {1, 2}."""
    return [fibonacci(j + 1) for j in range(top + 1)]


def convolution_power(seq, folds: int, index: int) -> int:
    """Coefficient of x^index in (sum_j seq[j] x^j) ** folds, folds >= 1, by
    repeated direct convolution (no series kernel of the package)."""
    if index < 0:
        raise DomainError(f"coefficient index must be >= 0, got {index}")
    if folds < 1:
        raise DomainError(f"need at least one convolution factor, got {folds}")
    base = (list(seq) + [0] * (index + 1))[: index + 1]
    acc = base
    for _ in range(folds - 1):
        acc = [sum(acc[i] * base[j - i] for i in range(j + 1)) for j in range(index + 1)]
    return acc[index]


def kstep_fibonacci(k: int, i: int) -> int:
    """Term i of the k-step Fibonacci sequence: two leading 1s, then each
    term is the sum of its min(k, i-1) predecessors."""
    if k < 2:
        raise DomainError(f"step count must be >= 2, got {k}")
    if i < 1:
        raise DomainError(f"index must be >= 1, got {i}")
    terms = [1, 1]
    while len(terms) < i:
        window = min(k, len(terms))
        terms.append(sum(terms[-window:]))
    return terms[i - 1]


def sequence_prefix(alphabet: PartAlphabet, n: int) -> list[int]:
    """The first n+1 terms a_1..a_{n+1}; a_{m+1} counts compositions of m."""
    if n < 0:
        raise DomainError(f"prefix length must be >= 0, got {n}")
    counts = [1]
    for m in range(1, n + 1):  # c(m) = sum_v q_v c(m - v), no series kernel
        counts.append(sum(q * counts[m - v] for v, q in alphabet.parts_within(m)))
    return counts


def minor_product_formula(alphabet: PartAlphabet, n: int, deleted) -> int:
    """Principal minor of the order-n matrix for ``alphabet`` as a product
    of determinant-sequence terms over the gaps between deleted indices:
    deleting i_1 < ... < i_k leaves block-triangular pieces of orders
    i_1 - 1, i_2 - i_1 - 1, ..., n - i_k, so the minor is
    a_{i_1} * a_{i_2 - i_1} * ... * a_{n - i_k + 1}."""
    indices = sorted(set(deleted))
    terms = sequence_prefix(alphabet, n)
    product = 1
    previous = 0
    for i in indices:
        product *= terms[i - previous - 1]
        previous = i
    return product * terms[n - previous]


def _validate_deleted(deleted, n) -> tuple[int, ...]:
    indices = tuple(sorted(set(deleted)))
    for i in indices:
        if not 1 <= i <= n:
            raise DomainError(f"index {i} outside 1..{n}")
    return indices


def format_matrix(rows) -> str:
    """Plain text grid: rows newline-separated, entries space-separated."""
    return "\n".join(" ".join(str(entry) for entry in row) for row in rows)


def dense_matrix(band) -> list[list[int]]:
    """The order-n matrix of the band v_1..v_n as rows: entry (i, j),
    1-indexed, is v_{j-i+1} on and above the diagonal, -1 on the
    subdiagonal and 0 below it."""
    n = len(band)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j >= i:
                row.append(band[j - i])
            elif j == i - 1:
                row.append(-1)
            else:
                row.append(0)
        rows.append(row)
    return rows


def det_bareiss(rows) -> int:
    """Exact determinant of a dense integer matrix by single-step
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every
    division is exact, and a zero pivot swaps rows and flips the sign. The
    empty matrix has determinant 1."""
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


def principal_minor(band, deleted) -> int:
    """Determinant of the submatrix of the matrix of ``band`` retaining the
    rows and columns not in ``deleted`` (1-indexed); deleting everything
    leaves minor 1."""
    n = len(band)
    indices = set(_validate_deleted(deleted, n))
    retained = [i for i in range(n) if i + 1 not in indices]
    dense = dense_matrix(band)
    return det_bareiss([[dense[i][j] for j in retained] for i in retained])


def charpoly_table_row(band) -> list[int]:
    """c_i(n) for i = 0..n, cell by cell from c_i(j) = c_{i-1}(j-1) +
    sum_d v_d c_i(j-d), c_0(0) = 1, each lag read on its own: the table
    that the runs and packed rows of the kernels must reproduce."""
    n = len(band)
    table = [[0] * (n + 1) for _ in range(n + 1)]  # table[j][i] = c_i(j)
    table[0][0] = 1
    for j in range(1, n + 1):
        for i in range(j + 1):
            table[j][i] = (table[j - 1][i - 1] if i else 0) + sum(
                band[d - 1] * table[j - d][i] for d in range(1, j + 1))
    return table[n]


def minor_sum_subsets(band, order: int) -> int:
    """Sum of all order-``order`` principal minors of the matrix of ``band``,
    one Bareiss determinant per index subset: C(n, order) of them."""
    n = len(band)
    if not 0 <= order <= n:
        raise DomainError(f"minor order must be within 0..{n}, got {order}")
    dense = dense_matrix(band)
    return sum(
        det_bareiss([[dense[i][j] for j in kept] for i in kept])
        for kept in itertools.combinations(range(n), order)
    )


def _value_sequences(n: int, alphabet: PartAlphabet):
    # Ascending first part, then recurse: yields value tuples in
    # lexicographic order (all sequences sum to n, so none is a prefix
    # of another).
    if n == 0:
        yield ()
        return
    for value, _ in alphabet.parts_within(n):
        for tail in _value_sequences(n - value, alphabet):
            yield (value, *tail)


def enumerate_compositions(n: int, alphabet: PartAlphabet):
    """Stream every colored composition of ``n`` over ``alphabet``.

    Each composition is a tuple of ``(value, color)`` pairs, colors
    counted from 1. Order is lexicographic by value sequence, then by color
    sequence. ``n = 0`` yields exactly the empty composition ``()``.
    """
    if n < 0:
        raise DomainError(f"target must be >= 0, got {n}")
    _check_guard("n", n, effective_guard())
    return _colored_stream(n, alphabet)


def _colored_stream(n, alphabet):
    color_count = dict(alphabet.parts_within(n))
    for values in _value_sequences(n, alphabet):
        color_ranges = [range(1, color_count[v] + 1) for v in values]
        for colors in itertools.product(*color_ranges):
            yield tuple(zip(values, colors))


def count_weak_insertion(n: int, k: int, alphabet: PartAlphabet) -> int:
    """Semi-independent check: a weak composition with k zeros is a
    zero-free composition with p parts plus a multiset choice of the k
    zero slots among the p+1 gaps, i.e. sum_p c_p * C(p+k, k)."""
    if k < 0:
        raise DomainError(f"zero count must be >= 0, got {k}")
    _check_guard("k", k, effective_guard())
    return insertion_sum(n, k, alphabet)


def insertion_sum(n: int, k: int, alphabet: PartAlphabet) -> int:
    """sum_p c_p * C(p+k, k) with c_p counted from the lengths of the
    compositions of n, for any k: only n is guarded."""
    lengths = Counter(map(len, enumerate_compositions(n, alphabet)))
    return sum(count * math.comb(p + k, k) for p, count in lengths.items())


def partition_table(max_n: int, max_k: int, alphabet: PartAlphabet) -> tuple[tuple[int, ...], ...]:
    """t[n][k]: the weak compositions of n with exactly k zeros over
    ``alphabet``, for every n <= max_n and k <= max_k, by Trudi's formula for
    the determinant of a Toeplitz-Hessenberg matrix as Merca (2013) restates
    it. A composition is a partition put in some order: one with l parts,
    m_d of them equal to d, has (l + k)! / (k! prod_d m_d!) orders with k
    zeros among them, and prod_d q_d^(m_d) colorings for q_d colors of d.

    One walk visits each partition of each m <= max_n once, parts ascending,
    from a stack of (sum, index of the largest part, its multiplicity, part
    count, colorings, prod_d m_d!), not by recursion. It shares no kernel
    with any route: no series, band, minor, closed form or sequence walk,
    only its own factorials and products."""
    if max_n < 0 or max_k < 0:
        raise DomainError(f"target and zero count must be >= 0, got n={max_n}, k={max_k}")
    parts = alphabet.parts_within(max_n)
    factorial = [math.factorial(i) for i in range(max_n + max_k + 1)]
    table = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    stack = [(0, 0, 0, 0, 1, 1)]  # the empty partition, of 0
    while stack:
        total, last, run, length, colorings, repeats = stack.pop()
        row = table[total]
        for k in range(max_k + 1):
            row[k] += colorings * (factorial[length + k] // (factorial[k] * repeats))
        for i in range(last, len(parts)):
            value, colors = parts[i]
            if total + value > max_n:
                break  # the parts ascend: no larger one fits either
            again = run + 1 if i == last else 1
            stack.append((total + value, i, again, length + 1, colorings * colors,
                          repeats * again))
    return tuple(map(tuple, table))


def to_json_dict(report) -> dict:
    """A verification report as the dict that json.dumps(..., indent=2)
    renders: the reference for reports.to_json, which prints those bytes
    without building the dict."""
    with_oracle = [p.agree for p in report.points if p.oracle is not None]
    verdict = {True: "agree", False: "disagree"}
    return {
        "identity": report.identity,
        "lhs_label": report.lhs_label,
        "rhs_label": report.rhs_label,
        "notes": list(report.notes),
        "summary": {
            "lhs_vs_rhs": all(p.lhs == p.rhs for p in report.points),
            "oracle": all(with_oracle) if with_oracle else None,
            "agree": all(p.agree for p in report.points),
        },
        "points": [
            {
                "identity": report.identity,
                "n": p.n,
                "k": p.k,
                "lhs": p.lhs,
                "rhs": p.rhs,
                "oracle": p.oracle,
                "verdict": verdict[p.agree],
            }
            for p in report.points
        ],
    }
