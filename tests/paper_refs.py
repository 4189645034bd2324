"""Reference sequences and formulas from the paper that only the tests use:
the Fibonacci and k-step Fibonacci numbers the counts are checked against,
the prefix of counts, and principal minors of the counting matrix as
products of counts."""

from compcount.alphabet import PartAlphabet
from compcount.errors import DomainError
from compcount.recurrence import extend_series


def fibonacci(i: int) -> int:
    """F_i with F_1 = F_2 = 1."""
    if i < 1:
        raise DomainError(f"fibonacci index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


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
    return extend_series(*alphabet.generating_function(n + 1), n + 1)


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
