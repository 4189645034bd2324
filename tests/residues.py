"""A residue oracle for printed counts too large to check by str().

A count is checked by its residue modulo the prime P = 2^61 - 1: the
residue of its printed decimals, read 18 digits at a time without building
the int, against the residue of the count computed mod P by the defining
recurrence. One changed digit moves the value by (d' - d) 10^j, which P, a
prime above 10, never divides, so it always changes the residue.

The series here is the dense definition c(n) = sum_v q_v c(n - v) with
c(0) = 1, kept mod P, and the weak counts are its (k + 1)-th power, read as
k + 1 divisions of 1 by 1 - sum_v q_v x^v. It shares no code with
compcount's kernels: it reads only the alphabet's (value, colors) pairs.
"""

P = (1 << 61) - 1
CHUNK = 18


def residue(text: str) -> int:
    """The residue mod P of the nonnegative decimal integer ``text``."""
    head = len(text) % CHUNK or CHUNK
    value, scale = int(text[:head]) % P, 10**CHUNK
    for chunk in map(int, [text[i : i + CHUNK] for i in range(head, len(text), CHUNK)]):
        value = (value * scale + chunk) % P
    return value


def weak_residues(n: int, k: int, alphabet) -> list[int]:
    """Weak compositions of 0..n with exactly k zeros over ``alphabet``,
    each mod P: the first n + 1 terms of 1 / (1 - sum_v q_v x^v)^(k+1)."""
    parts = alphabet.parts_within(n)
    terms = [1] + [0] * n
    for _ in range(k + 1):
        for m in range(1, n + 1):
            total = terms[m]
            for value, colors in parts:
                if value > m:
                    break
                total += colors * terms[m - value]
            terms[m] = total % P
    return terms
