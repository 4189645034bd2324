"""Reference answers computed without compcount, and the output checker.

Every alphabet the workloads use has a rational generating function
C(x) = N(x) / D(x) for its composition counts: an explicit alphabet with
q_v colors of value v gives 1 / (1 - sum q_v x^v), and ``atleast:K`` gives
(1 - x) / (1 - x - x^K). From that one pair the checker derives

- c(n) = [x^n] C, the composition counts (``count``, ``table --bfile``),
- W(n, k) = [x^n] C^(k+1), weak compositions with exactly k zeros,
- E_r = [x^r] C^(n-r+1), the sum of the order-r principal minors of the
  order-n counting matrix (each retained block of indices contributes one
  leading determinant),
- det(tI - M) at fixed points t, by the last-column expansion of an upper
  Hessenberg matrix, which checks a printed characteristic polynomial.

Large values are compared as residues modulo the product of three primes,
so a change of any single digit of an output is always caught; verify
grids are small and compared exactly. Nothing here imports compcount.
"""

import json
import re

PRIMES = ((1 << 61) - 1, 1_000_000_007, 998_244_353)
MODULUS = PRIMES[0] * PRIMES[1] * PRIMES[2]
CHARPOLY_POINTS = (7, 100_003)
_INT = re.compile(r"-?(0|[1-9][0-9]*)\Z")


def generating_function(spec: str) -> tuple[list[int], list[int]]:
    """(N, D) coefficient lists, ascending, for an alphabet spec."""
    if spec == "all":
        spec = "atleast:1"
    if spec.startswith("atleast:"):
        k = int(spec[len("atleast:"):])
        den = [1] + [0] * k
        den[1] -= 1
        den[k] -= 1
        return [1, -1], den
    if spec.startswith("upto:"):
        spec = ",".join(str(v) for v in range(1, int(spec[len("upto:"):]) + 1))
    den = [1]
    for token in spec.split(","):
        value, _, colors = token.partition("x")
        value = int(value)
        den += [0] * (value + 1 - len(den))
        den[value] -= int(colors) if colors else 1
    return [1], den


def band(spec: str, order: int) -> list[int]:
    """Color multiplicity of each value 1..order (the first matrix row)."""
    num, den = generating_function(spec)
    if len(num) == 2:  # atleast:K
        k = len(den) - 1
        return [1 if v >= k else 0 for v in range(1, order + 1)]
    return [-den[v] if v < len(den) else 0 for v in range(1, order + 1)]


def poly_mul(a, b, mod=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % mod for c in out] if mod else out


def poly_pow(p, exponent, mod=None):
    out = [1]
    for _ in range(exponent):
        out = poly_mul(out, p, mod)
    return out


def series(num, den, length, mod=None, start=None):
    """First ``length`` coefficients of num/den (den[0] == 1), continuing
    ``start`` when given."""
    terms = [] if start is None else start
    taps = [(i, d) for i, d in enumerate(den) if i and d]
    for n in range(len(terms), length):
        value = num[n] if n < len(num) else 0
        for i, d in taps:
            if i > n:
                break
            value -= d * terms[n - i]
        terms.append(value % mod if mod else value)
    return terms


def power_series(spec, power, length, mod=None):
    """First ``length`` coefficients of C(x)^power."""
    num, den = generating_function(spec)
    return series(poly_pow(num, power, mod), poly_pow(den, power, mod), length, mod)


def weak(spec, n, k, mod=None):
    return power_series(spec, k + 1, n + 1, mod)[n]


def minor_sum(spec, order, r):
    return power_series(spec, order - r + 1, r + 1)[r]


def char_value(spec, order, t, mod):
    """det(tI - M) mod ``mod`` for the order-``order`` counting matrix M
    (band values on and above the diagonal, -1 below it). The last-column
    expansion with subdiagonal entries +1 gives
    det_j = sum_i (-1)^(j-i) * h(i, j) * det_(i-1)."""
    values = band(spec, order)
    dets = [1]
    for j in range(1, order + 1):
        total = 0
        for i in range(1, j + 1):
            entry = (t if i == j else 0) - values[j - i]
            if entry:
                term = entry * dets[i - 1]
                total += term if (j - i) % 2 == 0 else -term
        dets.append(total % mod)
    return dets[order]


def residue(text: str) -> int:
    """Decimal text mod MODULUS without building the full integer."""
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    value = 0
    for at in range(0, len(digits), 18):
        chunk = digits[at:at + 18]
        value = (value * 10 ** len(chunk) + int(chunk)) % MODULUS
    return -value % MODULUS if negative else value


# Verify grids: identity label -> alphabet spec, as the CLI names them.
BATTERY = (
    ("atleast:1", "atleast:1"),
    ("1,2", "upto:2"),
    ("1,2,3", "upto:3"),
    ("atleast:2", "atleast:2"),
    ("1x2", "1x2"),
    ("1,2x3", "1,2x3"),
)
IDENTITIES = ("eq1", "thm8", "thm9", "thm10", "thm11", "thm12")


def _weak_grid(spec, ns, max_k):
    tables = {k: power_series(spec, k + 1, max(ns, default=0) + 1) for k in range(max_k + 1)}
    return [(n, k, tables[k][n]) for n in ns for k in range(max_k + 1)]


def verify_rows(identity, max_n, max_k):
    """Expected (identity, n, k, lhs, rhs, oracle) rows in print order."""
    if identity == "all":
        return [row for name in IDENTITIES for row in verify_rows(name, max_n, max_k)]
    if identity == "eq1":
        # (k+1)-fold power of sum F_(j+1) x^j = 1 / (1 - x - x^2) at n-k.
        rows = []
        for n in range(max_n + 1):
            for k in range(n + 1):
                v = series([1], poly_pow([1, -1, -1], k + 1), n - k + 1)[n - k]
                rows.append(("eq1", n, k, v, v, None))
        return rows
    if identity in ("thm8", "thm9"):
        return [
            (f"{identity}[{label}]", n, k, v, v, None)
            for label, spec in BATTERY
            for n, k, v in _weak_grid(spec, range(max_n + 1), max_k)
        ]
    if identity == "thm10":
        return [("thm10", n, k, v, v, None) for n, k, v in _weak_grid("all", range(1, max_n + 1), max_k)]
    if identity == "thm11":
        return [("thm11", n, k, v, v, None) for n, k, v in _weak_grid("upto:2", range(max_n + 1), max_k)]
    if identity == "thm12":
        # Both computed sides are the (k+1)-fold power of 1 + sum F_j x^j
        # = (1 - x^2) / (1 - x - x^2); the labelled target is the weak count
        # of n+k-1 with parts >= 2.
        rows = []
        top = max(max_n, 1)
        for k in range(max_k + 1):
            sides = series(poly_pow([1, 0, -1], k + 1), poly_pow([1, -1, -1], k + 1), top + 1)
            oracle = power_series("atleast:2", k + 1, top + k)
            rows += [("thm12", n, k, sides[n], sides[n], oracle[n + k - 1]) for n in range(1, top + 1)]
        return sorted(rows, key=lambda row: (row[1], row[2]))
    raise ValueError(f"unknown identity {identity!r}")


def verdict(row) -> str:
    _, _, _, lhs, rhs, oracle = row
    return "agree" if lhs == rhs and (oracle is None or oracle == lhs) else "disagree"


def verify_exit(identity, max_n, max_k) -> int:
    rows = verify_rows(identity, max_n, max_k)
    return 1 if any(verdict(row) == "disagree" for row in rows) else 0


class Checker:
    """Checks one request's stdout against the reference; keeps count
    prefixes per alphabet so a run computes each residue sequence once."""

    def __init__(self):
        self._counts = {}

    def counts(self, spec, n):
        num, den = generating_function(spec)
        terms = self._counts.setdefault(spec, [])
        return series(num, den, n + 1, MODULUS, terms)

    def check(self, kind, params, stdout: str):
        """None when ``stdout`` is right, else a one-line reason."""
        try:
            return getattr(self, "_" + kind)(*params, stdout=stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    @staticmethod
    def _one_int(stdout):
        text = stdout[:-1] if stdout.endswith("\n") else None
        if text is None or not _INT.match(text):
            raise ValueError("expected one integer line")
        return residue(text)

    def _count(self, spec, n, stdout):
        return _compare(self._one_int(stdout), self.counts(spec, n)[n])

    def _weak(self, spec, n, k, stdout):
        return _compare(self._one_int(stdout), weak(spec, n, k, MODULUS))

    def _minorsum(self, spec, order, r, stdout):
        return _compare(self._one_int(stdout), minor_sum(spec, order, r) % MODULUS)

    def _charpoly(self, spec, order, stdout):
        fields = stdout.split()
        if not stdout.endswith("\n") or len(stdout.splitlines()) != 1:
            return "expected one line of coefficients"
        if len(fields) != order + 1 or fields[-1] != "1" or not all(_INT.match(f) for f in fields):
            return f"expected {order + 1} integer coefficients ending in 1"
        coefficients = [residue(f) for f in fields]
        for t in CHARPOLY_POINTS:
            value = 0
            for c in reversed(coefficients):
                value = (value * t + c) % MODULUS
            if value != char_value(spec, order, t, MODULUS):
                return f"characteristic polynomial differs at x={t}"
        return None

    def _table_k(self, spec, k, n_max, stdout):
        lines = stdout.splitlines()
        if not stdout.endswith("\n") or lines[0] != "n,k,count" or len(lines) != n_max + 1:
            return "expected header n,k,count and one row per n"
        values = power_series(spec, k + 1, n_max + 1, MODULUS)
        for n, line in enumerate(lines[1:], start=1):
            n_text, k_text, value = line.split(",")
            if (n_text, k_text) != (str(n), str(k)) or not _INT.match(value):
                return f"malformed row {n}"
            if residue(value) != values[n]:
                return f"wrong count in row {n}"
        return None

    def _bfile(self, spec, n_max, stdout):
        lines = stdout.splitlines()
        if not stdout.endswith("\n") or len(lines) != n_max:
            return "expected one line per index"
        values = self.counts(spec, n_max)
        for n, line in enumerate(lines, start=1):
            n_text, value = line.split(" ")
            if n_text != str(n) or not _INT.match(value):
                return f"malformed line {n}"
            if residue(value) != values[n]:
                return f"wrong count at index {n}"
        return None

    def _verify(self, identity, max_n, max_k, as_json, stdout):
        expected = [(*row, verdict(row)) for row in verify_rows(identity, max_n, max_k)]
        if as_json:
            got = [
                (p["identity"], p["n"], p["k"], p["lhs"], p["rhs"], p["oracle"], p["verdict"])
                for report in json.loads(stdout)["reports"]
                for p in report["points"]
            ]
        else:
            got = []
            for line in stdout.splitlines():
                if line.startswith("#"):
                    continue
                name, n, k, lhs, rhs, oracle, word = line.split(" ")
                got.append((
                    name, int(n), int(k), int(lhs), int(rhs),
                    None if oracle == "-" else int(oracle), word,
                ))
        if len(got) != len(expected):
            return f"expected {len(expected)} grid points, got {len(got)}"
        for want, have in zip(expected, got):
            if want != have:
                return f"grid point {want[:3]} differs"
        return None

    @staticmethod
    def _refusal(stdout):
        return None if stdout == "" else "a refused request printed a result"


def _compare(got, want):
    return None if got == want else "wrong value"
