"""Command-line front end.

Subcommands: count, weak, matrix, verify, table. Standard output
carries only machine-parseable results (integers, grids, columnar or JSON
reports, CSV); diagnostics go to stderr. Exit codes: 0 success/agreement,
1 identity disagreement, 2 usage or parse error, 3 guard violation,
4 closed form unavailable for the alphabet.

Alphabet mini-grammar (--alphabet):
    all           every positive part value, one color each
    upto:K        values 1..K, one color each
    atleast:K     values K, K+1, ..., one color each
    V[xQ],...     explicit list, e.g. "1x2,3" = two colors of 1 plus one 3
"""

import argparse
import os
import sys

from .alphabet import PartAlphabet
from .errors import CompCountError, DomainError, UnsupportedClosedForm

# Each command imports the route it runs inside the branch that runs it:
# every invocation is a fresh process, so a route it does not run would
# only add start-up time. The identity names are spelled out for the same
# reason; verify.IDENTITY_NAMES is the table they must match.
IDENTITY_NAMES = ("eq1", "thm8", "thm9", "thm10", "thm11", "thm12")

# Codes 2 to 4 are the exit_code of the error class raised (see errors).
EXIT_OK = 0
EXIT_DISAGREEMENT = 1


def parse_alphabet(text: str) -> PartAlphabet:
    """Parse the alphabet mini-grammar; errors name the offending token."""
    spec = text.strip()
    if spec == "all":
        return PartAlphabet.at_least(1)
    for prefix, builder in (("upto:", PartAlphabet.upto), ("atleast:", PartAlphabet.at_least)):
        if spec.startswith(prefix):
            tail = spec[len(prefix):]
            try:
                return builder(int(tail))
            except ValueError:  # from int() or the builder's DomainError
                raise DomainError(f"bad bound {tail!r} in alphabet spec {spec!r}") from None
    parts = []
    for token in spec.split(","):
        token = token.strip()
        value_text, sep, mult_text = token.partition("x")
        try:
            value = int(value_text)
            mult = int(mult_text) if sep else 1
        except ValueError:
            raise DomainError(f"bad token {token!r} in alphabet spec {spec!r}") from None
        if value < 1 or mult < 1:
            raise DomainError(f"bad token {token!r} in alphabet spec {spec!r}")
        parts.append((value, mult))
    try:
        return PartAlphabet.of(*parts)
    except DomainError as exc:
        raise DomainError(f"invalid alphabet spec {spec!r}: {exc}") from None


def _alphabet_arg(parser):
    parser.add_argument(
        "--alphabet",
        default="all",
        help="part alphabet: all | upto:K | atleast:K | V[xQ],V[xQ],... (default: all)",
    )


def cmd_count(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.method == "recurrence":
        from .recurrence import count_compositions
        value = count_compositions(args.n, alphabet)
    elif args.method == "det":
        from .hessenberg import build_matrix, det_hessenberg
        value = 1 if args.n == 0 else det_hessenberg(build_matrix(alphabet, args.n))
    else:
        from .enumeration import count_compositions_brute
        value = count_compositions_brute(args.n, alphabet)
    print(value)
    return EXIT_OK


def cmd_weak(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    if args.method == "conv":
        from .weakforms import count_weak_convolution
        value = count_weak_convolution(args.n, args.k, alphabet)
    elif args.method == "minors":
        from .weakforms import count_weak_minor_sum
        value = count_weak_minor_sum(args.n, args.k, alphabet)
    elif args.method == "brute":
        from .enumeration import count_weak_brute
        value = count_weak_brute(args.n, args.k, alphabet)
    else:
        if alphabet == PartAlphabet.at_least(1):
            from .weakforms import count_weak_unrestricted_closed
            value = count_weak_unrestricted_closed(args.n, args.k)
        elif alphabet == PartAlphabet.upto(2):
            from .weakforms import count_weak_parts12_closed
            value = count_weak_parts12_closed(args.n, args.k)
        else:
            raise UnsupportedClosedForm(
                f"no closed form for alphabet {alphabet}; supported: all, upto:2"
            )
    print(value)
    return EXIT_OK


def cmd_matrix(args) -> int:
    from .hessenberg import (
        build_matrix,
        charpoly,
        check_minor_subsets,
        det_hessenberg,
        format_matrix,
        minor_sum_subsets,
    )

    alphabet = parse_alphabet(args.alphabet)
    if args.minorsum is not None:
        check_minor_subsets(args.n, args.minorsum)
    matrix = build_matrix(alphabet, args.n)
    if args.det:
        print(det_hessenberg(matrix))
    elif args.charpoly:
        print(" ".join(map(str, charpoly(matrix))))
    elif args.minorsum is not None:
        print(minor_sum_subsets(matrix, args.minorsum))
    else:
        print(format_matrix(matrix.to_dense()))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_identity

    reports = run_identity(args.identity, args.max_n, args.max_k)
    if args.json:
        import json
        print(json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=2))
    else:
        for report in reports:
            print(report.to_text())
    disagreements = sum(len(r.disagreements()) for r in reports)
    if disagreements:
        print(f"{disagreements} disagreeing grid point(s) found", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_table(args) -> int:
    from .weakforms import weak_counts

    values = weak_counts(args.n_max, args.k or 0, parse_alphabet(args.alphabet))
    rows = enumerate(values[1:], start=1)
    if args.bfile:
        for n, value in rows:
            print(f"{n} {value}")
    elif args.k is None:
        print("n,count")
        for n, value in rows:
            print(f"{n},{value}")
    else:
        print("n,k,count")
        for n, value in rows:
            print(f"{n},{args.k},{value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compcount",
        description="Exact composition counting by cross-validated independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count compositions of n")
    p.add_argument("n", type=int)
    _alphabet_arg(p)
    p.add_argument("--method", choices=("recurrence", "det", "brute"), default="recurrence")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("weak", help="count weak compositions of n with exactly k zeros")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    _alphabet_arg(p)
    p.add_argument("--method", choices=("conv", "minors", "closed", "brute"), default="conv")
    p.set_defaults(func=cmd_weak)

    p = sub.add_parser("matrix", help="build the counting matrix and query it")
    p.add_argument("n", type=int)
    _alphabet_arg(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--print", action="store_true", dest="print_grid",
                       help="print the dense grid (default)")
    group.add_argument("--det", action="store_true", help="print the determinant")
    group.add_argument("--charpoly", action="store_true",
                       help="print characteristic polynomial coefficients, ascending")
    group.add_argument("--minorsum", type=int, metavar="R",
                       help="print the sum of all order-R principal minors")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", help="cross-check the counting identities on a grid")
    p.add_argument("--identity", choices=IDENTITY_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--max-k", type=int, default=3, dest="max_k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print a count table as CSV (or an OEIS-style b-file)")
    _alphabet_arg(p)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--k", type=int, default=None,
                   help="fix a zero count and tabulate weak compositions")
    p.add_argument("--bfile", action="store_true",
                   help="emit 'index value' lines, index starting at 1, no header")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # counts print in full
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompCountError as exc:
        print(f"compcount: {exc}", file=sys.stderr)
        return exc.exit_code


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`compcount table ... | head`): what it
        # read is all it wanted, so this is success, not an error. Point
        # stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
