"""Command-line front end: exact composition counts, cross-checked.

Commands: count, weak, matrix, verify, table. Options take their full
names, as --opt value or --opt=value, before, between or after the
positional ints; a repeated option keeps its last value. matrix takes at
most one of --print (the default), --det, --charpoly and --minorsum.
-h or --help prints the usage lines and this text. One table, COMMANDS,
drives the parser and the usage lines.

Standard output carries only machine-parseable results (integers, grids,
columnar or JSON reports, CSV); diagnostics go to stderr. Exit codes:
0 success/agreement, 1 identity disagreement, 2 usage or parse error,
3 guard violation, 4 closed form unavailable for the alphabet.

Alphabet mini-grammar (--alphabet, default all):
    all           every positive part value, one color each
    upto:K        values 1..K, one color each
    atleast:K     values K, K+1, ..., one color each
    V[xQ],...     explicit list, e.g. "1x2,3" = two colors of 1 plus one 3
"""

import os
import sys

from .alphabet import PartAlphabet
from .errors import CompCountError, Disagreement, DomainError, GuardExceeded, UnsupportedClosedForm

# Each command imports the route it runs inside the branch that runs it:
# every invocation is a fresh process, so a route it does not run would
# only add start-up time. The identity names are spelled out for the same
# reason; verify.IDENTITY_NAMES is the table they must match.
IDENTITY_NAMES = ("eq1", "thm8", "thm9", "thm10", "thm11", "thm12")


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


def cmd_count(args):
    if args["method"] == "recurrence":
        from .recurrence import count_compositions
        yield count_compositions(args["n"], args["alphabet"])
    elif args["method"] == "det":
        from .hessenberg import build_matrix, det_hessenberg
        yield det_hessenberg(build_matrix(args["alphabet"], args["n"]))
    else:
        from .enumeration import count_compositions_brute
        yield count_compositions_brute(args["n"], args["alphabet"])


def cmd_weak(args):
    n, k, alphabet = args["n"], args["k"], args["alphabet"]
    if args["method"] == "conv":
        from .recurrence import count_weak_convolution
        yield count_weak_convolution(n, k, alphabet)
    elif args["method"] == "minors":
        from .hessenberg import count_weak_minor_sum
        yield count_weak_minor_sum(n, k, alphabet)
    elif args["method"] == "brute":
        from .enumeration import count_weak_brute
        yield count_weak_brute(n, k, alphabet)
    elif alphabet == PartAlphabet.at_least(1):  # the method is closed from here on
        from .weakforms import count_weak_unrestricted_closed
        yield count_weak_unrestricted_closed(n, k)
    elif alphabet == PartAlphabet.upto(2):
        from .weakforms import count_weak_parts12_closed
        yield count_weak_parts12_closed(n, k)
    else:
        raise UnsupportedClosedForm(f"no closed form for alphabet {alphabet};"
                                    " supported: all, upto:2")


# The order limit of matrix --minorsum, checked before the band is built.
# It stays, though the charpoly table answers any order: the benchmark
# expects exit 3 past it, and until a size limit refuses every band too
# large to hold, it is what keeps `matrix 10^7 --minorsum 2` from
# building a 10^7-entry band.
SUBSET_GUARD = 22


def cmd_matrix(args):
    from .hessenberg import (
        build_matrix,
        charpoly,
        check_minor_order,
        det_hessenberg,
        grid_lines,
        minor_sum,
    )

    if args["n"] < 1:  # order 0 is a valid band, but no grid to print
        raise DomainError(f"matrix order must be >= 1, got {args['n']}")
    if args["minorsum"] is not None:
        check_minor_order(args["n"], args["minorsum"])
        if args["n"] > SUBSET_GUARD:
            raise GuardExceeded(f"matrix order {args['n']} exceeds the subset guard {SUBSET_GUARD}")
    band = build_matrix(args["alphabet"], args["n"])
    if args["det"]:
        yield det_hessenberg(band)
    elif args["charpoly"]:
        yield " ".join(map(str, charpoly(band)))
    elif args["minorsum"] is not None:
        yield minor_sum(band, args["minorsum"])
    else:
        yield from grid_lines(band)


def cmd_verify(args):
    from .reports import to_json, to_text
    from .verify import run_identity

    reports = run_identity(args["identity"], args["max-n"], args["max-k"])
    if args["json"]:
        yield to_json(reports)
    else:
        yield from map(to_text, reports)
    disagreements = sum(not p.agree for r in reports for p in r.points)
    if disagreements:
        raise Disagreement(f"{disagreements} disagreeing grid point(s) found")


def cmd_table(args):
    from math import gcd

    from .recurrence import count_compositions, weak_counts

    n_max, k, alphabet = args["n-max"], args["k"], args["alphabet"]
    [0] * (n_max + 1)  # refused here, at once, if the machine cannot hold it
    # b, the bits of the last row that can be nonzero: every sum of parts is
    # a multiple of the gcd of the part values, 1 if a run holds two or more.
    step = gcd(*(first if first == last else 1 for first, last, _ in alphabet.runs))
    bits = count_compositions(max(n_max, 0) // step * step, alphabet).bit_length()
    # Rows of up to b bits cost about b^2 units a row more as ints (str() is
    # quadratic below 3.12's cutoff) than as Decimals, which cost 1.5e6 more
    # per division by D, and 6.3e9 (2.2 ms) for the import: fitted on 3.11 by
    # scripts/bench_kernels.py --suite serialize.
    if n_max * (bits * bits - 1_500_000 * ((k or 0) + 1)) > 6_300_000_000:
        import decimal  # exact: any rounding raises, so no digit can be wrong
        with decimal.localcontext(decimal.Context(
                prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])):
            values = weak_counts(n_max, k or 0, alphabet, one=decimal.Decimal(1))
    else:
        values = weak_counts(n_max, k or 0, alphabet)
    sep = " " if args["bfile"] else "," if k is None else f",{k},"
    if not args["bfile"]:
        yield "n,count" if k is None else "n,k,count"
    for n, value in enumerate(values[1:], start=1):
        # str(): a Decimal formats at half its speed, and -0 (a Decimal
        # zero times a negative lag of D) prints as 0.
        yield f"{n}{sep}{(value or 0)!s}"


def cmd_help(args):
    yield f"{usage()}\n\n{__doc__.strip()}"


# command: (handler, positional ints, options, options of which at most
# one may be given). An option's spec is its kind and its default: a
# tuple of choices, the first the default; False, a flag; a str, a
# string; an int or None, an int that is None when absent; REQUIRED, an
# int that must be given.
REQUIRED = object()
ALPHABET = {"alphabet": "all"}
COMMANDS = {
    "count": (cmd_count, ("n",), {**ALPHABET, "method": ("recurrence", "det", "brute")}, ()),
    "weak": (cmd_weak, ("n", "k"), {**ALPHABET, "method": ("conv", "minors", "closed", "brute")},
             ()),
    "matrix": (cmd_matrix, ("n",), {**ALPHABET, "print": False, "det": False, "charpoly": False,
                                    "minorsum": None}, ("print", "det", "charpoly", "minorsum")),
    "verify": (cmd_verify, (), {"identity": ("all", *IDENTITY_NAMES), "max-n": 8, "max-k": 3,
                                "json": False}, ()),
    "table": (cmd_table, (), {**ALPHABET, "n-max": REQUIRED, "k": None, "bfile": False}, ()),
}


def usage(command=None) -> str:
    """The usage line of ``command``, or of every command, from COMMANDS."""
    lines = []
    for name in [command] if command else COMMANDS:
        _, positionals, options, _ = COMMANDS[name]
        words = [name, *(p.upper() for p in positionals)]
        for option, spec in options.items():
            if isinstance(spec, tuple):
                word = f"--{option} {{{','.join(spec)}}}"
            elif spec is False:
                word = f"--{option}"
            else:
                word = f"--{option} {option.upper().replace('-', '_')}"
            words.append(word if spec is REQUIRED else f"[{word}]")
        lines.append(f"usage: compcount {' '.join(words)}")
    return "\n".join(lines)


def _int(text, what, command) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DomainError(f"{what}: invalid int {text!r}\n{usage(command)}") from None
    if value > sys.maxsize:  # every int argument sizes work: refused before any runs
        raise GuardExceeded(f"too large for this machine: {what}={value}")
    return value


def parse_args(argv):
    """(handler, args) for ``argv`` by the COMMANDS table, args mapping
    each positional and option name to its value. A usage error is a
    DomainError that names the offending token, then the usage."""
    if not argv:
        raise DomainError(f"no command given\n{usage()}")
    if any(token in ("-h", "--help") for token in argv):
        return cmd_help, {}
    command, *tokens = argv
    if command not in COMMANDS:
        raise DomainError(f"unknown command {command!r}\n{usage()}")
    handler, positionals, options, exclusive = COMMANDS[command]
    args = {name: spec[0] if isinstance(spec, tuple) else spec for name, spec in options.items()}
    words = []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("--"):
            words.append(token)
            continue
        name, has_value, value = token[2:].partition("=")
        if name not in options:
            raise DomainError(f"unknown option {token!r}\n{usage(command)}")
        spec = options[name]
        if spec is False:
            if has_value:
                raise DomainError(f"flag --{name} takes no value: {token!r}\n{usage(command)}")
            value = True
        elif not has_value:
            value = next(tokens, "--")
            if value.startswith("--"):  # the next option, or the end
                raise DomainError(f"option {token!r} needs a value\n{usage(command)}")
        if isinstance(spec, tuple) and value not in spec:
            raise DomainError(f"--{name}: invalid choice {value!r} (choose from"
                              f" {', '.join(spec)})\n{usage(command)}")
        if spec is not False and not isinstance(spec, (tuple, str)):
            value = _int(value, f"--{name}", command)
        args[name] = value
    clash = [f"--{name}" for name in exclusive if args[name] != options[name]]
    if len(clash) > 1:
        raise DomainError(f"{' and '.join(clash)} exclude each other\n{usage(command)}")
    if len(words) != len(positionals):
        raise DomainError(f"{command} takes {len(positionals)} positional int(s), got {words}"
                          f"\n{usage(command)}")
    for name, word in zip(positionals, words):
        args[name] = _int(word, name.upper(), command)
    for name, value in args.items():
        if value is REQUIRED:
            raise DomainError(f"option --{name} is required\n{usage(command)}")
    for name, spec in options.items():
        if isinstance(spec, str):  # the only str option is an alphabet
            args[name] = parse_alphabet(args[name])
    return handler, args


# A handler yields its output lines (ints or strs) and prints nothing. It
# makes every check and computes before its first yield, so a refusal
# prints nothing; only verify yields before it raises, its Disagreement
# after its last report. main prints each line, and turns an error class
# into its exit_code; a size the machine cannot hold is a guard violation.
def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # counts print in full
        sys.set_int_max_str_digits(0)
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        for line in handler(args):
            sys.stdout.write(f"{line}\n")
    except (CompCountError, MemoryError, OverflowError) as exc:
        if not isinstance(exc, CompCountError):
            exc = GuardExceeded(f"too large for this machine: {exc!r}")
        sys.stdout.flush()  # stdout is block-buffered: the reports come first
        print(f"compcount: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def run():
    if sys.stdout is None:  # fd 1 closed (`compcount count 5 >&-`): print to nowhere
        sys.stdout = open(os.devnull, "w")
    # Blocks, not a write per line, whatever PYTHONUNBUFFERED says.
    sys.stdout.reconfigure(line_buffering=False, write_through=False)
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # The reader closed stdout (`compcount table ... | head`): what it
        # read is all it wanted, so this is success, not an error.
        code = 0
    os._exit(code)  # skips the interpreter's teardown, so no atexit hook runs
