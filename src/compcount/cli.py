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


def cmd_count(args) -> int:
    alphabet = parse_alphabet(args["alphabet"])
    if args["method"] == "recurrence":
        from .recurrence import count_compositions
        value = count_compositions(args["n"], alphabet)
    elif args["method"] == "det":
        from .hessenberg import build_matrix, det_hessenberg
        value = det_hessenberg(build_matrix(alphabet, args["n"]))
    else:
        from .enumeration import count_compositions_brute
        value = count_compositions_brute(args["n"], alphabet)
    print(value)
    return EXIT_OK


def cmd_weak(args) -> int:
    alphabet = parse_alphabet(args["alphabet"])
    if args["method"] == "conv":
        from .weakforms import count_weak_convolution
        value = count_weak_convolution(args["n"], args["k"], alphabet)
    elif args["method"] == "minors":
        from .weakforms import count_weak_minor_sum
        value = count_weak_minor_sum(args["n"], args["k"], alphabet)
    elif args["method"] == "brute":
        from .enumeration import count_weak_brute
        value = count_weak_brute(args["n"], args["k"], alphabet)
    elif alphabet == PartAlphabet.at_least(1):  # the method is closed from here on
        from .weakforms import count_weak_unrestricted_closed
        value = count_weak_unrestricted_closed(args["n"], args["k"])
    elif alphabet == PartAlphabet.upto(2):
        from .weakforms import count_weak_parts12_closed
        value = count_weak_parts12_closed(args["n"], args["k"])
    else:
        raise UnsupportedClosedForm(f"no closed form for alphabet {alphabet};"
                                    " supported: all, upto:2")
    print(value)
    return EXIT_OK


def cmd_matrix(args) -> int:
    from .hessenberg import (
        build_matrix,
        charpoly,
        check_minor_subsets,
        det_hessenberg,
        grid_lines,
        minor_sum_subsets,
    )

    alphabet = parse_alphabet(args["alphabet"])
    if args["n"] < 1:  # order 0 is a valid band, but no grid to print
        raise DomainError(f"matrix order must be >= 1, got {args['n']}")
    if args["minorsum"] is not None:
        check_minor_subsets(args["n"], args["minorsum"])
    band = build_matrix(alphabet, args["n"])
    if args["det"]:
        print(det_hessenberg(band))
    elif args["charpoly"]:
        print(" ".join(map(str, charpoly(band))))
    elif args["minorsum"] is not None:
        print(minor_sum_subsets(band, args["minorsum"]))
    else:
        for line in grid_lines(band):
            print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .reports import to_json_dict, to_text
    from .verify import run_identity

    reports = run_identity(args["identity"], args["max-n"], args["max-k"])
    if args["json"]:
        import json
        print(json.dumps({"reports": [to_json_dict(r) for r in reports]}, indent=2))
    else:
        for report in reports:
            print(to_text(report))
    disagreements = sum(not p.agree for r in reports for p in r.points)
    if disagreements:
        print(f"{disagreements} disagreeing grid point(s) found", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_table(args) -> int:
    from .weakforms import weak_counts

    values = weak_counts(args["n-max"], args["k"] or 0, parse_alphabet(args["alphabet"]))
    rows = enumerate(values[1:], start=1)
    if args["bfile"]:
        for n, value in rows:
            print(f"{n} {value}")
    elif args["k"] is None:
        print("n,count")
        for n, value in rows:
            print(f"{n},{value}")
    else:
        print("n,k,count")
        for n, value in rows:
            print(f"{n},{args['k']},{value}")
    return EXIT_OK


def cmd_help(args) -> int:
    print(f"{usage()}\n\n{__doc__.strip()}")
    return EXIT_OK


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
        return int(text)
    except ValueError:
        raise DomainError(f"{what}: invalid int {text!r}\n{usage(command)}") from None


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
    return handler, args


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # counts print in full
        sys.set_int_max_str_digits(0)
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
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
