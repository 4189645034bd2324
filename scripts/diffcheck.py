#!/usr/bin/env python3
"""Differential replay of the CLI: a git revision's tree against this checkout's.

    python scripts/diffcheck.py REV [--count N]

REV's src/compcount and the working tree's are loaded side by side by
two_trees.py (beside this script). Each argv is passed to each tree's
``cli.main`` in-process, with stdout and stderr swapped for
``io.StringIO`` and COMPCOUNT_GUARD unset, and the two trees must give
the same exit code, the same stdout and the same first line of stderr.
At the first argv where they differ, the script prints that argv (as a
JSON list) and both sides, and exits 1. Otherwise it prints one
``diffcheck:`` line with the counts and exits 0. An unknown REV, or no
git checkout, is a usage error (exit 2).

The argv are every golden case (tests/data/golden_cli.json) first, then N
(default 2000) drawn by ``random.Random(0)`` from the working tree's
COMMANDS table, so a run can be replayed exactly:
- every command and option, in ``--opt=value`` and ``--opt value`` forms,
  with repeats, clashes of matrix's modes, unknown options, missing values
  and --help;
- the ints 0, 1, -1, sys.maxsize and sys.maxsize + 1, and malformed ints;
- alphabet specs of the mini-grammar, whose runs start past n, end at n,
  cross n or lie below it, and malformed specs such as ``1x0``, ``3,2``,
  ``upto:0`` and ``,,``.

Sizes stay cheap: n <= 60 and k <= 10, brute requests with n + k <= 16
(or refused, n or k above the working tree's enumeration.DEFAULT_GUARD,
loaded beside its cli and errors), verify grids with
max-n <= 8 and max-k <= 3, and matrix --minorsum at any order, which is
refused past order 22. A drawn argv that the working tree parses to a
larger request is drawn again. Out of scope: signals, closed file
descriptors and the environment, which the tier-1 process tests cover.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_cli.json"
EDGE_INTS = (0, 1, -1, sys.maxsize, sys.maxsize + 1)
BAD_INTS = ("x", "1.5", "", "1e3", "0x10")
BAD_SPECS = ("1x0", "3,2", "upto:0", ",,", "", "x", "1x", "0", "1,1", "upto:x", "upto:-1",
             "atleast:0", "2,7x3,5", "1x-2", "1,,2")
# The largest cheap value of each int; brute requests are cut further below.
LIMITS = {"n": 60, "k": 10, "n-max": 60, "max-n": 8, "max-k": 3}


def outcome(cli, argv):
    """(exit code, stdout, first line of stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue().partition("\n")[0]


def draw_int(rng, bound):
    roll = rng.random()
    if roll < 0.12:
        return str(rng.choice(EDGE_INTS))
    if roll < 0.15:
        return rng.choice(BAD_INTS)
    return str(rng.randint(0, bound))


def draw_spec(rng, n):
    """An alphabet spec whose runs meet n in each way, or a malformed one."""
    near = [max(1, n + shift) for shift in (-2, -1, 0, 1, 2)]
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(BAD_SPECS)
    if roll < 0.15:
        return "all"
    if roll < 0.45:
        bound = rng.choice(near + [1, 2, 3, rng.randint(1, 70), 10**9, sys.maxsize,
                                   sys.maxsize + 1])
        return f"{rng.choice(('upto', 'atleast'))}:{bound}"
    tokens, value = [], rng.choice([1, 1, 2, *near])
    while len(tokens) < 6 and (not tokens or rng.random() < 0.6):
        colors = rng.choice((1, 1, 2, 3))
        for v in range(value, value + rng.randint(1, 5)):  # a run of one color count
            tokens.append(f"{v}x{colors}" if colors > 1 or rng.random() < 0.1 else str(v))
        value = v + rng.randint(1, 3)
    return ",".join(tokens)


def draw_option(rng, name, spec, n):
    """The tokens of one option: a valid value mostly, else a bad one."""
    flag = f"--{name}"
    if spec is False:
        return [f"{flag}=1"] if rng.random() < 0.05 else [flag]
    if isinstance(spec, tuple):
        value = rng.choice(spec) if rng.random() < 0.93 else "nope"
    elif isinstance(spec, str):
        value = draw_spec(rng, n)
    else:
        value = draw_int(rng, n + 1 if name == "minorsum" else LIMITS[name])
    roll = rng.random()
    if roll < 0.03:
        return [flag]  # a missing value: at the end, or before the next option
    return [f"{flag}={value}"] if roll < 0.5 else [flag, value]


def draw(rng, cli):
    """One argv for the COMMANDS table of ``cli``: its required options
    mostly given, and at most one of its exclusive options but for a clash
    now and then."""
    if rng.random() < 0.02:
        return rng.choice([[], ["nope"], ["-h"], ["--help"], ["count", "--help"],
                           ["weak", "1"], ["matrix", "1", "2"], ["count", "--nope", "3"]])
    command = rng.choice(list(cli.COMMANDS))
    _, positionals, options, exclusive = cli.COMMANDS[command]
    brute = "brute" in options.get("method", ()) and rng.random() < 0.3
    n = rng.randint(0, 12 if brute else 30 if command == "matrix" else 60)
    free = [name for name in options if name not in exclusive]
    names = rng.sample(free, rng.randint(0, len(free)))
    names += [name for name in free if options[name] is cli.REQUIRED and name not in names
              and rng.random() < 0.95]
    if exclusive:
        names += rng.sample(exclusive, 2 if rng.random() < 0.1 else rng.randint(0, 1))
    rng.shuffle(names)
    groups = []
    for name in names:
        groups.append(draw_option(rng, name, options[name], n))
        if rng.random() < 0.1:  # a repeat: the last value is kept
            groups.append(draw_option(rng, name, options[name], n))
    if rng.random() < 0.03:
        groups.append([rng.choice(("--nope", "--alphabet", "--k=1", "-x"))])
    if brute:  # last, so no drawn --method overrides it
        groups.append(rng.choice((["--method", "brute"], ["--method=brute"])))
    words = [str(n) if not position and rng.random() < 0.7 else
             draw_int(rng, (4 if brute else LIMITS[name]) if position else n)
             for position, name in enumerate(positionals)]
    if rng.random() < 0.03:
        words = words[:-1] if words and rng.random() < 0.5 else words + ["1"]
    for word in words:  # the positionals go anywhere between the options
        groups.insert(rng.randint(0, len(groups)), [word])
    return [command] + [token for group in groups for token in group]


def cheap(parse, refusal, guard, argv) -> bool:
    """Whether the working tree refuses ``argv`` as it parses it, or parses
    it to a request within the sizes above; brute requests past ``guard``
    are refused."""
    try:
        _, args = parse(argv)
    except refusal:
        return True
    if args.get("minorsum") is not None:
        return True
    if args.get("method") == "brute":
        n, k = args["n"], args.get("k", 0)
        return min(n, k) < 0 or n + k <= 16 or max(n, k) > guard
    return all(args[name] is None or args[name] <= bound
               for name, bound in LIMITS.items() if name in args)


def argvs(count, tree_cli, refusal, guard):
    """Every golden argv, then ``count`` cheap draws by random.Random(0)."""
    yield from (case["argv"] for case in json.loads(GOLDEN.read_text()))
    rng = random.Random(0)
    for _ in range(count):
        argv = draw(rng, tree_cli)
        while not cheap(tree_cli.parse_args, refusal, guard, argv):
            argv = draw(rng, tree_cli)
        yield argv


def replay(rev, pair, count) -> int:
    """0 if both trees give the same outcome on every argv, else 1."""
    rev_cli, tree_cli = (importlib.import_module(f"{p.__name__}.cli") for p in pair)
    refusal = importlib.import_module(f"{pair[1].__name__}.errors").CompCountError
    guard = importlib.import_module(f"{pair[1].__name__}.enumeration").DEFAULT_GUARD
    exits = Counter()
    for argv in argvs(count, tree_cli, refusal, guard):
        rev_side, tree_side = outcome(rev_cli, argv), outcome(tree_cli, argv)
        if rev_side != tree_side:
            print(f"diffcheck: {json.dumps(argv)} differs")
            for label, (code, out, err) in ((rev, rev_side), ("tree", tree_side)):
                print(f"  {label}: exit {code}; stderr {err!r}; stdout {out!r}")
            return 1
        exits[rev_side[0]] += 1
    total = sum(exits.values())
    print(f"diffcheck: {rev} and the working tree agree on {total} argv"
          f" ({total - count} goldens, {count} drawn with seed 0); exit codes "
          + ", ".join(f"{code}: {exits[code]}" for code in sorted(exits)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", metavar="REV", help="the git revision to compare against")
    parser.add_argument("--count", type=int, default=2000, help="argv to draw (default 2000)")
    args = parser.parse_args(argv)
    import two_trees  # beside this script

    guard = os.environ.pop("COMPCOUNT_GUARD", None)
    try:
        with two_trees.trees(args.rev) as pair:
            return replay(args.rev, pair, args.count)
    except two_trees.ExportError as exc:
        parser.error(str(exc))
    finally:
        if guard is not None:
            os.environ["COMPCOUNT_GUARD"] = guard


if __name__ == "__main__":
    sys.exit(main())
