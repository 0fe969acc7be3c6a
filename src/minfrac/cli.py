"""Command-line front end.

Subcommands:
    repr       minimum fraction and a sqrt(M)-bounded witness for one residue
    enumerate  full per-class representation lists
    trace      the descent pair sequence with determinants
    table      minimum fractions for x = 1..M-1, read off one sieve
    verify     invariant sweeps over a modulus range

Exit codes are part of the contract: _EXIT_CODES, the epilog of --help, lists
them.  A stdout closed at start-up runs no command and writes no help: it exits
141, or 2 for a usage error.  A closed stderr changes no exit code: the lines
meant for it are dropped, a usage error's included.

`table --cross-check` holds every sieve entry to two independent routes,
the per-x run-length descent and the brute-force oracle.

Integer arguments accept decimal or 0x-prefixed hex, so cryptographic-scale
moduli paste in directly; a negative hex value is written `--x=-0x5`, since
argparse reads the `-0x5` of `--x -0x5` as an option.  JSON output for
identical inputs is identical across runs (no timestamps or durations).

Start-up is most of a short call, so each subcommand imports only what it
runs.  One table, _COMMANDS, states every command's options: _parse reads a
plain command line off it, and argparse, with the gettext and locale it loads,
is imported only for the rest: help, a usage error, or a reading such as an
abbreviated option that argparse alone makes.  `repr`, `trace` and `table`
load the descent, the minimality module and the ceiling gate of the errors
module.  The oracle is loaded only by `enumerate`, `table --cross-check` and
`verify` (the harness scans with its `prefix_scan`), the harness only by
`verify`, and `json` only by `verify --format json`.  The oracle's
`enumerate_class` and `brute_minimum` and the harness's `SweepConfig` and
`run_checks` are still attributes of this module: they resolve on first access
through the package's lazy loader, `minfrac.__getattr__`, so `-X importtime`
shows each load.  Every listing streams: one writer prints `repr` JSON,
`enumerate`, `trace` and `table` entry by entry, so memory is flat in M.
The end of a process costs too: the interpreter's teardown takes several ms, so
`python -m minfrac.cli` and the `minfrac` script end through run(), which
skips it unless a tracer, profiler or debugger is attached.  main() is the
in-process entry point and never ends the process; --help, a usage error and a
command all leave it through one flush of stdout, where a broken pipe is 141.
"""

import atexit
import os
import sys
from itertools import chain, islice, starmap
from types import SimpleNamespace

from . import CHECK_NAMES
# run_descent is not called here: the benchmark's traced run wraps it by name.
from .descent import descent_runs, descent_steps, run_descent  # noqa: F401
from .errors import (
    DEFAULT_ENUMERATION_CEILING, CeilingExceeded, InvariantError, check_ceiling,
    check_minimum_ceiling,
)
from .minimality import minimum_fraction, minimum_table, sqrt_bound_witness
from .residues import Residue, check_modulus

# Oracle and harness names reachable as attributes of this module: only the
# subcommands that call them load them, through the package's own loader.
# They are looked up on _THIS, so a wrapper set onto this module (as the
# benchmark's traced run sets one) is the one that runs.
_LAZY = {"brute_minimum", "enumerate_class", "SweepConfig", "run_checks"}
_THIS = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


_EXIT_CODES = """\
exit codes:
  0  success
  1  counterexample found (verify, table --cross-check)
  2  usage error
  3  internal invariant failure
  4  ceiling exceeded: brute-force scan, trace length or table size
     (see --ceiling-override / MINFRAC_CEILING)
  141  stdout closed before all output was written (as by `| head`)
"""


def _int_arg(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        import argparse

        # CPython converts at most sys.get_int_max_str_digits() decimal digits
        # (4300 by default, 0 for no limit; 3.10.7 added the limit).
        digits = text.strip().lstrip("+-").replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise argparse.ArgumentTypeError(
                f"{len(digits)} decimal digits exceed Python's limit of {limit} digits for "
                "converting a string to an integer (PYTHONINTMAXSTRDIGITS sets the limit)")
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _ratio(n: int, d: int) -> str:
    """A fraction as text; d = 1 prints as a plain integer."""
    return str(n) if d == 1 else f"{n}/{d}"


# One fraction, and one trace pair, as json.dumps(indent=2) lays out a list entry.
_FRACTION_ENTRY = """\
    {
      "n": %d,
      "d": %d
    }"""

_TRACE_ENTRY = """\
    {
      "neg": {
        "n": %d,
        "d": %d
      },
      "pos": {
        "n": %d,
        "d": %d
      },
      "det": %d,
      "replaced": %s
    }"""

_TRACE_LINE = "(%d/%d, %d/%d) det=%d%s"

# descent_steps' replaced side (None for the first pair) to the token each format writes.
_REPLACED = {
    "json": {None: "null", "negative": '"negative"', "positive": '"positive"'},
    "text": {None: "", "negative": " replaced=negative", "positive": " replaced=positive"},
}


def _write_listing(fmt, scalars, lists, entry, item, sep=", "):
    """Write top-level scalars (ints, plain words) and named lists of tuples.

    JSON is json.dumps(payload, indent=2)'s layout with entry(*t) per list entry;
    no list may be empty.  Text has no scalars: each list is its item(*t) joined
    by sep, then a newline, "key: " first if there are several.  Items go out
    1024 per write: one per item is slow, one per list holds it all in memory.
    An entry or item may instead be a %-template over a tuple's fields (ints,
    and a trace pair's replaced-side token), so that a batch is one template
    applied to all of its fields at once.
    """
    write = sys.stdout.write
    if fmt == "json":
        write("{\n" + "".join(f'  "{k}": "{v}",\n' if isinstance(v, str) else f'  "{k}": {v},\n'
                              for k, v in scalars.items()))
        heads = [f'  "{k}": [\n' for k in lists]
        tails = ["\n  ],\n"] * (len(lists) - 1) + ["\n  ]\n}\n"]
        item, sep = entry, ",\n"
    else:
        heads = [f"{k}: " if len(lists) > 1 else "" for k in lists]
        tails = ["\n"] * len(lists)
    for head, items, tail in zip(heads, lists.values(), tails):
        write(head)
        items, joint = iter(items), ""
        while batch := list(islice(items, 1024)):
            if isinstance(item, str):
                text = sep.join([item] * len(batch)) % tuple(chain.from_iterable(batch))
            else:
                text = sep.join(starmap(item, batch))
            write(joint + text)
            joint = sep
        write(tail)


def _to_stderr(line: str) -> None:
    """Write one line to stderr, or drop it if stderr is closed."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _reduce_x(x: int, m: int) -> int:
    check_modulus(m)
    if 0 <= x < m:
        return x
    reduced = x % m
    _to_stderr(f"note: x = {x} reduced to {reduced} (mod {m})")
    return reduced


def _cmd_repr(args) -> int:
    m = args.modulus
    r = Residue(_reduce_x(args.x, m), m)
    minimum = minimum_fraction(r)
    witness = sqrt_bound_witness(r)
    if args.format == "json":
        fractions = {"fractions": [(f.n, f.d) for f in (minimum, witness)]}
        _write_listing("json", {"modulus": m, "x": r.x}, fractions, _FRACTION_ENTRY, None)
    else:
        print(_ratio(minimum.n, minimum.d))
        print(f"witness: {_ratio(witness.n, witness.d)}")
    return 0


def _cmd_enumerate(args) -> int:
    m = args.modulus
    r = Residue(_reduce_x(args.x, m), m)
    # Both streams are built, and so both gated, before anything is written.
    lists = {c: _THIS.enumerate_class(r, c, args.ceiling_override)
             for c in ("positive", "negative")}
    if args.residue_class != "both":
        lists = {"fractions": lists[args.residue_class]}
    _write_listing(args.format, {"modulus": m, "x": r.x, "class": args.residue_class}, lists,
                   _FRACTION_ENTRY, "%d/%d")
    return 0


def _cmd_trace(args) -> int:
    m = args.modulus
    x = _reduce_x(args.x, m)
    # The trace is linear in steps, which can be of order M: count its pairs
    # from the runs first and refuse a trace too long to print.
    pairs = 1 + sum(k for *_, k in descent_runs(x, m))
    check_ceiling(pairs, args.ceiling_override, DEFAULT_ENUMERATION_CEILING, "trace: pair count")
    replaced = _REPLACED[args.format]
    steps = ((nn, nd, pn, pd, pn * nd - nn * pd, replaced[rep])
             for nn, nd, pn, pd, rep in descent_steps(x, m))
    _write_listing(args.format, {"modulus": m, "x": x}, {"trace": steps},
                   _TRACE_ENTRY, _TRACE_LINE, sep="\n")
    return 0


def _cmd_table(args) -> int:
    m = args.modulus
    check_modulus(m)
    check_ceiling(m - 1, args.ceiling_override, DEFAULT_ENUMERATION_CEILING, "table: entry count")
    if args.cross_check:  # the brute scan's gate, held before the sieve is built
        check_minimum_ceiling(m, args.ceiling_override)
    numerators, denominators = minimum_table(m)
    if args.cross_check:
        brute_minimum = _THIS.brute_minimum
        for x in range(1, m):
            n, d = numerators[x], denominators[x]
            if (x * d - n) % m:
                raise InvariantError(f"table entry {n}/{d} does not represent {x} mod {m}")
            r = Residue(x, m)
            descent = minimum_fraction(r)
            expected = brute_minimum(r, ceiling=args.ceiling_override)
            if not (n, d) == (descent.n, descent.d) == (expected.n, expected.d):
                _to_stderr(f"cross-check failed at x={x}: table has {n}/{d}, "
                           f"oracle says {expected}, descent says {descent}")
                return 1
    # x = 0 is the sieve's first entry, 0/1; the table lists x = 1..M-1.
    fractions = zip(islice(numerators, 1, None), islice(denominators, 1, None))
    _write_listing(args.format, {"modulus": m}, {"fractions": fractions},
                   _FRACTION_ENTRY, _ratio)
    return 0


def _cmd_verify(args) -> int:
    if args.checks == "all":
        checks = CHECK_NAMES
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    config = _THIS.SweepConfig(
        m_min=args.m_min, m_max=args.m_max, checks=checks, parallelism=args.workers,
        seed=args.seed, ceiling=args.ceiling_override, random_pairs_per_m=args.random_pairs)
    reports = _THIS.run_checks(config)
    if args.format == "json":
        import json

        print(json.dumps({"report": [r.to_dict() for r in reports]}, indent=2))
    else:
        for r in reports:
            print(r.summary())
            for c in r.counterexamples:
                print(f"  counterexample m={c.m} x={c.x}: {c.detail} (replay: {c.replay})")
            for a in r.anomalies:
                print(f"  anomaly m={a.m} x={a.x}: {a.detail}")
            if r.anomaly_count > len(r.anomalies):
                print(f"  ... {r.anomaly_count - len(r.anomalies)} more anomalies")
    return 0 if all(r.ok for r in reports) else 1


_MODULUS = ("--modulus", "-m"), {"type": _int_arg, "required": True, "help": "modulus M >= 2"}
_X = ("--x",), {"type": _int_arg, "required": True,
                "help": "residue; reduced mod M with a notice if out of range"}
_FORMAT = ("--format",), {"choices": ("text", "json"), "default": "text"}
_CEILING = ("--ceiling-override",), {"type": _int_arg, "default": None}

# Every command: its help, its handler and its options, each as the flags and keywords of
# its add_argument call, in the order --help lists them.  build_parser and _parse both read
# it, so a store_true option states its default, False.
_COMMANDS = {
    "repr": ("minimum fraction and sqrt(M)-bounded witness for x", _cmd_repr,
             [_MODULUS, _X, _FORMAT]),
    "enumerate": ("list every representation of x, per class", _cmd_enumerate, [
        _MODULUS, _X, _FORMAT,
        (("--class",), {"dest": "residue_class", "choices": ("positive", "negative", "both"),
                        "default": "both"}),
        (("--ceiling-override",), {
            "type": _int_arg, "default": None,
            "help": "raise/lower the enumeration ceiling for this run"})]),
    "trace": ("print the full descent pair sequence", _cmd_trace, [
        _MODULUS, _X, _FORMAT,
        (("--ceiling-override",), {
            "type": _int_arg, "default": None,
            "help": "raise/lower the ceiling on the number of pairs printed"})]),
    "table": ("minimum fractions for x = 1..M-1", _cmd_table, [
        _MODULUS, _FORMAT,
        (("--cross-check",), {"action": "store_true", "default": False, "help": "check every "
                              "entry against per-x descent and the brute-force oracle"}),
        _CEILING]),
    "verify": ("run invariant sweeps over a modulus range", _cmd_verify, [
        (("--m-min",), {"type": _int_arg, "required": True}),
        (("--m-max",), {"type": _int_arg, "required": True}),
        (("--checks",), {"default": "all",
                         "help": f"comma-separated subset of {', '.join(CHECK_NAMES)}; or 'all'"}),
        (("--workers",), {"type": _int_arg, "default": 1}),
        (("--seed",), {"type": _int_arg, "default": 0}),
        (("--random-pairs",), {"type": _int_arg, "default": 0,
                               "help": "extra random pairs per modulus for the agreement check"}),
        _CEILING, _FORMAT]),
}


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Help goes to file, else to stdout unless it is closed (argparse would pick stderr).
        # A write's error is not caught: main maps a broken pipe to 141.
        def print_help(self, file=None) -> None:
            file = file or sys.stdout
            if file is not None:
                file.write(self.format_help())

        # A usage error goes to stderr, or nowhere if it is closed, and exits 2
        # (argparse would write the usage to stdout, and on 3.10 exit 1).
        def error(self, message: str):
            _to_stderr(f"{self.format_usage()}{self.prog}: error: {message}")
            raise SystemExit(2)

    parser = _Parser(
        prog="minfrac",
        description="Minimal fractional representations of residues modulo M.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, func, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        for flags, keywords in options:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse(argv: list[str]):
    """build_parser().parse_args(argv)'s namespace for a plain command line, else None.

    Plain is a command, then options each given once by an exact flag, with a value (where
    one is taken) that does not start with "-" and that the option's type and choices accept,
    every required option among them.  Anything else is argparse's to read: help, an
    abbreviation, --opt=value, a repeat, a negative value and every usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    args, by_flag, required = {"command": argv[0], "func": func}, {}, set()
    for flags, keywords in options:
        dest = keywords.get("dest", flags[0][2:].replace("-", "_"))
        args[dest] = keywords.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
        if keywords.get("required"):
            required.add(dest)
    given, tokens = set(), iter(argv[1:])
    for flag in tokens:
        dest, keywords = by_flag.get(flag, (None, {}))
        if dest is None or dest in given:
            return None
        given.add(dest)
        if keywords.get("action") == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")  # no value left reads as one that starts with "-"
        if value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except Exception:  # argparse's ArgumentTypeError; argparse words the error
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = value
    return SimpleNamespace(**args) if required <= given else None


# The exit code of each error a command reports as `error: ...` on stderr.
_ERROR_EXITS = {ValueError: 2, CeilingExceeded: 4, InvariantError: 3}


def main(argv: list[str] | None = None) -> int:
    closed = sys.stdout is None  # closed at start-up: no command runs, no help is written
    try:
        try:
            args = (_parse(sys.argv[1:] if argv is None else argv)
                    or build_parser().parse_args(argv))
        except SystemExit as exc:  # --help exits 0, a usage error 2
            code = exc.code
        else:
            code = 0 if closed else args.func(args)
        if closed:
            return code or 141
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Silence the interpreter's final flush of what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(_ERROR_EXITS) as exc:
        _to_stderr(f"error: {exc}")
        return next(code for kind, code in _ERROR_EXITS.items() if isinstance(exc, kind))


def _watched() -> bool:
    """Whether a tracer, profiler or debugger is attached to this process."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: tool ids 0..5
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or "bdb" in sys.modules  # pdb and other bdb debuggers, even with no hook set
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def run():
    """The process entry point: `python -m minfrac.cli` and the `minfrac` script.

    Runs main() and ends the process with its exit code; never returns.  Once
    main() returns, the output is written, a verify pool is joined and no
    thread is left, so the interpreter's teardown has nothing to finish: run()
    runs the atexit handlers, flushes stdout and stderr and calls os._exit.
    It raises SystemExit, as a plain exit does, when a tracer, profiler or
    debugger is attached (so it sees the exit) or a stream fails to flush.
    """
    code = main()
    if not _watched():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):
            pass  # a stream that is None (closed at start-up), failing or closed
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
