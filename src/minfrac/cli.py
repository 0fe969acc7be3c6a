"""Command-line front end.

Subcommands:
    repr       minimum fraction and a sqrt(M)-bounded witness for one residue
    enumerate  full per-class representation lists
    trace      the descent pair sequence with determinants
    table      minimum fractions for x = 1..M-1, read off one sieve
    verify     invariant sweeps over a modulus range

Exit codes are part of the contract: 0 success, 1 a sweep or cross-check
found a counterexample, 2 usage error, 3 internal invariant failure,
4 ceiling exceeded (a brute-force scan, or a trace or table too long to print),
141 stdout closed early (128 + SIGPIPE, what a shell reports for `yes | head -1`).

`table --cross-check` holds every sieve entry to two independent routes,
the per-x run-length descent and the brute-force oracle.

Integer arguments accept decimal or 0x-prefixed hex, so cryptographic-scale
moduli paste in directly.  JSON output for identical inputs is identical
across runs (no timestamps or durations).

Start-up is most of a short call, so each subcommand imports only what it
runs: the harness is loaded when `verify` runs (its `SweepConfig` and
`run_checks` are still attributes of this module), and `json` only by
`verify --format json`.  Every listing streams: one writer prints `repr`
JSON, `enumerate`, `trace` and `table` entry by entry, so memory is flat in M.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice, starmap

from .check_names import CHECK_NAMES
# run_descent is not called here: the benchmark's traced run wraps it by name.
from .descent import descent_runs, descent_steps, run_descent  # noqa: F401
from .errors import CeilingExceeded, InvariantError
from .minimality import minimum_fraction, minimum_table, sqrt_bound_witness
from .oracle import DEFAULT_ENUMERATION_CEILING, brute_minimum, check_ceiling, enumerate_class
from .residues import Fraction, Residue, ResidueClass, check_modulus, represents

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

# A trace pair's replaced side (None for the first pair) as each format writes it.
_REPLACED = {
    "json": {None: "null", **{c: f'"{c.value}"' for c in ResidueClass}},
    "text": {None: "", **{c: f" replaced={c.value}" for c in ResidueClass}},
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


def _reduce_x(x: int, m: int) -> int:
    check_modulus(m)
    if 0 <= x < m:
        return x
    reduced = x % m
    print(f"note: x = {x} reduced to {reduced} (mod {m})", file=sys.stderr)
    return reduced


def _cmd_repr(args: argparse.Namespace) -> int:
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


def _cmd_enumerate(args: argparse.Namespace) -> int:
    m = args.modulus
    r = Residue(_reduce_x(args.x, m), m)
    # Both streams are built, and so both gated, before anything is written.
    lists = {c.value: enumerate_class(r, c, args.ceiling_override) for c in ResidueClass}
    if args.residue_class != "both":
        lists = {"fractions": lists[args.residue_class]}
    _write_listing(args.format, {"modulus": m, "x": r.x, "class": args.residue_class}, lists,
                   _FRACTION_ENTRY, "%d/%d")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
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


def _cmd_table(args: argparse.Namespace) -> int:
    m = args.modulus
    check_modulus(m)
    check_ceiling(m - 1, args.ceiling_override, DEFAULT_ENUMERATION_CEILING, "table: entry count")
    numerators, denominators = minimum_table(m)
    if args.cross_check:
        for x in range(1, m):
            f = Fraction(numerators[x], denominators[x])
            r = Residue(x, m)
            if not represents(r, f):
                raise InvariantError(f"table entry {f} does not represent {x} mod {m}")
            descent = minimum_fraction(r)
            expected = brute_minimum(r, ceiling=args.ceiling_override)
            if not f == descent == expected:
                print(f"cross-check failed at x={x}: table has {f}, oracle says {expected}, "
                      f"descent says {descent}", file=sys.stderr)
                return 1
    # x = 0 is the sieve's first entry, 0/1; the table lists x = 1..M-1.
    fractions = zip(islice(numerators, 1, None), islice(denominators, 1, None))
    _write_listing(args.format, {"modulus": m}, {"fractions": fractions},
                   _FRACTION_ENTRY, _ratio)
    return 0


# Harness names reachable as attributes of this module; only `verify` loads them.
_HARNESS_NAMES = ("SweepConfig", "run_checks")


def __getattr__(name: str):
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness

    value = getattr(harness, name)
    globals()[name] = value
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.checks == "all":
        checks = CHECK_NAMES
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    # Looked up as module attributes, so a run_checks set onto this module
    # (as the benchmark's traced run does) is the one that runs.
    this = sys.modules[__name__]
    config = this.SweepConfig(
        m_min=args.m_min, m_max=args.m_max, checks=checks, parallelism=args.workers,
        seed=args.seed, ceiling=args.ceiling_override, random_pairs_per_m=args.random_pairs)
    reports = this.run_checks(config)
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


def _add_common(p: argparse.ArgumentParser, x: bool = True) -> None:
    p.add_argument("--modulus", "-m", type=_int_arg, required=True, help="modulus M >= 2")
    if x:
        p.add_argument("--x", type=_int_arg, required=True,
                       help="residue; reduced mod M with a notice if out of range")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minfrac",
        description="Minimal fractional representations of residues modulo M.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repr", help="minimum fraction and sqrt(M)-bounded witness for x")
    _add_common(p)
    p.set_defaults(func=_cmd_repr)

    p = sub.add_parser("enumerate", help="list every representation of x, per class")
    _add_common(p)
    p.add_argument("--class", dest="residue_class",
                   choices=("positive", "negative", "both"), default="both")
    p.add_argument("--ceiling-override", type=_int_arg, default=None,
                   help="raise/lower the enumeration ceiling for this run")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("trace", help="print the full descent pair sequence")
    _add_common(p)
    p.add_argument("--ceiling-override", type=_int_arg, default=None,
                   help="raise/lower the ceiling on the number of pairs printed")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("table", help="minimum fractions for x = 1..M-1")
    _add_common(p, x=False)
    p.add_argument("--cross-check", action="store_true",
                   help="check every entry against per-x descent and the brute-force oracle")
    p.add_argument("--ceiling-override", type=_int_arg, default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run invariant sweeps over a modulus range")
    p.add_argument("--m-min", type=_int_arg, required=True)
    p.add_argument("--m-max", type=_int_arg, required=True)
    p.add_argument("--checks", default="all",
                   help=f"comma-separated subset of {', '.join(CHECK_NAMES)}; or 'all'")
    p.add_argument("--workers", type=_int_arg, default=1)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--random-pairs", type=_int_arg, default=0,
                   help="extra random pairs per modulus for the agreement check")
    p.add_argument("--ceiling-override", type=_int_arg, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Silence the interpreter's final flush of what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
