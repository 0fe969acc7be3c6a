"""Command-line front end.

Subcommands:
    repr       minimum fraction and a sqrt(M)-bounded witness for one residue
    enumerate  full per-class representation lists
    trace      the descent pair sequence with determinants
    table      minimum fractions for x = 1..M-1, read off one sieve
    verify     invariant sweeps over a modulus range

Exit codes are part of the contract: 0 success, 1 a sweep or cross-check
found a counterexample, 2 usage error, 3 internal invariant failure,
4 ceiling exceeded (a brute-force scan, or a trace or table too long to print).

`table --cross-check` holds every sieve entry to two independent routes,
the per-x run-length descent and the brute-force oracle.

Integer arguments accept decimal or 0x-prefixed hex, so cryptographic-scale
moduli paste in directly.  JSON output for identical inputs is identical
across runs (no timestamps or durations).

Start-up is most of a short call, so each subcommand imports only what it
runs: the harness is loaded when `verify` runs (its `SweepConfig` and
`run_checks` are still attributes of this module), and `json` when a
payload is printed with `--format json`; `trace` and `table` write theirs
entry by entry without it.
"""

from __future__ import annotations

import argparse
import sys

from .check_names import CHECK_NAMES
from .descent import descent_runs, run_descent
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
"""


def _int_arg(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def render_fraction(f: Fraction, bare_units: bool = False) -> str:
    """Fraction as text; with bare_units, d = 1 prints as a plain integer."""
    if bare_units and f.d == 1:
        return str(f.n)
    return f"{f.n}/{f.d}"


# One `trace` JSON entry as json.dumps(indent=2) lays it out in the payload;
# entries are written one by one, so a long trace is never one string.
_TRACE_ENTRY = """\
    {{
      "neg": {{
        "n": {},
        "d": {}
      }},
      "pos": {{
        "n": {},
        "d": {}
      }},
      "det": {},
      "replaced": {}
    }}"""

# One `table` JSON entry, laid out the same way.
_TABLE_ENTRY = """\
    {{
      "n": {},
      "d": {}
    }}"""


def _frac_dict(f: Fraction) -> dict:
    return {"n": f.n, "d": f.d}


def _emit(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


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
        _emit({"modulus": m, "x": r.x, "fractions": [_frac_dict(minimum), _frac_dict(witness)]})
    else:
        print(render_fraction(minimum, bare_units=True))
        print(f"witness: {render_fraction(witness, bare_units=True)}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    m = args.modulus
    r = Residue(_reduce_x(args.x, m), m)
    ceiling = args.ceiling_override
    if args.residue_class == "both":
        pos = enumerate_class(r, ResidueClass.POSITIVE, ceiling)
        neg = enumerate_class(r, ResidueClass.NEGATIVE, ceiling)
        if args.format == "json":
            _emit({
                "modulus": m, "x": r.x, "class": "both",
                "positive": [_frac_dict(f) for f in pos],
                "negative": [_frac_dict(f) for f in neg],
            })
        else:
            print("positive: " + ", ".join(str(f) for f in pos))
            print("negative: " + ", ".join(str(f) for f in neg))
        return 0
    cls = ResidueClass(args.residue_class)
    fractions = enumerate_class(r, cls, ceiling)
    if args.format == "json":
        _emit({
            "modulus": m, "x": r.x, "class": cls.value,
            "fractions": [_frac_dict(f) for f in fractions],
        })
    else:
        print(", ".join(str(f) for f in fractions))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    m = args.modulus
    r = Residue(_reduce_x(args.x, m), m)
    # The trace is linear in steps, which can be of order M: count its pairs
    # from the runs first and refuse a trace too long to print.
    pairs = 1 + sum(k for *_, k in descent_runs(r.x, m))
    check_ceiling(pairs, args.ceiling_override, DEFAULT_ENUMERATION_CEILING, "trace: pair count")
    trace = run_descent(r)
    if args.format == "json":
        sys.stdout.write(f'{{\n  "modulus": {m},\n  "x": {r.x},\n  "trace": [\n')
        sep = ""
        for p, rep in zip(trace.pairs, trace.replaced):
            replaced = "null" if rep is None else f'"{rep.value}"'
            sys.stdout.write(sep + _TRACE_ENTRY.format(
                p.neg.n, p.neg.d, p.pos.n, p.pos.d, p.determinant(), replaced))
            sep = ",\n"
        sys.stdout.write("\n  ]\n}\n")
    else:
        for p, rep in zip(trace.pairs, trace.replaced):
            suffix = "" if rep is None else f" replaced={rep.value}"
            print(f"{p} det={p.determinant()}{suffix}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    m = args.modulus
    check_modulus(m)
    check_ceiling(m - 1, args.ceiling_override, DEFAULT_ENUMERATION_CEILING, "table: entry count")
    entries = minimum_table(m)
    if args.cross_check:
        for x, f in enumerate(entries, start=1):
            r = Residue(x, m)
            if not represents(r, f):
                raise InvariantError(f"table entry {f} does not represent {x} mod {m}")
            descent = minimum_fraction(r)
            expected = brute_minimum(r, ceiling=args.ceiling_override)
            if not f == descent == expected:
                print(
                    f"cross-check failed at x={x}: table has {f}, oracle says {expected}, "
                    f"descent says {descent}",
                    file=sys.stderr,
                )
                return 1
    if args.format == "json":
        sys.stdout.write(f'{{\n  "modulus": {m},\n  "fractions": [\n')
        sep = ""
        for f in entries:
            sys.stdout.write(sep + _TABLE_ENTRY.format(f.n, f.d))
            sep = ",\n"
        sys.stdout.write("\n  ]\n}\n")
    else:
        print(", ".join(render_fraction(f, bare_units=True) for f in entries))
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
        m_min=args.m_min,
        m_max=args.m_max,
        checks=checks,
        parallelism=args.workers,
        seed=args.seed,
        ceiling=args.ceiling_override,
        random_pairs_per_m=args.random_pairs,
    )
    reports = this.run_checks(config)
    if args.format == "json":
        _emit({"report": [r.to_dict() for r in reports]})
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
        return args.func(args)
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
