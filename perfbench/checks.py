"""Output checks that do not trust minfrac's fast path.

Each check re-derives what it needs from the definitions with plain integer
arithmetic: n/d represents x mod M when x*d = n (mod M).  A check returns
None for a good output and a one-line reason otherwise; every reason counts
as a failed operation.
"""

from __future__ import annotations

import json
import math
from typing import Callable

from workloads import Call


def _key(n: int, d: int) -> tuple[int, int, int]:
    """The minimum-fraction order: max coefficient, then d, then positive first."""
    return (max(abs(n), d), d, 0 if n >= 0 else 1)


def _represents(x: int, m: int, n: int, d: int) -> bool:
    return (x * d - n) % m == 0


def _parse_fraction(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def check_repr(call: Call, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 2 or not lines[1].startswith("witness: "):
        return f"repr output has unexpected shape: {out[:80]!r}"
    minimum = _parse_fraction(lines[0])
    witness = _parse_fraction(lines[1][len("witness: "):])
    for label, (n, d) in (("minimum", minimum), ("witness", witness)):
        if d < 1 or not _represents(call.x, call.m, n, d):
            return f"{label} {n}/{d} does not represent x"
    n, d = witness
    if n * n > call.m or d * d > call.m:
        return f"witness {n}/{d} exceeds the sqrt(M) bound"
    if _key(*minimum) > _key(*witness):
        return "minimum orders after the witness"
    return None


def check_trace(call: Call, out: str) -> str | None:
    doc = json.loads(out)
    trace = doc["trace"]
    m, x = call.m, call.x
    if (doc["modulus"], doc["x"]) != (m, x):
        return "trace echoes the wrong input"
    if len(trace) - 1 != call.steps:
        return f"trace has {len(trace) - 1} steps, Euclid says {call.steps}"
    first = trace[0]
    if (first["neg"], first["pos"], first["replaced"]) != ({"n": -m, "d": 0}, {"n": x, "d": 1}, None):
        return "trace does not start at (-M/0, x/1)"
    for i, pair in enumerate(trace):
        nn, nd = pair["neg"]["n"], pair["neg"]["d"]
        pn, pd = pair["pos"]["n"], pair["pos"]["d"]
        if pair["det"] != m or pn * nd - nn * pd != m:
            return f"pair {i} has determinant {pair['det']}, expected M"
        if not (_represents(x, m, nn, nd) and _represents(x, m, pn, pd)):
            return f"pair {i} does not represent x"
        if i and pair["replaced"] not in ("negative", "positive"):
            return f"pair {i} has replaced={pair['replaced']!r}"
    if trace[-1]["pos"]["n"] != 0:
        return "walk does not end at pos.n = 0"
    return None


def check_table(call: Call, out: str, samples: dict[int, tuple[int, int]]) -> str | None:
    """Every entry is a sqrt(M)-bounded representation; samples match the oracle."""
    doc = json.loads(out)
    m = call.m
    fractions = doc["fractions"]
    if doc["modulus"] != m or len(fractions) != m - 1:
        return "table has the wrong modulus or length"
    bound = math.isqrt(m)
    for x, f in enumerate(fractions, start=1):
        n, d = f["n"], f["d"]
        if d < 1 or not _represents(x, m, n, d) or max(abs(n), d) > bound:
            return f"entry for x={x} is {n}/{d}"
    for x, expected in samples.items():
        got = fractions[x - 1]
        if (got["n"], got["d"]) != expected:
            return f"entry for x={x} is {got['n']}/{got['d']}, oracle says {expected}"
    return None


def check_verify(call: Call, out: str, expected: dict[str, int]) -> str | None:
    report = json.loads(out)["report"]
    if [r["check"] for r in report] != list(expected):
        return "verify reports the wrong checks"
    for r in report:
        if r["fail"] or r["counterexamples"]:
            return f"{r['check']} reports {r['fail']} failures"
        if r["pass"] != expected[r["check"]]:
            return f"{r['check']} passes {r['pass']}, expected {expected[r['check']]}"
    return None


def verdict(call: Call, returncode: int, out: str, check: Callable[[Call, str], str | None]) -> str | None:
    """Why one call failed, or None: a nonzero exit or a failed output check."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return check(call, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
