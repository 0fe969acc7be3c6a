"""Batch invariant sweeps over ranges of moduli.

Each check packages one theorem as an exhaustive scan over every residue of
every modulus in a range and reduces the outcome to a VerificationReport:
pass/fail counts plus replayable counterexamples.  A failure is a falsified
invariant.  Anomalies (currently only traces of more than TRACE_CAP_FACTOR
pairs per bit of M) are flagged for inspection but never fail a report,
because termination carries no stated step bound.

A check is a function of one residue, check(r, env, steps, minima), and
takes only what it reads: r is the Residue, env is what the check's
per-modulus setup built from (m, config), or None; only setups read the
SweepConfig, the one object a worker is handed.  A check returns its pass
count, one (replay subcommand, detail) pair per failure, and an anomaly's
detail or None.  _chunk_worker is the one loop over moduli and residues,
for every requested check at once, and the only place that builds
Counterexample and Anomaly records; a replay reads `minfrac trace --modulus
M --x X`, or `minfrac repr ...` for the agreement check's minimum mismatch.
Per residue it does the shared work once: r, handed to every check;
steps, the residue's step walk, a list when a check reads all of it; and
minima, the oracle's one scan of the residue, prefix_scan's (neg, pos,
(n, d)), when minimality or agreement is requested, else None.
_CHECKS gives each check's function, its setup, whether it reads the scan
(only then does run_checks hold the whole range to the pair-check ceiling,
once, before any modulus is swept; the workers call the scan ungated) and
whether it reads the whole walk.

minimum_fraction and sqrt_bound_witness walk the descent by runs; the
agreement and sqrt_bound checks compare them with scans of the step walk,
kept here as their slow twins, as well as with the oracle and the bound:
agreement takes the oracle's enumerated minimum from the same scan.  The
twins return (n, d) int tuples, as the scan returns its minimum, and the
checks compare every minimum and witness as (n, d); a failure's detail
prints each as n/d.
The agreement check also holds each modulus's minimum_table, the sieve
behind `minfrac table`, to the same minima: the sieve is two int lists,
numerators and denominators indexed by x, and its x = 0 entry (0/1) is
checked like every other.  It holds is_minimal_pair's verdict on every
trace or random pair to the oracle's, read off the prefix minima: the same
exhaustive scan of every smaller denominator that brute_pair_minimal makes,
done once per residue instead of once per pair.  Random pairs include
off-class pairs, whose numerator is off its class residue by M.
Only pair minimality is checked: it implies each side's per-class
minimality, since the pair's threshold is at least either side's magnitude.

Sweeps are embarrassingly parallel over moduli; with parallelism > 1 the
moduli are striped across a process pool of at most one worker per modulus
and per CPU this process may run on.  _merge, which the serial path calls
too, sorts the partial results into a canonical order, so a report is
deterministic for a given config no matter how the work was split.
The pool and the sampler are imported only when a sweep needs them.  The
CLI imports this module only when `verify` runs, and takes the check names
from the leaf module check_names, so no other command pays for the harness
or for `dataclasses`.  The findings, Counterexample and Anomaly, and the
VerificationReport are slotted Records like Residue and Fraction; SweepConfig
stays a dataclass, since callers derive variants of it with
dataclasses.replace.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from dataclasses import dataclass

from .check_names import CHECK_NAMES
from .descent import RawStep, descent_steps
from .errors import (
    DEFAULT_PAIR_CHECK_CEILING,
    InvariantError,
    check_pair_ceiling,
    resolve_ceiling,
)
from .minimality import is_minimal_pair, minimum_fraction, minimum_table, sqrt_bound_witness
from .oracle import prefix_scan
from .residues import Record, Residue, ResidueClass

# Not called here: the benchmark's traced run wraps these harness attributes
# by name (perfbench/tracing.py), so they stay until its spans follow the
# oracle scan.
from .descent import run_descent
from .oracle import brute_minimum, brute_pair_minimal

# The progress check flags a trace of more than this many pairs per bit of M.
TRACE_CAP_FACTOR = 10

# Reports keep at most this many anomalies; the full count is always kept.
ANOMALY_SAMPLE_CAP = 50


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: modulus range, which checks, and how to run them."""

    m_min: int
    m_max: int
    checks: tuple[str, ...] = CHECK_NAMES
    parallelism: int = 1
    seed: int = 0
    ceiling: int | None = None
    random_pairs_per_m: int = 0

    def __post_init__(self) -> None:
        if self.m_min < 2:
            raise ValueError(f"m_min must be >= 2, got {self.m_min}")
        if self.m_max < self.m_min:
            raise ValueError(f"empty modulus range [{self.m_min}, {self.m_max}]")
        if not self.checks:
            raise ValueError(f"no checks requested; known: {list(CHECK_NAMES)}")
        unknown = sorted(set(self.checks) - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; known: {list(CHECK_NAMES)}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.random_pairs_per_m < 0:
            raise ValueError("random_pairs_per_m must be >= 0")
        requested = set(self.checks)
        object.__setattr__(self, "checks", tuple(c for c in CHECK_NAMES if c in requested))


class Counterexample(Record):
    """A falsifying instance, with a CLI command that replays it."""

    __slots__ = ("m", "x", "detail", "replay")

    def __init__(self, m: int, x: int, detail: str, replay: str) -> None:
        self.m = m
        self.x = x
        self.detail = detail
        self.replay = replay


class Anomaly(Record):
    """Something worth inspecting that is not a falsified invariant."""

    __slots__ = ("m", "x", "detail")

    def __init__(self, m: int, x: int, detail: str) -> None:
        self.m = m
        self.x = x
        self.detail = detail


class VerificationReport(Record):
    """Outcome of one check over one sweep."""

    __slots__ = ("check", "passes", "counterexamples", "anomaly_count", "anomalies", "duration")

    def __init__(self, check: str, passes: int, counterexamples: tuple[Counterexample, ...],
                 anomaly_count: int = 0, anomalies: tuple[Anomaly, ...] = (),
                 duration: float = 0.0) -> None:
        self.check = check
        self.passes = passes
        self.counterexamples = counterexamples
        self.anomaly_count = anomaly_count
        self.anomalies = anomalies
        self.duration = duration

    @property
    def failures(self) -> int:
        return len(self.counterexamples)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        """Machine-readable form.

        Wall-clock duration is deliberately omitted so identical inputs
        always serialize identically.
        """
        return {
            "check": self.check,
            "pass": self.passes,
            "fail": self.failures,
            "counterexamples": [
                {"m": c.m, "x": c.x, "detail": c.detail, "replay": c.replay}
                for c in self.counterexamples
            ],
            "anomaly_count": self.anomaly_count,
            "anomalies": [{"m": a.m, "x": a.x, "detail": a.detail} for a in self.anomalies],
        }

    def summary(self) -> str:
        line = f"{self.check}: pass={self.passes} fail={self.failures}"
        if self.anomaly_count:
            line += f" anomalies={self.anomaly_count}"
        return line + f" ({self.duration:.2f}s)"


# What check(r, env, steps, minima) returns for one residue: its pass count,
# a (replay subcommand, detail) pair per failure, empty (so falsy) on a pass,
# and an anomaly's detail or None.
_Outcome = tuple[int, Iterable[tuple[str, str]], str | None]

# The oracle's scan of one residue, (neg, pos, (n, d)), from prefix_scan.
_Minima = tuple[list[float], list[float], tuple[int, int]]


def _determinant(r: Residue, env: None, steps: list[RawStep], minima: _Minima | None) -> _Outcome:
    m = r.m
    passes = 0
    bad = []
    for nn, nd, pn, pd, _ in steps:
        det = pn * nd - nn * pd
        if det == m:
            passes += 1
        else:
            detail = f"pair ({nn}/{nd}, {pn}/{pd}) has determinant {det}, expected {m}"
            bad.append(("trace", detail))
    return passes, bad, None


def _scan_minimum(steps: Iterable[RawStep]) -> tuple[int, int]:
    """Slow twin of minimum_fraction: the minimum over both sides of every step
    pair, as (n, d), with its order spelled out: smallest max(|n|, d), then the
    smaller denominator, then the positive class."""
    steps = iter(steps)
    _, _, best_n, best_d, _ = next(steps)  # the walk starts at (-M/0, x/1)
    best_max = best_n if best_n > 1 else 1
    for nn, nd, pn, pd, _ in steps:
        # The negative side (-M/0 excluded); it never wins a class tie.
        a = -nn if -nn > nd else nd
        if nd and (a < best_max or a == best_max and nd < best_d):
            best_n, best_d, best_max = nn, nd, a
        a = pn if pn > pd else pd
        if a < best_max or a == best_max and (pd < best_d or pd == best_d and best_n < 0):
            best_n, best_d, best_max = pn, pd, a
    return best_n, best_d


def _step_witness(r: Residue, steps: Iterable[RawStep]) -> tuple[int, int]:
    """Slow twin of sqrt_bound_witness: the first qualifying fraction of r's
    step walk, as (n, d)."""
    m = r.m
    for nn, nd, pn, pd, _ in steps:
        if nn * nn <= m and nd * nd <= m:
            return nn, nd
        if pn * pn <= m and pd * pd <= m:
            return pn, pd
    raise InvariantError(f"the step walk finds no sqrt-bounded representation for {r}")


def _sqrt_bound(r: Residue, env: None, steps: Iterable[RawStep],
                minima: _Minima | None) -> _Outcome:
    # steps may be the lazy walk: the step witness stops at its first hit.
    m = r.m
    try:
        witness = sqrt_bound_witness(r)
        step_witness = _step_witness(r, steps)
    except InvariantError:
        trace = ", ".join(f"({nn}/{nd}, {pn}/{pd})" for nn, nd, pn, pd, _ in descent_steps(r.x, m))
        detail = f"no representation with n^2 <= {m} and d^2 <= {m}; trace: {trace}"
    else:
        n, d = witness.n, witness.d
        # Equal to the step witness, represents x, and within the bound.
        if (n, d) == step_witness and not (r.x * d - n) % m and n * n <= m and d * d <= m:
            return 1, (), None
        step_n, step_d = step_witness
        detail = (
            f"run witness {witness} vs step witness {step_n}/{step_d}: "
            f"must be equal, represent x and have n^2 <= {m} and d^2 <= {m}"
        )
    return 0, [("trace", detail)], None


def _minimality(r: Residue, env: None, steps: list[RawStep], minima: _Minima) -> _Outcome:
    # One oracle scan per residue; each pair is then two lookups.
    neg, pos, _ = minima
    passes = 0
    bad = []
    for nn, nd, pn, pd, _ in steps:
        threshold = pn - nn
        if neg[nd] >= threshold and pos[pd] >= threshold:
            passes += 1
        else:
            bad.append(("trace", f"trace pair ({nn}/{nd}, {pn}/{pd}) is not pair-minimal"))
    return passes, bad, None


def _progress(r: Residue, env: None, steps: list[RawStep], minima: _Minima | None) -> _Outcome:
    negative = ResidueClass.NEGATIVE
    passes = 0
    bad = []
    npairs = 0
    prev_sum = prev_max = 0
    for nn, nd, pn, pd, rep in steps:
        mag_sum = pn - nn
        npairs += 1
        if rep is not None:
            new_mag = -nn if rep is negative else pn
            if mag_sum < prev_sum and new_mag < prev_max:
                passes += 1
            else:
                bad.append(("trace", f"step {npairs - 1}: magnitude sum {prev_sum} -> {mag_sum}, "
                                     f"replaced side {new_mag} vs previous max {prev_max}"))
        prev_sum = mag_sum
        prev_max = pn if pn > -nn else -nn
    cap = TRACE_CAP_FACTOR * r.m.bit_length()
    if npairs <= cap:
        return passes, bad, None
    return passes, bad, f"{npairs} pairs exceeds cap {cap} ({TRACE_CAP_FACTOR} * bit_length)"


def _agreement_setup(m: int, config: SweepConfig) -> tuple[tuple[list[int], list[int]], dict]:
    """The modulus's sieve (numerators and denominators by x), and its random
    pairs grouped by x as (neg.n, neg.d, pos.n, pos.d, None), the shape of a
    trace step.  One random pair in three has its numerators at their class
    residues; one in three has its negative numerator one M further down,
    and one in three its positive numerator one M further up.  Such an
    off-class pair is minimal only when both its ranges are empty
    (neg.d = 0 and pos.d = 1), the case is_minimal_pair settles apart from
    its determinant test."""
    sieve = minimum_table(m)
    # The random pairs are drawn up front, in the sample's order.
    random_pairs: dict[int, list[tuple[int, int, int, int, None]]] = {}
    if config.random_pairs_per_m:
        import random

        # Seeded per modulus so the sample is independent of chunking.
        rng = random.Random(f"{config.seed}:{m}")
        for _ in range(config.random_pairs_per_m):
            x = rng.randrange(m)
            nd = rng.randrange(0, m)
            pd = rng.randrange(1, m + 1)
            nn, pn = (x * nd) % m - m, (x * pd) % m
            off = rng.randrange(3)
            if off == 0:
                nn -= m
            elif off == 1:
                pn += m
            random_pairs.setdefault(x, []).append((nn, nd, pn, pd, None))
    return sieve, random_pairs


def _agreement(r: Residue, env: tuple[tuple, dict], steps: list[RawStep],
               minima: _Minima) -> _Outcome:
    (numerators, denominators), random_pairs = env
    neg, pos, slow_min = minima
    x, m = r.x, r.m
    passes = 0
    bad = []
    sieve_min = numerators[x], denominators[x]
    run_min = minimum_fraction(r)
    step_min = _scan_minimum(steps)
    if sieve_min == (run_min.n, run_min.d) == step_min == slow_min:
        passes += 1
    else:
        sieve, step, slow = ("{}/{}".format(*pair) for pair in (sieve_min, step_min, slow_min))
        bad.append(("repr", f"sieve minimum {sieve}, run minimum {run_min}, step "
                            f"minimum {step} and enumerated minimum {slow} differ"))
    extra = random_pairs.get(x)
    for nn, nd, pn, pd, _ in steps + extra if extra else steps:
        fast = is_minimal_pair(x, m, nn, nd, pn, pd)
        threshold = pn - nn
        slow = neg[nd] >= threshold and pos[pd] >= threshold
        if fast == slow:
            passes += 1
        else:
            detail = (f"is_minimal_pair says {fast} but the exhaustive scan says {slow} "
                      f"for ({nn}/{nd}, {pn}/{pd})")
            bad.append(("trace", detail))
    return passes, bad, None


# check: (per-residue function, per-modulus setup or None, reads the oracle's
# scan, reads the whole walk)
_CHECKS = {
    "determinant": (_determinant, None, False, True),
    "minimality": (_minimality, None, True, True),
    "sqrt_bound": (_sqrt_bound, None, False, False),
    "progress": (_progress, None, False, True),
    "agreement": (_agreement, _agreement_setup, True, True),
}


def _chunk_worker(task: tuple[SweepConfig, range]) -> list[list]:
    """One pass of the config's checks over the moduli ms: per check,
    [passes, counterexamples, anomalies, seconds], timed as run_checks says."""
    config, ms = task
    checks = [_CHECKS[name] for name in config.checks]
    functions = [check for check, _, _, _ in checks]
    parts = [[0, [], [], 0.0] for _ in checks]
    scan_part = next((part for part, (_, _, scans, _) in zip(parts, checks) if scans), None)
    whole_walk = any(whole for *_, whole in checks)
    now = time.perf_counter
    for m in ms:
        envs = []
        for part, (_, setup, _, _) in zip(parts, checks):
            start = now()
            envs.append(setup(m, config) if setup else None)
            part[3] += now() - start
        dispatch = list(zip(parts, functions, envs))
        for x in range(m):
            start = now()
            r = Residue(x, m)
            minima = None
            if scan_part is not None:
                minima = prefix_scan(x, m)
                end = now()
                scan_part[3] += end - start
                start = end
            steps = descent_steps(x, m)
            if whole_walk:
                steps = list(steps)
            for part, check, env in dispatch:
                ok, failures, anomaly = check(r, env, steps, minima)
                part[0] += ok
                if failures:
                    for command, detail in failures:
                        replay = f"minfrac {command} --modulus {m} --x {x}"
                        part[1].append(Counterexample(m, x, detail, replay))
                if anomaly:
                    part[2].append(Anomaly(m, x, anomaly))
                end = now()
                part[3] += end - start
                start = end
    return parts


def run_checks(config: SweepConfig) -> tuple[VerificationReport, ...]:
    """Run every requested check over the configured range in one sweep.

    Reports come one per check, in canonical order.  Each residue's
    Residue and walk, and, when minimality or agreement is requested, its
    one oracle scan (prefix minima and enumerated minimum,
    prefix_scan), are built once and read by every check.  A report's
    duration is the time spent in its own check's calls (per-modulus setup
    and per-residue function), summed over workers, with shared work
    charged to the first requested check that reads it: the Residue and the
    oracle scan to minimality, else agreement, and the walk (with the
    Residue when no check reads the scan) to the first check.
    """
    # More workers than moduli, or than the CPUs this process may run on
    # (its affinity mask, as taskset sets it, where the platform has one),
    # only adds processes; the merged report does not depend on the split.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(config.parallelism, cpus, config.m_max - config.m_min + 1)
    if any(_CHECKS[check][2] for check in config.checks):
        # The sweep's only gate: $MINFRAC_CEILING is read here, once, and
        # the range's first modulus above the ceiling, if any, is refused
        # before any modulus is swept, so the workers scan ungated.
        ceiling = resolve_ceiling(config.ceiling, DEFAULT_PAIR_CHECK_CEILING)
        check_pair_ceiling(min(config.m_max, max(config.m_min, ceiling + 1)), ceiling)
    # Lazy ranges, striped: a typo'd --m-max allocates nothing before the checks run.
    tasks = [(config, range(config.m_min + i, config.m_max + 1, workers)) for i in range(workers)]
    if workers == 1:
        return _merge(config.checks, [_chunk_worker(tasks[0])])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(config.checks, list(pool.map(_chunk_worker, tasks)))


def _merge(checks: tuple[str, ...], results: list[list[list]]) -> tuple[VerificationReport, ...]:
    """One report per check from the workers' parts (results[i][j] is worker
    i's part for checks[j]), in an order that does not depend on the split."""
    reports = []
    for check, parts in zip(checks, zip(*results)):
        bad = sorted((c for _, cs, _, _ in parts for c in cs), key=lambda c: (c.m, c.x, c.detail))
        anomalies = sorted(
            (a for _, _, an, _ in parts for a in an), key=lambda a: (a.m, a.x, a.detail)
        )
        reports.append(VerificationReport(
            check=check,
            passes=sum(p for p, _, _, _ in parts),
            counterexamples=tuple(bad),
            anomaly_count=len(anomalies),
            anomalies=tuple(anomalies[:ANOMALY_SAMPLE_CAP]),
            duration=sum(s for *_, s in parts),
        ))
    return tuple(reports)
