"""Batch invariant sweeps over ranges of moduli.

Each check packages one theorem as an exhaustive scan over every residue of
every modulus in a range and reduces the outcome to a VerificationReport:
pass/fail counts plus replayable counterexamples.  A failure is a falsified
invariant.  Anomalies (currently only traces of more than TRACE_CAP_FACTOR
pairs per bit of M) are flagged for inspection but never fail a report,
because termination carries no stated step bound.

minimum_fraction and sqrt_bound_witness walk the descent by runs; the
agreement and sqrt_bound checks compare them with scans of the step walk,
kept here as their slow twins, as well as with the oracle and the bound.
The agreement check also holds each modulus's minimum_table, the sieve
behind `minfrac table`, to the same minima.

The minimality check scans each residue's class residues once, from the
oracle's prefix minima, and then tests every trace pair in O(1).  The
agreement check walks each residue's steps once: that walk gives the step
minimum and the trace pairs.  Each pair's four integers, trace and random
pairs alike, go straight to pair_minimal (is_minimal_pair's loop), which
reads the prefix minima off the descent's runs in O(log M), and to
brute_pair_scan, the oracle's literal per-pair scan; a FractionPair is
built only for a counterexample's text.
Only pair minimality is checked: it implies each side's per-class
minimality, since the pair's threshold is at least either side's
magnitude.  Brute-force ceilings are resolved once per check run, so
workers get plain integers, and the pair ceiling is held once per residue.

Sweeps are embarrassingly parallel over moduli; with parallelism > 1 the
moduli are striped across a process pool of at most one worker per CPU and
per modulus, and the partial results merged into a canonical order, so a
report is deterministic for a given config no matter how the work was split.
The pool and the sampler are imported only when a sweep needs them.  The
CLI imports this module only when `verify` runs, and takes the check names
from the leaf module check_names, so no other command pays for the harness
or for `dataclasses`, which its records still use.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .check_names import CHECK_NAMES
from .descent import RawStep, descent_steps, run_descent
from .errors import InvariantError
from .minimality import minimum_fraction, minimum_table, pair_minimal, sqrt_bound_witness
from .oracle import (
    DEFAULT_ENUMERATION_CEILING,
    DEFAULT_PAIR_CHECK_CEILING,
    brute_minimum,
    brute_pair_scan,
    brute_prefix_minima,
    check_pair_ceiling,
    resolve_ceiling,
)
from .residues import Fraction, FractionPair, Residue, ResidueClass, represents

# Not called here: the benchmark's traced run wraps these harness attributes
# by name (perfbench/tracing.py), so they stay until its spans follow the int routes.
from .minimality import is_minimal_pair
from .oracle import brute_pair_minimal

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


@dataclass(frozen=True)
class Counterexample:
    """A falsifying instance, with a CLI command that replays it."""

    m: int
    x: int
    detail: str
    replay: str


@dataclass(frozen=True)
class Anomaly:
    """Something worth inspecting that is not a falsified invariant."""

    m: int
    x: int
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check over one sweep."""

    check: str
    passes: int
    failures: int
    counterexamples: tuple[Counterexample, ...]
    anomaly_count: int = 0
    anomalies: tuple[Anomaly, ...] = ()
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.failures != len(self.counterexamples):
            raise InvariantError(
                f"report lists {len(self.counterexamples)} counterexamples "
                f"but claims {self.failures} failures"
            )

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


class _Params(NamedTuple):
    """What the per-modulus checks read from a config, ceilings resolved."""

    seed: int
    random_pairs: int
    pair_ceiling: int
    enumeration_ceiling: int


_Part = tuple[int, list[Counterexample], list[Anomaly]]


def _replay(m: int, x: int) -> str:
    return f"minfrac trace --modulus {m} --x {x}"


def _determinant_m(m: int, params: _Params) -> _Part:
    passes = 0
    bad: list[Counterexample] = []
    for x in range(m):
        for nn, nd, pn, pd, _ in descent_steps(x, m):
            det = pn * nd - nn * pd
            if det == m:
                passes += 1
            else:
                bad.append(
                    Counterexample(
                        m, x, f"pair ({nn}/{nd}, {pn}/{pd}) has determinant {det}, expected {m}",
                        _replay(m, x),
                    )
                )
    return passes, bad, []


def _step_minimum(r: Residue) -> Fraction:
    """Slow twin of minimum_fraction: the criterion scan over every step pair."""
    return _scan_minimum(descent_steps(r.x, r.m))


def _scan_minimum(steps: Iterable[RawStep]) -> Fraction:
    """The criterion_key minimum over both sides of every step pair, spelled out."""
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
    return Fraction(best_n, best_d)


def _step_witness(r: Residue) -> Fraction:
    """Slow twin of sqrt_bound_witness: the first qualifying step-walk fraction."""
    m = r.m
    for nn, nd, pn, pd, _ in descent_steps(r.x, r.m):
        if nn * nn <= m and nd * nd <= m:
            return Fraction(nn, nd)
        if pn * pn <= m and pd * pd <= m:
            return Fraction(pn, pd)
    raise InvariantError(f"the step walk finds no sqrt-bounded representation for {r}")


def _sqrt_bound_m(m: int, params: _Params) -> _Part:
    passes = 0
    bad: list[Counterexample] = []
    for x in range(m):
        r = Residue(x, m)
        try:
            witness = sqrt_bound_witness(r)
            step_witness = _step_witness(r)
        except InvariantError:
            trace = ", ".join(str(p) for p in run_descent(r).pairs)
            bad.append(
                Counterexample(
                    m, x, f"no representation with n^2 <= {m} and d^2 <= {m}; trace: {trace}",
                    _replay(m, x),
                )
            )
            continue
        n, d = witness.n, witness.d
        if witness == step_witness and represents(r, witness) and n * n <= m and d * d <= m:
            passes += 1
        else:
            bad.append(
                Counterexample(
                    m, x,
                    f"run witness {witness} vs step witness {step_witness}: "
                    f"must be equal, represent x and have n^2 <= {m} and d^2 <= {m}",
                    _replay(m, x),
                )
            )
    return passes, bad, []


def _minimality_m(m: int, params: _Params) -> _Part:
    passes = 0
    bad: list[Counterexample] = []
    for x in range(m):
        # One oracle scan per residue; each pair is then two lookups.
        neg, pos = brute_prefix_minima(Residue(x, m), params.pair_ceiling)
        for nn, nd, pn, pd, _ in descent_steps(x, m):
            threshold = pn - nn
            if neg[nd] >= threshold and pos[pd] >= threshold:
                passes += 1
            else:
                bad.append(
                    Counterexample(
                        m, x, f"trace pair ({nn}/{nd}, {pn}/{pd}) is not pair-minimal",
                        _replay(m, x),
                    )
                )
    return passes, bad, []


def _progress_m(m: int, params: _Params) -> _Part:
    cap = TRACE_CAP_FACTOR * m.bit_length()
    passes = 0
    bad: list[Counterexample] = []
    anomalies: list[Anomaly] = []
    for x in range(m):
        npairs = 0
        prev_sum = prev_max = 0
        for nn, nd, pn, pd, rep in descent_steps(x, m):
            mag_sum = pn - nn
            npairs += 1
            if rep is not None:
                new_mag = -nn if rep is ResidueClass.NEGATIVE else pn
                if mag_sum < prev_sum and new_mag < prev_max:
                    passes += 1
                else:
                    bad.append(
                        Counterexample(
                            m, x,
                            f"step {npairs - 1}: magnitude sum {prev_sum} -> {mag_sum}, "
                            f"replaced side {new_mag} vs previous max {prev_max}",
                            _replay(m, x),
                        )
                    )
            prev_sum = mag_sum
            prev_max = pn if pn > -nn else -nn
        if npairs > cap:
            anomalies.append(
                Anomaly(m, x, f"{npairs} pairs exceeds cap {cap} ({TRACE_CAP_FACTOR} * bit_length)")
            )
    return passes, bad, anomalies


def _agreement_m(m: int, params: _Params) -> _Part:
    passes = 0
    bad: list[Counterexample] = []
    pair_ceiling = params.pair_ceiling
    sieve = [None, *minimum_table(m)]  # the sieve has no entry for x = 0
    # The random pairs are drawn up front, in the sample's order, and checked
    # with their residue's trace pairs, as (neg.n, neg.d, pos.n, pos.d, None).
    random_pairs: dict[int, list[tuple[int, int, int, int, None]]] = {}
    if params.random_pairs:
        import random

        # Seeded per modulus so the sample is independent of chunking.
        rng = random.Random(f"{params.seed}:{m}")
        for _ in range(params.random_pairs):
            x = rng.randrange(m)
            nd = rng.randrange(0, m)
            pd = rng.randrange(1, m + 1)
            random_pairs.setdefault(x, []).append(((x * nd) % m - m, nd, (x * pd) % m, pd, None))
    for x in range(m):
        r = Residue(x, m)
        # One step walk per residue feeds both the step minimum and the pairs.
        steps = list(descent_steps(x, m))
        sieve_min = sieve[x]
        run_min = minimum_fraction(r)
        step_min = _scan_minimum(steps)
        slow_min = brute_minimum(r, ceiling=params.enumeration_ceiling)
        if run_min == step_min == slow_min and (x == 0 or sieve_min == run_min):
            passes += 1
        else:
            bad.append(
                Counterexample(
                    m, x,
                    f"sieve minimum {sieve_min}, run minimum {run_min}, step minimum "
                    f"{step_min} and enumerated minimum {slow_min} differ",
                    f"minfrac repr --modulus {m} --x {x}",
                )
            )
        # brute_pair_scan has no gate of its own; brute_pair_minimal's is held here.
        check_pair_ceiling(m, pair_ceiling)
        for nn, nd, pn, pd, _ in steps + random_pairs.get(x, []):
            fast = pair_minimal(x, m, nn, nd, pn, pd)
            slow = brute_pair_scan(x, m, nn, nd, pn, pd)
            if fast == slow:
                passes += 1
            else:
                p = FractionPair(Fraction(nn, nd), Fraction(pn, pd))
                bad.append(
                    Counterexample(
                        m, x,
                        f"is_minimal_pair says {fast} but the exhaustive scan says {slow} for {p}",
                        _replay(m, x),
                    )
                )
    return passes, bad, []


_CHECKS = {
    "determinant": _determinant_m,
    "minimality": _minimality_m,
    "sqrt_bound": _sqrt_bound_m,
    "progress": _progress_m,
    "agreement": _agreement_m,
}

# Checks that call the oracle, and so need its ceilings.
_ORACLE_CHECKS = ("minimality", "agreement")


def _chunk_worker(task: tuple[str, range, _Params]) -> _Part:
    check, ms, params = task
    check_m = _CHECKS[check]
    passes = 0
    bad: list[Counterexample] = []
    anomalies: list[Anomaly] = []
    for m in ms:
        part = check_m(m, params)
        passes += part[0]
        bad.extend(part[1])
        anomalies.extend(part[2])
    return passes, bad, anomalies


def _run_one_check(check: str, cfg: SweepConfig) -> VerificationReport:
    start = time.perf_counter()
    # More workers than CPUs or moduli only adds processes; the merged
    # report does not depend on the split.
    workers = min(cfg.parallelism, os.cpu_count() or 1, cfg.m_max - cfg.m_min + 1)
    pair_ceiling = enumeration_ceiling = 0
    if check in _ORACLE_CHECKS:
        # $MINFRAC_CEILING is read here, once, not on every oracle call.
        pair_ceiling = resolve_ceiling(cfg.ceiling, DEFAULT_PAIR_CHECK_CEILING)
        enumeration_ceiling = resolve_ceiling(cfg.ceiling, DEFAULT_ENUMERATION_CEILING)
    params = _Params(cfg.seed, cfg.random_pairs_per_m, pair_ceiling, enumeration_ceiling)
    # Lazy ranges, striped: a typo'd --m-max allocates nothing before the checks run.
    tasks = [(check, range(cfg.m_min + i, cfg.m_max + 1, workers), params) for i in range(workers)]
    if workers == 1:
        parts = [_chunk_worker(tasks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk_worker, tasks))
    passes = sum(p for p, _, _ in parts)
    bad = sorted((c for _, cs, _ in parts for c in cs), key=lambda c: (c.m, c.x, c.detail))
    anomalies = sorted((a for _, _, an in parts for a in an), key=lambda a: (a.m, a.x, a.detail))
    return VerificationReport(
        check=check,
        passes=passes,
        failures=len(bad),
        counterexamples=tuple(bad),
        anomaly_count=len(anomalies),
        anomalies=tuple(anomalies[:ANOMALY_SAMPLE_CAP]),
        duration=time.perf_counter() - start,
    )


def run_checks(config: SweepConfig) -> tuple[VerificationReport, ...]:
    """Run every requested check over the configured range, in canonical order."""
    return tuple(_run_one_check(check, config) for check in config.checks)


def check_determinant(m_range: tuple[int, int], parallelism: int = 1) -> VerificationReport:
    """Every trace pair of every residue has determinant M."""
    cfg = SweepConfig(m_range[0], m_range[1], checks=("determinant",), parallelism=parallelism)
    return run_checks(cfg)[0]


def check_sqrt_bound(m_range: tuple[int, int], parallelism: int = 1) -> VerificationReport:
    """Every residue has a representation with n^2 <= M and d^2 <= M.

    The witness from the run-length walk must equal the first qualifying
    fraction of the step walk, represent x, and meet the bound.
    """
    cfg = SweepConfig(m_range[0], m_range[1], checks=("sqrt_bound",), parallelism=parallelism)
    return run_checks(cfg)[0]


def check_progress(m_range: tuple[int, int], parallelism: int = 1) -> VerificationReport:
    """Magnitude sums strictly decrease at every step.

    A trace of more than TRACE_CAP_FACTOR * bit_length(M) pairs is flagged
    as an anomaly, not a failure.
    """
    cfg = SweepConfig(m_range[0], m_range[1], checks=("progress",), parallelism=parallelism)
    return run_checks(cfg)[0]


def check_agreement(
    m_range: tuple[int, int],
    parallelism: int = 1,
    seed: int = 0,
    random_pairs_per_m: int = 0,
    ceiling: int | None = None,
) -> VerificationReport:
    """The fast paths agree with the brute-force oracle.

    Compares minimum_fraction (run-length walk) against minimum_table (the
    sieve), a scan of the step walk and brute_minimum for every residue
    (x = 0 has no sieve entry), and is_minimal_pair against
    brute_pair_minimal, on their int-level forms, for every trace pair plus
    an optional seeded sample of random pairs per modulus.
    """
    cfg = SweepConfig(
        m_range[0], m_range[1], checks=("agreement",), parallelism=parallelism,
        seed=seed, random_pairs_per_m=random_pairs_per_m, ceiling=ceiling,
    )
    return run_checks(cfg)[0]
