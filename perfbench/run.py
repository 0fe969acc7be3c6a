"""Benchmark for the minfrac CLI and its layers.

    python3 perfbench/run.py --workload query --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):
  query   closed loop of single-residue `repr` / `trace` calls at 256 bits
  table   `table --format json` for a prime, a smooth number and a semiprime near 10**4
  verify  `verify --format json`, all five checks over [2, 72], --workers 1

With --trace 0 every call is a fresh `python -m minfrac.cli` subprocess with
the repository's src on PYTHONPATH, issued one after another by a single
client for --seconds seconds through perfbench/spawn.py, and the end-to-end
metrics are reported, each timing scaled by the host's slowdown measured
next to it (see REFERENCE_S).  With
--trace 1 the workload's first calls are replayed in-process through
minfrac.cli.main with span wrappers around each layer, and the per-layer
metrics are reported; spans go to .bench_out/.  Every output is checked
(perfbench/checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import timeit
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import workloads as wl
from tracing import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
CALL_TIMEOUT_S = 120
# The host's speed drifts by tens of percent over minutes.  Every timing is
# divided by the host's slowdown at that moment: the time of a fixed
# pure-Python task, run next to it on the same CPU, over the task's time on
# the reference machine (2-vCPU Xeon, Python 3.11).  Timings then read as
# on that machine at its usual speed.
REFERENCE_S = 0.014
WARMUP = wl.Call(kind="repr", argv=("repr", "-m", "17", "--x", "7"), m=17, x=7)
TABLE_SAMPLES = 4  # oracle-checked entries per table modulus
MATERIALIZE_SAMPLE = 2000  # residues timed through run_descent per traced pass

# The acceptance-test input: secp256k1's P, the first 77 digits of pi, a
# 2457-pair walk and its pinned minimum.
X256 = 31415926535897932384626433832795028841971693993751058209749445923078164062862
PAIRS_256 = 2457
MIN_256 = (-75622257097465905355031210995094932918, 36095810821130842525104322795443031189)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int], list[wl.Call]]  # seed -> the call sequence, cycled
    replay: int  # calls replayed per traced pass
    window: int  # calls per input cycle: the span of one throughput sample
    timing_repeats: int = 7  # import and baseline timings in the traced run


WORKLOADS = {
    "query": Workload("query", wl.query_calls, replay=40, window=5),
    "table": Workload("table", wl.table_calls, replay=3, window=3),
    "verify": Workload("verify", wl.verify_calls, replay=1, window=1),
}


class Done(NamedTuple):
    """One timed call: what ran and what came back."""

    call: wl.Call
    returncode: int
    out: str
    seconds: float  # wall time from spawn to exit
    rss_kb: int  # the child's peak RSS


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


class Checker:
    """Checks one call's output; oracle references are computed once per input."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._table: dict[int, dict[int, tuple[int, int]]] = {}
        self._verify: dict[tuple[int, int], dict[str, int]] = {}

    def __call__(self, call: wl.Call, returncode: int, out: str) -> str | None:
        if call.kind == "repr":
            check = checks.check_repr
        elif call.kind == "trace":
            check = checks.check_trace
        elif call.kind == "table":
            check = partial(checks.check_table, samples=self._table_samples(call.m))
        else:
            key = (call.m, call.random_pairs)
            if key not in self._verify:
                self._verify[key] = wl.verify_expected(*key)
            check = partial(checks.check_verify, expected=self._verify[key])
        return checks.verdict(call, returncode, out, check)

    def _table_samples(self, m: int) -> dict[int, tuple[int, int]]:
        if m not in self._table:
            from minfrac.oracle import brute_minimum
            from minfrac.residues import Residue

            rng = random.Random(f"samples:{self.seed}:{m}")
            xs = sorted(rng.sample(range(1, m), min(TABLE_SAMPLES, m - 1)))
            self._table[m] = {x: (f.n, f.d) for x in xs for f in [brute_minimum(Residue(x, m))]}
        return self._table[m]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MINFRAC_CEILING", None)
    return env


class Spawner:
    """Runs commands through perfbench/spawn.py, one at a time.

    A child's peak RSS would otherwise include this process's, which grows
    with the outputs it holds.  Each call returns (exit code, stdout, wall
    seconds from spawn to exit, the child's peak RSS in KiB).
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.out = ROOT / ".bench_out" / f"call-{os.getpid()}.out"
        self.out.parent.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(self.out), str(CALL_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            start_new_session=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        if any(exc):  # stop the helper and the call it may be running
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)

    def python(self, args: list[str]) -> tuple[int, str, float, int]:
        self.proc.stdin.write(json.dumps([sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py exited with {self.proc.wait()}")
        returncode, seconds, rss_kb = json.loads(reply)
        return returncode, self.out.read_text(), seconds, rss_kb

    def cli(self, call: wl.Call) -> tuple[int, str, float, int]:
        return self.python(["-m", "minfrac.cli", *call.argv])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics; with
    tens of samples it varies much less from run to run than one or two
    order statistics do.  The weights are integrated by the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    points = 200 * n
    mass = [0.0] * n
    for k in range(points):
        t = (k + 0.5) / points
        mass[k * n // points] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(mass, xs)) / sum(mass)


def reference_s() -> float:
    """Time a fixed task of small- and 256-bit integer arithmetic."""
    start = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i
    a, b = 3**160, wl.SECP256K1_P
    for i in range(20_000):
        b, a = a, b % a or 3**160 + i
    return time.perf_counter() - start


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and so every call it spawns, to one CPU.

    The reference task then meets the same contention as the calls.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_run(workload: Workload, seed: int, seconds: int, tally: Tally) -> dict[str, float]:
    with one_cpu(), Spawner(child_env()) as spawner:
        return _timed_run(workload, seed, seconds, tally, spawner.cli)


def _timed_run(workload: Workload, seed: int, seconds: int, tally: Tally,
               run_cli: Callable[[wl.Call], tuple[int, str, float, int]]) -> dict[str, float]:
    check = Checker(seed)
    # The reference task runs before the first set-up step and after every
    # step and call; each is scaled by the mean of the two samples around it.
    reference = [reference_s()]
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        calls = workload.calls(seed)
        rc, out, _, _ = run_cli(WARMUP)
        setup.append(time.perf_counter() - start)
        tally.record(check(WARMUP, rc, out))
        reference.append(reference_s())

    done: list[Done] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not done or time.perf_counter() < deadline:
        call = calls[len(done) % len(calls)]
        done.append(Done(call, *run_cli(call)))
        reference.append(reference_s())
    elapsed = time.perf_counter() - start

    slowdown = [(a + b) / (2 * REFERENCE_S) for a, b in itertools.pairwise(reference)]
    setup_s = [dt / s for dt, s in zip(setup, slowdown)]
    latencies = [d.seconds / s for d, s in zip(done, slowdown[SETUP_REPEATS:])]
    ok = []
    for d in done:
        reason = check(d.call, d.returncode, d.out)
        tally.record(reason)
        ok.append(reason is None)
    # Rates are medians over windows of one input cycle (query: a block of
    # five, table: a prime, a smooth number and a semiprime, verify: one
    # call), so every sample covers the same mix and a slow spell of the
    # host moves few of them.  A cycle the deadline cut short is left out.
    w = workload.window
    windows = [range(i, i + w) for i in range(0, len(done) - w + 1, w)] or [range(len(done))]
    qps, rps = [], []
    for idx in windows:
        span = sum(latencies[i] for i in idx)
        qps.append(sum(ok[i] for i in idx) / span)
        rps.append(sum(done[i].call.residues for i in idx if ok[i]) / span)
    unscaled_p50 = quantile([d.seconds for d in done], 0.5) * 1e3
    print(f"{workload.name}: {len(done)} calls in {elapsed:.2f} s, {len(qps)} windows, "
          f"fail_ratio {len(tally.failures) / tally.attempted:.4f}")
    print(f"host slowdown: median {statistics.median(slowdown):.3f}, range "
          f"{min(slowdown):.3f}..{max(slowdown):.3f}; unscaled latency_p50 {unscaled_p50:.6g} ms")
    return {
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "throughput_qps": quantile(qps, 0.5),
        "residues_per_s": quantile(rps, 0.5),
        "peak_rss_mb": quantile([d.rss_kb for d in done], 0.5) / 1024,
        "setup_s": statistics.median(setup_s),
    }


def replay(calls: list[wl.Call], tracer: Tracer | None, check: Checker, tally: Tally):
    """Run calls in-process through minfrac.cli.main with stdout captured.

    Returns (seconds in main, stdout bytes, pass counts per verify check).
    """
    import minfrac.cli as cli

    seconds = 0.0
    out_bytes = 0
    passes: collections.Counter[str] = collections.Counter()
    with instrument(tracer) if tracer else contextlib.nullcontext():
        for i, call in enumerate(calls):
            out = io.StringIO()
            if tracer:
                tracer.request = i
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                    rc = cli.main(list(call.argv))
                seconds += time.perf_counter() - start
            text = out.getvalue()
            out_bytes += len(text.encode())
            reason = check(call, rc, text)
            tally.record(reason)
            if call.kind == "verify" and reason is None:
                passes.update({r["check"]: r["pass"] for r in json.loads(text)["report"]})
    return seconds, out_bytes, passes


def exhaust_walks(residues: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Exhaust descent_steps on each residue: (ns, step count of each walk)."""
    from minfrac.descent import descent_steps

    steps = []
    start = time.perf_counter_ns()
    for x, m in residues:
        for n, _ in enumerate(descent_steps(x, m)):
            pass
        steps.append(n)
    return time.perf_counter_ns() - start, steps


def materialize_ns(residues: list[tuple[int, int]]) -> int:
    from minfrac.descent import run_descent
    from minfrac.residues import Residue

    start = time.perf_counter_ns()
    for x, m in residues:
        run_descent(Residue(x, m))
    return time.perf_counter_ns() - start


def import_rows(repeats: int, tally: Tally) -> dict[str, float]:
    bare, full = [], []
    with Spawner(child_env()) as spawner:
        for _ in range(repeats):
            for args, times in ((["-c", "pass"], bare), (["-c", "import minfrac.cli"], full)):
                rc, _, dt, _ = spawner.python(args)
                tally.record(None if rc == 0 else f"{args} exited {rc}")
                times.append(dt)
    return {
        "import.python_bare_ms": statistics.median(bare) * 1e3,
        "import.minfrac_cli_ms": (statistics.median(full) - statistics.median(bare)) * 1e3,
    }


def baseline_rows(repeats: int, tally: Tally) -> dict[str, float]:
    """ROADMAP's layer baseline on the acceptance input, best of `repeats`."""
    from minfrac.descent import descent_steps, run_descent
    from minfrac.minimality import minimum_fraction
    from minfrac.residues import Residue

    r = Residue(X256, wl.SECP256K1_P)
    minimum = minimum_fraction(r)
    ok = (len(run_descent(r)) == PAIRS_256 == wl.euclid_steps(X256, wl.SECP256K1_P) + 1
          and (minimum.n, minimum.d) == MIN_256)
    tally.record(None if ok else "acceptance input: wrong walk length or minimum")

    def best_ms(fn: Callable[[], object]) -> float:
        return min(timeit.repeat(fn, number=1, repeat=repeats)) * 1e3

    return {
        "baseline.walk_256_ms": best_ms(
            lambda: collections.deque(descent_steps(r.x, r.m), maxlen=0)),
        "baseline.run_descent_256_ms": best_ms(lambda: run_descent(r)),
        "baseline.minimum_fraction_256_ms": best_ms(lambda: minimum_fraction(r)),
    }


def src_rows() -> dict[str, float]:
    import minfrac

    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"src.loc": loc, "src.public_names": len(minfrac.__all__)}


def layer_rows(tracer: Tracer, out_bytes: int, passes: collections.Counter) -> dict[str, float]:
    totals = collections.defaultdict(lambda: (0, 0, 0), tracer.totals())
    rows = {
        "cli.main_self_ms": totals["cli.main"][1] / 1e6,
        "cli.output_bytes": out_bytes,
        "descent.run_descent_ms": totals["descent.run_descent"][0] / 1e6,
    }
    for name in ("minimum_fraction", "sqrt_bound_witness", "is_minimal_pair"):
        total, _, count = totals[f"minimality.{name}"]
        rows[f"minimality.{name}_ms"] = total / 1e6
        rows[f"minimality.{name}.calls"] = count
    for name in ("brute_minimum", "brute_pair_minimal"):
        total, _, count = totals[f"oracle.{name}"]
        rows[f"oracle.{name}_s"] = total / 1e9
        rows[f"oracle.{name}.calls"] = count
    for check in wl.CHECKS:
        total, own, _ = totals[f"harness.{check}"]
        rows[f"harness.{check}_s"] = total / 1e9
        rows[f"harness.{check}_self_s"] = own / 1e9
        rows[f"harness.{check}_passes"] = passes[check]
    return rows


def traced_run(workload: Workload, seed: int, seconds: int, tally: Tally) -> dict[str, float]:
    calls = workload.calls(seed)[: workload.replay]
    check = Checker(seed)
    residues = [res for call in calls for res in wl.residues_of(call)]
    expected_steps = [wl.euclid_steps(x, m) for x, m in residues]
    sample = residues[:: math.ceil(len(residues) / MATERIALIZE_SAMPLE)]

    rows = {**import_rows(workload.timing_repeats, tally),
            **baseline_rows(workload.timing_repeats, tally), **src_rows()}
    replay(calls, None, check, tally)  # warm caches before timing
    per_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        off_s, _, _ = replay(calls, None, check, tally)
        tracer = Tracer()
        on_s, out_bytes, passes = replay(calls, tracer, check, tally)
        walk_ns, steps = exhaust_walks(residues)
        for (x, m), got, want in zip(residues, steps, expected_steps):
            tally.record(None if got == want else f"walk of {x} mod {m}: {got} steps, Euclid {want}")
        sample_walk_ns, _ = exhaust_walks(sample)
        per_pass.append({
            **layer_rows(tracer, out_bytes, passes),
            "descent.steps": sum(steps),
            "descent.walk_us_per_step": walk_ns / 1e3 / max(sum(steps), 1),
            "descent.materialize_ratio": materialize_ns(sample) / sample_walk_ns,
            "trace.overhead_ratio": on_s / off_s,
        })
    tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.tsv")
    print(f"{workload.name}: {len(per_pass)} traced passes of {len(calls)} calls, "
          f"{len(residues)} residues walked")
    rows.update({name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "minfrac" / "cli.py").is_file():
        print(f"error: {SRC / 'minfrac'} not found; the benchmark runs against a "
              "minfrac source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tally = Tally()
    run = traced_run if args.trace else timed_run
    values = run(WORKLOADS[args.workload], args.seed, args.seconds, tally)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    for reason in tally.failures[:5]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
