"""Tests for the sweep harness: reports, determinism, parallel merge."""

import collections
import pickle
import re

import pytest

import minfrac.harness as harness
from minfrac.descent import descent_steps
from minfrac.errors import CeilingExceeded, InvariantError
from minfrac.harness import (
    ANOMALY_SAMPLE_CAP,
    CHECK_NAMES,
    Counterexample,
    SweepConfig,
    VerificationReport,
    run_checks,
)
from minfrac.residues import Fraction

# Pass counts over M in [2, 60], frozen from an exhaustive run.  The sweep
# is deterministic, so any change here means the algorithm changed.
FROZEN_COUNTS_2_60 = {
    "determinant": 22961,
    "minimality": 22961,
    "sqrt_bound": 1829,
    "progress": 21132,
    "agreement": 24790,
}


def _check(name, lo, hi, **config):
    """The report of one check over [lo, hi], as `verify --checks name` makes it."""
    return run_checks(SweepConfig(lo, hi, checks=(name,), **config))[0]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(1, 10)
    with pytest.raises(ValueError):
        SweepConfig(10, 9)
    with pytest.raises(ValueError):
        SweepConfig(2, 10, checks=("determinant", "nope"))
    with pytest.raises(ValueError):
        SweepConfig(2, 10, checks=())
    with pytest.raises(ValueError):
        SweepConfig(2, 10, parallelism=0)
    with pytest.raises(ValueError):
        SweepConfig(2, 10, random_pairs_per_m=-1)


def test_sweep_config_canonicalizes_check_order():
    cfg = SweepConfig(2, 10, checks=("progress", "determinant", "progress"))
    assert cfg.checks == ("determinant", "progress")


def test_report_counts_must_match_counterexamples():
    ce = Counterexample(17, 7, "broken", "minfrac trace --modulus 17 --x 7")
    report = VerificationReport(check="determinant", passes=1, counterexamples=(ce,))
    assert report.failures == 1
    assert not report.ok


def test_report_to_dict_is_duration_free():
    report = VerificationReport(
        check="determinant", passes=3, counterexamples=(), duration=1.25
    )
    d = report.to_dict()
    assert d == {
        "check": "determinant",
        "pass": 3,
        "fail": 0,
        "counterexamples": [],
        "anomaly_count": 0,
        "anomalies": [],
    }
    assert "pass=3 fail=0" in report.summary()


def test_full_sweep_2_60_is_clean():
    reports = run_checks(SweepConfig(2, 60))
    assert [r.check for r in reports] == list(CHECK_NAMES)
    for r in reports:
        assert r.ok, f"{r.check}: {r.counterexamples[:3]}"
        assert r.passes == FROZEN_COUNTS_2_60[r.check]


def test_determinant_pass_count_matches_recount():
    report = _check("determinant", 17, 17)
    assert report.ok
    assert report.passes == sum(len(list(descent_steps(x, 17))) for x in range(17))


def test_minimality_and_sqrt_bound_small_ranges():
    assert _check("minimality", 2, 30).ok
    assert _check("sqrt_bound", 2, 30).ok


def test_minimality_reports_a_planted_non_minimal_pair(monkeypatch):
    # (-10/1, 4/3) represents 7 mod 17 but is not pair-minimal: d = 1 gives
    # the positive residue 7, below 10 + 4 with 1 < 3.
    real_steps = descent_steps

    def planted(x, m):
        yield from real_steps(x, m)
        if (x, m) == (7, 17):
            yield -10, 1, 4, 3, None

    monkeypatch.setattr(harness, "descent_steps", planted)
    report = _check("minimality", 17, 17)
    assert report.failures == 1
    assert report.passes == sum(len(list(real_steps(x, 17))) for x in range(17))
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == "trace pair (-10/1, 4/3) is not pair-minimal"
    assert ce.replay == "minfrac trace --modulus 17 --x 7"


def test_agreement_reports_a_planted_sieve_entry(monkeypatch):
    # 7 mod 17 has minimum -3/2; plant 4/3, another representation of 7.
    real_table = harness.minimum_table

    def planted(m):
        nums, dens = real_table(m)
        if m == 17:
            nums[7], dens[7] = 4, 3
        return nums, dens

    base = _check("agreement", 17, 17)
    monkeypatch.setattr(harness, "minimum_table", planted)
    report = _check("agreement", 17, 17)
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == (
        "sieve minimum 4/3, run minimum -3/2, step minimum -3/2 "
        "and enumerated minimum -3/2 differ"
    )
    assert ce.replay == "minfrac repr --modulus 17 --x 7"


def test_agreement_holds_the_sieve_at_x_0(monkeypatch):
    # The sieve's x = 0 entry is 0/1; plant 17/1, another representation of 0.
    real_table = harness.minimum_table

    def planted(m):
        nums, dens = real_table(m)
        if m == 17:
            nums[0], dens[0] = 17, 1
        return nums, dens

    base = _check("agreement", 17, 17)
    monkeypatch.setattr(harness, "minimum_table", planted)
    report = _check("agreement", 17, 17)
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 0)
    assert ce.detail == (
        "sieve minimum 17/1, run minimum 0/1, step minimum 0/1 "
        "and enumerated minimum 0/1 differ"
    )
    assert ce.replay == "minfrac repr --modulus 17 --x 0"


def _last_step(*step):
    """A descent_steps whose walk of 7 mod 17 ends on `step` instead of its own last pair."""

    def plant(real):
        def planted(x, m):
            steps = list(real(x, m))
            if (x, m) == (7, 17):
                steps[-1] = step
            return iter(steps)

        return planted

    return plant


def _witness(fake):
    """A sqrt_bound_witness that returns `fake` for 7 mod 17, or raises if it is None."""

    def plant(real):
        def planted(r):
            if (r.x, r.m) != (7, 17):
                return real(r)
            if fake is None:
                raise InvariantError("planted")
            return fake

        return planted

    return plant


@pytest.mark.parametrize(
    "check, target, plant, detail",
    [
        ("determinant", "descent_steps", _last_step(-10, 1, 4, 3, None),
         "pair (-10/1, 4/3) has determinant 34, expected 17"),
        # The walk's last pair (-1/12, 1/5) has magnitude sum 2 and max 1.
        ("progress", "descent_steps", _last_step(-1, 12, 1, 17, "positive"),
         "step 7: magnitude sum 2 -> 2, replaced side 1 vs previous max 1"),
        # 4/3 represents 7 mod 17 but is not the first sqrt-bounded fraction, -3/2.
        ("sqrt_bound", "sqrt_bound_witness", _witness(Fraction(4, 3)),
         "run witness 4/3 vs step witness -3/2: "
         "must be equal, represent x and have n^2 <= 17 and d^2 <= 17"),
        ("sqrt_bound", "sqrt_bound_witness", _witness(None),
         "no representation with n^2 <= 17 and d^2 <= 17; trace: (-17/0, 7/1), (-10/1, 7/1), "
         "(-3/2, 7/1), (-3/2, 4/3), (-3/2, 1/5), (-2/7, 1/5), (-1/12, 1/5), (-1/12, 0/17)"),
    ],
    ids=["determinant", "progress", "sqrt_bound-mismatch", "sqrt_bound-raises"],
)
def test_each_check_reports_a_planted_failure(monkeypatch, check, target, plant, detail):
    base = _check(check, 17, 17)
    monkeypatch.setattr(harness, target, plant(getattr(harness, target)))
    report = _check(check, 17, 17)
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == detail
    assert ce.replay == "minfrac trace --modulus 17 --x 7"


def test_agreement_refuses_a_modulus_over_the_pair_ceiling_before_the_sieve(monkeypatch):
    def unreachable(m):
        raise AssertionError(f"minimum_table({m}) built for a refused modulus")

    monkeypatch.setattr(harness, "minimum_table", unreachable)
    with pytest.raises(CeilingExceeded) as exc:
        _check("agreement", 11, 11, ceiling=10)
    assert str(exc.value) == (
        "pair-minimality check: modulus 11 exceeds the ceiling 10; "
        "raise the ceiling explicitly to proceed"
    )


def _assert_one_pair_counterexample(base, report, detail):
    # Exactly the trace pair (-3/2, 4/3) of 7 mod 17 comes back.
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == f"{detail} for (-3/2, 4/3)"
    assert ce.replay == "minfrac trace --modulus 17 --x 7"


def test_agreement_reports_a_planted_pair_verdict(monkeypatch):
    # Flip is_minimal_pair's verdict on one trace pair: every trace pair in
    # the range must still be compared, once, through the harness's own
    # is_minimal_pair, the name the benchmark's traced run wraps.
    real = harness.is_minimal_pair
    target = (7, 17, -3, 2, 4, 3)
    seen = []

    def planted(*pair):
        seen.append(pair)
        verdict = real(*pair)
        return not verdict if pair == target else verdict

    base = _check("agreement", 2, 30)
    monkeypatch.setattr(harness, "is_minimal_pair", planted)
    report = _check("agreement", 2, 30)
    assert len(seen) == sum(len(list(descent_steps(x, m))) for m in range(2, 31) for x in range(m))
    assert seen.count(target) == 1
    _assert_one_pair_counterexample(
        base, report, "is_minimal_pair says False but the exhaustive scan says True"
    )


def _determinant_only(x, m, neg_n, neg_d, pos_n, pos_d):
    """is_minimal_pair without its empty-ranges disjunct (neg_d == 0 and pos_d == 1)."""
    return pos_n * neg_d - neg_n * pos_d == m


def test_agreement_holds_off_class_random_pairs_to_the_oracle(monkeypatch):
    # Some random pairs have a numerator one M off its class residue.  Such
    # a pair is minimal only with both ranges empty, neg.d = 0 and
    # pos.d = 1, where its determinant exceeds M: a verdict from the
    # determinant alone is wrong on exactly those pairs.
    monkeypatch.setattr(harness, "is_minimal_pair", _determinant_only)
    report = _check("agreement", 2, 30, random_pairs_per_m=16)
    assert report.failures
    for ce in report.counterexamples:
        assert re.fullmatch(r"is_minimal_pair says False but the exhaustive scan says True "
                            r"for \(-\d+/0, \d+/1\)", ce.detail), ce.detail


def test_agreement_reports_a_planted_oracle_verdict(monkeypatch):
    # Lower pos[3] of 7 mod 17's prefix minima below 7, the threshold of
    # (-3/2, 4/3), the walk's only pair with positive denominator 3: the
    # oracle then calls that pair, and no other, non-minimal.  Every residue
    # in the range is scanned, once.
    real = harness.prefix_scan
    scanned = []

    def planted(x, m):
        scanned.append((x, m))
        neg, pos, minimum = real(x, m)
        if (x, m) == (7, 17):
            pos[3] = 0
        return neg, pos, minimum

    base = _check("agreement", 2, 30)
    monkeypatch.setattr(harness, "prefix_scan", planted)
    report = _check("agreement", 2, 30)
    assert scanned == [(x, m) for m in range(2, 31) for x in range(m)]
    _assert_one_pair_counterexample(
        base, report, "is_minimal_pair says True but the exhaustive scan says False"
    )


def test_agreement_reports_a_planted_enumerated_minimum(monkeypatch):
    # Replace the oracle scan's minimum for 7 mod 17, (-3, 2), by (4, 3),
    # which represents 7 too: that residue's minimum comparison, and nothing
    # else, fails, with a replay through `repr`.
    real = harness.prefix_scan

    def planted(x, m):
        neg, pos, minimum = real(x, m)
        return neg, pos, (4, 3) if (x, m) == (7, 17) else minimum

    base = _check("agreement", 2, 30)
    monkeypatch.setattr(harness, "prefix_scan", planted)
    report = _check("agreement", 2, 30)
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == ("sieve minimum -3/2, run minimum -3/2, step minimum -3/2 "
                         "and enumerated minimum 4/3 differ")
    assert ce.replay == "minfrac repr --modulus 17 --x 7"


def test_progress_flags_long_traces_as_anomalies():
    # x = 1 and x = M-1 walk M steps; for M = 60 that exceeds 10*bit_length
    report = _check("progress", 60, 60)
    assert report.ok
    assert report.failures == 0
    assert report.anomaly_count == 2
    assert [(a.m, a.x) for a in report.anomalies] == [(60, 1), (60, 59)]


def test_anomaly_sample_is_capped():
    # At 10 pairs per bit, [2, 100] has 70 traces over the cap.
    report = _check("progress", 2, 100)
    assert report.ok
    assert report.anomaly_count == 70 > ANOMALY_SAMPLE_CAP
    assert len(report.anomalies) == ANOMALY_SAMPLE_CAP


def test_a_huge_modulus_range_is_striped_lazily(monkeypatch):
    # The moduli reach the workers as lazy ranges, so a typo'd --m-max
    # allocates nothing before the first check runs.
    tasks = []

    def record(task):
        tasks.append(task)
        return [[0, [], [], 0.0] for _ in task[0].checks]

    monkeypatch.setattr(harness, "_chunk_worker", record)
    _check("determinant", 2, 10**15)
    ((config, ms),) = tasks
    assert config.checks == ("determinant",)
    assert ms == range(2, 10**15 + 1)
    assert len(ms) == 10**15 - 1


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
def test_workers_are_capped_by_the_cpus_this_process_may_run_on(monkeypatch, affinity):
    # Pinned to one CPU (as by taskset) of a four-CPU machine, --workers 2
    # starts no pool: the one task runs in this process.  Where the platform
    # has no affinity mask, the CPU count caps the workers.
    tasks = []

    def record(task):
        tasks.append(task)
        return [[0, [], [], 0.0] for _ in task[0].checks]

    monkeypatch.setattr(harness, "_chunk_worker", record)
    if affinity:
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    _check("determinant", 2, 10, parallelism=2)
    ((_, ms),) = tasks
    assert ms == range(2, 11)


def test_a_sweep_refuses_a_modulus_over_the_pair_ceiling_before_walking_it(monkeypatch):
    # run_checks holds the range to the pair ceiling before it sweeps, so
    # agreement's scan is refused before determinant walks any x of 11.
    def unwalkable(x, m):
        raise AssertionError(f"walked {x} mod {m} for a refused modulus")

    monkeypatch.setattr(harness, "descent_steps", unwalkable)
    with pytest.raises(CeilingExceeded) as exc:
        run_checks(SweepConfig(11, 11, checks=("determinant", "agreement"), ceiling=10))
    assert str(exc.value) == (
        "pair-minimality check: modulus 11 exceeds the ceiling 10; "
        "raise the ceiling explicitly to proceed"
    )


def test_a_range_across_the_pair_ceiling_is_refused_before_any_modulus_is_swept(monkeypatch):
    # [2, 260] crosses the ceiling 250.  The refusal names 251, the first
    # modulus above it, before any worker sweeps [2, 250], whatever the
    # worker count.
    def unreachable(task):
        raise AssertionError(f"swept {task[1]} of a range that crosses the pair ceiling")

    monkeypatch.setattr(harness, "_chunk_worker", unreachable)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in (1, 2):
        config = SweepConfig(2, 260, checks=("minimality",), parallelism=workers, ceiling=250)
        with pytest.raises(CeilingExceeded) as exc:
            run_checks(config)
        assert str(exc.value) == (
            "pair-minimality check: modulus 251 exceeds the ceiling 250; "
            "raise the ceiling explicitly to proceed"
        )


def _durationless(reports):
    return [VerificationReport(r.check, r.passes, r.counterexamples, r.anomaly_count,
                               r.anomalies, duration=0.0) for r in reports]


def test_one_sweep_of_every_check_matches_one_sweep_per_check(monkeypatch):
    # The five checks share each residue's Residue, walk and oracle scan,
    # built once per residue, and report what five separate sweeps report;
    # the enumerated minimum comes from that scan, not from brute_minimum.
    # run_checks gates the range once; the workers scan ungated.
    config = {"random_pairs_per_m": 8, "seed": 3}
    singles = [_check(name, 2, 40, **config) for name in CHECK_NAMES]
    pooled = run_checks(SweepConfig(2, 40, parallelism=2, **config))
    calls = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("Residue", "descent_steps", "prefix_scan", "brute_minimum",
                 "check_pair_ceiling"):
        count(harness, name)
    serial = run_checks(SweepConfig(2, 40, **config))
    residues = sum(range(2, 41))
    assert calls == {"Residue": residues, "descent_steps": residues,
                     "prefix_scan": residues, "check_pair_ceiling": 1}
    assert calls["brute_minimum"] == 0
    assert _durationless(serial) == _durationless(pooled) == _durationless(singles)


def test_parallel_sweep_matches_serial(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    serial = run_checks(SweepConfig(2, 40, parallelism=1))
    parallel = run_checks(SweepConfig(2, 40, parallelism=3))
    assert _durationless(serial) == _durationless(parallel)
    # Planted counterexamples and anomalies, found stripe by stripe as three
    # workers find them and pickled as the pool returns them, merge into
    # what one worker reports.  The stripes run in this process, so the
    # plants hold whatever start method a pool would use.
    monkeypatch.setattr(harness, "is_minimal_pair", _determinant_only)
    monkeypatch.setattr(harness, "TRACE_CAP_FACTOR", 1)
    config = SweepConfig(2, 30, checks=("progress", "agreement"), random_pairs_per_m=16)
    serial = run_checks(config)
    parts = [pickle.loads(pickle.dumps(harness._chunk_worker((config, range(2 + i, 31, 3)))))
             for i in range(3)]
    merged = harness._merge(config.checks, parts)
    assert serial[0].anomaly_count and serial[1].failures
    assert _durationless(serial) == _durationless(merged)


def test_agreement_random_pairs_are_seed_deterministic():
    one = _check("agreement", 17, 17, random_pairs_per_m=200, seed=42)
    two = _check("agreement", 17, 17, random_pairs_per_m=200, seed=42, parallelism=2)
    assert one.ok and two.ok
    assert one.passes == two.passes
    assert one.counterexamples == two.counterexamples


def test_agreement_includes_random_pairs_in_pass_count():
    base = _check("agreement", 17, 17)
    extra = _check("agreement", 17, 17, random_pairs_per_m=200, seed=7)
    assert extra.passes == base.passes + 200
