"""Tests for the sweep harness: reports, determinism, parallel merge."""

import dataclasses

import pytest

import minfrac.harness as harness
from minfrac.descent import descent_steps
from minfrac.errors import InvariantError
from minfrac.harness import (
    ANOMALY_SAMPLE_CAP,
    CHECK_NAMES,
    Counterexample,
    SweepConfig,
    VerificationReport,
    check_agreement,
    check_determinant,
    check_progress,
    check_sqrt_bound,
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
    with pytest.raises(InvariantError):
        VerificationReport(check="determinant", passes=1, failures=1, counterexamples=())
    ce = Counterexample(17, 7, "broken", "minfrac trace --modulus 17 --x 7")
    report = VerificationReport(
        check="determinant", passes=1, failures=1, counterexamples=(ce,)
    )
    assert not report.ok


def test_report_to_dict_is_duration_free():
    report = VerificationReport(
        check="determinant", passes=3, failures=0, counterexamples=(), duration=1.25
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
    report = check_determinant((17, 17))
    assert report.ok
    assert report.passes == sum(len(list(descent_steps(x, 17))) for x in range(17))


def _check_minimality(m_range):
    return run_checks(SweepConfig(m_range[0], m_range[1], checks=("minimality",)))[0]


def test_minimality_and_sqrt_bound_small_ranges():
    assert _check_minimality((2, 30)).ok
    assert check_sqrt_bound((2, 30)).ok


def test_minimality_reports_a_planted_non_minimal_pair(monkeypatch):
    # (-10/1, 4/3) represents 7 mod 17 but is not pair-minimal: d = 1 gives
    # the positive residue 7, below 10 + 4 with 1 < 3.
    real_steps = descent_steps

    def planted(x, m):
        yield from real_steps(x, m)
        if (x, m) == (7, 17):
            yield -10, 1, 4, 3, None

    monkeypatch.setattr(harness, "descent_steps", planted)
    report = _check_minimality((17, 17))
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
        table = real_table(m)
        if m == 17:
            table[7 - 1] = Fraction(4, 3)
        return table

    base = check_agreement((17, 17))
    monkeypatch.setattr(harness, "minimum_table", planted)
    report = check_agreement((17, 17))
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == (
        "sieve minimum 4/3, run minimum -3/2, step minimum -3/2 "
        "and enumerated minimum -3/2 differ"
    )
    assert ce.replay == "minfrac repr --modulus 17 --x 7"


def _assert_planted_pair_verdict(monkeypatch, route, detail):
    # Flip one pair route's verdict on the trace pair (-3/2, 4/3) of 7 mod
    # 17: exactly that pair must come back as a counterexample, and every
    # trace pair in the range must still be compared, once.
    real = getattr(harness, route)
    target = (7, 17, -3, 2, 4, 3)
    seen = []

    def planted(*pair):
        seen.append(pair)
        verdict = real(*pair)
        return not verdict if pair == target else verdict

    base = check_agreement((2, 30))
    monkeypatch.setattr(harness, route, planted)
    report = check_agreement((2, 30))
    assert len(seen) == sum(len(list(descent_steps(x, m))) for m in range(2, 31) for x in range(m))
    assert seen.count(target) == 1
    assert report.failures == 1
    assert report.passes == base.passes - 1
    (ce,) = report.counterexamples
    assert (ce.m, ce.x) == (17, 7)
    assert ce.detail == f"{detail} for (-3/2, 4/3)"
    assert ce.replay == "minfrac trace --modulus 17 --x 7"


def test_agreement_reports_a_planted_pair_verdict(monkeypatch):
    _assert_planted_pair_verdict(
        monkeypatch, "pair_minimal", "is_minimal_pair says False but the exhaustive scan says True"
    )


def test_agreement_reports_a_planted_oracle_verdict(monkeypatch):
    _assert_planted_pair_verdict(
        monkeypatch, "brute_pair_scan", "is_minimal_pair says True but the exhaustive scan says False"
    )


def test_progress_flags_long_traces_as_anomalies():
    # x = 1 and x = M-1 walk M steps; for M = 60 that exceeds 10*bit_length
    report = check_progress((60, 60))
    assert report.ok
    assert report.failures == 0
    assert report.anomaly_count == 2
    assert [(a.m, a.x) for a in report.anomalies] == [(60, 1), (60, 59)]


def test_anomaly_sample_is_capped():
    # At 10 pairs per bit, [2, 100] has 70 traces over the cap.
    report = check_progress((2, 100))
    assert report.ok
    assert report.anomaly_count == 70 > ANOMALY_SAMPLE_CAP
    assert len(report.anomalies) == ANOMALY_SAMPLE_CAP


def test_a_huge_modulus_range_is_striped_lazily(monkeypatch):
    # The moduli reach the workers as lazy ranges, so a typo'd --m-max
    # allocates nothing before the first check runs.
    tasks = []

    def record(task):
        tasks.append(task)
        return 0, [], []

    monkeypatch.setattr(harness, "_chunk_worker", record)
    check_determinant((2, 10**15))
    ((check, ms, _),) = tasks
    assert check == "determinant"
    assert ms == range(2, 10**15 + 1)
    assert len(ms) == 10**15 - 1


def test_parallel_sweep_matches_serial():
    serial = run_checks(SweepConfig(2, 40, parallelism=1))
    parallel = run_checks(SweepConfig(2, 40, parallelism=3))
    for a, b in zip(serial, parallel):
        assert dataclasses.replace(a, duration=0.0) == dataclasses.replace(b, duration=0.0)


def test_agreement_random_pairs_are_seed_deterministic():
    one = check_agreement((17, 17), random_pairs_per_m=200, seed=42)
    two = check_agreement((17, 17), random_pairs_per_m=200, seed=42, parallelism=2)
    assert one.ok and two.ok
    assert one.passes == two.passes
    assert one.counterexamples == two.counterexamples


def test_agreement_includes_random_pairs_in_pass_count():
    base = check_agreement((17, 17))
    extra = check_agreement((17, 17), random_pairs_per_m=200, seed=7)
    assert extra.passes == base.passes + 200
