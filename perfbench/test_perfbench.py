"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from functools import partial

import pytest

import checks
import run
import workloads as wl
from tracing import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "query": dataclasses.replace(
        run.WORKLOADS["query"], calls=partial(wl.query_calls, n=5), replay=5, timing_repeats=1),
    "table": dataclasses.replace(
        run.WORKLOADS["table"], calls=partial(wl.table_calls, scale=200), timing_repeats=1),
    "verify": dataclasses.replace(
        run.WORKLOADS["verify"], calls=partial(wl.verify_calls, m_max=12, random_pairs=2),
        timing_repeats=1),
}


def _run(capsys, *argv: str) -> tuple[int, dict | None]:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric(name, trace, monkeypatch, capsys):
    workload = TINY[name]
    monkeypatch.setitem(run.WORKLOADS, name, workload)
    code, result = _run(capsys, "--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        calls = workload.calls(3)[: workload.replay]
        euclid = sum(wl.euclid_steps(x, m) for c in calls for x, m in wl.residues_of(c))
        assert result["metrics"]["descent.steps"]["value"] == euclid


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, result = _run(capsys, "--workload", "query", "--seed", "1", "--seconds", "1")
    assert code != 0 and result is None


def test_timings_are_scaled_by_the_host_slowdown(monkeypatch):
    def fake_cli(call):
        time.sleep(0.02)
        return 0, "", 0.5, 1024

    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REFERENCE_S)
    values = run._timed_run(TINY["verify"], 1, 1, run.Tally(), fake_cli)
    assert values["latency_p50_ms"] == pytest.approx(250)
    assert values["latency_p90_ms"] == pytest.approx(250)


def test_one_cpu_pins_and_restores():
    allowed = os.sched_getaffinity(0)
    with run.one_cpu():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == allowed


def test_peak_rss_is_the_childs_own():
    hoard = bytearray(64 * 2**20)  # this process's RSS, far above a bare interpreter's
    hoard[::4096] = b"\1" * len(hoard[::4096])
    with run.Spawner(run.child_env()) as spawner:
        rc, _, _, rss_kb = spawner.python(["-c", "pass"])
    assert rc == 0 and rss_kb < 40 * 1024


REPR_12_17 = wl.Call(kind="repr", argv=(), m=17, x=12)


def _trace_7_17() -> tuple[wl.Call, dict]:
    x, m = 7, 17
    pairs = [(-17, 0, 7, 1, None), (-10, 1, 7, 1, "negative"), (-3, 2, 7, 1, "negative"),
             (-3, 2, 4, 3, "positive"), (-3, 2, 1, 5, "positive"), (-2, 7, 1, 5, "negative"),
             (-1, 12, 1, 5, "negative"), (-1, 12, 0, 17, "positive")]
    doc = {"modulus": m, "x": x, "trace": [
        {"neg": {"n": nn, "d": nd}, "pos": {"n": pn, "d": pd}, "det": m, "replaced": rep}
        for nn, nd, pn, pd, rep in pairs]}
    return wl.Call(kind="trace", argv=(), m=m, x=x, steps=wl.euclid_steps(x, m)), doc


def test_checker_accepts_good_outputs():
    assert checks.verdict(REPR_12_17, 0, "2/3\nwitness: 2/3\n", checks.check_repr) is None
    call, doc = _trace_7_17()
    assert checks.verdict(call, 0, json.dumps(doc), checks.check_trace) is None


def test_checker_fails_flipped_numerator():
    tally = run.Tally()
    tally.record(run.Checker(0)(REPR_12_17, 0, "-2/3\nwitness: 2/3\n"))
    assert tally.failures and tally.attempted == 1


def test_checker_fails_wrong_determinant():
    call, doc = _trace_7_17()
    doc["trace"][3]["det"] = 18
    assert checks.verdict(call, 0, json.dumps(doc), checks.check_trace) is not None
    call, doc = _trace_7_17()
    doc["trace"][3]["pos"]["n"] = 5  # reported det stays 17, the pair does not
    assert checks.verdict(call, 0, json.dumps(doc), checks.check_trace) is not None


def test_checker_fails_nonzero_exit_and_garbage():
    assert checks.verdict(REPR_12_17, 1, "2/3\nwitness: 2/3\n", checks.check_repr) is not None
    call, _ = _trace_7_17()
    assert checks.verdict(call, 0, "{not json", checks.check_trace) is not None


def test_checker_fails_table_and_verify_mismatches():
    table = wl.Call(kind="table", argv=(), m=17, residues=16)
    entries = [(1, 1), (2, 1), (3, 1), (4, 1), (-2, 3), (1, 3), (-3, 2), (-1, 2), (1, 2),
               (3, 2), (-1, 3), (2, 3), (-4, 1), (-3, 1), (-2, 1), (-1, 1)]
    doc = {"modulus": 17, "fractions": [{"n": n, "d": d} for n, d in entries]}
    assert checks.check_table(table, json.dumps(doc), samples={12: (2, 3)}) is None
    assert checks.check_table(table, json.dumps(doc), samples={12: (-3, 4)}) is not None
    doc["fractions"][0] = {"n": 18, "d": 1}
    assert checks.check_table(table, json.dumps(doc), samples={}) is not None

    expected = {"determinant": 5, "agreement": 7}
    report = {"report": [{"check": "determinant", "pass": 5, "fail": 0, "counterexamples": []},
                         {"check": "agreement", "pass": 6, "fail": 0, "counterexamples": []}]}
    assert checks.check_verify(None, json.dumps(report), expected) is not None


def test_generator_is_deterministic():
    for make in (partial(wl.query_calls, n=40), wl.table_calls, wl.verify_calls):
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_generator_respects_the_step_cap():
    rng = random.Random(0)
    for m in (wl.SECP256K1_P, wl.CURVE25519_P):
        for draw, cap in ((wl.uniform_x, 2000), (partial(wl.skewed_x, k=4000), 2**13)):
            for _ in range(20):
                x, steps = draw(rng, m, cap=cap)
                assert steps <= cap and steps == wl.euclid_steps(x, m)
    for call in wl.query_calls(7, n=100):
        assert call.steps <= wl.STEP_CAP and call.steps == wl.euclid_steps(call.x, call.m)


def test_skewed_x_has_the_chosen_large_quotient():
    rng = random.Random(1)
    for k in (256, 3000, 65535):
        x, _ = wl.skewed_x(rng, wl.SECP256K1_P, k)
        assert k in wl.partial_quotients(x, wl.SECP256K1_P)[:4]  # prefix <= 3 long


def test_euclid_count_is_the_walk_length():
    from minfrac.descent import descent_steps

    for m in range(2, 60):
        for x in range(m):
            assert sum(1 for _ in descent_steps(x, m)) - 1 == wl.euclid_steps(x, m)


def test_verify_pass_counts_are_pinned():
    assert wl.verify_expected(72, 4) == {
        "determinant": 35549, "minimality": 35549, "sqrt_bound": 2627,
        "progress": 32922, "agreement": 38460,
    }


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 15, 25, 1, 0], ["b", 50, 60, 0, 0]]
    totals = tracer.totals()
    assert totals["a"] == (100, 60, 1)
    assert totals["b"] == (40, 30, 2)
    assert totals["c"] == (10, 10, 1)
