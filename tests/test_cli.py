"""End-to-end CLI tests: output text, JSON schema, exit codes."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import minfrac.cli as cli
import minfrac.harness as harness
from minfrac.cli import _ratio, main
from minfrac.descent import run_descent
from minfrac.minimality import minimum_fraction, sqrt_bound_witness
from minfrac.errors import CEILING_ENV_VAR
from minfrac.oracle import enumerate_class
from minfrac.residues import Fraction, Residue, ResidueClass

TABLE_17 = "1, 2, 3, 4, -2/3, 1/3, -3/2, -1/2, 1/2, 3/2, -1/3, 2/3, -4, -3, -2, -1"

SECP256K1_P = 2**256 - 2**32 - 977


def _parse_fraction(text):
    """Parse "n/d" (or a bare integer, meaning denominator 1) into a Fraction."""
    num, _, den = text.strip().partition("/")
    return Fraction(int(num), int(den or 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repr_text(capsys):
    code, out, _ = run(capsys, "repr", "-m", "17", "--x", "12")
    assert code == 0
    assert out.splitlines() == ["2/3", "witness: 2/3"]


def test_repr_bare_integer_display(capsys):
    code, out, _ = run(capsys, "repr", "-m", "17", "--x", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"
    code, out, _ = run(capsys, "repr", "-m", "17", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_repr_reduces_x_with_notice(capsys):
    code, out, err = run(capsys, "repr", "-m", "17", "--x", "29")
    assert code == 0
    assert out.splitlines()[0] == "2/3"
    assert "reduced to 12" in err
    code, out, err = run(capsys, "repr", "-m", "17", "--x", "-5")
    assert code == 0
    assert out.splitlines()[0] == "2/3"
    assert "reduced to 12" in err


def test_repr_json_matches_text(capsys):
    code, out, _ = run(capsys, "repr", "-m", "17", "--x", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 17 and payload["x"] == 12
    minimum, witness = payload["fractions"]
    code, out, _ = run(capsys, "repr", "-m", "17", "--x", "12")
    lines = out.splitlines()
    assert _parse_fraction(lines[0]) == Fraction(minimum["n"], minimum["d"])
    assert _parse_fraction(lines[1].removeprefix("witness: ")) == Fraction(witness["n"], witness["d"])


def test_repr_256_bit_near_small_rationals(capsys):
    # x = 1 and x close to P/2, P/3 walk of order P steps; runs make them instant
    start = time.perf_counter()
    p = SECP256K1_P
    for x, expected in ((1, "1"), (p // 2, "-1/2"), (p // 3, "-1/3"), (p - 1, "-1")):
        code, out, _ = run(capsys, "repr", "-m", hex(p), "--x", str(x))
        assert code == 0
        minimum, witness = out.splitlines()
        assert minimum == expected
        w = _parse_fraction(witness.removeprefix("witness: "))
        assert w.n * w.n <= p and w.d * w.d <= p
        assert (x * w.d - w.n) % p == 0
    assert time.perf_counter() - start < 1.0


def test_hex_input(capsys):
    code, out, _ = run(capsys, "repr", "-m", "0x11", "--x", "0xC")
    assert code == 0
    assert out.splitlines()[0] == "2/3"


def test_enumerate_positive(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "17", "--x", "7", "--class", "positive")
    assert code == 0
    assert out.strip() == (
        "7/1, 14/2, 4/3, 11/4, 1/5, 8/6, 15/7, 5/8, 12/9, 2/10, 9/11, "
        "16/12, 6/13, 13/14, 3/15, 10/16, 0/17"
    )


def test_enumerate_negative(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "17", "--x", "7", "--class", "negative")
    assert code == 0
    assert out.strip() == (
        "-17/0, -10/1, -3/2, -13/3, -6/4, -16/5, -9/6, -2/7, -12/8, -5/9, "
        "-15/10, -8/11, -1/12, -11/13, -4/14, -14/15, -7/16"
    )


def test_enumerate_both_and_tiny(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "2", "--x", "1", "--class", "positive")
    assert code == 0
    assert out.strip() == "1/1, 0/2"
    code, out, _ = run(capsys, "enumerate", "-m", "2", "--x", "1")
    assert code == 0
    assert out.splitlines() == ["positive: 1/1, 0/2", "negative: -2/0, -1/1"]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "17", "--x", "7", "--class", "positive",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["class"] == "positive"
    assert payload["fractions"][2] == {"n": 4, "d": 3}
    code, out, _ = run(capsys, "enumerate", "-m", "2", "--x", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["class"] == "both"
    assert payload["positive"] == [{"n": 1, "d": 1}, {"n": 0, "d": 2}]
    assert payload["negative"] == [{"n": -2, "d": 0}, {"n": -1, "d": 1}]


def test_enumerate_ceiling_exit_code(capsys):
    # A refused enumeration writes nothing: the gate is held before the
    # listing starts, not when its stream is first read.
    code, out, err = run(capsys, "enumerate", "-m", str(10**6 + 1), "--x", "3")
    assert code == 4 and out == ""
    assert "ceiling" in err
    code, out, err = run(capsys, "enumerate", "-m", "11", "--x", "3", "--ceiling-override", "10",
                         "--format", "json")
    assert code == 4 and out == ""
    assert "ceiling" in err
    code, out, _ = run(capsys, "enumerate", "-m", "11", "--x", "3", "--class", "positive",
                       "--ceiling-override", "11")
    assert code == 0
    assert len(out.strip().split(", ")) == 11


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "-m", "17", "--x", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "(-17/0, 7/1) det=17"
    assert lines[1] == "(-10/1, 7/1) det=17 replaced=negative"
    assert lines[3] == "(-3/2, 4/3) det=17 replaced=positive"
    assert lines[-1] == "(-1/12, 0/17) det=17 replaced=positive"


def test_trace_single_pair_for_zero(capsys):
    code, out, _ = run(capsys, "trace", "-m", "17", "--x", "0")
    assert code == 0
    assert out.splitlines() == ["(-17/0, 0/1) det=17"]


def test_trace_refuses_walks_above_the_ceiling(capsys, monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "trace", "-m", hex(SECP256K1_P), "--x", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert f"trace: pair count {SECP256K1_P + 1} exceeds the ceiling 1000000" in err
    # 1 mod 17 walks 17 steps: 18 pairs
    assert run(capsys, "trace", "-m", "17", "--x", "1", "--ceiling-override", "17")[0] == 4
    code, out, _ = run(capsys, "trace", "-m", "17", "--x", "1", "--ceiling-override", "18")
    assert code == 0
    assert len(out.splitlines()) == 18
    monkeypatch.setenv(CEILING_ENV_VAR, "17")
    assert run(capsys, "trace", "-m", "17", "--x", "1")[0] == 4
    assert run(capsys, "trace", "-m", "17", "--x", "1", "--ceiling-override", "18")[0] == 0


def test_malformed_ceiling_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(CEILING_ENV_VAR, "abc")
    code, out, err = run(capsys, "table", "-m", "17", "--cross-check")
    assert code == 2
    assert out == ""
    assert CEILING_ENV_VAR in err and "'abc'" in err


def test_trace_json_matches_text(capsys):
    code, out, _ = run(capsys, "trace", "-m", "101", "--x", "37", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    steps = payload["trace"]
    assert all(s["det"] == 101 for s in steps)
    assert steps[0]["replaced"] is None
    assert steps[0]["neg"] == {"n": -101, "d": 0}
    assert steps[-1]["pos"]["n"] == 0
    code, out, _ = run(capsys, "trace", "-m", "101", "--x", "37")
    lines = out.splitlines()
    assert len(lines) == len(steps)
    for line, s in zip(lines, steps):
        pair, _, rest = line.partition(" det=")
        assert pair == f"({s['neg']['n']}/{s['neg']['d']}, {s['pos']['n']}/{s['pos']['d']})"
        assert rest.split()[0] == "101"


def test_trace_json_is_laid_out_as_json_dumps(capsys):
    # `trace` writes its JSON pair by pair; the bytes must be json.dumps' own.
    for m, x in ((17, 7), (17, 0), (2, 1)):
        code, out, _ = run(capsys, "trace", "-m", str(m), "--x", str(x), "--format", "json")
        assert code == 0
        payload = {"modulus": m, "x": x, "trace": [
            {
                "neg": {"n": nn, "d": nd},
                "pos": {"n": pn, "d": pd},
                "det": pn * nd - nn * pd,
                "replaced": None if rep is None else rep.value,
            }
            for nn, nd, pn, pd, rep in run_descent(Residue(x, m))
        ]}
        assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("m", [2, 17, 97])
def test_enumerate_and_repr_are_laid_out_as_json_dumps(capsys, m):
    # Both stream their lists; their layout is held to json.dumps of the
    # lists the library returns, enumerate_class's and the fractions'.
    for x in sorted({0, 1, 7 % m, m - 1}):
        r = Residue(x, m)
        lists = {c.value: [{"n": n, "d": d} for n, d in enumerate_class(r, c)]
                 for c in ResidueClass}
        texts = {cls: ", ".join(f"{f['n']}/{f['d']}" for f in fs) for cls, fs in lists.items()}
        expected = {cls: ({"modulus": m, "x": x, "class": cls, "fractions": lists[cls]},
                          texts[cls] + "\n") for cls in lists}
        expected["both"] = ({"modulus": m, "x": x, "class": "both", **lists},
                            "".join(f"{cls}: {text}\n" for cls, text in texts.items()))
        for cls, (payload, text) in expected.items():
            argv = ("enumerate", "-m", str(m), "--x", str(x), "--class", cls)
            assert run(capsys, *argv) == (0, text, "")
            assert run(capsys, *argv, "--format", "json") == (
                0, json.dumps(payload, indent=2) + "\n", "")
        fractions = (minimum_fraction(r), sqrt_bound_witness(r))
        payload = {"modulus": m, "x": x, "fractions": [{"n": f.n, "d": f.d} for f in fractions]}
        argv = ("repr", "-m", str(m), "--x", str(x))
        assert run(capsys, *argv, "--format", "json") == (
            0, json.dumps(payload, indent=2) + "\n", "")
        shown = [str(f.n) if f.d == 1 else f"{f.n}/{f.d}" for f in fractions]
        assert run(capsys, *argv) == (0, f"{shown[0]}\nwitness: {shown[1]}\n", "")


def test_table_17(capsys):
    code, out, _ = run(capsys, "table", "-m", "17")
    assert code == 0
    assert out.strip() == TABLE_17


def test_table_tiny(capsys):
    code, out, _ = run(capsys, "table", "-m", "2")
    assert code == 0
    assert out.strip() == "1"


def test_table_cross_check(capsys):
    code, out, _ = run(capsys, "table", "-m", "97", "--cross-check")
    assert code == 0
    assert len(out.strip().split(", ")) == 96
    code, _, err = run(capsys, "table", "-m", "97", "--cross-check", "--ceiling-override", "50")
    assert code == 4
    assert "ceiling" in err


def test_table_cross_check_names_a_planted_entry(capsys, monkeypatch):
    real_table = cli.minimum_table

    def planted(m):
        nums, dens = real_table(m)
        nums[7], dens[7] = 4, 3  # 4/3 represents 7 mod 17; the minimum is -3/2
        return nums, dens

    monkeypatch.setattr(cli, "minimum_table", planted)
    code, out, err = run(capsys, "table", "-m", "17", "--cross-check")
    assert code == 1
    assert out == ""
    assert err == (
        "cross-check failed at x=7: table has 4/3, oracle says -3/2, descent says -3/2\n"
    )


def test_table_json_is_laid_out_as_json_dumps(capsys):
    # `table` writes its JSON entry by entry; the bytes must be json.dumps' own.
    for m in (2, 3, 17, 18):
        code, out, _ = run(capsys, "table", "-m", str(m), "--format", "json")
        assert code == 0
        payload = {"modulus": m, "fractions": [
            {"n": f.n, "d": f.d} for f in (minimum_fraction(Residue(x, m)) for x in range(1, m))
        ]}
        assert out == json.dumps(payload, indent=2) + "\n"


def test_table_refuses_more_entries_than_the_ceiling(capsys, monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "-m", "0x10000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert err == (
        f"error: table: entry count {2**40 - 1} exceeds the ceiling 1000000; "
        "raise the ceiling explicitly to proceed\n"
    )
    # M = 18 has 17 entries
    assert run(capsys, "table", "-m", "18", "--ceiling-override", "16")[0] == 4
    code, out, _ = run(capsys, "table", "-m", "18", "--ceiling-override", "17")
    assert code == 0
    assert len(out.split(", ")) == 17
    monkeypatch.setenv(CEILING_ENV_VAR, "16")
    assert run(capsys, "table", "-m", "18")[0] == 4
    assert run(capsys, "table", "-m", "18", "--ceiling-override", "17")[0] == 0
    # 96 entries pass; the cross-check's scan of modulus 97 does not
    code, _, err = run(capsys, "table", "-m", "97", "--cross-check", "--ceiling-override", "96")
    assert code == 4
    assert "minimum enumeration: modulus 97 exceeds the ceiling 96" in err


def test_table_json_matches_text(capsys):
    code, out, _ = run(capsys, "table", "-m", "17", "--format", "json")
    payload = json.loads(out)
    code, text_out, _ = run(capsys, "table", "-m", "17")
    rendered = [_parse_fraction(s) for s in text_out.strip().split(", ")]
    assert rendered == [Fraction(f["n"], f["d"]) for f in payload["fractions"]]


@pytest.mark.parametrize("command", ["trace", "enumerate"])
def test_a_closed_pipe_exits_141_quietly(command):
    # As `minfrac ... | head -1` does: the reader takes one line and goes away.
    # Exit 1 means a counterexample, so a closed pipe must not end that way.
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "minfrac.cli", command, "-m", "99991", "--x", "1"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_verify_clean_range(capsys):
    code, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "40")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines if not ln.startswith("  ")] == [
        "determinant", "minimality", "sqrt_bound", "progress", "agreement",
    ]
    assert all("fail=0" in ln for ln in lines if not ln.startswith("  "))


def test_verify_selected_checks_and_workers(capsys):
    code, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "30",
                       "--checks", "progress,determinant", "--workers", "2")
    assert code == 0
    heads = [ln.split(":")[0] for ln in out.splitlines() if not ln.startswith("  ")]
    assert heads == ["determinant", "progress"]


def test_verify_workers_are_clamped(capsys, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    argv = ["verify", "--m-min", "2", "--m-max", "30", "--checks", "determinant",
            "--workers", str(10**9), "--format", "json"]
    code, clamped, _ = run(capsys, *argv)
    assert code == 0
    assert pools == [4]  # bounded by the CPUs this process may run on
    code, serial, _ = run(capsys, *argv[:-4], "--workers", "1", "--format", "json")
    assert code == 0 and serial == clamped
    assert pools == [4]
    assert run(capsys, "verify", "--m-min", "2", "--m-max", "4", "--checks", "determinant",
               "--workers", str(10**9))[0] == 0
    assert pools == [4, 3]  # bounded by the number of moduli


def test_verify_ceilings_env_and_override(capsys, monkeypatch):
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    code, out, err = run(capsys, "verify", "--m-min", "10001", "--m-max", "10001",
                         "--checks", "minimality")
    assert (code, out) == (4, "")
    assert err == ("error: pair-minimality check: modulus 10001 exceeds the ceiling 10000; "
                   "raise the ceiling explicitly to proceed\n")
    monkeypatch.setenv(CEILING_ENV_VAR, "10")
    for check in ("minimality", "agreement"):
        for workers in ("1", "2"):
            code, out, err = run(capsys, "verify", "--m-min", "9", "--m-max", "11",
                                 "--checks", check, "--workers", workers)
            assert (code, out) == (4, "")
            assert "modulus 11 exceeds the ceiling 10" in err
            if check == "agreement":
                # Refused before the sieve is built, with the pair gate's message.
                assert err == ("error: pair-minimality check: modulus 11 exceeds the "
                               "ceiling 10; raise the ceiling explicitly to proceed\n")
        code, out, _ = run(capsys, "verify", "--m-min", "9", "--m-max", "11",
                           "--checks", check, "--ceiling-override", "11")
        assert code == 0 and "fail=0" in out


def test_import_leaves_the_process_pool_out():
    # concurrent.futures is a third of the CLI's import time; only a
    # parallel verify needs it.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, minfrac.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _imports_of(*args):
    """Exit code and the modules a fresh interpreter imports to run args."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    # The first line is the column header; each other line names one module.
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_start_up_leaves_the_harness_dataclasses_and_json_out():
    # Only `verify` runs the harness, and only its JSON needs json: the
    # listings write theirs entry by entry.
    heavy = {"minfrac.harness", "dataclasses", "json"}
    code, loaded = _imports_of("-c", "import minfrac.cli")
    assert code == 0 and "minfrac.cli" in loaded and not loaded & heavy
    code, loaded = _imports_of("-m", "minfrac.cli", "repr", "-m", "17", "--x", "7",
                               "--format", "json")
    assert code == 0 and "minfrac.minimality" in loaded and not loaded & heavy
    code, loaded = _imports_of("-m", "minfrac.cli", "verify", "--m-min", "2", "--m-max", "5",
                               "--format", "json")
    assert code == 0 and heavy <= loaded


def test_only_enumerate_and_the_table_cross_check_load_the_oracle():
    # The ceiling gate lives in minfrac.errors, so a command that only
    # holds a size to a ceiling loads no brute-force scan.
    for args in (("repr", "-m", "17", "--x", "7"), ("trace", "-m", "17", "--x", "7"),
                 ("table", "-m", "17"), ("table", "-m", "0x10000000000")):
        code, loaded = _imports_of("-m", "minfrac.cli", *args)
        assert code in (0, 4) and "minfrac.oracle" not in loaded, args
    for args in (("enumerate", "-m", "17", "--x", "7"), ("table", "-m", "17", "--cross-check")):
        code, loaded = _imports_of("-m", "minfrac.cli", *args)
        assert code == 0 and "minfrac.oracle" in loaded, args
    # A library caller's lazy load of a public name shows in the profile too.
    code, loaded = _imports_of("-c", "import minfrac; minfrac.brute_minimum")
    assert code == 0 and "minfrac.oracle" in loaded


def test_table_cross_check_calls_the_brute_minimum_set_on_the_module(capsys, monkeypatch):
    # The benchmark's traced run sets a timing wrapper onto
    # minfrac.cli.brute_minimum; the cross-check must call that one.
    real = cli.brute_minimum
    seen = []

    def planted(r, ceiling=None):
        seen.append(r.x)
        return Fraction(4, 3) if r.x == 7 else real(r, ceiling)

    monkeypatch.setattr(cli, "brute_minimum", planted)
    code, out, err = run(capsys, "table", "-m", "17", "--cross-check")
    assert (code, out) == (1, "") and seen == list(range(1, 8))
    assert err == (
        "cross-check failed at x=7: table has -3/2, oracle says 4/3, descent says -3/2\n"
    )


def test_verify_runs_the_run_checks_set_on_the_module(capsys, monkeypatch):
    # The benchmark's traced run sets a timing wrapper onto minfrac.cli.run_checks.
    assert cli.SweepConfig is harness.SweepConfig and cli.run_checks is harness.run_checks
    seen = []

    def recording(config):
        seen.append(config.checks)
        return harness.run_checks(config)

    monkeypatch.setattr(cli, "run_checks", recording)
    code, _, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "5", "--checks", "progress")
    assert code == 0 and seen == [("progress",)]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "20",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["check"] for r in payload["report"]] == list(
        ("determinant", "minimality", "sqrt_bound", "progress", "agreement")
    )
    for r in payload["report"]:
        assert set(r) == {"check", "pass", "fail", "counterexamples", "anomaly_count", "anomalies"}
        assert r["fail"] == 0 and r["pass"] > 0


def test_verify_json_is_pinned_byte_for_byte(capsys):
    # Includes all 14 progress anomaly texts, such as "61 pairs exceeds cap
    # 60 (10 * bit_length)", so the trace cap is pinned too.
    code, out, err = run(capsys, "verify", "--format", "json", "--m-min", "2", "--m-max", "72",
                         "--random-pairs", "4")
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == 2525
    assert hashlib.sha256(data).hexdigest() == (
        "1a93f0982adf81d52b5752d908b3227dcafe83c610bf61700d6f74d310134685"
    )


def test_verify_reports_a_planted_counterexample_and_exits_1(capsys, monkeypatch):
    # The walk of 7 mod 17 ends on (-10/1, 4/3), whose determinant is 34.
    real_steps = harness.descent_steps

    def planted(x, m):
        steps = list(real_steps(x, m))
        if (x, m) == (7, 17):
            steps[-1] = (-10, 1, 4, 3, None)
        return iter(steps)

    monkeypatch.setattr(harness, "descent_steps", planted)
    argv = ["verify", "--m-min", "17", "--m-max", "17", "--checks", "determinant"]
    detail = "pair (-10/1, 4/3) has determinant 34, expected 17"
    replay = "minfrac trace --modulus 17 --x 7"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    head, line = out.splitlines()
    assert head.startswith("determinant: pass=166 fail=1 (")
    assert line == f"  counterexample m=17 x=7: {detail} (replay: {replay})"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    (report,) = json.loads(out)["report"]
    assert (report["pass"], report["fail"]) == (166, 1)
    assert report["counterexamples"] == [{"m": 17, "x": 7, "detail": detail, "replay": replay}]


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--m-min", "1", "--m-max", "0")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "verify", "--m-min", "2", "--m-max", "10", "--checks", "bogus")
    assert code == 2
    # a sweep that would check nothing must not report success
    code, out, err = run(capsys, "verify", "--m-min", "2", "--m-max", "5", "--checks", ",")
    assert code == 2
    assert out == ""
    assert "no checks requested" in err


def test_usage_exit_codes(capsys):
    assert run(capsys, "repr", "-m", "17")[0] == 2          # missing --x
    assert run(capsys, "repr", "-m", "abc", "--x", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "repr", "-m", "1", "--x", "0")[0] == 2  # modulus too small
    assert run(capsys, "--help")[0] == 0


def test_render_fraction_helper():
    assert _ratio(-4, 1) == "-4"
    assert _ratio(0, 2) == "0/2"
    assert _parse_fraction(_ratio(-3, 2)) == Fraction(-3, 2)
