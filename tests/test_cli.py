"""End-to-end CLI tests: output text, JSON schema, exit codes."""

import concurrent.futures
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minfrac.cli as cli
import minfrac.harness as harness
from minfrac.cli import _ratio, main
from minfrac.descent import run_descent
from minfrac.minimality import minimum_fraction, sqrt_bound_witness
from minfrac.errors import CEILING_ENV_VAR
from minfrac.oracle import enumerate_class
from minfrac.residues import Fraction, Residue

TABLE_17 = "1, 2, 3, 4, -2/3, 1/3, -3/2, -1/2, 1/2, 3/2, -1/3, 2/3, -4, -3, -2, -1"

SECP256K1_P = 2**256 - 2**32 - 977
SRC = str(Path(harness.__file__).resolve().parents[1])


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
                "replaced": rep,
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
        lists = {c: [{"n": n, "d": d} for n, d in enumerate_class(r, c)]
                 for c in ("positive", "negative")}
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
    for x, n, d, code, err in [
        # 4/3 represents 7 mod 17; the minimum is -3/2.
        (7, 4, 3, 1, "cross-check failed at x=7: table has 4/3, "
                     "oracle says -3/2, descent says -3/2\n"),
        # 0/0 passes the congruence for every x, and is no fraction at all.
        (3, 0, 0, 1, "cross-check failed at x=3: table has 0/0, "
                     "oracle says 3/1, descent says 3/1\n"),
        # 5/3 does not represent 7 mod 17 (7*3 - 5 = 16): an invariant failure.
        (7, 5, 3, 3, "error: table entry 5/3 does not represent 7 mod 17\n"),
    ]:
        def planted(m):
            nums, dens = real_table(m)
            nums[x], dens[x] = n, d
            return nums, dens

        monkeypatch.setattr(cli, "minimum_table", planted)
        assert run(capsys, "table", "-m", "17", "--cross-check") == (code, "", err)


def test_table_cross_check_refuses_before_it_builds_the_sieve(capsys, monkeypatch):
    def planted(m):
        raise AssertionError("the sieve was built")

    monkeypatch.setattr(cli, "minimum_table", planted)
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    for argv, m, ceiling in (("table -m 1000001 --cross-check", 1000001, 10**6),
                             ("table -m 11 --cross-check --ceiling-override 10", 11, 10)):
        assert run(capsys, *argv.split()) == (
            4, "", f"error: minimum enumeration: modulus {m} exceeds the ceiling {ceiling}; "
                   "raise the ceiling explicitly to proceed\n")


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


def _env():
    """os.environ with minfrac's src on the path, no ceiling and no PYTHONUNBUFFERED set."""
    env = {k: v for k, v in os.environ.items() if k not in (CEILING_ENV_VAR, "PYTHONUNBUFFERED")}
    return {**env, "PYTHONPATH": SRC}


def _python(*args, **kwargs):
    """Run the interpreter on args in _env(), so stdout is block-buffered, as for a
    pipe: output a process fails to flush before it ends goes missing."""
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True,
                          timeout=120, **kwargs)


READER_GONE = "| reader gone"  # stdout a pipe whose read end is closed before the process starts
HEAD = "| head -1"  # stdout a pipe whose reader leaves after one line, which alone is compared
MB128, MB96 = "ulimit -v 131072", "ulimit -v 98304"  # an address space of 128 MB, of 96 MB
USAGE = b"usage: minfrac repr [-h] --modulus MODULUS --x X [--format {text,json}]\nminfrac repr: "
NO_X = USAGE + b"error: the following arguments are required: --x\n"
HELPS = ["--help", *(f"{c} --help" for c in ("repr", "enumerate", "trace", "table", "verify"))]
# The sha256 of each of HELPS at COLUMNS=80, by Python minor version: 3.13 writes an option's
# flags before one metavar ("--modulus, -m MODULUS"), so four of its helps differ.
_HELP = ("8df09015e35392f641342cafc08379454bbc45c93fe6137712bf4e790808762c",
         "694be11f3f6d3ab51cfa1c42c091d6f36960bc01ea21797b529b638d77392305",
         "f1dbf8186236159fe86f3d4b1596f90962e60b8a94911e5adb94e54932c55395",
         "2971f896e3422cb64a014b02e66baa8392040c00967dbe547750cb22f93847f3",
         "282d62e12e98699202cd1a3cf61e78b2c8a599a2dd85dd70effbaa56e23275d9",
         "ff2749f82fdfeb7e4bf04ce66719599ead46af65cfd1371c37c6cdff67fcff0c")
HELP_DIGESTS = {**dict.fromkeys([(3, 10), (3, 11), (3, 12)], _HELP),
                (3, 13): (_HELP[0],
                          "32b9bedb5d4135cc8975d24bd101f55e3c92016e97c9a7c7252c8909c2d10ab6",
                          "d09b3fe5c845aaf4d33401696ba15ff2961c91efbe9468dcc1e202d907cce173",
                          "4813ca685f94bd4f89f50beef85d528abc10675a74d6a4a2fe3653174dfa1d18",
                          "315aa44ad45e1d79c9083f95bfb55213f37d5094200f2dcfb348d63cbc9a5e6b",
                          _HELP[5])}

# Every pinned CLI output (cli._EXIT_CODES is the exit-code part): argv and process state (a
# shell's "", ">&-", "2>&-" or ulimit with stdout a file, or a pipe above) to exit code,
# stdout and stderr; exit 1 is a counterexample, so no row ends so.  stdout is its bytes, or
# their sha256 hex digest (a str) for output too long to write out; a verify summary line's
# duration " (N.NNs)", the only output that differs from run to run, is stripped first.
# None is main()'s own output: listings pinned by other tests, invalid-choice errors, which
# argparse words anew in some Pythons, and help on a Python with no HELP_DIGESTS.
CONTRACT = [
    ("repr -m 17 --x 7", "", 0, b"-3/2\nwitness: -3/2\n", b""),
    ("repr -m 97 --x 200 --format json", "", 0, None, b"note: x = 200 reduced to 6 (mod 97)\n"),
    *[(argv, "", 0, digest, b"")
      for argv, digest in zip(HELPS, HELP_DIGESTS.get(sys.version_info[:2], [None] * 6))],
    *[(argv, "", 0, None, b"") for argv in (
        "trace -m 17 --x 7 --format json", "table -m 97 --format json",
        "table -m 97 --cross-check", "enumerate -m 17 --x 7",
        "verify --m-min 2 --m-max 30 --random-pairs 2 --format json")],
    # verify's reports, serially and across the process pool.  The JSON on [2, 72] holds all
    # 14 progress anomaly texts, such as "61 pairs exceeds cap 60 (10 * bit_length)", so the
    # trace cap is pinned too.  The text report lists 50 of the 70 progress anomalies on
    # [2, 100], then "  ... 20 more anomalies".
    *[(f"verify --format json --m-min 2 --m-max 72 --random-pairs 4{workers}", "", 0,
       "1a93f0982adf81d52b5752d908b3227dcafe83c610bf61700d6f74d310134685", b"")
      for workers in ("", " --workers 2")],
    ("verify --m-min 2 --m-max 100 --checks determinant,progress --workers 2", "", 0,
     "d483ea4ed895515e83f280f7d503f15a9ee1cea2b5e10a13136a147474a861ae", b""),
    # The oracle comparisons far past tier-1's other ranges, with the pass counts the digested
    # reports hold (every fail count is 0).  agreement on [2, 300] (pass 1069476) holds
    # is_minimal_pair's determinant test to the oracle's verdict through random pairs, two in
    # three of them off-class; minimality on [2, 300] (pass 1019543) reads every trace pair
    # off prefix_scan's prefix minima; both on [1000, 1019] (pass 739714 and 761184) share one
    # prefix_scan per residue.  Each digest was computed before the scan it pins was fused:
    # with per-pair exhaustive scans (brute_pair_minimal's), a four-pass prefix-minima scan,
    # brute_minimum as a second scan and is_minimal_pair's walk over the descent's runs.
    *[(f"verify --format json --m-min {m_min} --m-max {m_max} --checks {checks} --workers 2",
       "", 0, digest, b"") for m_min, m_max, checks, digest in [
      (2, 300, "agreement --random-pairs 16",
       "f97a32d8fa3afe2a24a8827b42b35ce85b248650a164b25ae00a31377a08f7d0"),
      (2, 300, "minimality", "ccf177ece02a7341949482de468812e4e65e696db5cdc0ead6b07e18e7a07844"),
      (1000, 1019, "minimality,agreement --random-pairs 64",
       "9d3eaac6155fc3de03f1bc50519c057ca92b680a46c96b4f5d871a743ebfb6b1")]],
    # Listings of 10^6 entries stream, so they fit 128 MB; one built whole runs out of memory
    # or stalls at the limit.  The table's sieve is two int lists, so 10^6 entries fit 96 MB;
    # one Fraction per x does not.  Its digest was computed with that Fraction-per-x sieve, and
    # trace's text digest before its entries became %-templates.
    *[(argv, MB128, 0, digest, b"") for argv, digest in [
      ("enumerate -m 999983 --x 1 --format json",
       "8492cf32ac961f340a2a8b51a4186db754da946305a4abad0f93031d74315954"),
      ("enumerate -m 999983 --x 1",
       "8b5bbb284cae6538ad19bafe971deecf3edcb7d48a434dec79d025ff22dd8e33"),
      ("trace -m 999999 --x 1 --format json",
       "5a142726fe560114c861d3361d9abcc7fe5b2f2ca55c106cd40fc6abbbe77888"),
      ("trace -m 999999 --x 1",
       "045223a2262fb53976b6d733264c41a022701109b2a8e6d589dc6eee88704e12")]],
    ("table -m 999983 --format json", MB96, 0,
     "bd00baad2caa6a9c0b95b88c45489aceefd71c490380d8eac197407515f972d0", b""),
    ("repr -m 17", "", 2, b"", NO_X),
    ("repr -m abc --x 1", "", 2, b"",
     USAGE + b"error: argument --modulus/-m: not an integer: 'abc'\n"),
    ("nonsense", "", 2, b"", None),
    ("", "", 2, b"", b"usage: minfrac [-h] {repr,enumerate,trace,table,verify} ...\n"
                     b"minfrac: error: the following arguments are required: command\n"),
    *[(f"repr -m 1 --x {x}", "", 2, b"", b"error: modulus must be >= 2, got 1\n") for x in (0, 1)],
    # Every gate refuses before it computes or writes anything: verify before it sweeps any
    # modulus below the ceiling or builds a sieve, whatever the worker count, and the table's
    # cross-check before its sieve.
    *[(argv, "", 4, b"", b"error: %s exceeds the ceiling %d; raise the ceiling explicitly to "
                         b"proceed\n" % (what, ceiling)) for argv, what, ceiling in [
      ("enumerate -m 1000003 --x 1", b"class enumeration: modulus 1000003", 10**6),
      ("trace -m 1000003 --x 1", b"trace: pair count 1000004", 10**6),
      ("table -m 0x10000000000", b"table: entry count 1099511627775", 10**6),
      ("table -m 11 --cross-check --ceiling-override 10", b"minimum enumeration: modulus 11", 10),
      ("table -m 1000001 --cross-check", b"minimum enumeration: modulus 1000001", 10**6),
      ("verify --m-min 10000019 --m-max 10000019 --checks agreement",
       b"pair-minimality check: modulus 10000019", 10**4),
      ("verify --m-min 2 --m-max 1001 --workers 2 --ceiling-override 1000",
       b"pair-minimality check: modulus 1001", 1000)]],
    # argparse reads -0x5 as an option, not as a negative number.
    ("repr -m 17 --x -0x5", "", 2, b"", USAGE + b"error: argument --x: expected one argument\n"),
    *[(f"repr -m 17 {x}", "", 0, b"2/3\nwitness: 2/3\n", b"note: x = -5 reduced to 12 (mod 17)\n")
      for x in ("--x -5", "--x=-0x5")],
    # A stdout closed at start-up: no command runs, and no help is written, not to stderr either.
    *[(argv, ">&-", 141, b"", b"") for argv in ("repr -m 17 --x 7", "verify --m-min 2 --m-max 5",
                                                 *HELPS)],
    ("repr -m 17", ">&-", 2, b"", NO_X),
    # A closed stderr drops its lines and changes no exit code.
    ("repr -m 17 --x 70", "2>&-", 0, b"2\nwitness: 2\n", b""),
    ("repr -m 1 --x 7", "2>&-", 2, b"", b""),
    ("trace -m 1000003 --x 1", "2>&-", 4, b"", b""),
    ("repr -m 17", "2>&-", 2, b"", b""),
    # The first write into a pipe with no reader fails, with no race and no traceback.
    *[(argv, READER_GONE, 141, b"", b"") for argv in ("repr -m 17 --x 7", *HELPS)],
    ("repr -m 17", READER_GONE, 2, b"", NO_X),
    ("trace -m 99991 --x 1", HEAD, 141, b"(-99991/0, 1/1) det=99991\n", b""),
    ("enumerate -m 99991 --x 1", HEAD, 141, None, b""),
]

_DURATION = re.compile(rb" \([0-9.]+s\)$", re.MULTILINE)


def _shown(stream, pinned):
    """stream's bytes from its start, durations stripped, as pinned shows them: the bytes, or
    their sha256 hex digest if pinned is one.  A digest reads a MiB of lines at a time, so a
    listing of 10^6 entries is never held whole."""
    stream.seek(0)
    if not isinstance(pinned, str):
        return _DURATION.sub(b"", stream.read())
    digest, rest = hashlib.sha256(), b""
    while chunk := stream.read(1 << 20):
        lines, newline, rest = (rest + chunk).rpartition(b"\n")
        digest.update(_DURATION.sub(b"", lines + newline))
    digest.update(_DURATION.sub(b"", rest))
    return digest.hexdigest()


def _ended(command, argv, state, pinned, timeout):
    """Exit code, stdout as _shown against pinned, and stderr of command with argv, in state."""
    args, env = [*command, *argv.split()], _env()
    with tempfile.TemporaryFile() as out:
        if state == READER_GONE:
            read_end, write_end = os.pipe()
            os.close(read_end)
            proc = subprocess.Popen(args, stdout=write_end, stderr=subprocess.PIPE, env=env)
            os.close(write_end)
        elif state == HEAD:
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            out.write(proc.stdout.readline())
            proc.stdout.close()
        else:  # exec, so that a timeout ends the command, not just the shell
            script = f'{state}; exec "$@"' if state.startswith("ulimit") else f'exec "$@" {state}'
            proc = subprocess.Popen(["sh", "-c", script, "sh", *args], stdout=out,
                                    stderr=subprocess.PIPE, env=env)
        try:
            err = proc.communicate(timeout=timeout)[1]
        finally:
            proc.kill()  # a no-op once it has ended
        return proc.returncode, _shown(out, pinned), err


# The CLI as a process: through the interpreter, and as the installed script, which CI
# installs and runs every test that takes it: pytest -k script.
MODULE, SCRIPT = [sys.executable, "-m", "minfrac.cli"], shutil.which("minfrac")
COMMANDS = pytest.mark.parametrize("command", [
    MODULE,
    pytest.param([SCRIPT], marks=pytest.mark.skipif(SCRIPT is None,
                                                     reason="no minfrac script on the path"))],
    ids=["module", "script"])


@pytest.mark.parametrize("argv, state, code, out, err", CONTRACT,
                         ids=[f"{a} {s}".strip() or "(no arguments)" for a, s, *_ in CONTRACT])
@COMMANDS
def test_the_exit_code_contract(capsys, monkeypatch, command, argv, state, code, out, err):
    # A process skips the interpreter's teardown (cli.run), yet an open row's bytes must
    # be main()'s in process.
    monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    if state == "" or None in (out, err):
        main_code = main(argv.split())
        main_out, main_err = map(str.encode, capsys.readouterr())
        ran = (main_code, _shown(io.BytesIO(main_out), out), main_err)
        out, err = (ran[1] if out is None else out), (ran[2] if err is None else err)
        if state == "":
            assert ran == (code, out, err)
    out = out[:out.index(b"\n") + 1] if state == HEAD else out
    # A refusal comes before the work it refuses, so it is as quick as a start-up.
    assert _ended(command, argv, state, out, 5 if code == 4 else 120) == (code, out, err)


class _Exited(Exception):
    """Raised by the os._exit stand-in, which must not return."""


@pytest.fixture
def unwatched(monkeypatch):
    """cli.run as in a plain process: no hooks, no debugger, os._exit recorded."""
    ended = []
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: ended.append("atexit"))

    def _exit(code):
        ended.append(code)
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", _exit)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.delattr(sys, "monitoring", raising=False)
    monkeypatch.delitem(sys.modules, "bdb", raising=False)  # pytest loads pdb
    return ended


def test_run_ends_the_process_after_the_atexit_handlers(unwatched):
    with pytest.raises(_Exited):
        cli.run()
    assert unwatched == ["atexit", 3]


@pytest.mark.parametrize("watcher", ["trace", "profile", "monitoring", "bdb"])
def test_run_exits_as_usual_under_a_tracer_profiler_or_debugger(unwatched, monkeypatch,
                                                                 watcher):
    if watcher == "monitoring":  # Python 3.12+; a tool such as coverage.py holds id 1
        monitoring = types.SimpleNamespace(get_tool={1: "coverage.py"}.get)
        monkeypatch.setattr(sys, "monitoring", monitoring, raising=False)
    elif watcher == "bdb":
        monkeypatch.setitem(sys.modules, "bdb", sys)
    else:
        monkeypatch.setattr(sys, f"get{watcher}", lambda: print)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3 and unwatched == []


def test_run_exits_as_usual_when_a_stream_fails_to_flush(unwatched, monkeypatch):
    class Full:
        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3 and unwatched == ["atexit"]


def test_atexit_handlers_still_run_and_their_output_arrives():
    code = ("import atexit, runpy, sys; atexit.register(print, 'handler ran'); "
            "sys.argv = ['minfrac', 'repr', '-m', '17', '--x', '7']; "
            "runpy.run_module('minfrac.cli', run_name='__main__'); print('not reached')")
    proc = _python("-c", code, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "-3/2\nwitness: -3/2\nhandler ran\n", "")


@COMMANDS
def test_a_profiled_run_still_prints_its_profile(command):
    # Under a profiler run() exits through SystemExit, so the profiler still prints its
    # report.  cProfile runs a module after -m, and a script by its path.
    target = command[1:] if command == MODULE else command
    proc = _python("-m", "cProfile", *target, "repr", "-m", "17", "--x", "7", text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("-3/2\nwitness: -3/2\n") and "function calls" in proc.stdout


@COMMANDS
def test_a_parallel_verify_leaves_no_process_behind(command):
    # The fast exit joins nothing: the pool must have joined its workers before main() returns.
    proc = subprocess.Popen(
        [*command, *"verify --m-min 2 --m-max 100 --workers 2 --format json".split()],
        env=_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the session's group is empty: every worker is gone


def test_a_parallel_verify_leaves_no_thread_behind(capsys):
    # The fast exit joins no thread, so main() must return with none left.
    assert run(capsys, "verify", "--m-min", "2", "--m-max", "60", "--workers", "2")[0] == 0
    assert threading.active_count() == 1


def test_verify_clean_range(capsys):
    code, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "40")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines if not ln.startswith("  ")] == [
        "determinant", "minimality", "sqrt_bound", "progress", "agreement",
    ]
    assert all("fail=0" in ln for ln in lines if not ln.startswith("  "))
    # A report lists its first 50 anomalies, then counts the rest.
    code, out, _ = run(capsys, "verify", "--m-min", "2", "--m-max", "100", "--checks", "progress")
    assert code == 0
    summary, *anomalies, tail = out.splitlines()
    assert summary.startswith("progress: ") and " anomalies=70 " in summary
    assert len(anomalies) == 50 and all(ln.startswith("  anomaly m=") for ln in anomalies)
    assert tail == "  ... 20 more anomalies"


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
    code = "import sys, minfrac.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _imports_of(*args):
    """Exit code and the modules a fresh interpreter imports to run args."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=_env(),
                          capture_output=True, text=True)
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    # The first line is the column header; each other line names one module.
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_start_up_leaves_the_harness_dataclasses_and_json_out():
    # Only `verify` runs the harness, and only its JSON needs json: the
    # listings write theirs entry by entry.  No module defers its
    # annotations, so no command loads __future__.
    heavy = {"minfrac.harness", "dataclasses", "json"}
    code, loaded = _imports_of("-c", "import minfrac.cli")
    assert code == 0 and "minfrac.cli" in loaded and not loaded & heavy
    code, loaded = _imports_of("-m", "minfrac.cli", "repr", "-m", "17", "--x", "7",
                               "--format", "json")
    assert code == 0 and "minfrac.minimality" in loaded and not loaded & heavy
    assert "__future__" not in loaded
    code, loaded = _imports_of("-m", "minfrac.cli", "verify", "--m-min", "2", "--m-max", "5",
                               "--format", "json")
    assert code == 0 and heavy <= loaded and "__future__" not in loaded


def test_a_plain_command_line_loads_no_argparse():
    # argparse, and the gettext and locale it loads, cost more start-up than the work of a
    # short call; they are loaded for help and usage errors only.
    parser = {"argparse", "gettext", "locale"}
    for argv in ("repr -m 17 --x 7", "trace -m 17 --x 7 --format json",
                 "table -m 17 --format json", "verify --m-min 2 --m-max 5"):
        code, loaded = _imports_of("-m", "minfrac.cli", *argv.split())
        assert code == 0 and "minfrac.minimality" in loaded and not loaded & parser, argv
    for argv, exit_code in (("repr --help", 0), ("repr -m 17", 2)):
        code, loaded = _imports_of("-m", "minfrac.cli", *argv.split())
        assert code == exit_code and "argparse" in loaded, argv


# Values an option of a plain command line may take, by kind, and values that are not plain.
_PLAIN_INTS = st.one_of(st.integers(0, 10**40).map(str), st.integers(0, 10**40).map(hex),
                        st.sampled_from(["1_000", " 17 ", "0X11", "0o21", "0b10001", "+5", "٣"]))
_NEGATIVE_INTS = st.integers(1, 10**40).flatmap(lambda n: st.sampled_from([f"-{n}", f"-{n:#x}"]))
_BAD_INTS = st.sampled_from(["", "abc", "0x", "017", "1__0", "1.5", "1" * 4301, "٣x"])
_BAD_CHOICES = st.sampled_from(["", "xml", "JSON", "tex", "pos", "all"])
_TEXTS = st.text(max_size=12).filter(lambda t: not t.startswith("-"))
_UNKNOWN = ["-h", "--help", "--bogus", "extra", "--", "-", "", "-m17", "repr",
            *{flag for _, _, options in cli._COMMANDS.values() for flags, _ in options
              for flag in flags}]


@st.composite
def _command_lines(draw):
    """(argv, plain) drawn from cli._COMMANDS.  A plain argv is a command, then some of its
    options, every required one among them, in any order, each once, by any exact flag, with
    a value its type and choices accept that does not start with "-".  Each fault drawn, such
    as a repeat, a prefix, an `=` form or a negative value, makes it not plain."""
    command = name = draw(st.sampled_from(list(cli._COMMANDS)))
    # One option per group of argv tokens: a flag, and its value if it takes one.
    options = [o for o in draw(st.permutations(cli._COMMANDS[name][2]))
               if o[1].get("required") or draw(st.booleans())]

    def group(option):
        flags, keywords = option
        if keywords.get("action") == "store_true":
            return [draw(st.sampled_from(flags))]
        values = (st.sampled_from(keywords["choices"]) if "choices" in keywords
                  else _PLAIN_INTS if "type" in keywords else _TEXTS)
        return [draw(st.sampled_from(flags)), draw(values)]

    groups, head, tail, plain = [group(o) for o in options], [], [], True
    for fault in draw(st.lists(st.sampled_from(
            ["repeat", "missing", "prefix", "equals", "negative", "bad value", "unknown",
             "no value", "before", "command"]), max_size=2)):
        anywhere = st.integers(0, len(groups))
        i = draw(st.integers(0, len(groups) - 1)) if groups else None
        valued = [i for i, g in enumerate(groups) if len(g) == 2]
        if fault == "repeat" and groups:
            j = draw(anywhere)
            groups.insert(j, group(options[i]))
            options.insert(j, options[i])
        elif fault == "missing" and groups and options[i][1].get("required"):
            gone = options[i]  # with every repeat of it, or the line is plain again
            groups = [g for g, o in zip(groups, options) if o is not gone]
            options = [o for o in options if o is not gone]
        elif fault == "prefix" and groups and len(flag := max(options[i][0], key=len)) > 3:
            groups[i][0] = flag[:draw(st.integers(3, len(flag) - 1))]
        elif fault == "equals" and valued:
            i = draw(st.sampled_from(valued))
            groups[i] = ["=".join(groups[i])]
        elif fault in ("negative", "bad value") and valued:
            i = draw(st.sampled_from(valued))
            keywords = options[i][1]
            if "type" in keywords:
                groups[i][1] = draw(_NEGATIVE_INTS if fault == "negative" else _BAD_INTS)
            elif "choices" in keywords:
                groups[i][1] = draw(_BAD_CHOICES) if fault == "bad value" else "-" + groups[i][1]
            else:
                continue
        elif fault == "unknown":
            own = {flag for flags, _ in cli._COMMANDS[name][2] for flag in flags}
            token, j = draw(st.sampled_from([t for t in _UNKNOWN if t not in own])), draw(anywhere)
            groups.insert(j, [token])
            options.insert(j, ((token,), {}))
        elif fault == "no value" and valued:  # last, so no later token reads as its value
            i = draw(st.sampled_from(valued))
            tail += groups.pop(i)[:1]
            options.pop(i)
        elif fault == "before" and groups:
            head += groups.pop(i)
            options.pop(i)
        elif fault == "command":
            command = draw(st.sampled_from(["", "nonsense", "rep", "REPR", "-h", "--help"]))
        else:
            continue
        plain = False
    return [*head, command, *chain(*groups), *tail], plain


@given(_command_lines())
@example(("repr -m 17 --x 7 --mod 5".split(), False))  # argparse reads M = 5
@example(("repr -m 17 -m 5 --x 7".split(), False))  # the last of two wins
@example(("repr -m 17 --x -5".split(), False))
@example(("repr -m 17 --x=-0x5".split(), False))
@example(("table -m 17 --cross-check --cross-check".split(), False))
@example((["verify", "--m-min", "2", "--m-max", "5", "--checks", ""], True))
@example((["repr", "-m", "1" * 4301, "--x", "1"], False))
@example(([], False))
@example(("repr -m 17 --x 7 -h".split(), False))
@example(("repr -m 17 --x=7".split(), False))  # argparse agrees, but it is argparse's to read
@example(("repr -m abc --x 1".split(), False))  # a usage error, not main's ValueError
@example(("repr -m 17 --x 7 --format xml".split(), False))
@example(("repr -m 17 --x".split(), False))
@settings(deadline=None, max_examples=500)
def test_the_direct_parser_reads_a_command_line_as_argparse_does_or_not_at_all(line):
    # A plain argv reads as argparse reads it; every other argv, even one argparse reads
    # without an error, is left to argparse, so help and usage errors stay its own.
    argv, plain = line
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            expected = vars(cli.build_parser().parse_args(argv))
        except SystemExit:  # help or a usage error
            expected = None
    parsed = cli._parse(argv)
    assert (None if parsed is None else vars(parsed)) == (expected if plain else None)


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


def test_the_readme_lists_the_exit_codes_of_the_help_epilog():
    section = (Path(SRC).parent / "README.md").read_text().partition("### Exit codes\n\n")[2]
    listed = re.findall(r"^\| (\d+) \|", section.partition("\n\n")[0], re.MULTILINE)
    assert listed == re.findall(r"^  (\d+)  ", cli._EXIT_CODES, re.MULTILINE)
    assert listed == ["0", "1", "2", "3", "4", "141"]


def test_a_decimal_over_the_int_string_limit_is_named_as_such(capsys):
    # CPython converts at most 4300 decimal digits by default: the value is
    # an integer, so the usage error names the limit, not "not an integer".
    code, out, err = run(capsys, "repr", "-m", "1" + "0" * 4816, "--x", "1")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --modulus/-m: 4817 decimal digits exceed Python's "
                        "limit of 4300 digits for converting a string to an integer "
                        "(PYTHONINTMAXSTRDIGITS sets the limit)\n")
    code, _, err = run(capsys, "repr", "-m", "1" * 4816 + "a", "--x", "1")
    assert code == 2 and err.endswith("argument --modulus/-m: not an integer: '" + "1" * 4816
                                      + "a'\n")


def test_render_fraction_helper():
    assert _ratio(-4, 1) == "-4"
    assert _ratio(0, 2) == "0/2"
    assert _parse_fraction(_ratio(-3, 2)) == Fraction(-3, 2)
