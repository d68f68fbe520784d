"""Command-line surface: shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from equidist.cli import dispatch

from conftest import GOLDEN_TOKEN

GOLDEN_HEX = "0x9e3779b97f4a7c15f39cc0605cedc834"


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_discrepancy_max_json(capsys):
    code, out = run(capsys, "discrepancy", "--alpha", "0.5", "--N", "1", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == 0.5
    assert doc["side"] == "right-limit"
    assert doc["meta"]["alpha_raw"] == ["0x80000000000000000000000000000000"]
    assert doc["meta"]["subcommand"] == "discrepancy"


def test_discrepancy_pointwise_json(capsys):
    code, out = run(capsys, "discrepancy", "--alpha", "0.5", "--N", "1",
                    "--x", "0.5", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == -0.5
    assert doc["meta"]["x"] == 0.5


def test_json_is_sorted_and_indented(capsys):
    _, out = run(capsys, "discrepancy", "--alpha", "0.5", "--N", "4", "--no-timing")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_alpha_forms(capsys):
    code, out = run(capsys, "discrepancy", "--alpha", GOLDEN_TOKEN,
                    "--N", "4", "--no-timing")
    assert json.loads(out)["meta"]["alpha_raw"] == [GOLDEN_HEX]
    code, out = run(capsys, "discrepancy", "--alpha", GOLDEN_HEX,
                    "--N", "4", "--no-timing")
    assert json.loads(out)["meta"]["alpha_raw"] == [GOLDEN_HEX]
    # repeatable and comma-joined coordinates agree
    _, out1 = run(capsys, "discrepancy", "--alpha", "0.25", "--alpha", "0.5",
                  "--N", "2", "--no-timing")
    _, out2 = run(capsys, "discrepancy", "--alpha", "0.25,0.5",
                  "--N", "2", "--no-timing")
    assert out1 == out2
    assert json.loads(out1)["meta"]["d"] == 2


def test_average_and_fourier_json(capsys):
    code, out = run(capsys, "average", "--alpha", "random:3", "--N", "16",
                    "--x", "0.4", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact-sweep"
    assert doc["error_bound"] == 0.0
    code, out = run(capsys, "fourier", "--alpha", "random:3", "--N", "16",
                    "--x", "0.4", "--component", "dbar", "--no-timing")
    doc = json.loads(out)
    assert set(doc["value"]) == {"im", "re"}
    assert doc["term_count"] > 0
    assert doc["meta"]["s_exponent"] == 7


def test_spectrum_csv(capsys):
    code, out = run(capsys, "spectrum", "--alpha", GOLDEN_TOKEN, "--M", "1000",
                    "--no-timing")
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert meta == sorted(meta)
    assert f"# alpha_raw={GOLDEN_HEX}" in meta
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "p,v,count,min_product,check"
    assert sum(int(r.split(",")[2]) for r in body[1:]) == 999


def test_boxes_csv(capsys):
    code, out = run(capsys, "boxes", "--alpha", GOLDEN_TOKEN, "--N", "1024",
                    "--grid", "dyadic", "--bucket", "6,4", "--no-timing")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "grid,l,eps,observed,expected,relative_error"
    fields = body[1].split(",")
    assert fields[0] == "dyadic"
    assert fields[1] == "6;4"
    assert fields[3] == "66"


def test_census_json(capsys):
    code, out = run(capsys, "census", "--alpha", "random:3", "--N", "64",
                    "--x", "0.4", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    for key in ("big_lines", "big_total", "line_count", "max_big_per_line",
                "pair_total", "step", "violations"):
        assert key in doc
    assert doc["violations"] == []


def test_growth_csv_and_json(capsys):
    args = ("growth", "--d", "1", "--seeds", "2", "--nmin", "16", "--nmax", "64",
            "--no-timing")
    code, out = run(capsys, *args)
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "alpha_seed,d,N,delta,normalizer,ratio,exponent,wall_ms"
    assert len(body) == 1 + 2 * 3                 # 2 seeds x N in {16,32,64}
    assert all(line.endswith(",0.0") for line in body[1:])
    code, out = run(capsys, *args, "--json")
    doc = json.loads(out)
    assert "trend_ok" in doc and "trend_series" in doc
    assert len(doc["records"]) == 6


def test_growth_alpha_xor_seeds(capsys):
    code = dispatch(["growth", "--d", "1", "--alpha", "0.5", "--seeds", "2",
                     "--nmin", "16", "--nmax", "32"])
    assert code == 2


def test_validate_json(capsys):
    code, out = run(capsys, "validate", "--alpha", GOLDEN_TOKEN, "--N", "64",
                    "--x", "0.3", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    names = [row["name"] for row in doc["rows"]]
    assert "recombination" in names and "dbar_fourier" in names
    assert doc["imag_residual"] < 1e-6


def test_exit_codes(capsys):
    assert dispatch(["no-such-command"]) == 2
    assert dispatch([]) == 2
    assert dispatch(["discrepancy", "--alpha", "1.5", "--N", "4"]) == 2
    assert dispatch(["discrepancy", "--alpha", "0.5"]) == 2          # missing --N
    # an empty spectrum range is refused, not printed as an empty table
    assert dispatch(["spectrum", "--alpha", "0.5", "--M", "1"]) == 2
    assert dispatch(["spectrum", "--alpha", "0.5", "--M", "-5"]) == 2
    # x outside [0, 1] and N < 1 are value errors, not outputs
    for x in ("1.5", "-3", "nan"):
        assert dispatch(["census", "--alpha", "0.618", "--N", "64",
                         "--x", x]) == 2
    for n in ("0", "-3"):
        assert dispatch(["average", "--alpha", "0.618", "--N", n,
                         "--x", "0.3"]) == 2
    # budget violations map to 3
    assert dispatch(["census", "--alpha", "0.5", "--N", "2048", "--x", "0.3"]) == 3
    assert dispatch(["spectrum", "--alpha", "0.5", "--M", str(10 ** 9 + 1)]) == 3
    # ~1.3e12 values of n1 and 2^40 values of n1: the scan budget refuses
    # both before the first block
    t0 = time.perf_counter()
    assert dispatch(["fourier", "--alpha", "0.618", "--N", "100000",
                     "--x", "0.3"]) == 3
    assert dispatch(["boxes", "--alpha", "0.618", "--N", "1000000",
                     "--grid", "dyadic", "--bucket", "40,1"]) == 3
    # 1009^3 lattice points; a windowed series of 5.8e8 n1 x 3 axes x 32
    assert dispatch(["average", "--alpha", "random:7", "--d", "3",
                     "--N", "1000", "--x", "0.5"]) == 3
    assert dispatch(["fourier", "--alpha", "random:1", "--d", "3",
                     "--N", "3000", "--x", "0.3", "--component", "dbar"]) == 3
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().out == ""


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("EQUIDIST_THREADS", "2")
    code, out = run(capsys, "growth", "--d", "1", "--seeds", "1",
                    "--nmin", "16", "--nmax", "32", "--no-timing")
    assert code == 0
    monkeypatch.setenv("EQUIDIST_THREADS", "zed")
    assert dispatch(["growth", "--d", "1", "--seeds", "1",
                     "--nmin", "16", "--nmax", "32", "--no-timing"]) == 2
    capsys.readouterr()


def test_repeat_runs_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "validate", "--alpha", "random:5", "--N", "32",
                        "--x", "0.7", "--no-timing")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_entry_point():
    cmd = [sys.executable, "-m", "equidist", "discrepancy", "--alpha", "0.5",
           "--N", "1", "--no-timing"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["delta"] == 0.5
