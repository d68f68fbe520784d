"""Public surface of the package and smoke runs of the scripts."""

import os
import pathlib
import subprocess
import sys

import pytest

import equidist
from equidist import alpha_from_specs

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_public_surface():
    assert len(equidist.__all__) == len(set(equidist.__all__))
    for name in equidist.__all__:
        assert hasattr(equidist, name), name
    for gone in ("pair_cancellation_report", "PairRecord",
                 "PairCancellationReport", "resolve_alpha", "WindowShift",
                 "oscillated_discrepancy"):
        assert not hasattr(equidist, gone), gone
    assert alpha_from_specs(["0.25,0.5"], 2) \
        == alpha_from_specs(["0.25", "0.5"], 2)


@pytest.mark.parametrize("argv", [
    ["census_sweep.py", "--alpha", "random:3", "--nmin", "64", "--nmax", "64"],
    ["identity_scan.py", "--alpha", "random:3", "--N", "8", "--points", "1"],
    ["growth_campaign.py", "--d", "1", "--seeds", "1", "--nmin", "16",
     "--nmax", "64", "--outdir", None],
])
def test_script_runs(argv, tmp_path):
    argv = [str(tmp_path) if a is None else a for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True,
                          env=env, timeout=120)
    # 1 is the script's own over-budget or rising-trend verdict
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
