"""equidist benchmark: one run of one workload.

    python3 perfbench/run.py --workload {growth-d2,identity,scan,points}
                             --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Set-up is timed in fresh interpreters (perfbench/worker.py).  With
--trace 0 each pass over the workload's call list then runs in a fresh
interpreter of its own, until T seconds have gone; with --trace 1 one
interpreter makes a warm-up pass, an untraced pass and traced passes.
The outputs are checked here, after the workers have exited.  The last
line of stdout is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of the traced replay.  Everything
else (all samples, quartiles, failures, digests, the environment and, when
traced, every span) goes to .perfbench_out/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# set-up-only interpreters: spread between the pass processes of an untraced
# run (which also time their own set-up), all before a traced run's process
SETUP_PER_PASS = 2
SETUP_BEFORE_TRACE = 6
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170.0
# no pass process starts once this much time is used, so a run ends in time
RUN_DEADLINE_S = 120.0
OUT_DIR = ".perfbench_out"
DIGESTS = os.path.join(HERE, "digests_seed0.json")


def _spawn(env, *args, timeout):
    """Run worker.py; returns (seconds from spawn to ready, report)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["ready"] - t0, report


def _quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "values": values}


def _l3_bytes():
    # kernel-reported cache geometry; None where sysfs does not expose it
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _environment(workload, numpy_version):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "working_set_bytes": workloads.WORKING_SET_BYTES[workload],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def _failures(passes, first):
    """Failure reason per (pass, call), given the check results `first` of
    the first pass; every later pass must reproduce its digests."""
    out = []
    for p in passes:
        row = []
        for i, (rc, digest) in enumerate(zip(p["rc"], p["sha256"])):
            if rc != 0:
                row.append(f"exit code {rc}")
            elif digest != passes[0]["sha256"][i]:
                row.append("stdout differs from the first pass")
            else:
                row.append(first[i])
        out.append(row)
    return out


def _digest_mismatches(workload, seed, calls, digests):
    if seed != 0 or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        stored = json.load(fh)[workload]
    mismatches = []
    for argv, digest, ref in zip(calls, digests, stored):
        if ref["argv"] != argv or ref["sha256"] != digest:
            mismatches.append({"argv": argv, "expected": ref["sha256"],
                               "got": digest})
    return mismatches


def _layer_samples(report, calls_per_pass, untraced_pass_s):
    from tracing import layer_metrics

    per_pass = [[] for _ in range(report["traced_passes"])]
    for span in report["spans"]:
        per_pass[span["call"] // calls_per_pass].append(span)
    return [layer_metrics(spans, untraced_pass_s) for spans in per_pass]


def _untraced_run(env, common, seconds):
    """Fresh pass processes until `seconds` have gone (at least MIN_PASSES);
    returns (set-up samples, one report per process)."""
    setups, reports = [], []
    start = time.monotonic()
    while len(reports) < MIN_PASSES or time.monotonic() - start < seconds:
        setups += [_spawn(env, "setup", *common, timeout=CHILD_TIMEOUT_S)[0]
                   for _ in range(SETUP_PER_PASS)]
        extra = [] if reports else ["--texts"]
        ready, rep = _spawn(env, "pass", *common, *extra,
                            timeout=CHILD_TIMEOUT_S)
        setups.append(ready)
        reports.append(rep)
        if time.monotonic() - start >= RUN_DEADLINE_S:
            break
    return setups, reports


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "equidist", "cli.py")):
        print("error: run from the root of an equidist checkout "
              "(src/equidist not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    if opts.trace:
        setups = [_spawn(env, "setup", *common, timeout=CHILD_TIMEOUT_S)[0]
                  for _ in range(SETUP_BEFORE_TRACE)]
        ready, report = _spawn(env, "trace", *common, "--texts",
                               "--seconds", str(opts.seconds),
                               timeout=CHILD_TIMEOUT_S)
        setups.append(ready)
        reports = [report]
        passes = report["passes"]
        # passes[0] is the warm-up, passes[1] the warm untraced pass
        timed = passes[1:2]
    else:
        setups, reports = _untraced_run(env, common, opts.seconds)
        passes = [r["passes"][0] for r in reports]
        timed = passes

    import checks

    calls = workloads.calls(opts.workload, opts.seed)
    texts = reports[0]["stdout"]
    clean = checks.check_pass(calls, passes[0]["rc"], texts)
    failures = _failures(passes, clean)
    attempted = sum(len(row) for row in failures)
    failed = sum(1 for row in failures for f in row if f)
    problems = checks.self_test(calls, texts, clean,
                                [p["sha256"] for p in passes])
    walls = [p["wall_s"] for p in timed]
    cpus = [p["cpu_s"] for p in timed]
    rss = [r["maxrss_kb"] / 1024.0 for r in reports]
    detail = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "environment": _environment(opts.workload, reports[0]["numpy"]),
        "load": "closed loop, one client, one call after another",
        "calls": calls,
        "pass_s": _quartiles(walls), "cpu_s": _quartiles(cpus),
        "peak_rss_mb": _quartiles(rss), "setup_s": _quartiles(setups),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [{"pass": i, "call": j, "argv": calls[j], "reason": f}
                     for i, row in enumerate(failures)
                     for j, f in enumerate(row) if f],
        "stderr": [e for e in reports[0]["stderr"] if e],
        "self_test_problems": problems,
        "digests": [{"argv": a, "sha256": h}
                    for a, h in zip(calls, passes[0]["sha256"])],
        "digest_mismatches": _digest_mismatches(
            opts.workload, opts.seed, calls, passes[0]["sha256"]),
    }
    if opts.trace:
        from tracing import PER_LAYER

        detail["warmup_pass_s"] = passes[0]["wall_s"]
        samples = _layer_samples(report, len(calls), walls[0])
        detail["layers"] = {k: _quartiles([s[k] for s in samples])
                            for k in samples[0]}
        detail["spans"] = report["spans"]
        metrics = {name: {"value": statistics.median(s[name] for s in samples),
                          "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    mism = detail["digest_mismatches"]
    print(f"# {opts.workload} seed={opts.seed}: pass_s median "
          f"{detail['pass_s']['median']:.4f} over {len(walls)} passes, "
          f"failed {failed}/{attempted}, self-test problems {len(problems)}, "
          f"digest mismatches {'n/a' if mism is None else len(mism)}; "
          f"details in {path}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
