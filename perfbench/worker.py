"""Child process of one benchmark run.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py pass  --workload W --seed S [--texts]
    python3 perfbench/worker.py trace --workload W --seed S --seconds T

Every mode first gets ready: import equidist, build the CLI parser and
generate the workload's argv list, then record time.monotonic(), so the
parent can time set-up from before it spawned the process.

`pass` then drives the call list once through `equidist.cli.dispatch` in
this fresh process, one call after another, as a CLI user running the
list would.  `trace` makes one untraced warm-up pass and one untraced
timed pass, then traced passes (each call dispatched, then replayed
through the lower modules) until T seconds have gone.

The last line of stdout is one JSON object: per pass the wall and CPU
seconds, every call's exit code and stdout digest; the output texts of the
first pass when asked; the spans; this process's peak RSS.  The parent
checks the outputs, so no check runs inside a timed pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from equidist import cli

import workloads

# no traced pass starts once this much time is used, so a run ends in time
TRACE_DEADLINE_S = 120.0


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.dispatch(argv)
        except Exception:  # a traceback is a failed call, not a failed run
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _summary(results, **extra):
    return {"rc": [r[0] for r in results],
            "sha256": [hashlib.sha256(r[1].encode()).hexdigest()
                       for r in results], **extra}


def _untraced_pass(calls):
    # process_time is user + sys CPU of every thread of this process
    c0, t0 = time.process_time(), time.perf_counter()
    results = [_call(argv) for argv in calls]
    t1, c1 = time.perf_counter(), time.process_time()
    return results, {"wall_s": t1 - t0, "cpu_s": c1 - c0}


def _traced_pass(calls, parser, tracer, pass_index):
    import replay  # imports the lower modules' names; not part of set-up

    results = []
    for i, argv in enumerate(calls):
        call = pass_index * len(calls) + i
        span, result = tracer.run("cli.dispatch", call, None, _call, argv)
        span["counts"] = {"cli.bytes_out": len(result[1].encode())}
        if result[0] == 0:
            replay.replay(tracer, call, span["id"], parser.parse_args(argv))
        results.append(result)
    return results


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "pass", "trace"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--texts", action="store_true")
    opts = p.parse_args()
    parser = cli.build_parser()
    calls = workloads.calls(opts.workload, opts.seed)
    report = {"ready": time.monotonic()}

    if opts.mode != "setup":
        import numpy

        report["numpy"] = numpy.__version__
        start = time.perf_counter()
        results, timing = _untraced_pass(calls)
        first = results
        report["passes"] = [_summary(results, **timing)]
    if opts.mode == "trace":
        from tracing import Tracer

        # the first pass above pays the warm-up (page faults on fresh
        # memory); the dispatch spans are set against this warm pass
        results, timing = _untraced_pass(calls)
        report["passes"].append(_summary(results, **timing))
        tracer = Tracer()
        traced = 0
        while True:
            results = _traced_pass(calls, parser, tracer, traced)
            traced += 1
            report["passes"].append(_summary(results, traced=True))
            used = time.perf_counter() - start
            if used >= opts.seconds or used >= TRACE_DEADLINE_S:
                break
        report["spans"] = tracer.spans
        report["traced_passes"] = traced
    if opts.texts:
        report["stdout"] = [r[1] for r in first]
        report["stderr"] = [r[2] for r in first]
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
