"""Command-line front end.

One executable, eight subcommands, machine-readable output only:

    equidist discrepancy --alpha 0.61803 --N 32 [--x 0.3]
    equidist average     --alpha random:7 --d 2 --N 16 --x 0.5
    equidist fourier     --alpha 0.61803 --N 32 --x 0.3 --component dbar4
    equidist spectrum    --alpha 0.61803 --M 100000
    equidist boxes       --alpha 0.61803 --N 1024 --bucket 3,2:1,-1
    equidist census      --alpha 0.61803 --N 256 --x 0.3
    equidist growth      --d 2 --seeds 10 --nmin 16 --nmax 4096
    equidist validate    --alpha random:42 --N 32 --x 0.3

JSON subcommands sort their keys; CSV subcommands put the effective
configuration in leading '# key=value' lines, then the header row.  Floats
are printed with repr, the shortest round-trip form, so identical argv
gives byte-identical output (--no-timing zeroes the one wall-clock field).
Exit codes: 0 success, 2 usage or value error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diophantine import (BucketVec, box_counts, line_census, spectrum_check,
                          spectrum_scan)
from .discrepancy import (averaged_discrepancy_direct, discrepancy_at,
                          max_discrepancy)
from .errors import BudgetError
from .experiments import (GrowthConfig, PhiSpec, cross_validate,
                          doubling_schedule, growth_csv, growth_trend,
                          run_growth_experiment)
from .fourier import COMPONENTS, FourierParams, component_sum
from .unitfrac import AlphaVec, alpha_from_specs


def _parse_phi(text: str) -> PhiSpec:
    """'power:1.5' or 'loglog-adjusted:0.1'."""
    form, _, value = text.partition(":")
    if not value:
        raise ValueError(f"phi spec needs form:parameter, got {text!r}")
    if form == "power":
        return PhiSpec(form="power", c=float(value))
    if form == "loglog-adjusted":
        return PhiSpec(form="loglog-adjusted", eta=float(value))
    raise ValueError(f"unknown phi form {form!r}")


def _parse_mask(text: str):
    return tuple(int(t) for t in text.split(","))


def _parse_bucket(text: str, grid: str) -> BucketVec:
    """'l1,l2,...[:e1,e2,...]'; omitted signs default to all +1."""
    lpart, _, epart = text.partition(":")
    l = tuple(int(t) for t in lpart.split(","))
    eps = tuple(int(t) for t in epart.split(",")) if epart else (1,) * len(l)
    return BucketVec(l=l, eps=eps, grid=grid)


def _resolve_alpha(args) -> AlphaVec:
    if not args.alpha:
        raise ValueError("need --alpha")
    return alpha_from_specs(args.alpha, args.d)


def _threads(args) -> int | None:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("EQUIDIST_THREADS", "").strip()
    return int(env) if env else None


def _meta(args, alpha: AlphaVec | None = None, **extra) -> dict:
    meta = {"subcommand": args.cmd}
    if alpha is not None:
        meta["alpha_raw"] = [f"0x{c.raw:032x}" for c in alpha.components]
        meta["d"] = alpha.dim
    for key, value in extra.items():
        if value is not None:
            meta[key] = value
    return meta


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_meta(meta: dict) -> str:
    lines = []
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"# {key}={value}")
    return "\n".join(lines) + "\n"


def _complex_json(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the full stdout payload)


def _cmd_discrepancy(args) -> str:
    alpha = _resolve_alpha(args)
    meta = _meta(args, alpha, N=args.N, x=args.x)
    if args.x is not None:
        value = discrepancy_at(alpha, args.x, args.N)
        return _json({"D": value, "meta": meta})
    r = max_discrepancy(alpha, args.N)
    return _json({"argmax_x": r.argmax_x, "delta": r.delta, "index": r.index,
                  "meta": meta, "side": r.side})


def _cmd_average(args) -> str:
    alpha = _resolve_alpha(args)
    r = averaged_discrepancy_direct(alpha, args.x, args.N)
    meta = _meta(args, alpha, N=args.N, x=args.x)
    return _json({"error_bound": r.error_bound, "meta": meta, "mode": r.mode,
                  "value": r.value})


def _cmd_fourier(args) -> str:
    alpha = _resolve_alpha(args)
    params = FourierParams(s_exponent=args.s_exponent, cutoff_n1=args.cutoff,
                           tail_window=args.window)
    mask = _parse_mask(args.mask) if args.mask else None
    r = component_sum(args.component, alpha, args.x, args.N, params, mask=mask)
    meta = _meta(args, alpha, N=args.N, x=args.x, component=args.component,
                 s_exponent=params.resolve_s(alpha.dim),
                 cutoff_n1=params.resolve_cutoff(args.N),
                 tail_window=params.resolve_window(),
                 mask=list(mask) if mask else None)
    return _json({"component": r.component, "meta": meta,
                  "tail_bound": r.tail_bound, "term_count": r.term_count,
                  "value": _complex_json(r.value)})


def _cmd_spectrum(args) -> str:
    alpha = _resolve_alpha(args)
    phi = _parse_phi(args.phi)
    records = spectrum_scan(alpha, args.M, phi)
    meta = _meta(args, alpha, M=args.M, phi=args.phi)
    rows = ["p,v,count,min_product,check"]
    for r in records:
        rows.append(f"{r.p},{r.v},{r.count},{r.min_product!r},"
                    f"{spectrum_check(r, phi)!r}")
    return _csv_meta(meta) + "\n".join(rows) + "\n"


def _cmd_boxes(args) -> str:
    alpha = _resolve_alpha(args)
    if not args.bucket:
        raise ValueError("need at least one --bucket")
    buckets = [_parse_bucket(b, args.grid) for b in args.bucket]
    records = box_counts(alpha, args.N, buckets)
    meta = _meta(args, alpha, N=args.N, grid=args.grid)
    rows = ["grid,l,eps,observed,expected,relative_error"]
    for r in records:
        l = ";".join(str(v) for v in r.bucket.l)
        eps = ";".join(str(v) for v in r.bucket.eps)
        rows.append(f"{r.bucket.grid},{l},{eps},{r.observed},"
                    f"{r.expected!r},{r.relative_error!r}")
    return _csv_meta(meta) + "\n".join(rows) + "\n"


def _cmd_census(args) -> str:
    alpha = _resolve_alpha(args)
    mask = _parse_mask(args.mask) if args.mask else None
    census = line_census(alpha, args.x, args.N, mask=mask)
    meta = _meta(args, alpha, N=args.N, x=args.x,
                 mask=list(mask) if mask else None)
    big_lines = [{"big_count": r.big_count, "length": r.length,
                  "pair_count": r.pair_count, "root": list(r.root)}
                 for r in census.lines if r.big_count > 0]
    return _json({
        "big_lines": big_lines,
        "big_total": census.big_total,
        "line_count": len(census.lines),
        "max_big_per_line": census.max_big_per_line,
        "meta": meta,
        "pair_total": census.pair_total,
        "step": list(census.step),
        "violations": [list(v) for v in census.violations],
    })


def _cmd_growth(args) -> str:
    if args.alpha and args.seeds is not None:
        raise ValueError("give either --alpha sources or --seeds, not both")
    if args.alpha:
        sources = tuple(args.alpha)
    else:
        seeds = args.seeds if args.seeds is not None else 1
        if seeds < 1:
            raise ValueError("need --seeds >= 1")
        sources = tuple(f"random:{s}" for s in range(seeds))
    config = GrowthConfig(
        d=args.d, schedule=doubling_schedule(args.nmin, args.nmax),
        alpha_specs=sources, phi=_parse_phi(args.phi), exponent=args.exponent)
    records = run_growth_experiment(config, threads=_threads(args))
    ok, series = growth_trend(records)
    meta = _meta(args, None, d=args.d, phi=args.phi,
                 exponent=config.resolve_exponent(),
                 schedule=list(config.schedule), sources=list(sources))
    if args.json:
        rows = [{"N": r.N, "alpha_seed": r.alpha_seed, "d": r.d,
                 "degenerate": r.degenerate, "delta": r.delta,
                 "exponent": r.exponent, "normalizer": r.normalizer,
                 "ratio": r.ratio,
                 "wall_ms": 0.0 if args.no_timing else r.wall_ms}
                for r in records]
        return _json({"meta": meta, "records": rows, "trend_ok": ok,
                      "trend_series": {str(n): v for n, v in series.items()}})
    return _csv_meta(meta) + growth_csv(records, no_timing=args.no_timing)


def _cmd_validate(args) -> str:
    alpha = _resolve_alpha(args)
    report = cross_validate(alpha, args.x, args.N)
    meta = _meta(args, alpha, N=args.N, x=args.x)
    rows = [{"name": r.name, "normalizer": r.normalizer, "ratio": r.ratio,
             "value": r.value} for r in report.rows]
    return _json({"imag_residual": report.imag_residual, "meta": meta,
                  "rows": rows, "term_counts": report.term_counts})


# ---------------------------------------------------------------------------
# parser


def _add_common(p, alpha=True, n=True, x=None):
    """x=None skips the flag, 'opt' adds it optional, 'req' required."""
    if alpha:
        p.add_argument("--alpha", action="append", metavar="SPEC",
                       help="coordinate value (repeatable / comma-joined), "
                            "hex raw word 0x..., or random:<seed>")
        p.add_argument("--d", type=int, default=None,
                       help="dimension (default: number of literal "
                            "coordinates, or 1 for random:<seed>)")
    if n:
        p.add_argument("--N", type=int, required=True,
                       help="window size: coefficients range over [1, N]")
    if x == "opt":
        p.add_argument("--x", type=float, default=None,
                       help="interval endpoint in [0, 1]")
    elif x == "req":
        p.add_argument("--x", type=float, required=True,
                       help="interval endpoint in [0, 1]")
    p.add_argument("--no-timing", action="store_true",
                   help="zero every wall-clock field (for byte comparisons)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count, read by growth only "
                        "(default: EQUIDIST_THREADS or cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equidist",
        description="Discrepancy toolkit for d-dimensional linear-form "
                    "sequences {k.alpha mod 1}.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("discrepancy",
                       help="D(alpha, x; N) at one x, or Delta(alpha; N)")
    _add_common(p, x="opt")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("average", help="roof-averaged discrepancy at x")
    _add_common(p, x="req")
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("fourier", help="one frequency-side component sum")
    _add_common(p, x="req")
    p.add_argument("--component", choices=COMPONENTS, default="dbar")
    p.add_argument("--mask", default=None, metavar="M0,M1,...",
                   help="0/1 sign mask for dbar6")
    p.add_argument("--s-exponent", type=int, default=None,
                   help="product-filter exponent s (default (d+2)d+4)")
    p.add_argument("--cutoff", type=int, default=None,
                   help="|n1| cutoff for dbar (default N^2 (ln N)^2 floor)")
    p.add_argument("--window", type=int, default=32,
                   help="per-axis n_{i+1} window for dbar/dbar1")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("spectrum",
                       help="double-log spectrum of n prod ||n alpha_i||")
    _add_common(p, n=False)
    p.add_argument("--M", type=int, required=True, help="scan 2 <= n <= M")
    p.add_argument("--phi", default="power:1.5",
                   help="test function, form:parameter (default power:1.5)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("boxes", help="observed vs expected bucket counts")
    _add_common(p)
    p.add_argument("--bucket", action="append", metavar="L1,L2[:E1,E2]",
                   help="bucket exponents, optional sign vector (repeatable)")
    p.add_argument("--grid", choices=("geometric", "dyadic"),
                   default="geometric")
    p.set_defaults(func=_cmd_boxes)

    p = sub.add_parser("census",
                       help="eps-big buckets per neighbor line")
    _add_common(p, x="req")
    p.add_argument("--mask", default=None, metavar="M0,M1,...",
                   help="0/1 sign mask for the phase (default all ones)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("growth", help="Delta growth against the normalizer")
    _add_common(p, alpha=False, n=False)
    p.add_argument("--alpha", action="append", metavar="SPEC",
                   help="explicit alpha source (repeatable)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seeds", type=int, default=None,
                   help="use sources random:0 .. random:K-1")
    p.add_argument("--nmin", type=int, default=16)
    p.add_argument("--nmax", type=int, required=True,
                   help="schedule doubles from nmin up to nmax")
    p.add_argument("--exponent", type=int, default=None,
                   help="normalizer exponent e (default max(3, d))")
    p.add_argument("--phi", default="power:1.5")
    p.add_argument("--json", action="store_true",
                   help="JSON instead of the CSV schema")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("validate",
                       help="all evaluation paths at one (alpha, x, N)")
    _add_common(p, x="req")
    p.set_defaults(func=_cmd_validate)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        out = args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
