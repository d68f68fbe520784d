#!/usr/bin/env python3
"""Growth campaign: max discrepancy against the (ln N)^d phi(ln ln N)^e
normalizer along a doubling schedule, several seeded directions per
dimension.

Beyond the `equidist growth` subcommand this prints a per-seed growth
table between the two trend anchors (three doubling steps apart), which
is where single-seed Diophantine spikes show up: one direction with an
exceptionally good rational approximation can dominate the max-over-seeds
series while every other direction decays.  CSV output per dimension goes
to --outdir for plotting.

Typical run (a few minutes at nmax 4096 on one core):

    python3 scripts/growth_campaign.py --d 1 --d 2 --seeds 10 --nmax 4096
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from equidist import GrowthConfig, growth_csv, growth_trend, run_growth_experiment
from equidist.experiments import doubling_schedule


def per_seed_growth(records, lo: int, hi: int) -> dict:
    ratios: dict = {}
    for r in records:
        ratios.setdefault(r.alpha_seed, {})[r.N] = r.ratio
    return {src: vals[hi] / vals[lo]
            for src, vals in ratios.items()
            if vals.get(lo, 0.0) > 0.0 and hi in vals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, action="append",
                    help="dimension, repeatable (default: 1 and 2)")
    ap.add_argument("--seeds", type=int, default=10,
                    help="alpha sources random:0 .. random:<seeds-1>")
    ap.add_argument("--nmin", type=int, default=16)
    ap.add_argument("--nmax", type=int, default=4096)
    ap.add_argument("--exponent", type=int, default=None,
                    help="normalizer exponent e (default max(3, d))")
    ap.add_argument("--slack", type=float, default=1.5,
                    help="trend budget: top ratio <= slack * three steps down")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--outdir", default="out",
                    help="CSV output directory (default ./out)")
    args = ap.parse_args(argv)

    dims = args.d or [1, 2]
    try:
        schedule = doubling_schedule(args.nmin, args.nmax)
    except ValueError as exc:
        ap.error(str(exc))
    if len(schedule) < 3:
        ap.error("schedule needs at least three doubling steps")
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst_ok = True
    for d in dims:
        cfg = GrowthConfig(
            d=d, schedule=schedule, exponent=args.exponent,
            alpha_specs=tuple(f"random:{s}" for s in range(args.seeds)))
        records = run_growth_experiment(cfg, threads=args.threads)
        ok, series = growth_trend(records, slack=args.slack)
        worst_ok = worst_ok and ok

        path = outdir / f"growth_d{d}.csv"
        path.write_text(growth_csv(records))
        ns = sorted(series)
        lo, hi = ns[-3], ns[-1]
        print(f"d={d}  trend {'ok' if ok else 'RISING'}  "
              f"max ratio {series[hi]:.4f} at N={hi} vs "
              f"{series[lo]:.4f} at N={lo} "
              f"(x{series[hi] / series[lo]:.2f}, budget x{args.slack})")
        for n in ns:
            bar = "#" * min(60, int(40 * series[n] / max(series.values())))
            print(f"    N={n:>6}  {series[n]:8.4f}  {bar}")
        growth = per_seed_growth(records, lo, hi)
        flagged = {s for s, g in growth.items() if g > args.slack}
        print(f"    per-seed growth N={lo} -> N={hi}:")
        for src in sorted(growth, key=growth.get, reverse=True):
            mark = "  <- drives the max" if src in flagged else ""
            print(f"      {src:<12} x{growth[src]:.2f}{mark}")
        print(f"    wrote {path}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
