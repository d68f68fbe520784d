#!/usr/bin/env python3
"""Line census sweep: chain structure of eps-big buckets as N doubles.

Buckets on the geometric grid whose pair sums survive the eps-bigness
cut are grouped into lines along the integerized neighbor direction; the
cancellation argument needs every line to stay short (few big buckets
per line).  This sweep tallies lines, pairs, and big buckets for one
direction across a doubling range of N and prints the neighbor step so
the line geometry is visible next to the counts.  At desk scales every
line tends to be a singleton, which is the strongest form of shortness.

    python3 scripts/census_sweep.py --alpha 0.61803398874989484820458683436563811772 --x 0.3 --nmax 1024
"""

from __future__ import annotations

import argparse
import sys

from equidist import BudgetError, alpha_from_specs, line_census, neighbor_step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", required=True,
                    help="'random:<seed>' or comma-joined unit fractions")
    ap.add_argument("--d", type=int, default=1,
                    help="dimension for random sources (default 1)")
    ap.add_argument("--x", type=float, default=0.3)
    ap.add_argument("--nmin", type=int, default=64)
    ap.add_argument("--nmax", type=int, default=1024)
    args = ap.parse_args(argv)

    alpha = alpha_from_specs([args.alpha], args.d)
    print(f"alpha dim {alpha.dim}, x = {args.x}")
    print(f"{'N':>6} {'lines':>7} {'pairs':>7} {'big':>7} "
          f"{'max/line':>8} {'viol':>5}  step")
    n = args.nmin
    while n <= args.nmax:
        try:
            census = line_census(alpha, args.x, n)
        except BudgetError as exc:
            print(f"{n:>6}  stopped: {exc}")
            return 0
        step = neighbor_step(n, alpha.dim)
        print(f"{n:>6} {len(census.lines):>7} {census.pair_total:>7} "
              f"{census.big_total:>7} {census.max_big_per_line:>8} "
              f"{len(census.violations):>5}  {step}")
        for v in census.violations:
            print(f"        violation: {v}")
        n *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
