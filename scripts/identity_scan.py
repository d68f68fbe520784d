#!/usr/bin/env python3
"""Decomposition audit over an x-grid: every evaluation path at one
(alpha, N), worst case per table row.

cross_validate prices each step of the frequency-side decomposition
against the bound shape that controls it; this script sweeps x over a
uniform grid and keeps, per row, the largest ratio of measured value to
normalizer.  Ratios well under 1 mean the step never gets close to its
budget anywhere on the circle; the recombination row must stay at float
accumulation size (its normalizer is 1e-9) since only rounding separates
the two sides of an algebraic identity.

    python3 scripts/identity_scan.py --alpha random:3 --d 2 --N 32 --points 16
"""

from __future__ import annotations

import argparse
import sys

from equidist import alpha_from_specs, cross_validate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", required=True,
                    help="'random:<seed>' or comma-joined unit fractions")
    ap.add_argument("--d", type=int, default=1,
                    help="dimension for random sources (default 1)")
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--points", type=int, default=16,
                    help="x-grid size, x = (j + 1/2) / points")
    args = ap.parse_args(argv)
    if args.points < 1:
        ap.error("need at least one grid point")

    alpha = alpha_from_specs([args.alpha], args.d)
    # offset grid: keeps x away from 0 and 1 where the discrepancy is pinned
    xs = [(j + 0.5) / args.points for j in range(args.points)]

    worst: dict = {}
    residual = 0.0
    for x in xs:
        report = cross_validate(alpha, x, args.N)
        residual = max(residual, report.imag_residual)
        for row in report.rows:
            cur = worst.get(row.name)
            if cur is None or row.ratio > cur[0]:
                worst[row.name] = (row.ratio, row.value, row.normalizer, x)

    print(f"alpha dim {alpha.dim}, N = {args.N}, {args.points} grid points")
    print(f"{'row':<22} {'worst ratio':>12} {'value':>14} "
          f"{'normalizer':>12} {'at x':>8}")
    over = []
    for name, (ratio, value, norm, x) in worst.items():
        print(f"{name:<22} {ratio:>12.4g} {value:>14.6g} "
              f"{norm:>12.4g} {x:>8.4f}")
        if name == "recombination" and ratio > 1.0:
            over.append(name)
    print(f"max imaginary residual {residual:.3g}")
    if over:
        print(f"over budget: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
