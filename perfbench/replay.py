"""Replay of one CLI call through the public functions of each module.

Each replay makes the library calls the subcommand handler in
`equidist.cli` makes, with the same arguments, and records one span per
call under the `cli.dispatch` span of that argv.  Calls that stand for
work done inside another public function (the per-(source, N) evaluations
inside run_growth_experiment, the paths inside cross_validate) are
replayed as children of that function's span.
"""

from __future__ import annotations

from equidist import (BucketVec, FourierParams, GrowthConfig, PhiSpec,
                      all_masks, alpha_from_specs,
                      averaged_discrepancy_direct, box_counts, component_sum,
                      count_in_interval, cross_validate, generate_points,
                      growth_trend, line_census, max_discrepancy,
                      run_growth_experiment, spectrum_check, spectrum_scan)
from equidist.fourier import u1_limit, u4_limit

from workloads import growth_schedule

LANE_BYTES = 16


def _phi(text: str) -> PhiSpec:
    form, _, value = text.partition(":")
    if form == "power":
        return PhiSpec(form=form, c=float(value))
    return PhiSpec(form=form, eta=float(value))


def _alpha(tr, call, parent, tokens, d):
    return tr.run("unitfrac.alpha_from_specs", call, parent,
                  alpha_from_specs, tokens, d)[1]


def _points(tr, call, parent, alpha, n):
    span, pts = tr.run("lattice.generate_points", call, parent,
                       generate_points, alpha, n)
    span["counts"] = {"lattice.points": pts.cardinality,
                      "lattice.bytes_computed": LANE_BYTES * pts.cardinality}
    return pts


def _count(tr, call, parent, alpha, x, n):
    pts = _points(tr, call, parent, alpha, n)
    tr.run("lattice.count_in_interval", call, parent,
           count_in_interval, pts, 0, x)


def _maximum(tr, call, parent, alpha, n):
    pts = _points(tr, call, parent, alpha, n)
    # sort probe: the lane sort max_discrepancy runs, timed on its own
    tr.run("lattice.sorted_lanes", call, parent, pts.sorted_lanes)
    tr.run("discrepancy.max_discrepancy", call, parent,
           max_discrepancy, alpha, n, points=pts)


def _n1_scanned(component: str, n: int, params: FourierParams) -> int:
    if component == "dbar":
        return params.resolve_cutoff(n)
    if component in ("dbar1", "dbar2", "dbar3"):
        return u1_limit(n)
    return u4_limit(n) - 1


def _component(tr, call, parent, component, alpha, x, n, params, mask=None):
    span, rep = tr.run(f"fourier.{component}", call, parent, component_sum,
                       component, alpha, x, n, params, mask=mask)
    span["counts"] = {f"fourier.{component}_terms": rep.term_count,
                      "fourier.n1_scanned": _n1_scanned(component, n, params)}


def _discrepancy(tr, call, parent, args):
    # the workloads call discrepancy with --x only
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    _count(tr, call, parent, alpha, args.x, args.N)


def _growth(tr, call, parent, args):
    schedule = growth_schedule(args.nmin, args.nmax)
    config = GrowthConfig(d=args.d, schedule=tuple(schedule),
                          alpha_specs=tuple(args.alpha), phi=_phi(args.phi),
                          exponent=args.exponent)
    span, records = tr.run("experiments.run_growth_experiment", call, parent,
                           run_growth_experiment, config,
                           threads=args.threads)
    span["counts"] = {"experiments.eval_busy_s":
                      sum(r.wall_ms for r in records) / 1e3}
    tr.run("experiments.growth_trend", call, parent, growth_trend, records)
    for spec in config.alpha_specs:
        for n in config.schedule:
            alpha = _alpha(tr, call, span["id"], [spec], config.d)
            _maximum(tr, call, span["id"], alpha, n)


def _validate(tr, call, parent, args):
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    span, _ = tr.run("experiments.cross_validate", call, parent,
                     cross_validate, alpha, args.x, args.N)
    inner = span["id"]
    _count(tr, call, inner, alpha, args.x, args.N)
    sweep, _ = tr.run("discrepancy.averaged_discrepancy_direct", call, inner,
                      averaged_discrepancy_direct, alpha, args.x, args.N,
                      mode="exact-sweep")
    sweep["counts"] = {"discrepancy.sweep_cells": 4 ** alpha.dim}
    params = FourierParams()
    for component in ("dbar", "dbar1", "dbar2", "dbar3", "dbar4", "dbar5"):
        _component(tr, call, inner, component, alpha, args.x, args.N, params)
    for mask in all_masks(alpha.dim):
        _component(tr, call, inner, "dbar6", alpha, args.x, args.N, params,
                   mask=mask)


def _fourier(tr, call, parent, args):
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    params = FourierParams(s_exponent=args.s_exponent, cutoff_n1=args.cutoff,
                           tail_window=args.window)
    mask = tuple(int(t) for t in args.mask.split(",")) if args.mask else None
    _component(tr, call, parent, args.component, alpha, args.x, args.N,
               params, mask=mask)


def _spectrum(tr, call, parent, args):
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    phi = _phi(args.phi)
    span, records = tr.run("diophantine.spectrum_scan", call, parent,
                           spectrum_scan, alpha, args.M, phi)
    span["counts"] = {"diophantine.spectrum_n": args.M - 1}
    tr.run("diophantine.spectrum_check", call, parent,
           lambda: [spectrum_check(r, phi) for r in records])


def _census(tr, call, parent, args):
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    mask = tuple(int(t) for t in args.mask.split(",")) if args.mask else None
    span, census = tr.run("diophantine.line_census", call, parent,
                          line_census, alpha, args.x, args.N, mask=mask)
    span["counts"] = {"diophantine.census_pairs": census.pair_total}


def _boxes(tr, call, parent, args):
    if args.grid != "dyadic":
        raise ValueError("the boxes replay counts n1 for dyadic buckets only")
    alpha = _alpha(tr, call, parent, args.alpha, args.d)
    buckets = []
    for text in args.bucket:
        lpart, _, epart = text.partition(":")
        l = tuple(int(t) for t in lpart.split(","))
        eps = (tuple(int(t) for t in epart.split(",")) if epart
               else (1,) * len(l))
        buckets.append(BucketVec(l=l, eps=eps, grid=args.grid))
    span, _ = tr.run("diophantine.box_counts", call, parent,
                     box_counts, alpha, args.N, buckets)
    # box_counts scans each distinct n1 range [2^l1, 2^(l1+1)) once
    span["counts"] = {"diophantine.boxes_n1":
                      sum(2 ** l1 for l1 in {b.l[0] for b in buckets})}


_REPLAYS = {"discrepancy": _discrepancy, "growth": _growth,
            "validate": _validate, "fourier": _fourier,
            "spectrum": _spectrum, "census": _census, "boxes": _boxes}


def replay(tr, call: int, parent: int, args) -> None:
    """Replay one parsed argv under the span `parent`."""
    _REPLAYS[args.cmd](tr, call, parent, args)
