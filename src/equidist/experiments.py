"""Growth-law experiments and cross-validation of the evaluation paths.

The growth experiment measures the maximal discrepancy against the
normalizer (ln N)^d phi(ln ln N)^e for a convergent test function phi and
one of the exponents the theory circles around (max(3, d) by default).
The ratios are reported raw: the underlying statements are almost-sure
asymptotics with an unknown alpha-dependent constant, so the only honest
desk-scale check is a boundedness trend, never a threshold.

cross_validate runs every evaluation path at one (alpha, x, N) and tables
the pairwise differences next to the normalizing quantity each step is
supposed to be controlled by.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discrepancy import averaged_discrepancy_direct, discrepancy_at, \
    max_discrepancy
from .errors import BudgetError
from .fourier import FourierParams, all_masks, component_sum, recombine
from .lattice import DEFAULT_POINT_BUDGET
from .unitfrac import AlphaVec, alpha_from_specs

GROWTH_CSV_HEADER = "alpha_seed,d,N,delta,normalizer,ratio,exponent,wall_ms"


@dataclass(frozen=True)
class PhiSpec:
    """Convergence-class test function.

    form "power": phi(n) = n^c with c > 1.
    form "loglog-adjusted": phi(n) = n (ln(n + e))^{1+eta} with eta > 0.
    Both are positive and increasing on n >= 1 with summable reciprocals.
    """

    form: str = "power"
    c: float = 1.5
    eta: float = 0.1

    def __post_init__(self):
        if self.form not in ("power", "loglog-adjusted"):
            raise ValueError(f"unknown phi form {self.form!r}")
        if self.form == "power" and not self.c > 1.0:
            raise ValueError("power form needs c > 1")
        if self.form == "loglog-adjusted" and not self.eta > 0.0:
            raise ValueError("loglog-adjusted form needs eta > 0")

    def __call__(self, n):
        return phi_eval(self, n)


def phi_eval(phi: PhiSpec, n):
    """phi(n) for a scalar or array argument, n >= 1 elementwise."""
    arr = np.asarray(n, dtype=np.float64)
    if np.any(arr < 1.0):
        raise ValueError("phi is defined for n >= 1")
    if phi.form == "power":
        out = arr ** phi.c
    else:
        out = arr * np.log(arr + math.e) ** (1.0 + phi.eta)
    if np.ndim(n) == 0:
        return float(out)
    return out


def degenerate_order(raw: int) -> int:
    """Smallest q >= 1 with ||q a|| = 0, for a = raw / 2^128 (a power of 2)."""
    if raw == 0:
        return 1
    v2 = (raw & -raw).bit_length() - 1
    return 1 << (128 - v2)


def is_degenerate(alpha: AlphaVec, N: int) -> bool:
    """True when some coordinate has ||q alpha_i|| = 0 for a window size
    q <= N; such alpha sit on a rational sublattice and break every
    almost-everywhere statement."""
    return any(degenerate_order(c.raw) <= N for c in alpha.components)


def doubling_schedule(nmin: int, nmax: int) -> tuple:
    """The growth schedule nmin, 2 nmin, 4 nmin, ... up to nmax."""
    if nmin < 2 or nmax < nmin:
        raise ValueError("need 2 <= nmin <= nmax")
    schedule = []
    n = nmin
    while n <= nmax:
        schedule.append(n)
        n *= 2
    return tuple(schedule)


@dataclass(frozen=True)
class GrowthConfig:
    d: int
    schedule: tuple
    alpha_specs: tuple
    phi: PhiSpec = PhiSpec()
    exponent: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(int(n) for n in self.schedule))
        object.__setattr__(self, "alpha_specs", tuple(self.alpha_specs))
        if self.d < 1:
            raise ValueError("need d >= 1")
        if not self.schedule or not self.alpha_specs:
            raise ValueError("schedule and alpha_specs must be nonempty")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("N schedule must be strictly increasing")
        if self.schedule[0] < 1:
            raise ValueError("N values must be positive")
        if self.exponent is not None and self.exponent not in self.allowed_exponents():
            raise ValueError(
                f"exponent must be one of {sorted(self.allowed_exponents())}")

    def allowed_exponents(self):
        return {max(3, self.d), self.d + 1, max(2, self.d - 1)}

    def resolve_exponent(self) -> int:
        return self.exponent if self.exponent is not None else max(3, self.d)


@dataclass(frozen=True)
class GrowthRecord:
    alpha_seed: str
    d: int
    N: int
    delta: float
    normalizer: float
    ratio: float
    exponent: int
    wall_ms: float
    degenerate: bool


def growth_normalizer(N: int, d: int, phi: PhiSpec, exponent: int) -> float:
    """(ln N)^d phi(ln ln N)^e, with N clamped to >= 16 inside the double
    log so small windows stay off the ln ln singularity."""
    g = math.log(math.log(max(N, 16)))
    return math.log(N) ** d * phi_eval(phi, max(g, 1.0)) ** exponent


# each running evaluation holds O(N^d) lanes plus sort scratch; keeping the
# in-flight point total near 2^25 caps peak memory around 2.5 GB
_INFLIGHT_POINT_CAP = 1 << 25


def run_growth_experiment(config: GrowthConfig, threads: int | None = None) -> list:
    """One record per (alpha source, N), in config order regardless of the
    worker count."""
    e = config.resolve_exponent()
    for N in config.schedule:
        if N ** config.d > DEFAULT_POINT_BUDGET:
            raise BudgetError(
                f"N={N} needs {N ** config.d} points, over the "
                f"{DEFAULT_POINT_BUDGET} budget")
    tasks = [(spec, N) for spec in config.alpha_specs for N in config.schedule]

    def worker(task):
        spec, N = task
        alpha = alpha_from_specs([spec], config.d)
        t0 = time.perf_counter()
        delta = max_discrepancy(alpha, N).delta
        wall_ms = (time.perf_counter() - t0) * 1e3
        norm = growth_normalizer(N, config.d, config.phi, e)
        return GrowthRecord(
            alpha_seed=spec, d=config.d, N=N, delta=delta, normalizer=norm,
            ratio=delta / norm, exponent=e, wall_ms=wall_ms,
            degenerate=is_degenerate(alpha, N))

    if threads is not None and threads <= 1:
        return [worker(t) for t in tasks]
    top = max(N ** config.d for _, N in tasks)
    workers = max(1, min(threads or os.cpu_count() or 1,
                         _INFLIGHT_POINT_CAP // top))
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def growth_csv(records: list, no_timing: bool = False) -> str:
    """Mandatory-header CSV; wall_ms is zeroed under no_timing so output
    stays byte-comparable across runs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GROWTH_CSV_HEADER.split(","))
    for r in records:
        writer.writerow([
            r.alpha_seed, r.d, r.N, repr(r.delta), repr(r.normalizer),
            repr(r.ratio), r.exponent,
            repr(0.0) if no_timing else repr(r.wall_ms)])
    return buf.getvalue()


def growth_trend(records: list, slack: float = 1.5):
    """Max-over-sources ratio per N (degenerate sources excluded) and a
    boundedness verdict: the top-N ratio must not exceed slack times the
    ratio three steps down the schedule."""
    series: dict = {}
    for r in records:
        if r.degenerate:
            continue
        series[r.N] = max(series.get(r.N, 0.0), r.ratio)
    ns = sorted(series)
    ok = True
    if len(ns) >= 3:
        ok = series[ns[-1]] <= slack * series[ns[-3]]
    return ok, {n: series[n] for n in ns}


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CrossRow:
    name: str
    value: float
    normalizer: float
    ratio: float


@dataclass(frozen=True)
class CrossReport:
    x: float
    N: int
    rows: list
    term_counts: dict
    imag_residual: float


def _row(name, value, norm):
    return CrossRow(name=name, value=value, normalizer=norm,
                    ratio=value / norm)


def cross_validate(alpha: AlphaVec, x, N: int,
                   params: FourierParams | None = None) -> CrossReport:
    """Every evaluation path at one (alpha, x, N), with the pairwise
    differences tabled against their controlling quantities.

    The value rows (d_direct, dbar_direct, dbar_fourier) carry the measured
    quantities themselves against a unit normalizer.  Difference rows use
    the bound shapes the decomposition steps are controlled by, with
    phi(n) = n^1.5 and the ln ln argument clamped at 1.  The recombination
    row is the algebraic identity check: its value is the relative gap
    between the U4 sum and its main-plus-oscillating reconstruction, which
    only float accumulation separates.
    """
    params = params if params is not None else FourierParams()
    d = alpha.dim
    x = float(x)
    # the sweep first: its (N+3)^d lattice reaches the point budget before
    # the N^d point set does, so an oversized N is refused before any work
    sweep = averaged_discrepancy_direct(alpha, x, N).value
    direct = discrepancy_at(alpha, x, N)
    comps = {c: component_sum(c, alpha, x, N, params)
             for c in ("dbar", "dbar1", "dbar2", "dbar3", "dbar4", "dbar5")}
    osc = {m: component_sum("dbar6", alpha, x, N, params, mask=m)
           for m in all_masks(d)}
    rebuilt = recombine(comps["dbar5"].value,
                        {m: r.value for m, r in osc.items()}, d)
    lhs = comps["dbar4"].value
    scale = max(abs(lhs), abs(rebuilt))
    rel = abs(lhs - rebuilt) / scale if scale > 0 else 0.0
    ln = math.log(N)
    gg = max(math.log(math.log(max(N, 16))), 1.0)
    phi = PhiSpec()
    rows = [
        _row("d_direct", direct, 1.0),
        _row("dbar_direct", sweep, 1.0),
        _row("dbar_fourier", comps["dbar"].value.real, 1.0),
        _row("fourier_vs_direct", abs(comps["dbar"].value.real - sweep),
             comps["dbar"].tail_bound + 1e-6),
        _row("average_vs_pointwise", abs(sweep - direct), ln ** 1.1),
        _row("truncate_to_u1", abs(comps["dbar1"].value - comps["dbar"].value),
             1.0),
        _row("restrict_nearest",
             abs(comps["dbar2"].value - comps["dbar1"].value),
             ln ** d * phi(gg) ** d),
        _row("drop_small_products",
             abs(comps["dbar3"].value - comps["dbar2"].value),
             ln ** d * phi(gg) ** (d + 1)),
        _row("restrict_n1_quarter",
             abs(comps["dbar4"].value - comps["dbar3"].value),
             ln ** 2 * gg),
        _row("main_sum", abs(comps["dbar5"].value), ln),
    ]
    for m in all_masks(d):
        rows.append(_row("osc_sum_" + "".join(str(b) for b in m),
                         abs(osc[m].value), ln ** d * gg))
    rows.append(_row("recombination", rel, 1e-9))
    term_counts = {c: r.term_count for c, r in comps.items()}
    term_counts.update({"dbar6_" + "".join(str(b) for b in m): r.term_count
                        for m, r in osc.items()})
    imag = max(abs(comps[c].value.imag) for c in comps)
    return CrossReport(x=x, N=N, rows=rows, term_counts=term_counts,
                       imag_residual=imag)
