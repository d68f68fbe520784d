"""Counting discrepancy of linear-form point sets.

D(alpha, x; N) is the number of points {k.alpha} falling in [0, x) minus
the volume term N^d x, maximized over x to get Delta(alpha; N).  The
function x -> D is piecewise linear with slope -N^d and a unit jump at
every point, so the maximum of |D| over (0, 1] is attained as a one-sided
limit at a jump: at sorted points y_(1) <= ... <= y_(M) the candidates are
j - M y_(j) (limit from the right) and M y_(j) - (j-1) (value at y_(j),
which is the limit from the left).  We report the attaining side rather
than nudging x by an epsilon.

The roof-averaged form integrates the window- and interval-shifted count
against triangle weights: (N^2/2)(1/2)^d times the integral over
u1 in [-2/N^2, 2/N^2] and u_i in [-2, 2] of
(1 - (N^2/2)|u1|) prod_i (1 - |u_{i+1}|/2) D(alpha; u1, x+u1; u, u+N),
where window i holds the integers k_i with u_i < k_i < N + u_i (both
strict) and the volume term stays N^d x.  Both weights integrate to 1.
The shifts integrate out axis by axis: k_i lies in its window with
probability w(k_i) = F(k_i) - F(k_i - N), F the roof CDF (0, 1/8, 1/2,
7/8, 1 at -2..2), nonzero only for -1 <= k_i <= N + 1.  So

    Dbar = sum_k prod_i w(k_i) g(k) - N^d x

over that (N+3)^d lattice, with g(k) the u1-probability that the arc
[u1, x+u1) holds point k, closed-form in the triangle CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lanes
from .errors import BudgetError
from .lattice import (DEFAULT_POINT_BUDGET, PointSet, _fold_axes,
                      count_in_interval, generate_points)
from .unitfrac import AlphaVec

SIDE_LEFT = "left-limit"
SIDE_RIGHT = "right-limit"


@dataclass(frozen=True)
class DiscrepancyResult:
    delta: float
    argmax_x: float
    side: str
    index: int  # 1-based rank of the attaining sorted point


@dataclass(frozen=True)
class AveragedResult:
    value: float
    error_bound: float
    mode: str


def discrepancy_at(alpha: AlphaVec, x, N: int, points: PointSet | None = None,
                   budget: int = DEFAULT_POINT_BUDGET) -> float:
    """D(alpha, x; N): exact count in [0, x) minus N^d * x."""
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if points is None:
        points = generate_points(alpha, N, budget=budget)
    return count_in_interval(points, 0, x) - (N ** alpha.dim) * x


def max_discrepancy(alpha: AlphaVec, N: int, points: PointSet | None = None,
                    budget: int = DEFAULT_POINT_BUDGET) -> DiscrepancyResult:
    """Delta(alpha; N) = sup over 0 < x <= 1 of |D(alpha, x; N)|.

    Exact counts, float jump values; the reported delta is the float
    evaluation of the exact supremum formula (same expressions an
    exhaustive jump-side scan produces, so the two agree tie for tie).
    Ties prefer the right limit, then the smaller point.
    """
    if points is None:
        points = generate_points(alpha, N, budget=budget)
    m = points.cardinality
    if m == 0:
        raise ValueError("empty point set")
    hi, lo = points.sorted_lanes()
    y = _lanes.lanes_to_float(hi, lo)
    j = np.arange(1, m + 1, dtype=np.float64)
    fm = float(m)
    right = j - fm * y
    left = fm * y - (j - 1.0)
    ir = int(np.argmax(right))
    il = int(np.argmax(left))
    if right[ir] >= left[il]:
        return DiscrepancyResult(delta=float(right[ir]), argmax_x=float(y[ir]),
                                 side=SIDE_RIGHT, index=ir + 1)
    return DiscrepancyResult(delta=float(left[il]), argmax_x=float(y[il]),
                             side=SIDE_LEFT, index=il + 1)


def _triangle_cdf(t, s: float):
    """CDF of the normalized roof weight (1/s)(1 - |t|/s) on [-s, s]."""
    t = np.asarray(t, dtype=np.float64)
    lo = np.clip(t, -s, 0.0)
    hi = np.clip(t, 0.0, s)
    below = (lo + s) * (lo + s) / (2.0 * s * s)
    above = 1.0 - (s - hi) * (s - hi) / (2.0 * s * s)
    return np.where(t <= 0.0, below, above)


# CDF of one window shift u_i (roof density on [-2, 2]) at the integers -2..2
_ROOF_CDF_AT = (0.0, 0.125, 0.5, 0.875, 1.0)


def _window_weights(N: int) -> np.ndarray:
    """P(u < k < N + u) = F(k) - F(k - N) for k = -1..N+1."""
    def cdf(t: int) -> float:
        return _ROOF_CDF_AT[min(max(t, -2), 2) + 2]
    return np.array([cdf(k) - cdf(k - N) for k in range(-1, N + 2)])


def averaged_discrepancy_direct(alpha: AlphaVec, x, N: int,
                                mode: str = "exact-sweep") -> AveragedResult:
    """Roof-averaged discrepancy Dbar(alpha, x; N) by direct integration.

    One weighted pass over the lattice -1 <= k_i <= N + 1: the window
    shifts integrate out axis by axis into the weight prod_i w(k_i), and
    the u1 integral of each point is closed-form.  "exact-sweep" is the
    only mode; the returned error bound is 0 (float accumulation only).
    Raises BudgetError before any work when the (N+3)^d lattice exceeds
    DEFAULT_POINT_BUDGET.
    """
    if mode != "exact-sweep":
        raise ValueError(f"unknown mode {mode!r}; use exact-sweep")
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if N < 1:
        raise ValueError("N must be >= 1")
    m = (N + 3) ** alpha.dim
    if m > DEFAULT_POINT_BUDGET:
        raise BudgetError(f"averaging lattice of {m} points exceeds budget "
                          f"{DEFAULT_POINT_BUDGET}")
    return AveragedResult(value=_sweep_value(alpha, float(x), N),
                          error_bound=0.0, mode=mode)


def _sweep_value(alpha: AlphaVec, x: float, N: int) -> float:
    d = alpha.dim
    s = 2.0 / (N * N)
    hi, lo = _fold_axes(alpha, (range(-1, N + 2),) * d)
    y = _lanes.lanes_to_float(hi, lo)
    # point y is inside [u1, x+u1) mod 1 exactly for u1 in (y-x, y] + Z
    g = np.zeros_like(y)
    for m1 in range(-3, 4):
        top = np.minimum(y + m1, s)
        bot = np.maximum(y - x + m1, -s)
        live = top > bot
        g[live] += _triangle_cdf(top[live], s) - _triangle_cdf(bot[live], s)
    w = _window_weights(N)
    weight = w
    for _ in range(d - 1):
        weight = np.multiply.outer(weight, w).reshape(-1)
    return math.fsum(weight * g) - float(N ** d) * x
