"""Generation and interval counting for linear-form point sets.

The points are the values {k_1 a_1 + ... + k_d a_d} mod 1 with each k_i
running over an integer window, 1 <= k_i <= N for a point set.  All
points are exact 128-bit words; interval counts compare raw words against
exact thresholds, so a count is never off by a point sitting on a float
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _lanes
from .errors import BudgetError
from .unitfrac import MOD, AlphaVec

DEFAULT_POINT_BUDGET = 1 << 26


@dataclass(frozen=True)
class PointSet:
    """Multiset of exact points in generation (lexicographic) order."""

    hi: np.ndarray
    lo: np.ndarray
    dim: int

    @property
    def cardinality(self) -> int:
        return int(self.hi.shape[0])

    def raws(self) -> list:
        return [(int(h) << 64) | int(l) for h, l in zip(self.hi, self.lo)]

    def sorted_lanes(self):
        return _lanes.sort_lanes(self.hi, self.lo)


def _fold_axes(alpha: AlphaVec, windows: tuple):
    """Exact lanes for all window combinations, k_1-major lexicographic."""
    hi = None
    lo = None
    for comp, win in zip(alpha.components, windows):
        ahi, alo = _lanes.mul_block(comp.raw, win.start, len(win))
        if hi is None:
            hi, lo = ahi, alo
        else:
            hi, lo = _lanes.add_lanes(hi[:, None], lo[:, None], ahi[None, :], alo[None, :])
            hi = hi.reshape(-1)
            lo = lo.reshape(-1)
    return hi, lo


def generate_points(alpha: AlphaVec, N: int,
                    budget: int = DEFAULT_POINT_BUDGET) -> PointSet:
    """Materialize the full point multiset, 1 <= k_i <= N (cardinality
    N^d).  Raises BudgetError beyond `budget` points."""
    if N < 1:
        raise ValueError("N must be >= 1")
    m = N ** alpha.dim
    if m > budget:
        raise BudgetError(f"point set of {m} exceeds budget {budget}")
    hi, lo = _fold_axes(alpha, (range(1, N + 1),) * alpha.dim)
    return PointSet(hi=hi, lo=lo, dim=alpha.dim)


def _arc_thresholds(a, b):
    """Exact raw-word thresholds for the mod-1 arc [a, b).

    Returns (mode, lo_threshold, hi_threshold): mode "all", "empty",
    "plain" (count raws in [A, B)) or "wrap" (count raws >= A plus < B).
    """
    fa = a if isinstance(a, Fraction) else Fraction(a)
    fb = b if isinstance(b, Fraction) else Fraction(b)
    diff = fb - fa
    if not -1 <= diff <= 1:
        raise ValueError(f"interval length {float(diff)} outside [-1, 1]")
    if diff >= 1:
        return "all", 0, 0
    if diff == 0:
        return "empty", 0, 0
    a1 = fa - math.floor(fa)
    b1 = fb - math.floor(fb)
    ta = math.ceil(a1 * MOD)
    tb = math.ceil(b1 * MOD)
    if a1 < b1:
        return "plain", ta, tb
    return "wrap", ta, tb


def _count_arc_lanes(hi, lo, mode, ta, tb) -> int:
    total = int(hi.shape[0])
    if mode == "all":
        return total
    if mode == "empty":
        return 0
    below_b = _lanes.count_below(hi, lo, tb)
    below_a = _lanes.count_below(hi, lo, ta)
    if mode == "plain":
        return below_b - below_a
    return (total - below_a) + below_b


def count_in_interval(points: PointSet, a, b) -> int:
    """Exact count of points in the interval [a, b) taken mod 1.

    Endpoints may be floats, Fractions or ints; they convert exactly, and
    each point is compared against the exact thresholds, left-closed and
    right-open.  b < a (or an interval straddling an integer) wraps.
    """
    mode, ta, tb = _arc_thresholds(a, b)
    return _count_arc_lanes(points.hi, points.lo, mode, ta, tb)


def dump_sorted(points: PointSet, path) -> None:
    """Write the sorted multiset as little-endian 128-bit words."""
    hi, lo = points.sorted_lanes()
    buf = np.empty((points.cardinality, 2), dtype="<u8")
    buf[:, 0] = lo
    buf[:, 1] = hi
    with open(path, "wb") as fh:
        fh.write(buf.tobytes())


def load_dump(path) -> list:
    """Raw words back from a dump_sorted file (for round-trip checks)."""
    data = np.fromfile(path, dtype="<u8").reshape(-1, 2)
    return [(int(h) << 64) | int(l) for l, h in data]
