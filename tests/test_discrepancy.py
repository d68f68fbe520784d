"""Counting-side discrepancy: pointwise, supremum, averaged."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equidist import (
    DEFAULT_POINT_BUDGET,
    SIDE_LEFT,
    SIDE_RIGHT,
    BudgetError,
    alpha_from_values,
    averaged_discrepancy_direct,
    discrepancy_at,
    generate_points,
    max_discrepancy,
    random_alpha,
)
from equidist.unitfrac import MOD, raw_to_float

from roof_reference import exact_roof_average

# frozen: brute-force jump-side scan over the 5-point golden orbit
GOLDEN_DELTA_5 = (0.9098300562505255, 0.6180339887498949, SIDE_RIGHT, 4)
# frozen: exact-sweep at d=1, x=0.3, N=8 (error bound 0)
SWEEP_G1_X03_N8 = -0.13874582183519601


def brute_force_max(alpha, N):
    """Evaluate |D| at both sides of every jump and take the first winner.

    Right limit at y_(j): j - M y_(j); left limit: M y_(j) - (j-1).  Ties
    prefer the right limit, then the smaller sorted index.
    """
    pts = generate_points(alpha, N)
    ys = np.sort(np.array([raw_to_float(r) for r in pts.raws()]))
    m = float(len(ys))
    best = (-np.inf, None, None, None)
    for j, y in enumerate(ys, start=1):
        for side, val in ((SIDE_RIGHT, j - m * y), (SIDE_LEFT, m * y - (j - 1))):
            if val > best[0]:
                best = (val, y, side, j)
    return best


def test_single_point_discrepancy():
    half = alpha_from_values([0.5])
    assert discrepancy_at(half, 0.5, 1) == -0.5
    assert discrepancy_at(half, 0.75, 1) == 1 - 0.75
    assert discrepancy_at(half, 1.0, 1) == 0.0


def test_golden_max_frozen(golden1):
    r = max_discrepancy(golden1, 5)
    assert (r.delta, r.argmax_x, r.side, r.index) == GOLDEN_DELTA_5


def test_degenerate_alpha_max():
    # every point at 0: the right limit just below the first jump wins
    r = max_discrepancy(alpha_from_values([0, 0]), 2)
    assert r.delta == 4.0
    assert r.argmax_x == 0.0
    assert r.side == SIDE_RIGHT
    assert r.index == 4


@given(st.integers(0, 2 ** 32), st.integers(1, 2), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_max_matches_brute_force(seed, d, N):
    alpha = random_alpha(seed, d)
    r = max_discrepancy(alpha, N)
    val, y, side, j = brute_force_max(alpha, N)
    assert (r.delta, r.argmax_x, r.side, r.index) == (val, y, side, j)


@given(st.integers(0, 2 ** 32), st.integers(1, 30),
       st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_max_dominates_pointwise(seed, N, x):
    alpha = random_alpha(seed, 1)
    assert abs(discrepancy_at(alpha, x, N)) <= max_discrepancy(alpha, N).delta + 1e-12


def test_full_interval_closes(golden1):
    assert discrepancy_at(golden1, 1.0, 8) == 0.0
    assert discrepancy_at(golden1, 0.0, 8) == 0.0


def test_sweep_frozen(golden1):
    r = averaged_discrepancy_direct(golden1, 0.3, 8)
    assert r.value == SWEEP_G1_X03_N8
    assert r.error_bound == 0.0
    assert r.mode == "exact-sweep"


def test_sweep_guards(golden1):
    with pytest.raises(ValueError):
        averaged_discrepancy_direct(golden1, 1.5, 8)
    with pytest.raises(ValueError):
        averaged_discrepancy_direct(golden1, 0.3, 0)
    with pytest.raises(ValueError):
        averaged_discrepancy_direct(golden1, 0.3, 8, mode="monte-carlo")
    # the (N+3)^d lattice is refused before any work: 407^3 > 2^26
    with pytest.raises(BudgetError):
        averaged_discrepancy_direct(random_alpha(0, 3), 0.3, 404)
    with pytest.raises(BudgetError):
        averaged_discrepancy_direct(golden1, 0.3, DEFAULT_POINT_BUDGET)
    # d = 3 and N > 64 run
    assert math.isfinite(averaged_discrepancy_direct(random_alpha(0, 3), 0.3, 8).value)
    assert math.isfinite(averaged_discrepancy_direct(golden1, 0.3, 65).value)


def sweep_float_bound(d, N):
    """Largest float error of the sweep against the exact roof average.

    Each CDF argument y + m1 or y - x + m1 is within 2^-50 of its exact
    value: y rounds by at most 2^-52, y - x and + m1 once each (at most
    2^-51 together while |t| <= 2).  The CDF slope is at most 1/s = N^2/2,
    and one CDF evaluation (s itself included) adds at most 8 roundings of
    2^-53.  A point has at most floor(2 s) + 2 live m1 terms, each two CDF
    values and two roundings.  The weights are exact dyadics summing to
    N^d, and the weighted products, fsum, the volume term and the final
    difference add at most 5 roundings of N^d.
    """
    eps = 2.0 ** -53
    live = math.floor(Fraction(4, N * N)) + 2
    per_point = live * (2 * (N * N / 2 * 2.0 ** -50 + 8 * eps) + 2 * eps)
    return N ** d * (per_point + 5 * eps)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 16])
def test_sweep_matches_exact_roof_average(d, N):
    alpha = random_alpha(10 + d, d)
    for x in (0.0, 0.3, 0.7, 1.0):
        exact = exact_roof_average(alpha, x, N)
        value = averaged_discrepancy_direct(alpha, x, N).value
        assert abs(Fraction(value) - exact) <= sweep_float_bound(d, N), (x, value)
