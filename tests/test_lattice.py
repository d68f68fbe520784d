"""Point-set generation, exact interval counts, dump round-trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equidist import (
    BudgetError,
    PointSet,
    alpha_from_values,
    count_in_interval,
    dump_sorted,
    generate_points,
    load_dump,
    random_alpha,
)
from equidist import _lanes
from equidist.unitfrac import MOD

# small counts, the odd tile of the tiling test, and every power of two
# up to 2^12 with its neighbours: each doubling step ends full or partial
MUL_BLOCK_COUNTS = sorted({0, 1, 2, 3, 1009}
                          | {(1 << e) + k for e in range(1, 13)
                             for k in (-1, 0, 1)})


def point_set_from_raws(raws):
    r = [int(x) for x in raws]
    hi = np.array([x >> 64 for x in r], dtype=np.uint64)
    lo = np.array([x & 0xFFFFFFFFFFFFFFFF for x in r], dtype=np.uint64)
    return PointSet(hi=hi, lo=lo, dim=1)


# {k1*g + k2*s} for k in {1,2}^2, g, s the golden/sqrt2 literals; sorted
# raw words, frozen from exact integer arithmetic mod 2**128
D2_N2_RAWS = [
    10973273023534969329054699975726024050,
    21946546047069938658109399951452048100,
    151922844438605528955747637499207926448,
    221279341552937842494791069859738357158,
]


def test_d2_n2_points_frozen(golden_sqrt2):
    pts = generate_points(golden_sqrt2, 2)
    assert pts.cardinality == 4
    assert sorted(pts.raws()) == D2_N2_RAWS


def test_points_match_exact_orbit(golden_sqrt2):
    g, s = golden_sqrt2.components
    pts = generate_points(golden_sqrt2, 3)
    want = [(k1 * g.raw + k2 * s.raw) % MOD
            for k1 in range(1, 4) for k2 in range(1, 4)]
    # k1-major lexicographic generation order
    assert pts.raws() == want


def test_count_interval_basic():
    pts = point_set_from_raws([int(0.95 * MOD), int(0.05 * MOD), MOD // 2])
    assert count_in_interval(pts, 0.0, 0.5) == 1
    assert count_in_interval(pts, 0.5, 1.0) == 2
    assert count_in_interval(pts, 0.9, 0.1) == 2      # wraps across 0
    assert count_in_interval(pts, 0.5, 0.5) == 0
    assert count_in_interval(pts, 0.0, 1.0) == 3


def test_count_interval_boundary_is_half_open():
    pts = point_set_from_raws([MOD // 4])
    assert count_in_interval(pts, 0.25, 0.5) == 1
    assert count_in_interval(pts, 0.0, 0.25) == 0


def test_count_interval_rejects_long_arcs():
    pts = point_set_from_raws([0])
    with pytest.raises(ValueError):
        count_in_interval(pts, 0.0, 2.5)


@given(st.integers(0, 2 ** 32), st.integers(1, 2), st.integers(1, 40),
       st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_partition_invariant(seed, d, N, t):
    alpha = random_alpha(seed, d)
    pts = generate_points(alpha, N)
    lowside = count_in_interval(pts, 0, t)
    highside = count_in_interval(pts, t, 1)
    assert lowside + highside == pts.cardinality


@given(st.integers(0, 2 ** 32),
       st.fractions(min_value=0, max_value=Fraction(999, 1000), max_denominator=10 ** 6),
       st.fractions(min_value=0, max_value=Fraction(999, 1000), max_denominator=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_wrap_complements_plain(seed, a, b):
    # [a, b) and [b, a) tile the circle, except [a, a) which is empty twice
    pts = generate_points(random_alpha(seed, 1), 25)
    want = 0 if a == b else pts.cardinality
    assert count_in_interval(pts, a, b) + count_in_interval(pts, b, a) == want


def test_budget_enforced():
    alpha = random_alpha(0, 2)
    with pytest.raises(BudgetError):
        generate_points(alpha, 1 << 14)
    # explicit budget overrides the default
    with pytest.raises(BudgetError):
        generate_points(alpha, 4, budget=15)
    assert generate_points(alpha, 4, budget=16).cardinality == 16


def test_dump_roundtrip(tmp_path, golden_sqrt2):
    pts = generate_points(golden_sqrt2, 2)
    path = tmp_path / "points.bin"
    dump_sorted(pts, path)
    assert path.stat().st_size == 4 * 16
    assert load_dump(path) == D2_N2_RAWS


@settings(max_examples=80, deadline=None)
@given(raw=st.one_of(st.sampled_from([0, 1, 1 << 127, MOD - 1]),
                     st.integers(0, MOD - 1)),
       n0=st.one_of(st.sampled_from([-(1 << 64) - 3, -(1 << 100), -1, 0]),
                    st.integers(-(1 << 80), 1 << 80)),
       count=st.sampled_from(MUL_BLOCK_COUNTS))
def test_mul_block_matches_python_ints(raw, n0, count):
    hi, lo = _lanes.mul_block(raw, n0, count)
    assert hi.dtype == np.uint64 and lo.dtype == np.uint64
    assert hi.shape == (count,) and lo.shape == (count,)
    got = [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]
    assert got == [((n0 + i) * raw) % MOD for i in range(count)]


def test_mul_block_rejects_negative_count():
    with pytest.raises(ValueError):
        _lanes.mul_block(1, 0, -1)
