"""Small-divisor structure: scans, spectrum, boxes, continued fractions,
and the bucket-pair census."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equidist import (
    BucketVec,
    BudgetError,
    PhiSpec,
    all_masks,
    alpha_from_specs,
    box_count_recheck,
    box_counts,
    bucket_in_geometry,
    component_sum,
    continued_fraction,
    line_census,
    min_distance_scan,
    neighbor_step,
    product_scan,
    random_alpha,
    small_divisor_product,
    spectrum_check,
    spectrum_scan,
    validate_bucket,
)
from equidist import _lanes, diophantine
from equidist.diophantine import (CENSUS_MAX_DIM, CENSUS_MAX_N,
                                  _census_l1_max, _geom_q)
from equidist.unitfrac import MOD, dist_nearest, frac_mul_int

# frozen: exhaustive scan over 2 <= n <= 1e6; the minimum sits at n=3,
# noticeably below the liminf 1/sqrt(5) = 0.4472...
GOLDEN_FLOOR = (3, 0.4376941012509464)
INV_SQRT5 = 0.4472135954999579

# frozen: golden spectrum at M = 1e5
GOLDEN_SPECTRUM_BUCKETS = 41
GOLDEN_SPECTRUM_HEAD = [(0, -1, 1, 0.4721359549995794),
                        (1, -1, 1, 0.4376941012509464)]

# frozen: golden census at x = 0.3, N = 256
GOLDEN_CENSUS_256 = dict(lines=998, pair_total=1996, big_total=1290,
                         max_big=1, violations=[], step=(100, 200))


def test_product_scan_floor_frozen(golden1):
    assert product_scan(golden1, 2, 10 ** 6) == GOLDEN_FLOOR
    # the early dip: 3 ||3 a|| < liminf
    assert small_divisor_product(3, golden1) == GOLDEN_FLOOR[1]
    assert GOLDEN_FLOOR[1] < INV_SQRT5


def test_fibonacci_products_approach_liminf(golden1):
    # deviation decays like 1/F^2: 2.4e-7 at 610, 2e-9 at 6765
    fib = [610, 987, 1597, 2584, 4181, 6765]
    for f in fib:
        assert small_divisor_product(f, golden1) == pytest.approx(INV_SQRT5, abs=3e-7)
    assert small_divisor_product(6765, golden1) == pytest.approx(INV_SQRT5, abs=3e-9)


def test_product_scan_guards(golden1):
    with pytest.raises(ValueError):
        small_divisor_product(0, golden1)
    with pytest.raises(ValueError):
        product_scan(golden1, 5, 4)
    with pytest.raises(ValueError):
        min_distance_scan(golden1.components[0], 0, 4)


def test_min_distance_scan_matches_brute(golden1):
    a = golden1.components[0]
    lo, hi = 2, 500
    brute = min(range(lo, hi + 1), key=lambda n: dist_nearest(frac_mul_int(a, n)))
    got_n, got_v = min_distance_scan(a, lo, hi)
    assert got_n == brute
    assert got_v == dist_nearest(frac_mul_int(a, brute))


@given(st.integers(0, 2 ** 32), st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_product_scan_matches_pointwise(seed, d):
    alpha = random_alpha(seed, d)
    n, v = product_scan(alpha, 2, 400)
    vals = [small_divisor_product(k, alpha) for k in range(2, 401)]
    assert v == min(vals)
    assert n == 2 + vals.index(min(vals))


def test_spectrum_partition_frozen(golden1):
    recs = spectrum_scan(golden1, 10 ** 5, PhiSpec())
    assert len(recs) == GOLDEN_SPECTRUM_BUCKETS
    assert sum(r.count for r in recs) == 10 ** 5 - 1
    head = [(r.p, r.v, r.count, r.min_product) for r in recs[:2]]
    assert head == GOLDEN_SPECTRUM_HEAD
    assert min(r.min_product for r in recs) == GOLDEN_FLOOR[1]
    for r in recs:
        assert spectrum_check(r, PhiSpec()) > 0.0


def test_spectrum_guards(golden1):
    with pytest.raises(BudgetError):
        spectrum_scan(golden1, 10 ** 9 + 1, PhiSpec())
    rational = alpha_from_specs(["0.25"])
    with pytest.raises(ValueError):
        spectrum_scan(rational, 100, PhiSpec())
    for M in (1, -5):
        with pytest.raises(ValueError, match="need M >= 2"):
            spectrum_scan(golden1, M, PhiSpec())


def test_block_tiling_invariance(monkeypatch, golden1):
    # every exact result must be independent of where the scan cuts its
    # blocks; an odd tile puts block edges inside every range below.
    # Fourier float sums are left out: block grouping changes their rounding
    alpha = random_alpha(11, 2)
    a1 = random_alpha(11, 1)
    buckets = [BucketVec(l=(11, 9), eps=(1, 1), grid="dyadic"),
               BucketVec(l=(80, 70), eps=(1, 1), grid="geometric"),
               BucketVec(l=(80, 70), eps=(-1, 1), grid="geometric")]

    def exact_results():
        terms = [component_sum(c, a1, 0.3, 128).term_count
                 for c in ("dbar2", "dbar3")]
        # N = 6000 is about the smallest size with a nonempty U4
        terms += [component_sum(c, a1, 0.3, 6000).term_count
                  for c in ("dbar4", "dbar5")]
        terms += [component_sum("dbar6", a1, 0.3, 6000, mask=m).term_count
                  for m in all_masks(1)]
        return (spectrum_scan(golden1, 20000, PhiSpec()),
                spectrum_scan(alpha, 20000, PhiSpec()),
                product_scan(alpha, 2, 20000),
                min_distance_scan(golden1.components[0], 2, 20000),
                [r.observed for r in box_counts(golden1, 1 << 10, buckets)],
                line_census(golden1, 0.3, 256).pair_total,
                line_census(alpha, 0.3, 64).pair_total,
                terms)

    default = exact_results()
    assert default[-1][2] > 0            # U4 terms exist at N = 6000
    assert all(n > 0 for n in default[4])
    monkeypatch.setattr(_lanes, "BLOCK", 1009)
    assert exact_results() == default


def test_continued_fraction_classics(golden1, golden_sqrt2):
    cf = continued_fraction(golden1.components[0], 12)
    assert cf.quotients == [0] + [1] * 11
    assert not cf.terminated
    assert cf.convergents[:6] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]
    cf2 = continued_fraction(golden_sqrt2.components[1], 8)
    assert cf2.quotients == [0] + [2] * 7


def test_continued_fraction_terminates_on_grid():
    third = alpha_from_specs(["0." + "3" * 39]).components[0]
    cf = continued_fraction(third, 12)
    assert cf.terminated
    assert cf.quotients[:2] == [0, 3]
    # the stored grid point is 1/3 - 1/(3 * 2**128), so one huge quotient
    assert cf.quotients[2] > 10 ** 38


def test_convergents_are_good_approximations(golden1):
    a = Fraction(golden1.components[0].raw, MOD)
    cf = continued_fraction(golden1.components[0], 20)
    for p, q in cf.convergents[1:]:
        assert abs(a - Fraction(p, q)) < Fraction(1, q * q)


def test_continued_fraction_guards(golden1):
    with pytest.raises(ValueError):
        continued_fraction(golden1.components[0], 0)
    with pytest.raises(ValueError):
        continued_fraction(golden1.components[0], 65)


def test_bucket_validation(golden1, golden_sqrt2):
    with pytest.raises(ValueError):
        BucketVec(l=(3, 2), eps=(1, 0), grid="geometric")
    with pytest.raises(ValueError):
        BucketVec(l=(3, 2), eps=(1,), grid="geometric")
    with pytest.raises(ValueError):
        BucketVec(l=(3, 2), eps=(1, -1), grid="dyadic")
    with pytest.raises(ValueError):
        BucketVec(l=(3, 2), eps=(1, 1), grid="hex")
    b = BucketVec(l=(3, 2), eps=(1, 1), grid="dyadic")
    with pytest.raises(ValueError):
        validate_bucket(b, golden_sqrt2, 64)     # needs d+1 coordinates
    with pytest.raises(ValueError):
        validate_bucket(BucketVec(l=(2, 3), eps=(1, 1), grid="dyadic"), golden1, 64)
    with pytest.raises(ValueError):
        validate_bucket(BucketVec(l=(40, 2), eps=(1, 1), grid="dyadic"), golden1, 64)
    with pytest.raises(ValueError):
        validate_bucket(BucketVec(l=(200, 2), eps=(1, 1), grid="geometric"),
                        golden1, 64)


def test_box_count_dyadic_frozen(golden1):
    N = 1 << 10
    bk = BucketVec(l=(6, 4), eps=(1, 1), grid="dyadic")
    assert bucket_in_geometry(bk, golden1, N)
    rec = box_counts(golden1, N, [bk])[0]
    assert rec.observed == 66
    assert rec.expected == 64.0
    assert rec.relative_error == 0.03125
    assert box_count_recheck(golden1, N, bk) == 66


def test_box_count_out_of_geometry_observes_zero(golden1):
    N = 1 << 10
    bk = BucketVec(l=(3, 2), eps=(1, 1), grid="dyadic")
    assert not bucket_in_geometry(bk, golden1, N)
    rec = box_counts(golden1, N, [bk])[0]
    # last band 2^m with m = l2 - l1 = -1 sits in (1/4, 1/2]... shifted
    # outside (0, 1/2] on the high side, so nothing can land there
    assert rec.observed == 0
    assert rec.relative_error == -1.0
    assert box_count_recheck(golden1, N, bk) == 0


def test_box_count_geometric_recheck(golden1):
    N = 1 << 10
    bk = BucketVec(l=(20, 9), eps=(1, 1), grid="geometric")
    assert bucket_in_geometry(bk, golden1, N)
    rec = box_counts(golden1, N, [bk])[0]
    assert rec.observed == box_count_recheck(golden1, N, bk)
    assert rec.expected > 0


@given(st.integers(0, 2 ** 32), st.integers(4, 9), st.integers(2, 7))
@settings(max_examples=25, deadline=None)
def test_box_count_recheck_agrees(seed, l1, l2):
    alpha = random_alpha(seed, 1)
    N = 1 << 8
    bk = BucketVec(l=(l1, max(1, min(l2, l1))), eps=(1, 1), grid="dyadic")
    recs = box_counts(alpha, N, [bk])
    assert recs[0].observed == box_count_recheck(alpha, N, bk)


def test_neighbor_step_values():
    assert neighbor_step(256, 1) == (100, 200)
    assert neighbor_step(1024, 2) == (862, -862, 2586)
    base, last = neighbor_step(256, 1)
    assert last == 2 * base


def test_census_frozen(golden1):
    c = line_census(golden1, 0.3, 256)
    want = GOLDEN_CENSUS_256
    assert len(c.lines) == want["lines"]
    assert c.pair_total == want["pair_total"]
    assert c.big_total == want["big_total"]
    assert c.max_big_per_line == want["max_big"]
    assert c.violations == want["violations"]
    assert c.step == want["step"]
    assert sum(rec.pair_count for rec in c.lines) == c.pair_total
    assert sum(rec.big_count for rec in c.lines) == c.big_total
    # at this scale the neighbor step exceeds every bucket spread: all
    # lines are singletons, so the per-class at-most-one check is
    # structural rather than informative
    assert all(rec.length == 1 for rec in c.lines)


def test_census_lines_are_single_buckets():
    # integer-only: at every admitted size l1_max <= step[0], so l + step
    # is never admissible and line_census takes root = l, length = 1
    for d in range(1, CENSUS_MAX_DIM + 1):
        for N in range(2, CENSUS_MAX_N + 1):
            assert _census_l1_max(_geom_q(N, d), N) <= neighbor_step(N, d)[0]


def test_census_guards(golden1, monkeypatch):
    with pytest.raises(BudgetError):
        line_census(golden1, 0.3, 2048)
    # with the size cap lifted, N = 2^18 gives l1_max = 318 > step[0] = 307;
    # the census refuses it before the first block
    monkeypatch.setattr(diophantine, "CENSUS_MAX_N", 1 << 18)
    with pytest.raises(BudgetError, match="one bucket"):
        line_census(golden1, 0.3, 1 << 18)
    with pytest.raises(BudgetError):
        line_census(random_alpha(0, 3), 0.3, 64)
    with pytest.raises(ValueError):
        line_census(golden1, 0.3, 1)


def test_census_masks_change_bigness(golden1):
    base = line_census(golden1, 0.3, 128)
    other = line_census(golden1, 0.3, 128, mask=(1, 0))
    assert base.pair_total == other.pair_total
    assert base.big_total != other.big_total
