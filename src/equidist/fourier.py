"""Frequency-side evaluation of the roof-averaged discrepancy.

Poisson summation turns the averaged, shifted count into an absolutely
convergent series over integer frequency vectors n = (n1, ..., n_{d+1}):

    Dbar(alpha, x; N) = sum_{n != 0} f(n),

    f(n) = (-1)^d i^{d+1} * (1 - e^{2 pi i n1 x}) / (2 pi n1) * fejer(n1 / N^2)
           * prod_i [ (1 - e^{-2 pi i N r_i}) / (2 pi r_i) * fejer(r_i) ],

with residues r_i = n1 alpha_i - n_{i+1} and fejer(t) = (sin 2 pi t / 2 pi t)^2
the squared-sinc weights produced by the triangle averaging.  The constant
is pinned by the direct path: expanding the geometric sums termwise gives
the coefficient -i^{d+1} for the phase convention (1 - e^{-2 pi i n1 x})
prod (1 - e^{2 pi i N r_i}); relabeling n -> -n to the convention above
multiplies it by (-1)^{d+1}.  (Dual-path agreement at d = 1 and d = 2
checks the sign; with a bare i^{d+1} the series comes out negated for
odd d.)

A residue factor at r_i = 0 takes its limit value i N (and fejer -> 1).
Terms with
n1 = 0 but n != 0 vanish identically: every residue is then the nonzero
integer -n_{i+1}, where both the numerator 1 - e^{-2 pi i N r} and the
fejer factor are exactly zero; they are skipped, not enumerated.

The index filters nest as U4 <= U3 <= U2 <= U1:

    U1: 0 < |n1| < N^2 (ln N)^2, n_{i+1} free
    U2: U1 and every n_{i+1} a nearest integer to n1 alpha_i
    U3: U2 and |n1| prod_i ||n1 alpha_i|| > (ln N)^s
    U4: nearest integers, 1 < |n1| < N^2 / 4, same product condition

Multiplying out the numerator products over U4 splits the sum into a main
part and 2^{d+1} - 1 oscillating parts twisted by the linear forms
Lambda_mask(n) = mask_1 n1 x - sum_i mask_{i+1} N r_i:

    sum_{U4} f = (-1)^d i^{d+1} / (2 pi)^{d+1} *
        ( sum_{U4} g/(n1 prod r)
          + sum_mask (-1)^{|mask|} sum_{U4} e^{2 pi i Lambda_mask} g/(n1 prod r) )

with g(n) = fejer(n1/N^2) prod_i fejer(r_i).  component_sum evaluates each
piece over exactly its defining index set; the identity is then a pure
float-accumulation check.

Membership tests compare exact integers: residue numerators live on the
2**-128 grid and the thresholds (ln N)^s, N^2 (ln N)^2 are taken as exact
rationals of the float ln N, so a term can never leak across a filter
boundary through rounding.  Vectorized scans classify with floats first
and re-check anything within a 2**-33 relative band of a threshold
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _lanes
from .errors import BudgetError
from .unitfrac import MOD, HALF, AlphaVec, nearest_residue

TWO_PI = 2.0 * math.pi

COMPONENTS = ("dbar", "dbar1", "dbar2", "dbar3", "dbar4", "dbar5", "dbar6")

_GUARD = 2.0 ** -33


def default_s_exponent(d: int) -> int:
    """Smallest admissible product exponent, (d+2)d + 4."""
    return (d + 2) * d + 4


@dataclass(frozen=True)
class FourierParams:
    """Evaluation knobs: product exponent s, |n1| cutoff, per-axis window.

    s_exponent=None and cutoff_n1=None resolve to the defaults for the
    dimension and N in play: s = (d+2)d + 4 and the largest |n1| below
    N^2 (ln N)^2.  tail_window is how many n_{i+1} candidates around the
    nearest integer each axis enumerates in full-series mode.
    """

    s_exponent: int | None = None
    cutoff_n1: int | None = None
    tail_window: int = 32

    def resolve_s(self, d: int) -> int:
        s = self.s_exponent if self.s_exponent is not None else default_s_exponent(d)
        if s < default_s_exponent(d):
            raise ValueError(f"s_exponent must be >= {default_s_exponent(d)} for d={d}")
        return s

    def resolve_cutoff(self, N: int) -> int:
        c = self.cutoff_n1 if self.cutoff_n1 is not None else u1_limit(N)
        if c < 1:
            raise ValueError("cutoff_n1 must be >= 1")
        return c

    def resolve_window(self) -> int:
        if self.tail_window < 1:
            raise ValueError("tail_window must be >= 1")
        return self.tail_window


@dataclass(frozen=True)
class ComponentReport:
    component: str
    value: complex
    term_count: int
    tail_bound: float


def _require_log_range(N: int):
    if N < 2:
        raise ValueError("frequency-side evaluation needs N >= 2")


@lru_cache
def u1_threshold(N: int) -> Fraction:
    """Exact rational N^2 (ln N)^2 built from the float ln N."""
    _require_log_range(N)
    return Fraction(math.log(N)) ** 2 * N * N


def u1_limit(N: int) -> int:
    """Largest integer |n1| strictly below N^2 (ln N)^2."""
    t = u1_threshold(N)
    f = t.numerator // t.denominator
    return f - 1 if f * t.denominator == t.numerator else f


def u4_limit(N: int) -> int:
    """Largest integer |n1| strictly below N^2 / 4."""
    return (N * N - 1) // 4


@lru_cache
def product_threshold(N: int, s: int) -> Fraction:
    """Exact rational (ln N)^s built from the float ln N."""
    _require_log_range(N)
    return Fraction(math.log(N)) ** s


def delta_n(N: int, d: int) -> float:
    """Geometric grid ratio 1/ceil((ln N)^d)."""
    _require_log_range(N)
    return 1.0 / math.ceil(math.log(N) ** d)


def series_coefficient(d: int) -> complex:
    """(-1)^d i^{d+1}, the constant multiplying every series term."""
    return (-1) ** d * 1j ** (d + 1)


def fejer(t: float) -> float:
    """Squared sinc (sin 2 pi t / 2 pi t)^2; the t = 0 limit is 1."""
    if t == 0.0:
        return 1.0
    u = math.sin(TWO_PI * t) / (TWO_PI * t)
    return u * u


def one_minus_cis(theta: float) -> complex:
    """1 - e^{i theta} via the half angle, stable for small theta."""
    s = math.sin(0.5 * theta)
    c = math.cos(0.5 * theta)
    return complex(2.0 * s * s, -2.0 * s * c)


def residue_numerator(n1: int, comp, n_next: int) -> int:
    """Exact numerator of n1 alpha_i - n_{i+1} on the 2**-128 grid."""
    return n1 * comp.raw - n_next * MOD


def g_factor(n, alpha: AlphaVec, N: int) -> float:
    """Product of squared-sinc weights; always in [0, 1]."""
    _require_log_range(N)
    n = tuple(n)
    if len(n) != alpha.dim + 1:
        raise ValueError("frequency vector must have d+1 entries")
    n1 = n[0]
    if n1 == 0:
        raise ValueError("g factor needs n1 != 0")
    out = fejer(n1 / (N * N))
    for comp, nn in zip(alpha.components, n[1:]):
        out *= fejer(residue_numerator(n1, comp, nn) / MOD)
    return out


def f_term(n, x, alpha: AlphaVec, N: int) -> complex:
    """One series term f(n); this scalar form is the reference path.

    The oscillation phases n1 x and N r_i are reduced mod 1 in exact
    rational arithmetic before hitting sin/cos, so the term stays accurate
    for large n1.
    """
    _require_log_range(N)
    n = tuple(n)
    if len(n) != alpha.dim + 1:
        raise ValueError("frequency vector must have d+1 entries")
    if all(v == 0 for v in n):
        raise ValueError("frequency vector must be nonzero")
    n1 = n[0]
    if n1 == 0:
        # residues are the nonzero integers -n_{i+1}: numerator and fejer
        # factor both vanish, so the whole term is identically zero
        return 0j
    d = alpha.dim
    phase = float((n1 * Fraction(x)) % 1)
    val = series_coefficient(d) * one_minus_cis(TWO_PI * phase) / (TWO_PI * n1)
    val *= fejer(n1 / (N * N))
    for comp, nn in zip(alpha.components, n[1:]):
        num = residue_numerator(n1, comp, nn)
        if num == 0:
            val *= 1j * N
            continue
        r = num / MOD
        t = (N * num) % MOD
        if t > HALF:
            t -= MOD
        val *= one_minus_cis(-TWO_PI * (t / MOD)) / (TWO_PI * r) * fejer(r)
    return val


def all_masks(d: int) -> list:
    """Every nonzero 0/1 mask of length d+1."""
    out = []
    for bits in range(1, 1 << (d + 1)):
        out.append(tuple((bits >> i) & 1 for i in range(d + 1)))
    return out


def _check_mask(mask, d: int):
    mask = tuple(mask)
    if len(mask) != d + 1 or any(b not in (0, 1) for b in mask) or not any(mask):
        raise ValueError(f"mask must be a nonzero 0/1 vector of length {d + 1}")
    return mask


def lambda_form(n, x, alpha: AlphaVec, N: int, mask) -> float:
    """Linear form mask_1 n1 x - sum_i mask_{i+1} N (n1 alpha_i - n_{i+1}).

    mask entry i+1 pairs with residue i; the sign of e^{2 pi i Lambda} in
    the multiplied-out sum is (-1)^{sum of mask bits}.
    """
    n = tuple(n)
    d = alpha.dim
    mask = _check_mask(mask, d)
    if len(n) != d + 1:
        raise ValueError("frequency vector must have d+1 entries")
    val = mask[0] * (n[0] * x)
    for i, (comp, nn) in enumerate(zip(alpha.components, n[1:])):
        if mask[i + 1]:
            val -= N * (residue_numerator(n[0], comp, nn) / MOD)
    return val


def index_set_membership(which: str, n, alpha: AlphaVec, N: int,
                         params: FourierParams | None = None) -> bool:
    """Exact membership in U1..U4; every comparison is integer arithmetic."""
    params = params if params is not None else FourierParams()
    which = which.upper()
    if which not in ("U1", "U2", "U3", "U4"):
        raise ValueError(f"unknown index set {which!r}")
    n = tuple(n)
    d = alpha.dim
    if len(n) != d + 1:
        raise ValueError("frequency vector must have d+1 entries")
    if all(v == 0 for v in n):
        return False
    n1 = n[0]
    a1 = abs(n1)
    t1 = u1_threshold(N)
    inside_u1 = 0 < a1 and a1 * t1.denominator < t1.numerator
    if which == "U1":
        return inside_u1
    if n1 == 0:
        return False
    nums = [residue_numerator(n1, comp, nn)
            for comp, nn in zip(alpha.components, n[1:])]
    nearest = all(abs(num) <= HALF for num in nums)
    if which == "U2":
        return inside_u1 and nearest
    s = params.resolve_s(d)
    ts = product_threshold(N, s)
    prod = a1
    for num in nums:
        prod *= abs(num)
    # |n1| prod ||n1 a_i|| > (ln N)^s, cleared of denominators
    big_product = prod * ts.denominator > ts.numerator * MOD ** d
    if which == "U3":
        return inside_u1 and nearest and big_product
    return nearest and big_product and a1 > 1 and 4 * a1 < N * N


def fourier_tail_bound(N: int, d: int, cutoff: int, window: int) -> float:
    """Upper bound on the absolute mass of the terms a truncated full-series
    evaluation drops.

    Two sources, both bounded by absolute values (no cancellation claimed):

    * |n1| > cutoff, all n_{i+1}: each term is at most
      N^4 / (4 pi^3 |n1|^3) per axis-summed factor bound P = N + 0.2
      (nearest residue factor <= N, the rest sum below 0.2), giving
      N^4 P^d / (4 pi^3 cutoff^2) <= [N^4 P^d / (4 pi^3 cutoff)] * (1/cutoff).

    * per-axis window truncation: the excluded n_{i+1} sit at residue
      distance >= rho = ceil(window/2) - 1/2, contributing at most
      (1/(2 pi^3)) (1/rho^3 + 1/(2 rho^2)) per axis, times the other axes'
      P^{d-1} and the summed first-factor mass
      W = (2/pi)(1 + 2 ln N) + 0.01, d axes in all: an O(d / window^2) term.

    So the bound has the shape C * (1/cutoff + d/window^2) with
    C = max(N^4 P^d/(4 pi^3 cutoff), window^2 P^{d-1} W (1/rho^3 + 1/(2 rho^2))/(2 pi^3 d) * d).
    """
    _require_log_range(N)
    if cutoff < 1 or window < 1:
        raise ValueError("cutoff and window must be >= 1")
    p_axis = N + 0.2
    pi3 = math.pi ** 3
    tail_n1 = N ** 4 * p_axis ** d / (4.0 * pi3 * cutoff * cutoff)
    return tail_n1 + _window_only_bound(N, d, window)


# ---------------------------------------------------------------------------
# vectorized scans


def _fejer_arr(t):
    zero = t == 0.0
    tt = np.where(zero, 1.0, t)
    u = np.sin(TWO_PI * tt) / (TWO_PI * tt)
    return np.where(zero, 1.0, u * u)


def _one_minus_cis_arr(theta):
    s = np.sin(0.5 * theta)
    c = np.cos(0.5 * theta)
    return 2.0 * s * s - 2.0j * s * c


def _axis_factor_arr(r, N: int):
    """(1 - e^{-2 pi i N r})/(2 pi r) * fejer(r) with the r = 0 limit iN."""
    zero = r == 0.0
    rr = np.where(zero, 1.0, r)
    fac = _one_minus_cis_arr(-TWO_PI * N * rr) / (TWO_PI * rr) * _fejer_arr(rr)
    return np.where(zero, 1j * N, fac)


def _first_factor_arr(n1s, x: float, N: int, d: int):
    omc = _one_minus_cis_arr(TWO_PI * (x * n1s))
    return series_coefficient(d) * omc / (TWO_PI * n1s) * _fejer_arr(n1s / (N * N))


def _negated_residues(res):
    # residue of -n is -residue(n) except at the +1/2 tie, which stays +1/2
    return np.where(res == 0.5, 0.5, -res)


def _product_mask(alpha: AlphaVec, n1_start: int, n1f, absprod, threshold: Fraction):
    """n1 * prod |r_i| > threshold, float fast path with exact fallback
    inside a 2**-33 relative band around the threshold."""
    thr = float(threshold)
    lhs = n1f * absprod
    mask = lhs > thr * (1.0 + _GUARD)
    border = ~mask & (lhs > thr * (1.0 - _GUARD))
    if np.any(border):
        d = alpha.dim
        rhs = threshold.numerator * MOD ** d
        for idx in np.nonzero(border)[0]:
            n1 = n1_start + int(idx)
            prod = n1
            for comp in alpha.components:
                prod *= abs(nearest_residue(n1, comp).num)
            mask[idx] = prod * threshold.denominator > rhs
    return mask


class _BlockSum:
    """Deterministic accumulator: pairwise within a block, exact across."""

    def __init__(self):
        self.re = []
        self.im = []
        self.count = 0

    def add(self, terms, count=None):
        if terms.size:
            self.re.append(float(np.sum(terms.real)))
            self.im.append(float(np.sum(terms.imag)))
        self.count += terms.size if count is None else count

    def total(self) -> complex:
        return complex(math.fsum(self.re), math.fsum(self.im))


def _window_offsets(window: int) -> list:
    out = [0]
    step = 1
    while len(out) < window:
        out.append(step)
        if len(out) < window:
            out.append(-step)
        step += 1
    return out


@lru_cache(maxsize=1)
def _full_series_sum(alpha: AlphaVec, x: float, N: int, cutoff: int,
                     window: int) -> tuple:
    """Truncated full series: |n1| ascending, + before -, factorized axis
    windows of the given size around each nearest integer.

    Returns (value, term_count).  Cached for one argument set: dbar at its
    default cutoff and dbar1 evaluate the same series.  Refuses before the
    first block when cutoff * d * window reaches the scan budget.
    """
    d = alpha.dim
    if cutoff * d * window >= _lanes.SCAN_BUDGET:
        raise BudgetError(
            f"windowed series of {cutoff} n1 x {d} axes x window {window} "
            f"exceeds the scan budget of {_lanes.SCAN_BUDGET - 1}")
    offsets = _window_offsets(window)
    acc = _BlockSum()
    for start, res in _lanes.residue_blocks(alpha.raws(), 1, cutoff):
        n1f = np.arange(start, start + res.shape[0], dtype=np.float64)
        for sign in (1.0, -1.0):
            rs = res if sign > 0 else _negated_residues(res)
            first = _first_factor_arr(sign * n1f, x, N, d)
            axes = np.ones(res.shape[0], dtype=np.complex128)
            for i in range(d):
                si = np.zeros(res.shape[0], dtype=np.complex128)
                for off in offsets:
                    si += _axis_factor_arr(rs[:, i] - off, N)
                axes *= si
            acc.add(first * axes, count=res.shape[0] * window ** d)
    return acc.total(), acc.count


def _nearest_component_sum(alpha: AlphaVec, x: float, N: int, lo: int, hi: int,
                           threshold: Fraction | None, kind: str,
                           mask=None):
    """Shared engine for the nearest-residue components.

    kind "f": series terms f(n); kind "main": g/(n1 prod r); kind "osc":
    e^{2 pi i Lambda_mask} g/(n1 prod r).  threshold=None skips the product
    filter.  Enumeration: |n1| ascending, + before -.
    """
    d = alpha.dim
    acc = _BlockSum()
    if hi < lo:
        return acc
    for start, res in _lanes.residue_blocks(alpha.raws(), lo, hi):
        n1f = np.arange(start, start + res.shape[0], dtype=np.float64)
        if threshold is not None:
            keep = _product_mask(alpha, start, n1f,
                                 np.prod(np.abs(res), axis=1), threshold)
        else:
            keep = np.ones(res.shape[0], dtype=bool)
        if not np.any(keep):
            continue
        kres = res[keep]
        kn1 = n1f[keep]
        for sign in (1.0, -1.0):
            rs = kres if sign > 0 else _negated_residues(kres)
            n1s = sign * kn1
            if kind == "f":
                vals = _first_factor_arr(n1s, x, N, d)
                for i in range(d):
                    vals = vals * _axis_factor_arr(rs[:, i], N)
            else:
                g = _fejer_arr(n1s / (N * N))
                denom = n1s.copy()
                for i in range(d):
                    g *= _fejer_arr(rs[:, i])
                    denom *= rs[:, i]
                vals = (g / denom).astype(np.complex128)
                if kind == "osc":
                    lam = mask[0] * (n1s * x)
                    for i in range(d):
                        if mask[i + 1]:
                            lam = lam - N * rs[:, i]
                    vals *= np.exp(2j * math.pi * lam)
            acc.add(vals)
    return acc


def component_sum(component: str, alpha: AlphaVec, x, N: int,
                  params: FourierParams | None = None,
                  mask=None) -> ComponentReport:
    """Evaluate one series component over exactly its defining index set.

    dbar   truncated full series (cutoff_n1, tail_window); nonzero tail bound
    dbar1  same evaluation capped at the U1 range (n_{i+1} windowed)
    dbar2  f over U2 (nearest residues, no product filter)
    dbar3  f over U3, dbar4 f over U4: finite sets, enumerated exactly
    dbar5  main sum g/(n1 prod r) over U4
    dbar6  oscillating sum e^{2 pi i Lambda_mask} g/(n1 prod r) over U4

    term_count is the number of enumerated frequency vectors (for windowed
    modes: n1 values times window^d).
    """
    _require_log_range(N)
    params = params if params is not None else FourierParams()
    comp = component.lower()
    if comp not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    d = alpha.dim
    x = float(x)
    window = params.resolve_window()
    if comp == "dbar":
        cutoff = params.resolve_cutoff(N)
        value, count = _full_series_sum(alpha, x, N, cutoff, window)
        bound = fourier_tail_bound(N, d, cutoff, window)
        return ComponentReport(comp, value, count, bound)
    if comp == "dbar1":
        value, count = _full_series_sum(alpha, x, N, u1_limit(N), window)
        # n1 range is exact here; only the per-axis window truncates
        return ComponentReport(comp, value, count,
                               _window_only_bound(N, d, window))
    s = params.resolve_s(d)
    if comp == "dbar2":
        acc = _nearest_component_sum(alpha, x, N, 1, u1_limit(N), None, "f")
        return ComponentReport(comp, acc.total(), acc.count, 0.0)
    if comp == "dbar3":
        acc = _nearest_component_sum(alpha, x, N, 1, u1_limit(N),
                                     product_threshold(N, s), "f")
        return ComponentReport(comp, acc.total(), acc.count, 0.0)
    lo, hi = 2, u4_limit(N)
    if comp == "dbar4":
        acc = _nearest_component_sum(alpha, x, N, lo, hi,
                                     product_threshold(N, s), "f")
        return ComponentReport(comp, acc.total(), acc.count, 0.0)
    if comp == "dbar5":
        acc = _nearest_component_sum(alpha, x, N, lo, hi,
                                     product_threshold(N, s), "main")
        return ComponentReport(comp, acc.total(), acc.count, 0.0)
    if mask is None:
        raise ValueError("dbar6 needs a sign mask; see all_masks(d)")
    mask = _check_mask(mask, d)
    acc = _nearest_component_sum(alpha, x, N, lo, hi,
                                 product_threshold(N, s), "osc", mask=mask)
    return ComponentReport(comp, acc.total(), acc.count, 0.0)


def _window_only_bound(N: int, d: int, window: int) -> float:
    pi3 = math.pi ** 3
    rho = math.ceil(window / 2) - 0.5
    per_axis = (1.0 / rho ** 3 + 0.5 / rho ** 2) / (2.0 * pi3)
    w_mass = (2.0 / math.pi) * (1.0 + 2.0 * math.log(N)) + 0.01
    return d * (N + 0.2) ** (d - 1) * w_mass * per_axis


def recombine(dbar5: complex, dbar6_by_mask: dict, d: int) -> complex:
    """Right side of the multiplied-out identity for the U4 sum:
    (-1)^d i^{d+1}/(2 pi)^{d+1} ( dbar5 + sum_mask (-1)^{|mask|} dbar6[mask] )."""
    total = dbar5
    for mask, val in dbar6_by_mask.items():
        total += (-1) ** sum(mask) * val
    return series_coefficient(d) / (TWO_PI ** (d + 1)) * total


# ---------------------------------------------------------------------------
# geometric bucket coordinates


def assign_buckets(n1f, res, logb: float):
    """Geometric bucket coordinates of (n1, residues), elementwise.

    l1 counts powers of 1+delta below n1; middle coordinates l_{i+1} count
    powers below 1/|r_i|; the last coordinate is recovered from the last
    residue's own exponent m via l_{d+1} = m + l1 - sum of middles.
    Returns (lvec, eps) as integer arrays of shape (count, d+1).
    """
    count, d = res.shape
    lvec = np.empty((count, d + 1), dtype=np.int64)
    eps = np.empty((count, d + 1), dtype=np.int64)
    lvec[:, 0] = np.floor(np.log(n1f) / logb).astype(np.int64)
    eps[:, 0] = 1
    absres = np.abs(res)
    for i in range(d - 1):
        lvec[:, i + 1] = np.ceil(-np.log(absres[:, i]) / logb).astype(np.int64)
    m_last = np.floor(np.log(absres[:, d - 1]) / logb).astype(np.int64)
    lvec[:, d] = m_last + lvec[:, 0] - np.sum(lvec[:, 1:d], axis=1)
    eps[:, 1:] = np.where(res > 0, 1, -1)
    return lvec, eps
