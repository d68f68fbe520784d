"""Small-divisor diagnostics for the residue geometry.

Everything here watches the quantity n * prod_i ||n alpha_i|| from a
different angle: raw scans for its running minimum, double-log spectrum
buckets S(p, v), the dyadic boxes T(l; N) and geometric boxes S(l, eps; N)
with their expected occupancies, a continued-fraction check for d = 1, and
the special-line census over the neighbor graph of geometric buckets.

Counting is exact.  Bucket edges are rationals ((q+1)/q)^l or 2^-l and
residue numerators live on the 2**-128 grid, so membership is decided in
float arithmetic only when the element is far from an edge (relative
distance > 1e-13) and re-decided in integer arithmetic otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _lanes
from .errors import BudgetError
from .fourier import (FourierParams, _check_mask, _negated_residues,
                      assign_buckets, delta_n, u1_limit)
from .unitfrac import HALF, MOD, AlphaVec, UnitFrac, nearest_residue

_EDGE_GUARD = 1e-13

CENSUS_MAX_DIM = 2
CENSUS_MAX_N = 1 << 10


@dataclass(frozen=True)
class SpectrumRecord:
    p: int
    v: int
    count: int
    min_product: float


@dataclass(frozen=True)
class BucketVec:
    """One box of the bucket decomposition.

    grid "geometric": signed bands (1+delta)^l in each coordinate, eps the
    sign vector (eps_1 for n1, the rest for the signed residues).
    grid "dyadic": unsigned distance bands 2^l, counted over both signs of
    n1; eps must be all +1.
    """

    l: tuple
    eps: tuple
    grid: str

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(int(v) for v in self.l))
        object.__setattr__(self, "eps", tuple(int(v) for v in self.eps))
        if self.grid not in ("geometric", "dyadic"):
            raise ValueError(f"unknown grid {self.grid!r}")
        if len(self.l) != len(self.eps):
            raise ValueError("l and eps must have equal length")
        if any(e not in (-1, 1) for e in self.eps):
            raise ValueError("eps entries must be +1 or -1")
        if self.grid == "dyadic" and any(e != 1 for e in self.eps):
            raise ValueError("dyadic buckets are unsigned; eps must be all +1")


@dataclass(frozen=True)
class BoxCountRecord:
    bucket: BucketVec
    observed: int
    expected: float
    relative_error: float


@dataclass(frozen=True)
class LineRecord:
    root: tuple
    length: int
    pair_count: int
    big_count: int


@dataclass(frozen=True)
class LineCensus:
    lines: list
    pair_total: int
    big_total: int
    max_big_per_line: int
    violations: list
    step: tuple


# ---------------------------------------------------------------------------
# product scans


def small_divisor_product(n: int, alpha: AlphaVec) -> float:
    """n * prod_i ||n alpha_i|| from exact residue numerators."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = float(n)
    for comp in alpha.components:
        out *= abs(nearest_residue(n, comp).residue)
    return out


def product_scan(alpha: AlphaVec, lo: int, hi: int):
    """Minimum of n prod ||n alpha_i|| over lo <= n <= hi.

    Returns (argmin, min_value); float comparison, first minimizer wins.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    best_n, best = lo, math.inf
    for start, _, prod in _lanes.product_blocks(alpha.raws(), lo, hi):
        j = int(np.argmin(prod))
        if prod[j] < best:
            best, best_n = float(prod[j]), start + j
    return best_n, best


def min_distance_scan(a: UnitFrac, lo: int, hi: int):
    """Minimum of ||n a|| over lo <= n <= hi; returns (argmin, min_value)."""
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    best_n, best = lo, math.inf
    for start, res in _lanes.residue_blocks((a.raw,), lo, hi):
        dist = np.abs(res[:, 0])
        j = int(np.argmin(dist))
        if dist[j] < best:
            best, best_n = float(dist[j]), start + j
    return best_n, best


# ---------------------------------------------------------------------------
# spectrum buckets


def spectrum_scan(alpha: AlphaVec, M: int, phi) -> list:
    """Bucket counts of the double-log spectrum over 2 <= n <= M.

    n lands in band p when e^{e^{p-1}} <= n < e^{e^p}, and in height band v
    when 2^{v-1} <= P(n) (ln n)^d phi(max(lnln n, 1)) < 2^v, where
    P(n) = n prod ||n alpha_i||.  phi is any positive increasing callable
    accepting scalars or arrays; its argument is clamped below at 1 (the
    double log is negative for n < e^e).  Every scanned n falls in exactly
    one bucket, so the counts sum to M - 1.  M = 10^9 is the largest scan
    the budget admits.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    out: dict = {}
    d = alpha.dim
    for start, nf, prod in _lanes.product_blocks(alpha.raws(), 2, M):
        if np.any(prod == 0.0):
            n_bad = start + int(np.argmax(prod == 0.0))
            raise ValueError(
                f"||n alpha_i|| = 0 at n = {n_bad}; spectrum undefined "
                "for rational components")
        ln = np.log(nf)
        lnln = np.log(ln)
        p = np.floor(lnln).astype(np.int64) + 1
        height = prod * ln ** d * phi(np.maximum(lnln, 1.0))
        v = np.floor(np.log2(height)).astype(np.int64) + 1
        key = (p << 21) + (v + (1 << 20))
        uniq, inv = np.unique(key, return_inverse=True)
        counts = np.bincount(inv)
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(len(uniq)))
        mins = np.minimum.reduceat(prod[order], bounds)
        for k, c, m in zip(uniq, counts, mins):
            pk, vk = int(k) >> 21, (int(k) & ((1 << 21) - 1)) - (1 << 20)
            cur = out.get((pk, vk))
            if cur is None:
                out[(pk, vk)] = [int(c), float(m)]
            else:
                cur[0] += int(c)
                cur[1] = min(cur[1], float(m))
    return [SpectrumRecord(p, v, c, m)
            for (p, v), (c, m) in sorted(out.items())]


def spectrum_check(record: SpectrumRecord, phi) -> float:
    """Empirical occupancy ratio count / (2^v phi(max(v,1)))."""
    return record.count / (2.0 ** record.v * phi(max(record.v, 1)))


# ---------------------------------------------------------------------------
# box counts


def _geom_q(N: int, d: int) -> int:
    return math.ceil(math.log(N) ** d)


def validate_bucket(bucket: BucketVec, alpha: AlphaVec, N: int):
    """Hard range checks; raises ValueError on an inadmissible bucket.

    Residue boxes are allowed to stick out of (0, 1/2] (they just count
    fewer elements, possibly none); what must hold is the n1 range and the
    coordinate-positivity / l_{d+1} <= l_1 shape constraints.
    """
    d = alpha.dim
    if len(bucket.l) != d + 1:
        raise ValueError(f"bucket needs {d + 1} coordinates, got {len(bucket.l)}")
    if any(v < 1 for v in bucket.l):
        raise ValueError("bucket coordinates must be positive integers")
    if bucket.l[d] > bucket.l[0]:
        raise ValueError("need l_{d+1} <= l_1")
    if bucket.grid == "geometric":
        q = _geom_q(N, d)
        # (1+delta)^{l1} <= N^2/4, exactly
        if 4 * (q + 1) ** bucket.l[0] > N * N * q ** bucket.l[0]:
            raise ValueError("l_1 band exceeds the N^2/4 range")
    else:
        if 2 ** bucket.l[0] > u1_limit(N):
            raise ValueError("l_1 band exceeds the N^2 (ln N)^2 range")


def bucket_in_geometry(bucket: BucketVec, alpha: AlphaVec, N: int) -> bool:
    """True when every residue band lies inside the distance range (0, 1/2].

    validate_bucket accepts boxes that stick out (they lawfully observe 0,
    or clip); the expected-count formulas assume full bands, so occupancy
    comparisons should filter by this predicate first.
    """
    validate_bucket(bucket, alpha, N)
    d = alpha.dim
    half = Fraction(1, 2)
    m_last = sum(bucket.l[1:]) - bucket.l[0]
    if bucket.grid == "geometric":
        ratio = Fraction(_geom_q(N, d) + 1, _geom_q(N, d))
        for i in range(d):
            expo = -bucket.l[i + 1] if i < d - 1 else m_last
            if ratio ** (expo + 1) > half:
                return False
        return True
    return all(bucket.l[i + 1] >= 2 for i in range(d - 1)) and m_last <= -2


def _n1_range_geometric(q: int, l1: int):
    lo = Fraction(q + 1, q) ** l1
    hi = lo * Fraction(q + 1, q)
    lo_n = -((-lo.numerator) // lo.denominator)          # ceil
    hi_n = -((-hi.numerator) // hi.denominator) - 1       # last n1 < hi
    return lo_n, hi_n


def _band_mask(res_signed, num_getter, lo_edge: Fraction, hi_edge: Fraction):
    """lo_edge <= value < hi_edge for signed-residue floats, exact at edges.

    num_getter(i) must return the exact signed numerator (value * 2^128) of
    element i, used only for elements within _EDGE_GUARD of an edge.
    """
    flo, fhi = float(lo_edge), float(hi_edge)
    mask = (res_signed >= flo) & (res_signed < fhi)
    border = (np.abs(res_signed - flo) <= _EDGE_GUARD * abs(flo)) \
        | (np.abs(res_signed - fhi) <= _EDGE_GUARD * abs(fhi))
    for i in np.nonzero(border)[0]:
        num = num_getter(int(i))
        ok = num * lo_edge.denominator >= MOD * lo_edge.numerator \
            and num * hi_edge.denominator < MOD * hi_edge.numerator
        mask[i] = ok
    return mask


def box_counts(alpha: AlphaVec, N: int, buckets: list) -> list:
    """Observed versus expected occupancy for each requested bucket.

    Geometric expected count: delta^{d+1} (1+delta)^{l_{d+1}} (one sign
    vector).  Dyadic expected count: 2^{d+1+l_{d+1}} (both signs of n1, all
    2^d residue sign boxes folded into the distance bands).
    """
    d = alpha.dim
    for b in buckets:
        validate_bucket(b, alpha, N)
    q = _geom_q(N, d)
    ratio = Fraction(q + 1, q)
    delta = 1.0 / q
    results: dict = {}
    by_range: dict = {}
    for idx, b in enumerate(buckets):
        if b.grid == "geometric":
            lo, hi = _n1_range_geometric(q, b.l[0])
        else:
            lo, hi = 2 ** b.l[0], 2 ** (b.l[0] + 1) - 1
        by_range.setdefault((lo, hi), []).append(idx)
    # shared ranges are scanned once; refuse the total before scanning any
    _lanes.check_scan_budget(sum(hi + 1 - lo for lo, hi in by_range))
    for (lo, hi), idxs in sorted(by_range.items()):
        for start, res in _lanes.residue_blocks(alpha.raws(), lo, hi):
            res_neg = _negated_residues(res)
            for idx in idxs:
                b = buckets[idx]
                m_last = sum(b.l[1:]) - b.l[0]
                if b.grid == "geometric":
                    rs = res if b.eps[0] == 1 else res_neg
                    mask = np.ones(res.shape[0], dtype=bool)
                    for i in range(d):
                        expo = -b.l[i + 1] if i < d - 1 else m_last
                        signed = b.eps[i + 1] * rs[:, i]

                        def getter(j, i=i, b=b, start=start):
                            num = nearest_residue(start + j,
                                                  alpha.components[i]).num
                            # tie residue +1/2 is its own mirror image
                            if b.eps[0] == -1 and num != HALF:
                                num = -num
                            return b.eps[i + 1] * num

                        mask &= _band_mask(signed, getter,
                                           ratio ** expo, ratio ** (expo + 1))
                else:
                    mask = np.ones(res.shape[0], dtype=bool)
                    for i in range(d):
                        expo = -b.l[i + 1] if i < d - 1 else m_last
                        dist = np.abs(res[:, i])

                        def getter(j, i=i, start=start):
                            return abs(nearest_residue(start + j,
                                                       alpha.components[i]).num)

                        mask &= _band_mask(dist, getter,
                                           Fraction(2) ** expo,
                                           Fraction(2) ** (expo + 1))
                results[idx] = results.get(idx, 0) + int(np.sum(mask))
    records = []
    for idx, b in enumerate(buckets):
        obs = results.get(idx, 0)
        if b.grid == "geometric":
            expected = delta ** (d + 1) * (1.0 + delta) ** b.l[d]
        else:
            obs *= 2
            expected = 2.0 ** (d + 1 + b.l[d])
        records.append(BoxCountRecord(
            bucket=b, observed=obs, expected=expected,
            relative_error=(obs - expected) / expected))
    return records


def box_count_recheck(alpha: AlphaVec, N: int, bucket: BucketVec) -> int:
    """Observed count recomputed one n1 at a time in pure rational
    arithmetic; an independent path for auditing box_counts."""
    validate_bucket(bucket, alpha, N)
    d = alpha.dim
    q = _geom_q(N, d)
    ratio = Fraction(q + 1, q)
    if bucket.grid == "geometric":
        lo, hi = _n1_range_geometric(q, bucket.l[0])
    else:
        lo, hi = 2 ** bucket.l[0], 2 ** (bucket.l[0] + 1) - 1
    if hi - lo > (1 << 21):
        raise BudgetError("recheck path is for small buckets")
    m_last = sum(bucket.l[1:]) - bucket.l[0]
    total = 0
    for n1 in range(lo, hi + 1):
        ok = True
        for i in range(d):
            num = nearest_residue(n1, alpha.components[i]).num
            expo = -bucket.l[i + 1] if i < d - 1 else m_last
            if bucket.grid == "geometric":
                if bucket.eps[0] == -1 and num != HALF:
                    num = -num
                val = Fraction(bucket.eps[i + 1] * num, MOD)
                band_lo, band_hi = ratio ** expo, ratio ** (expo + 1)
            else:
                val = Fraction(abs(num), MOD)
                band_lo, band_hi = Fraction(2) ** expo, Fraction(2) ** (expo + 1)
            if not band_lo <= val < band_hi:
                ok = False
                break
        if ok:
            total += 1
    return total * (2 if bucket.grid == "dyadic" else 1)


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class CFExpansion:
    quotients: list
    convergents: list
    terminated: bool


def continued_fraction(a: UnitFrac, depth: int) -> CFExpansion:
    """Continued fraction of the dyadic rational a.raw / 2^128.

    Emits [0; a1, a2, ...] and the convergents p/q by the standard
    recurrence.  Dyadic rationals terminate; termination before the depth
    cap is reported, not an error.
    """
    if not 1 <= depth <= 64:
        raise ValueError("need 1 <= depth <= 64")
    quotients = [0]
    convergents = [(0, 1)]
    h_prev, h = 1, 0
    k_prev, k = 0, 1
    r, s = MOD, a.raw
    terminated = False
    while len(quotients) < depth:
        if s == 0:
            terminated = True
            break
        part = r // s
        r, s = s, r - part * s
        h_prev, h = h, part * h + h_prev
        k_prev, k = k, part * k + k_prev
        quotients.append(part)
        convergents.append((h, k))
    return CFExpansion(quotients, convergents, terminated)


# ---------------------------------------------------------------------------
# special-line census


def neighbor_step(N: int, d: int) -> tuple:
    """Integerized neighbor offsets (step in l per chain link).

    l_1 moves by round(9 ln ln N / ln(1+delta)) (at least 1), the middle
    coordinates by its negative, and l_{d+1} by (d+1) times it.
    """
    logb = math.log1p(delta_n(N, d))
    base = max(1, round(9.0 * math.log(math.log(N)) / logb))
    step = [base] + [-base] * (d - 1) + [(d + 1) * base]
    return tuple(step)


def _census_l1_max(q: int, N: int) -> int:
    """Largest l_1 with band base 4 ((q+1)/q)^l_1 <= N^2, in integers."""
    l1_max, lhs, rhs = 0, 4 * (q + 1), N * N * q
    while lhs <= rhs:
        l1_max, lhs, rhs = l1_max + 1, lhs * (q + 1), rhs * q
    return l1_max


def line_census(alpha: AlphaVec, x, N: int,
                params: FourierParams | None = None,
                mask=None) -> LineCensus:
    """Per-line tally of eps-big buckets over the geometric grid.

    A bucket pair (two sign vectors differing in the last coordinate, the
    one with positive divisor sign listed first) is eps-big when

        (|S+| + |S-|) / ln N <= |sum_{S+} e(Lambda) - sum_{S-} e(Lambda)|;

    pairs with no elements at all are skipped.  Admissible l: positive
    coordinates, l_{d+1} <= l_1 <= l1_max, band base within N^2/4.  A line
    is a chain l, l + step, l + 2 step, ... of admissible buckets under the
    neighbor step.  At every size the caps admit, l1_max <= step[0], so
    l + step is never admissible: each line is one bucket, its root the
    bucket itself and its length 1 (a size with l1_max > step[0] raises
    BudgetError).  The at-most-one-big property is per sign class, so a
    violation is a line holding two eps-big buckets for the same eps pair;
    max_big_per_line is that per-class maximum, while LineRecord.big_count
    totals over classes.
    """
    d = alpha.dim
    if d > CENSUS_MAX_DIM or N > CENSUS_MAX_N:
        raise BudgetError(
            f"census capped at d <= {CENSUS_MAX_DIM}, N <= {CENSUS_MAX_N}")
    if N < 2:
        raise ValueError("census needs N >= 2")
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    params = params if params is not None else FourierParams()
    # s only validates here: the strict product floor empties the grid at
    # every size this census can afford, so admissibility drops it
    params.resolve_s(d)
    mask = _check_mask(mask if mask is not None else (1,) * (d + 1), d)
    x = float(x)
    q = _geom_q(N, d)
    logb = math.log1p(1.0 / q)
    l1_max = _census_l1_max(q, N)
    step = neighbor_step(N, d)
    if l1_max > step[0]:
        raise BudgetError(
            f"census lines hold one bucket only while l1_max <= {step[0]}; "
            f"N = {N} gives l1_max = {l1_max}")
    if l1_max == 0:
        return LineCensus([], 0, 0, 0, [], step)
    _, hi = _n1_range_geometric(q, l1_max)
    stats: dict = {}
    for start, res in _lanes.residue_blocks(alpha.raws(), 1, hi):
        n1f = np.arange(start, start + res.shape[0], dtype=np.float64)
        nonzero = ~np.any(res == 0.0, axis=1)
        for sign in (1.0, -1.0):
            rs = (res if sign > 0 else _negated_residues(res))[nonzero]
            if rs.size == 0:
                continue
            kn1 = n1f[nonzero]
            lvec, eps = assign_buckets(kn1, rs, logb)
            eps[:, 0] = int(sign)
            keep = (np.min(lvec, axis=1) >= 1) \
                & (lvec[:, d] <= lvec[:, 0]) & (lvec[:, 0] <= l1_max)
            if not np.any(keep):
                continue
            lvec, eps, rs2, kn2 = lvec[keep], eps[keep], rs[keep], kn1[keep]
            lam = mask[0] * (sign * kn2 * x)
            for i in range(d):
                if mask[i + 1]:
                    lam = lam - N * rs2[:, i]
            ev = np.exp(2j * math.pi * lam)
            cols = np.concatenate([lvec, eps], axis=1)
            uniq, inv = np.unique(cols, axis=0, return_inverse=True)
            csum = np.bincount(inv)
            rsum = np.bincount(inv, weights=ev.real)
            isum = np.bincount(inv, weights=ev.imag)
            for u, c, vr, vi in zip(uniq, csum, rsum, isum):
                key = (tuple(int(t) for t in u[:d + 1]),
                       tuple(int(t) for t in u[d + 1:]))
                cur = stats.get(key)
                if cur is None:
                    stats[key] = [int(c), complex(vr, vi)]
                else:
                    cur[0] += int(c)
                    cur[1] += complex(vr, vi)
    log_n = math.log(N)
    lines: dict = {}
    per_class: dict = {}
    seen = set()
    pair_total = 0
    big_total = 0
    for (l, eps) in sorted(stats):
        head = eps[:-1]
        if (l, head) in seen:
            continue
        seen.add((l, head))
        sign_prod = 1
        for e in head:
            sign_prod *= e
        plus = stats.get((l, head + (sign_prod,)), [0, 0j])
        minus = stats.get((l, head + (-sign_prod,)), [0, 0j])
        sizes = plus[0] + minus[0]
        if sizes == 0:
            continue
        pair_total += 1
        big = sizes / log_n <= abs(plus[1] - minus[1])
        rec = lines.setdefault(l, [0, 0])
        rec[0] += 1
        if big:
            rec[1] += 1
            big_total += 1
            # the at-most-one-big statement is per sign class: bigs on one
            # line only collide when they share the eps pair
            per_class[(l, head)] = per_class.get((l, head), 0) + 1
    line_records = [LineRecord(root=root, length=1, pair_count=pc,
                               big_count=bc)
                    for root, (pc, bc) in sorted(lines.items())]
    max_big = max(per_class.values(), default=0)
    violations = sorted({root for (root, _), c in per_class.items()
                         if c >= 2})
    return LineCensus(lines=line_records, pair_total=pair_total,
                      big_total=big_total, max_big_per_line=max_big,
                      violations=violations, step=step)
