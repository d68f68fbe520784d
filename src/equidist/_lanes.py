"""uint64-lane arithmetic for exact 128-bit words in numpy arrays.

A raw word w with 0 <= w < 2**128 is split as w = hi * 2**64 + lo and held
in two uint64 arrays.  Addition propagates one carry, and a block of
multiples n * raw is built by doubling, one lane addition per step.
Everything here is exact; only the float conversions round, and they use
the same two-step formula as unitfrac.raw_to_float so scalar and vector
paths produce bit-identical floats.

This module also owns the one block scan over n = lo..hi: it tiles the
range in BLOCK-sized pieces, forms n * a_i on lanes and takes nearest
residues.  residue_blocks yields the signed residues, product_blocks the
products n |r_1| ... |r_d|; both refuse a range of SCAN_BUDGET values or
more before the first block.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

_U0 = np.uint64(0)
_HI_HALF = np.uint64(1 << 63)

_INV64 = 2.0 ** -64
_INV128 = 2.0 ** -128

# read at call time, so a test can shrink the tile to cross block edges
BLOCK = 1 << 20
SCAN_BUDGET = 10 ** 9


def split_raw(raw: int):
    return np.uint64(raw >> 64), np.uint64(raw & MASK64)


def mul_block(raw: int, n0: int, count: int):
    """Lanes of (n * raw) mod 2**128 for n = n0, ..., n0 + count - 1.

    Word 0 is (n0 * raw) mod 2**128 in exact Python ints, so n0 may be any
    integer (negative included).  The block then doubles: for k = 1, 2, 4,
    ..., words k..k+m-1 are words 0..m-1 plus (k * raw) mod 2**128, with
    m = min(k, count - k).  Each word is exact by induction on k.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    hi = np.empty(count, dtype=np.uint64)
    lo = np.empty(count, dtype=np.uint64)
    if count:
        hi[0], lo[0] = split_raw((n0 * raw) & MASK128)
    k = 1
    while k < count:
        m = min(k, count - k)
        khi, klo = split_raw((k * raw) & MASK128)
        hi[k:k + m], lo[k:k + m] = add_lanes(hi[:m], lo[:m], khi, klo)
        k *= 2
    return hi, lo


def add_lanes(hi1, lo1, hi2, lo2):
    """Elementwise (a + b) mod 2**128 on lane pairs (broadcasting ok)."""
    lo = lo1 + lo2
    carry = (lo < lo2).astype(np.uint64)
    hi = hi1 + hi2 + carry
    return hi, lo


def lanes_to_float(hi, lo):
    """Canonical float map, bit-identical to unitfrac.raw_to_float."""
    return hi.astype(np.float64) * _INV64 + lo.astype(np.float64) * _INV128


def nearest_lanes(hi, lo):
    """Distance to the nearest integer and the sign of the residue.

    Returns (mag, neg): mag[i] = raw_to_float(min(raw, 2**128 - raw)) is
    ||raw/2**128||, neg[i] is True where the nearest integer is floor + 1
    (the residue is -mag).  The tie at 1/2 is kept positive.
    """
    neg = (hi > _HI_HALF) | ((hi == _HI_HALF) & (lo > _U0))
    borrow = (lo != _U0).astype(np.uint64)
    chi = np.where(neg, _U0 - hi - borrow, hi)
    clo = np.where(neg, _U0 - lo, lo)
    return lanes_to_float(chi, clo), neg


def check_scan_budget(count: int):
    """Refuse a scan over count values of n before any work is done."""
    if count >= SCAN_BUDGET:
        raise BudgetError(
            f"scan over {count} values of n exceeds the budget of "
            f"{SCAN_BUDGET - 1}")


def _tiles(lo: int, hi: int):
    check_scan_budget(hi + 1 - lo)
    for start in range(lo, hi + 1, BLOCK):
        yield start, min(BLOCK, hi + 1 - start)


def residue_blocks(raws, lo: int, hi: int):
    """Signed nearest residues of n * a_i for n = lo..hi, block by block.

    Yields (start, res) with res of shape (count, len(raws)) holding the
    canonical signed-residue floats (tie at +1/2) of n = start + row.
    """
    for start, count in _tiles(lo, hi):
        res = np.empty((count, len(raws)), dtype=np.float64)
        for i, raw in enumerate(raws):
            bhi, blo = mul_block(raw, start, count)
            mag, neg = nearest_lanes(bhi, blo)
            res[:, i] = np.where(neg, -mag, mag)
        # free the float temporaries: the caller's work on the block sets
        # the peak memory of every consumer
        del mag, neg
        yield start, res


def product_blocks(raws, lo: int, hi: int):
    """n and n * ||n a_1|| * ... * ||n a_d|| for n = lo..hi, block by block.

    Yields (start, nf, prod) as float views into two buffers that the next
    block overwrites; the product is taken left to right from n.  The last
    factor's lanes stay bound while the caller works on the block: freeing
    them early tripled the minor page faults of a d = 2 spectrum scan.
    """
    nf = np.empty(min(BLOCK, max(hi + 1 - lo, 0)), dtype=np.float64)
    prod = np.empty_like(nf)
    for start, count in _tiles(lo, hi):
        n, p = nf[:count], prod[:count]
        n[:] = np.arange(start, start + count, dtype=np.float64)
        p[:] = n
        for raw in raws:
            bhi, blo = mul_block(raw, start, count)
            p *= nearest_lanes(bhi, blo)[0]
        yield start, n, p


def count_below(hi, lo, threshold: int) -> int:
    """Number of lane words < threshold (threshold any int in [0, 2**128])."""
    if threshold <= 0:
        return 0
    if threshold >= (1 << 128):
        return int(hi.shape[0])
    thi, tlo = split_raw(threshold)
    return int(np.count_nonzero((hi < thi) | ((hi == thi) & (lo < tlo))))


def sort_lanes(hi, lo):
    """Lane pair sorted ascending by the 128-bit word value."""
    idx = np.lexsort((lo, hi))
    return hi[idx], lo[idx]
