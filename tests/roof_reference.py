"""Exact roof-averaged discrepancy from its definition, for tests only.

Integrates the shifted count cell by cell.  A window shift u_i lies in
(m, m + 1) for m in -2..1 with roof probability 1/8, 3/8, 3/8, 1/8, and
there the strict window u_i < k_i < N + u_i holds k_i = m + 1 .. N + m.
The u1 integral of one point is a difference of triangle CDF values.
Points are exact words on the 2^-128 grid and all arithmetic is in
Fractions, so this shares no weights, no floats and no numpy with the
package's sweep.
"""

import math
from fractions import Fraction
from itertools import product

MOD = 1 << 128
CELL_WEIGHT = {-2: Fraction(1, 8), -1: Fraction(3, 8),
               0: Fraction(3, 8), 1: Fraction(1, 8)}


def roof_cdf(t, s):
    """CDF at t of the roof density (1/s)(1 - |t|/s) on [-s, s]."""
    if t <= -s:
        return Fraction(0)
    if t >= s:
        return Fraction(1)
    if t <= 0:
        return (t + s) ** 2 / (2 * s * s)
    return 1 - (s - t) ** 2 / (2 * s * s)


def arc_probability(y, x, s):
    """Probability over u1 in [-s, s] that [u1, u1 + x) mod 1 holds y.

    y is inside exactly for u1 in (y + m1 - x, y + m1] for some integer
    m1; the term of m1 vanishes unless y + m1 > -s and y + m1 - x < s.
    """
    return sum(roof_cdf(y + m1, s) - roof_cdf(y + m1 - x, s)
               for m1 in range(math.floor(-s - y), math.ceil(s + x - y) + 1))


def exact_roof_average(alpha, x, N):
    """Dbar(alpha, x; N) as an exact Fraction."""
    d = alpha.dim
    x = Fraction(x)
    s = Fraction(2, N * N)
    # every cell's window lies in -1..N+1: integrate each point once
    g = {}
    for k in product(range(-1, N + 2), repeat=d):
        raw = sum(ki * c.raw for ki, c in zip(k, alpha.components)) % MOD
        g[k] = arc_probability(Fraction(raw, MOD), x, s)
    den = math.lcm(*(v.denominator for v in g.values()))
    scaled = {k: v.numerator * (den // v.denominator) for k, v in g.items()}
    total = Fraction(0)
    for cell in product(CELL_WEIGHT, repeat=d):
        weight = math.prod(CELL_WEIGHT[m] for m in cell)
        windows = [range(m + 1, N + m + 1) for m in cell]
        count = sum(scaled[k] for k in product(*windows))
        total += weight * Fraction(count, den)
    return total - N ** d * x
