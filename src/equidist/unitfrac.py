"""Exact arithmetic on the unit circle at 128 fractional bits.

A point of [0, 1) is stored as an unsigned 128-bit raw word; the value is
raw / 2**128.  Addition and integer multiples reduce mod 2**128, which is
exactly arithmetic mod 1 on the stored grid, so orbits {n*alpha} carry no
rounding error.  Conversion to float goes through one canonical map
(`raw_to_float`) shared by the scalar and vectorized code paths, so every
consumer sees bit-identical floats for the same raw word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

FRAC_BITS = 128
MOD = 1 << FRAC_BITS
MASK = MOD - 1
HALF = 1 << (FRAC_BITS - 1)

_INV64 = 2.0 ** -64
_INV128 = 2.0 ** -128


def raw_to_float(raw: int) -> float:
    """Canonical raw -> float map: high lane + low lane, each rounded once.

    Deliberately the same two-step formula the uint64-lane vector code uses,
    so scalar and vector paths agree bit for bit (within 2 ulp of exact).
    """
    return (raw >> 64) * _INV64 + (raw & 0xFFFFFFFFFFFFFFFF) * _INV128


@dataclass(frozen=True, slots=True)
class UnitFrac:
    """One exact point of [0, 1): value = raw / 2**128."""

    raw: int

    def __post_init__(self):
        if not 0 <= self.raw < MOD:
            raise ValueError(f"raw word out of range: {self.raw}")

    @property
    def value(self) -> float:
        return raw_to_float(self.raw)

    def complement(self) -> "UnitFrac":
        return UnitFrac((-self.raw) & MASK)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class AlphaVec:
    """A vector of d rotation numbers, each an exact UnitFrac."""

    components: tuple

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("alpha vector needs at least one component")
        for c in self.components:
            if not isinstance(c, UnitFrac):
                raise TypeError("components must be UnitFrac")

    @property
    def dim(self) -> int:
        return len(self.components)

    def raws(self) -> tuple:
        return tuple(c.raw for c in self.components)

    def hex_words(self) -> tuple:
        return tuple(f"0x{c.raw:032x}" for c in self.components)


@dataclass(frozen=True, slots=True)
class SignedResidue:
    """Signed distance of n*alpha to its nearest integer.

    nearest + residue reconstructs n*alpha exactly on the fixed-point grid:
    residue equals num / 2**128 with num the exact signed numerator.
    A residue of exactly half (num == 2**127) is reported as +1/2.
    """

    nearest: int
    residue: float
    num: int


def _to_fraction(r) -> Fraction:
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, float):
        return Fraction(r)
    if isinstance(r, Decimal):
        return Fraction(r)
    if isinstance(r, str):
        try:
            return Fraction(Decimal(r))
        except InvalidOperation:
            return Fraction(r)
    raise TypeError(f"cannot interpret {type(r).__name__} as a real number")


def frac_from_real(r) -> UnitFrac:
    """Round a real in [0, 1) to the nearest 128-bit grid point.

    Accepts float, int, decimal string, Decimal, or Fraction; strings and
    Fractions are converted exactly, so high-precision constants survive.
    The result is within 2**-129 of r (mod 1; an input within 2**-129 of 1
    wraps to 0).
    """
    x = _to_fraction(r)
    if not 0 <= x < 1:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    raw = (x * MOD + Fraction(1, 2)).__floor__()
    return UnitFrac(raw & MASK)


def frac_mul_int(a: UnitFrac, n: int) -> UnitFrac:
    """Exact fractional part {n * a}.  Any Python int n is handled exactly."""
    return UnitFrac((n * a.raw) & MASK)


def frac_add(a: UnitFrac, b: UnitFrac) -> UnitFrac:
    return UnitFrac((a.raw + b.raw) & MASK)


def dist_nearest(a: UnitFrac) -> float:
    """Distance to the nearest integer, ||a|| = min(value, 1 - value).

    The complement branch converts 2**128 - raw through the canonical map
    rather than computing 1.0 - value, so ||a|| == ||1 - a|| exactly.
    """
    raw = a.raw
    if raw <= HALF:
        return raw_to_float(raw)
    return raw_to_float(MOD - raw)


def dist_nearest_num(a: UnitFrac) -> int:
    """Exact numerator of ||a||: dist_nearest(a) == dist_nearest_num(a)/2**128."""
    raw = a.raw
    return raw if raw <= HALF else MOD - raw


def nearest_residue(n: int, a: UnitFrac) -> SignedResidue:
    """Split n*a into nearest integer plus signed residue in [-1/2, 1/2].

    Tie at ||n a|| == 1/2 resolves to residue +1/2 (nearest rounds down),
    which keeps the map n -> (nearest, residue) single-valued.
    """
    prod = n * a.raw
    rem = prod & MASK
    base = prod >> FRAC_BITS
    if rem <= HALF:
        num = rem
        nearest = base
        residue = raw_to_float(num)
    else:
        num = rem - MOD
        nearest = base + 1
        residue = -raw_to_float(-num)
    return SignedResidue(nearest=nearest, residue=residue, num=num)


def random_alpha(seed: int, dim: int) -> AlphaVec:
    """dim coordinates of 128 fresh bits each from one seeded generator.

    random.Random is the 2002 Mersenne Twister; its getrandbits stream is
    stable across platforms and Python versions, so a seed is a full spec
    of the vector.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = random.Random(seed)
    return AlphaVec(tuple(UnitFrac(rng.getrandbits(FRAC_BITS)) for _ in range(dim)))


def frac_from_token(token: str) -> UnitFrac:
    """One alpha coordinate from its text form: decimal string or hex raw word."""
    t = token.strip()
    if t.lower().startswith("0x"):
        raw = int(t, 16)
        if not 0 <= raw < MOD:
            raise ValueError(f"hex raw word out of range: {token}")
        return UnitFrac(raw)
    return frac_from_real(t)


def alpha_from_specs(tokens, dim: int | None = None) -> AlphaVec:
    """Build an AlphaVec from CLI-style tokens.

    Each token may hold several comma-joined coordinates, so ["0.25,0.5"]
    and ["0.25", "0.5"] give the same vector.  Either a single
    "random:<seed>" token (expanded to dim coordinates, default 1) or one
    literal token per coordinate (decimal or hex raw).
    """
    toks = [t.strip() for tok in tokens for t in tok.split(",") if t.strip()]
    if not toks:
        raise ValueError("no alpha given")
    if len(toks) == 1 and toks[0].startswith("random:"):
        seed_text = toks[0].split(":", 1)[1]
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(f"bad random seed: {toks[0]!r}") from None
        return random_alpha(seed, dim if dim is not None else 1)
    for t in toks:
        if t.startswith("random:"):
            raise ValueError("random:<seed> must be the only alpha token")
    if dim is not None and dim != len(toks):
        raise ValueError(f"got {len(toks)} alpha coordinates but dim={dim}")
    return AlphaVec(tuple(frac_from_token(t) for t in toks))


def alpha_from_values(values) -> AlphaVec:
    """AlphaVec from an iterable of reals (floats, strings, Fractions)."""
    return AlphaVec(tuple(frac_from_real(v) for v in values))
