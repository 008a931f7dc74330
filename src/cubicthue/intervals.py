"""Certified interval arithmetic over exact rational endpoints.

Field arithmetic elsewhere in the package is exact; enclosures enter only
through root isolation and transcendental functions.  The interval type here
keeps `Fraction` endpoints so that all ring operations are themselves
exact.  Transcendental enclosures (log, exp, sin, cos, atan2, sqrt, n-th
root, pi) are delegated to mpmath's interval context at a caller-chosen
binary precision and converted back to exact rational endpoints, so every
returned interval is a true enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar, Union

from mpmath import iv
from mpmath.libmp import from_rational, round_ceiling, round_floor

from .errors import PrecisionExhausted

Rat = Union[int, Fraction]
T = TypeVar("T")

# Guard bits added on top of any requested working precision before calling
# into mpmath, so that its own final rounding never eats the target width.
GUARD_BITS = 8


def bits_for_width(width) -> int:
    """Binary working precision adequate for a decimal width target."""
    w = Fraction(width) if not isinstance(width, Fraction) else width
    if w <= 0:
        raise ValueError("width target must be positive")
    return max(24, -math.floor(math.log2(w)) + GUARD_BITS)


# Ceiling on the working precision of every certified refinement loop.
# Reaching it means a quantity could not be certified at desk-scale
# precision: the caller reports PrecisionExhausted instead of guessing.
MAX_BITS = 1 << 14


def refine(step: Callable[[int], T | None], bits: int, what: str) -> T:
    """First result of `step(bits)` that is not None, doubling `bits`.

    The first try always runs, even above the cap; PrecisionExhausted(what)
    is raised once a doubling would take `bits` past MAX_BITS."""
    while True:
        result = step(bits)
        if result is not None:
            return result
        bits *= 2
        if bits > MAX_BITS:
            raise PrecisionExhausted(what)


def _raw_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise OverflowError("non-finite mpmath value")
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << (-exp))


@dataclass(frozen=True, slots=True)
class RI:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    # -- construction -----------------------------------------------------

    @staticmethod
    def point(v: Rat) -> "RI":
        f = Fraction(v)
        return RI(f, f)

    @staticmethod
    def of(lo: Rat, hi: Rat) -> "RI":
        flo, fhi = Fraction(lo), Fraction(hi)
        if flo > fhi:
            raise ValueError(f"empty interval [{flo}, {fhi}]")
        return RI(flo, fhi)

    # -- basic queries -----------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def contains(self, v: Rat) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0

    def sign_definite(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def certainly_lt(self, other: "RI") -> bool:
        return self.hi < other.lo

    def certainly_le(self, other: "RI") -> bool:
        return self.hi <= other.lo

    def overlaps(self, other: "RI") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:
        return f"RI({float(self.lo)!r}, {float(self.hi)!r})"

    # -- exact ring operations ----------------------------------------------

    def _coerce(self, other) -> "RI":
        if isinstance(other, RI):
            return other
        return RI.point(other)

    def __add__(self, other) -> "RI":
        o = self._coerce(other)
        return RI(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RI":
        return RI(-self.hi, -self.lo)

    def __sub__(self, other) -> "RI":
        o = self._coerce(other)
        return RI(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "RI":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RI":
        o = self._coerce(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RI(min(p), max(p))

    __rmul__ = __mul__

    def recip(self) -> "RI":
        if not self.sign_definite():
            raise ZeroDivisionError(f"interval {self} contains zero")
        return RI(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "RI":
        return self * self._coerce(other).recip()

    def __rtruediv__(self, other) -> "RI":
        return self._coerce(other) * self.recip()

    def sqr(self) -> "RI":
        if self.lo >= 0:
            return RI(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RI(self.hi * self.hi, self.lo * self.lo)
        return RI(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def __abs__(self) -> "RI":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RI(Fraction(0), max(-self.lo, self.hi))

    def pow_int(self, n: int) -> "RI":
        if n == 0:
            return RI.point(1)
        if n < 0:
            return self.pow_int(-n).recip()
        result = RI.point(1)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.sqr() if base.lo >= 0 or base.hi <= 0 else base * base
        return result

    # -- lattice / set operations -------------------------------------------

    def intersect(self, other: "RI") -> "RI":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError(f"disjoint intervals {self} and {other}")
        return RI(lo, hi)

    def max_with(self, other) -> "RI":
        o = self._coerce(other)
        return RI(max(self.lo, o.lo), max(self.hi, o.hi))

    def min_with(self, other) -> "RI":
        o = self._coerce(other)
        return RI(min(self.lo, o.lo), min(self.hi, o.hi))



# -- mpmath bridge -----------------------------------------------------------


def _to_iv(x: RI, prec: int):
    a = from_rational(x.lo.numerator, x.lo.denominator, prec, round_floor)
    b = from_rational(x.hi.numerator, x.hi.denominator, prec, round_ceiling)
    return iv.make_mpf((a, b))


def _from_iv(v) -> RI:
    a, b = v._mpi_
    return RI(_raw_to_fraction(a), _raw_to_fraction(b))


def _call_iv(fn, args, prec: int) -> RI:
    old = iv.prec
    try:
        iv.prec = prec + GUARD_BITS
        converted = [_to_iv(a, prec + GUARD_BITS) for a in args]
        return _from_iv(fn(*converted))
    finally:
        iv.prec = old


def ri_pi(bits: int) -> RI:
    old = iv.prec
    try:
        iv.prec = bits + GUARD_BITS
        return _from_iv(+iv.pi)
    finally:
        iv.prec = old


def ri_sqrt(x: RI, bits: int) -> RI:
    if x.lo < 0:
        raise ValueError(f"sqrt of interval {x} with negative part")
    return _call_iv(iv.sqrt, (x,), bits)


def ri_root(x: RI, n: int, bits: int) -> RI:
    """Enclosure of the positive n-th root of a nonnegative interval."""
    if x.lo < 0:
        raise ValueError(f"root of interval {x} with negative part")
    if n == 1:
        return x
    if x.hi == 0:
        return RI.point(0)
    upper = ri_exp(ri_log(RI.point(x.hi), bits) / n, bits)
    if x.lo == 0:
        return RI(Fraction(0), upper.hi)
    lower = ri_exp(ri_log(RI.point(x.lo), bits) / n, bits)
    return RI(lower.lo, upper.hi)


def ri_log(x: RI, bits: int) -> RI:
    if x.lo <= 0:
        raise ValueError(f"log of interval {x} not strictly positive")
    return _call_iv(iv.log, (x,), bits)


def ri_exp(x: RI, bits: int) -> RI:
    return _call_iv(iv.exp, (x,), bits)


def ri_sin(x: RI, bits: int) -> RI:
    return _call_iv(iv.sin, (x,), bits)


def ri_cos(x: RI, bits: int) -> RI:
    return _call_iv(iv.cos, (x,), bits)


def ri_atan2(y: RI, x: RI, bits: int) -> RI:
    """Enclosure of atan2 over the box; conservative across the branch cut."""
    return _call_iv(iv.atan2, (y, x), bits)


# -- complex rectangles -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CBox:
    """Axis-aligned complex rectangle re + i*im with RI components."""

    re: RI
    im: RI

    @staticmethod
    def point(re: Rat, im: Rat = 0) -> "CBox":
        return CBox(RI.point(re), RI.point(im))

    @staticmethod
    def from_real(x: RI) -> "CBox":
        return CBox(x, RI.point(0))

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def __repr__(self) -> str:
        return f"CBox({self.re!r}, {self.im!r})"

    def _coerce(self, other) -> "CBox":
        if isinstance(other, CBox):
            return other
        if isinstance(other, RI):
            return CBox.from_real(other)
        return CBox.point(other)

    def __add__(self, other) -> "CBox":
        o = self._coerce(other)
        return CBox(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "CBox":
        return CBox(-self.re, -self.im)

    def __sub__(self, other) -> "CBox":
        o = self._coerce(other)
        return CBox(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "CBox":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CBox":
        o = self._coerce(other)
        return CBox(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self) -> "CBox":
        return CBox(self.re, -self.im)

    def abs2(self) -> RI:
        return self.re.sqr() + self.im.sqr()

    def abs(self, bits: int) -> RI:
        return ri_sqrt(self.abs2(), bits)

    def recip(self) -> "CBox":
        d = self.abs2()
        if d.contains_zero():
            raise ZeroDivisionError(f"box {self} may contain zero")
        return CBox(self.re / d, -self.im / d)

    def __truediv__(self, other) -> "CBox":
        return self * self._coerce(other).recip()

    def __rtruediv__(self, other) -> "CBox":
        return self._coerce(other) * self.recip()

    def pow_int(self, n: int) -> "CBox":
        """Integer power by binary exponentiation."""
        if n == 0:
            return CBox.point(1)
        if n < 0:
            return self.pow_int(-n).recip()
        result = CBox.point(1)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def intersect(self, other: "CBox") -> "CBox":
        return CBox(self.re.intersect(other.re), self.im.intersect(other.im))

    def arg(self, bits: int) -> RI:
        """Principal argument enclosure, in [-pi, pi].

        Wide (full circle) if the box straddles the negative real axis."""
        return ri_atan2(self.im, self.re, bits)
