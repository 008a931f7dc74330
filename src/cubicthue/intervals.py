"""Certified interval arithmetic on dyadic endpoints.

Field arithmetic elsewhere in the package is exact; enclosures enter only
through root isolation and transcendental functions.  An interval here is
[a, b] * 2^e with integer mantissas a <= b and one shared binary exponent,
in the style of Arb (Johansson, IEEE Trans. Computers 66, 2017).  After
every ring operation the endpoints are rounded outward, floor for a and
ceiling for b, onto the grid that keeps `KEEP_BITS` bits below the
interval's own width (never across zero, so a sign-definite interval stays
sign-definite), so mantissas track the information an enclosure
carries instead of growing with every product.  Exact dyadic results
(integers, halvings, points) stay exact, and because the grid depends only
on the exact result, every enclosure is a function of its operands' values.
Ring operations therefore take no precision argument.

A rational that is not dyadic cannot be a point.  It enters at a caller's
working precision (`RI.point(v, bits)` rounds onto the 2^-bits grid) or,
inside an interval of positive width, on that width's grid.  Without
either, it is rounded at `MAX_BITS` bits relative to its size, finer than
any certified loop may ask for.

Transcendental enclosures (log, exp, sin, cos, atan2, sqrt, n-th root, pi)
come from libmp's interval primitives (`mpi_log`, ..., `mpf_pi`), the
functions that mpmath's `iv` context wraps, called directly at a
caller-chosen binary precision plus `GUARD_BITS`: no context object and no
global precision state.  Mantissas pass to and from their (sign, man, exp)
tuples directly, rounded outward, so every returned interval is a true
enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar, Union

from mpmath.libmp import (
    from_man_exp,
    mpf_pi,
    mpi_atan2,
    mpi_cos,
    mpi_exp,
    mpi_log,
    mpi_sin,
    mpi_sqrt,
    round_ceiling,
    round_floor,
)

from .errors import PrecisionExhausted

Rat = Union[int, Fraction]
T = TypeVar("T")

# Guard bits added on top of any requested working precision before calling
# into libmp, so that its own final rounding never eats the target width.
GUARD_BITS = 8

# Bits kept below an interval's width when its endpoints are rounded after
# a ring operation: each rounding widens an interval by a factor of at most
# 1 + 2^-(KEEP_BITS - 2).
KEEP_BITS = 32


def bits_for_width(width) -> int:
    """Binary working precision adequate for a decimal width target."""
    w = Fraction(width) if not isinstance(width, Fraction) else width
    if w <= 0:
        raise ValueError("width target must be positive")
    # e = floor(log2 w), exactly and at any size: w is within a factor 2 of
    # 2^e for e the difference of the bit lengths, and one comparison decides
    p, q = w.numerator, w.denominator
    e = p.bit_length() - q.bit_length()
    if p << max(0, -e) < q << max(0, e):
        e -= 1
    return max(24, GUARD_BITS - e)


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


# -- mantissa helpers ----------------------------------------------------------


def _ilog2(v: Fraction) -> int:
    """L with 2^(L-1) < |v| < 2^(L+1) for v != 0, from bit lengths alone."""
    return abs(v.numerator).bit_length() - v.denominator.bit_length()


def _dyadic(v: Fraction) -> tuple[int, int] | None:
    """(m, e) with v = m * 2^e, or None when v is not dyadic."""
    q = v.denominator
    if q & (q - 1):
        return None
    return v.numerator, 1 - q.bit_length()


_new = object.__new__


def _make(a: int, b: int, e: int) -> "RI":
    """The interval [a, b] * 2^e with common trailing zeros stripped."""
    t = a | b
    if not t:
        e = 0
    else:
        z = (t & -t).bit_length() - 1
        if z:
            a >>= z
            b >>= z
            e += z
    x = _new(RI)
    x._a = a
    x._b = b
    x._e = e
    return x


def _rounded(a: int, b: int, e: int, w: int | None = None) -> "RI":
    """[a, b] * 2^e rounded outward to KEEP_BITS bits below its width.

    Quotients pass `w`, a lower bound in units of 2^e for the width of the
    exact result, because their [a, b] is that result already rounded to
    whole units (so wider than it by less than two)."""
    s = (b - a if w is None else w).bit_length() - KEEP_BITS
    # a sign-definite interval keeps its sign: the leading bit survives
    if a > 0:
        s = min(s, a.bit_length() - 1)
    elif b < 0:
        s = min(s, (-b).bit_length() - 1)
    if s > 0:
        a >>= s
        b = -((-b) >> s)
        e += s
    return _make(a, b, e)


def _point_quotient(n: int, d: int, e: int) -> "RI":
    """Enclosure of (n / d) * 2^e for d > 0: exact when dyadic, else
    rounded at MAX_BITS bits relative to its size."""
    if n % d == 0:
        return _make(n // d, n // d, e)
    p = MAX_BITS + d.bit_length() - n.bit_length()
    lo = (n << p) // d if p >= 0 else n // (d << -p)
    return _make(lo, lo + 1, e - p)


def _endpoint(v: Fraction, g: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2^e = v when v is dyadic, else v rounded down (or
    up) onto the grid 2^g."""
    exact = _dyadic(v)
    if exact is not None:
        return exact
    p, q = v.numerator, v.denominator
    n, d = (p << -g, q) if g <= 0 else (p, q << g)
    return (-(-n // d) if up else n // d), g


def _enclose(lo: Fraction, hi: Fraction, bits: int | None) -> "RI":
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if bits is not None:
        g = -bits
    elif lo != hi:
        g = _ilog2(hi - lo) - KEEP_BITS
        if lo > 0 or hi < 0:  # no endpoint rounds onto zero
            g = min(g, _ilog2(lo if lo > 0 else hi) - 1)
    else:
        g = _ilog2(lo) - MAX_BITS
    (a, ea), (b, eb) = _endpoint(lo, g, False), _endpoint(hi, g, True)
    e = min(ea, eb)
    return _make(a << (ea - e), b << (eb - e), e)


def _align(x: "RI", y: "RI") -> tuple[int, int, int, int, int]:
    """Both intervals' mantissas on the finer of their exponents."""
    ex, ey = x._e, y._e
    if ex == ey:
        return x._a, x._b, y._a, y._b, ex
    if ex < ey:
        s = ey - ex
        return x._a, x._b, y._a << s, y._b << s, ex
    s = ex - ey
    return x._a << s, x._b << s, y._a, y._b, ey


def _frac(m: int, e: int) -> Fraction:
    if e >= 0:
        return Fraction(m << e)
    return Fraction(m, 1 << -e)


def _cmp_rat(m: int, e: int, v: Rat) -> int:
    """Sign of m * 2^e - v."""
    v = Fraction(v)
    p, q = v.numerator, v.denominator
    lhs = (m << e) * q if e >= 0 else m * q
    rhs = p if e >= 0 else p << -e
    return (lhs > rhs) - (lhs < rhs)


class RI:
    """Closed interval [a, b] * 2^e with integer mantissas; immutable.

    `RI(lo, hi)` takes rational endpoints (see the module docstring for
    those that are not dyadic); `lo`, `hi`, `mid`, `rad` and `width` read
    back exact Fractions.  Equality compares values."""

    __slots__ = ("_a", "_b", "_e")

    def __init__(self, lo: Rat, hi: Rat, bits: int | None = None):
        x = _enclose(Fraction(lo), Fraction(hi), bits)
        self._a, self._b, self._e = x._a, x._b, x._e

    # -- construction -----------------------------------------------------

    @staticmethod
    def point(v: Rat, bits: int | None = None) -> "RI":
        if type(v) is int:
            return _make(v, v, 0)
        return RI(v, v, bits)

    @staticmethod
    def dyadic(a: int, b: int, e: int) -> "RI":
        """The exact interval [a, b] * 2^e."""
        if a > b:
            raise ValueError(f"empty interval [{a}, {b}] * 2^{e}")
        return _make(a, b, e)

    # -- basic queries -----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return _frac(self._a, self._e)

    @property
    def hi(self) -> Fraction:
        return _frac(self._b, self._e)

    @property
    def width(self) -> Fraction:
        return _frac(self._b - self._a, self._e)

    @property
    def mid(self) -> Fraction:
        return _frac(self._a + self._b, self._e - 1)

    @property
    def rad(self) -> Fraction:
        return _frac(self._b - self._a, self._e - 1)

    def contains(self, v: Rat) -> bool:
        return (_cmp_rat(self._a, self._e, v) <= 0
                and _cmp_rat(self._b, self._e, v) >= 0)

    def contains_zero(self) -> bool:
        return self._a <= 0 <= self._b

    def is_positive(self) -> bool:
        return self._a > 0

    def is_negative(self) -> bool:
        return self._b < 0

    def sign_definite(self) -> bool:
        return self._a > 0 or self._b < 0

    def certainly_lt(self, other: "RI") -> bool:
        _, b, c, _, _ = _align(self, other)
        return b < c

    def overlaps(self, other: "RI") -> bool:
        a, b, c, d, _ = _align(self, other)
        return a <= d and c <= b

    def __eq__(self, other) -> bool:
        if not isinstance(other, RI):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._e == other._e)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._e))

    def __float__(self) -> float:
        return float(self.mid)

    def __repr__(self) -> str:
        return f"RI({float(self.lo)!r}, {float(self.hi)!r})"

    # -- ring operations, rounded outward -------------------------------------

    def _coerce(self, other) -> "RI":
        if isinstance(other, RI):
            return other
        return RI.point(other)

    def __add__(self, other) -> "RI":
        a, b, c, d, e = _align(self, self._coerce(other))
        return _rounded(a + c, b + d, e)

    __radd__ = __add__

    def __neg__(self) -> "RI":
        return _make(-self._b, -self._a, self._e)

    def __sub__(self, other) -> "RI":
        a, b, c, d, e = _align(self, self._coerce(other))
        return _rounded(a - d, b - c, e)

    def __rsub__(self, other) -> "RI":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RI":
        o = self._coerce(other)
        a, b, c, d = self._a, self._b, o._a, o._b
        e = self._e + o._e
        if a >= 0 and c >= 0:
            return _rounded(a * c, b * d, e)
        p = (a * c, a * d, b * c, b * d)
        return _rounded(min(p), max(p), e)

    __rmul__ = __mul__

    def recip(self) -> "RI":
        if not self.sign_definite():
            raise ZeroDivisionError(f"interval {self} contains zero")
        a, b, e = self._a, self._b, self._e
        if b < 0:
            return -(-self).recip()
        if a == b:
            return _point_quotient(1, a, -e)
        # 1/[a, b] = [1/b, 1/a] * 2^-e, on a grid fine enough that the
        # final rounding keeps KEEP_BITS bits below the exact width, and
        # 1/b stays positive
        p = max(KEEP_BITS + 3 + a.bit_length() - (b - a).bit_length(), 0)
        p += b.bit_length()
        one = 1 << p
        lo, hi = one // b, -(-one // a)
        return _rounded(lo, hi, -e - p, hi - lo - 2)

    def _div_int(self, q: int) -> "RI":
        if q < 0:
            return -self._div_int(-q)
        if q == 0:
            raise ZeroDivisionError("interval divided by zero")
        t = (q & -q).bit_length() - 1
        q >>= t
        a, b, e = self._a, self._b, self._e - t
        if q == 1:
            return _make(a, b, e)
        if a == b:
            return _point_quotient(a, q, e)
        # a grid fine enough for KEEP_BITS below the exact width, on which
        # a nonzero endpoint's quotient stays nonzero
        p = max(KEEP_BITS + 3 - (b - a).bit_length(), 0) + q.bit_length()
        lo, hi = (a << p) // q, -(-(b << p) // q)
        return _rounded(lo, hi, e - p, hi - lo - 2)

    def __truediv__(self, other) -> "RI":
        if type(other) is int:
            return self._div_int(other)
        return self * self._coerce(other).recip()

    def __rtruediv__(self, other) -> "RI":
        return self._coerce(other) * self.recip()

    def sqr(self) -> "RI":
        a, b, e = self._a, self._b, 2 * self._e
        if a >= 0:
            return _rounded(a * a, b * b, e)
        if b <= 0:
            return _rounded(b * b, a * a, e)
        return _rounded(0, max(a * a, b * b), e)

    def __abs__(self) -> "RI":
        a, b = self._a, self._b
        if a >= 0:
            return self
        if b <= 0:
            return -self
        return _make(0, max(-a, b), self._e)

    def pow_int(self, n: int):
        """Integer power by square-and-multiply; `CBox` shares this body."""
        if n == 0:
            return type(self).point(1)
        if n < 0:
            return self.pow_int(-n).recip()
        result = None
        base = self
        e = n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base.sqr()
        return result

    # -- lattice operations ---------------------------------------------------

    def max_with(self, other) -> "RI":
        a, b, c, d, e = _align(self, self._coerce(other))
        return _make(max(a, c), max(b, d), e)

    def min_with(self, other) -> "RI":
        a, b, c, d, e = _align(self, self._coerce(other))
        return _make(min(a, c), min(b, d), e)


# -- libmp bridge -------------------------------------------------------------


def _to_mpi(x: RI, prec: int):
    return (from_man_exp(x._a, x._e, prec, round_floor),
            from_man_exp(x._b, x._e, prec, round_ceiling))


def _from_mpi(v) -> RI:
    (sa, ma, ea, _), (sb, mb, eb, _) = v
    if (not ma and ea) or (not mb and eb):
        raise OverflowError("non-finite mpmath value")
    a, b = int(ma), int(mb)
    if not a:
        ea = eb
    if not b:
        eb = ea
    e = min(ea, eb)
    a = (-a if sa else a) << (ea - e)
    b = (-b if sb else b) << (eb - e)
    return _rounded(a, b, e)


def _call_iv(fn, args, prec: int) -> RI:
    """libmp's interval function `fn` over `args` at prec + GUARD_BITS."""
    prec += GUARD_BITS
    return _from_mpi(fn(*[_to_mpi(a, prec) for a in args], prec))


def ri_pi(bits: int) -> RI:
    prec = bits + GUARD_BITS
    return _from_mpi((mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)))


def ri_sqrt(x: RI, bits: int) -> RI:
    if x._a < 0:
        raise ValueError(f"sqrt of interval {x} with negative part")
    return _call_iv(mpi_sqrt, (x,), bits)


def ri_root(x: RI, n: int, bits: int) -> RI:
    """Enclosure of the positive n-th root of a nonnegative interval."""
    if x._a < 0:
        raise ValueError(f"root of interval {x} with negative part")
    if n == 1:
        return x
    if x._b == 0:
        return RI.point(0)
    upper = ri_exp(ri_log(_make(x._b, x._b, x._e), bits) / n, bits)
    if x._a == 0:
        return _make(0, upper._b, upper._e)
    lower = ri_exp(ri_log(_make(x._a, x._a, x._e), bits) / n, bits)
    return RI(lower.lo, upper.hi)


def ri_log(x: RI, bits: int) -> RI:
    if x._a <= 0:
        raise ValueError(f"log of interval {x} not strictly positive")
    return _call_iv(mpi_log, (x,), bits)


def ri_exp(x: RI, bits: int) -> RI:
    return _call_iv(mpi_exp, (x,), bits)


def ri_sin(x: RI, bits: int) -> RI:
    return _call_iv(mpi_sin, (x,), bits)


def ri_cos(x: RI, bits: int) -> RI:
    return _call_iv(mpi_cos, (x,), bits)


def ri_atan2(y: RI, x: RI, bits: int) -> RI:
    """Enclosure of atan2 over the box; conservative across the branch cut.

    mpmath rounds each endpoint outward from pi + atan(y/x) (or atan(y/x)),
    whose terms it takes to nearest at 4 extra bits, so an endpoint can miss
    the true angle by up to 2^-p at its precision p; each is moved out by
    2^(1-p)."""
    r = _call_iv(mpi_atan2, (y, x), bits)
    g = 1 - bits - GUARD_BITS
    e = min(r._e, g)
    pad = 1 << (g - e)
    return _rounded((r._a << (r._e - e)) - pad, (r._b << (r._e - e)) + pad, e)


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
        if isinstance(other, (int, RI)):
            return CBox(self.re * other, self.im * other)
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
        if type(other) is int:
            return CBox(self.re / other, self.im / other)
        return self * self._coerce(other).recip()

    def __rtruediv__(self, other) -> "CBox":
        return self._coerce(other) * self.recip()

    def sqr(self) -> "CBox":
        return self * self

    pow_int = RI.pow_int

    def arg(self, bits: int) -> RI:
        """Principal argument enclosure, in [-pi, pi].

        Wide (full circle) if the box straddles the negative real axis."""
        return ri_atan2(self.im, self.re, bits)
