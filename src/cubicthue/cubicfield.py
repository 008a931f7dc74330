"""Exact arithmetic in a non-totally-real cubic field K = Q(g).

The field is defined by a monic irreducible integer cubic with exactly one
real root g.  An element is stored in the power basis (1, g, g^2) as three
integer numerators over one positive denominator, (n0 + n1 g + n2 g^2) / d,
in lowest terms: gcd(n0, n1, n2, d) = 1, so d = 1 exactly on Z[g].  Ring
operations combine the integers and remove a common factor once per result;
norms, traces and characteristic polynomials are exact integer linear
algebra on the multiplication action, divided by a power of d at the end,
never computed from floating approximations of the roots.

Numerical embeddings are certified, and each is a function of the requested
precision alone.  The real root at `bits` is the grid cell
[m, m + 1] * 2^-bits that holds it, found by exact integer sign tests of the
cubic at dyadic points; only the finest cell computed so far is kept, and a
coarser one is read off it by a shift.  The complex root with positive
imaginary part is enclosed by transporting such a cell through the exact
identities

    Re g' = (-a1 - g) / 2,        |g'|^2 = -a3 / g,

which follow from the symmetric functions of the roots.

A minimal exact model of the degree-6 splitting field (`SplittingAlgebra`)
supports heights and rationality tests for quantities that mix two distinct
embeddings, such as products of conjugates from different complex places;
their minimal polynomials come from their orbits under the Galois group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DivisionByZero,
    NonMonic,
    ReduciblePolynomial,
    TotallyReal,
)
from .intervals import CBox, RI, bits_for_width, refine, ri_sqrt

# The width target that every command certifies at, and the working
# precision that its refinement loops start from.
DEFAULT_PRECISION = Fraction(1, 10**30)
DEFAULT_BITS = bits_for_width(DEFAULT_PRECISION)


def cubic_discriminant(a0: int, a1: int, a2: int, a3: int) -> int:
    return (18 * a0 * a1 * a2 * a3 - 4 * a1**3 * a3 + a1**2 * a2**2
            - 4 * a0 * a2**3 - 27 * a0**2 * a3**2)


def _divisors(n: int) -> list[int]:
    """Positive divisors of a nonzero integer, by trial division."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def has_rational_root(coeffs: Sequence[int]) -> bool:
    """Rational root theorem: try every p/q, p | a3 and q | a0."""
    a0, a1, a2, a3 = (int(c) for c in coeffs)
    if a3 == 0:
        return True
    for p in _divisors(a3):
        for q in _divisors(a0):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if ((a0 * r + a1) * r + a2) * r + a3 == 0:
                    return True
    return False


class CubicField:
    """Q(g) for g the unique real root of a monic integer cubic."""

    def __init__(self, min_poly: tuple[int, int, int, int], disc: int,
                 _token: object = None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use make_field() to construct a CubicField")
        self.min_poly = min_poly
        self.disc = disc
        a1, a2, a3 = min_poly[1], min_poly[2], min_poly[3]
        # the root lies in (-2^k, 2^k) by Cauchy's bound, so it is in the
        # cell m = -1 or m = 0 at bits = -k; f(0) = a3 < 0 puts it above 0
        k = (1 + max(abs(a1), abs(a2), abs(a3))).bit_length()
        self._cell = (0 if a3 < 0 else -1, -k)  # the finest (m, bits) known
        self._complex: dict[int, CBox] = {}

    # -- root enclosures ----------------------------------------------------

    def _sign_at(self, u: int, b: int) -> int:
        """Sign of the cubic at u / 2^b, by exact integer arithmetic."""
        _, a1, a2, a3 = self.min_poly
        if b <= 0:
            t = u << -b
            v = ((t + a1) * t + a2) * t + a3
        else:  # 2^(3b) f(u / 2^b)
            v = ((u + (a1 << b)) * u + (a2 << 2 * b)) * u + (a3 << 3 * b)
        if v == 0:  # impossible for an irreducible cubic
            raise ReduciblePolynomial(f"rational root {u}/2^{b}")
        return 1 if v > 0 else -1

    def real_root(self, bits: int) -> RI:
        """The cell [m, m + 1] * 2^-bits that holds the real root."""
        m, b = self._cell
        if bits <= b:
            return RI.dyadic(m >> (b - bits), (m >> (b - bits)) + 1, -bits)
        while b < bits:
            m, b = 2 * m, b + 1
            if self._sign_at(m + 1, b) < 0:
                m += 1
        self._cell = (m, b)
        return RI.dyadic(m, m + 1, -bits)

    def complex_root(self, bits: int) -> CBox:
        """Enclosure of the complex root with positive imaginary part.

        Memoised per `bits` on the field; like the real root cell, the box
        depends on `bits` alone, so the memo changes no result."""
        box = self._complex.get(bits)
        if box is None:
            box = self._complex[bits] = self._complex_root(bits)
        return box

    def _complex_root(self, bits: int) -> CBox:
        _, a1, _, a3 = self.min_poly
        target = Fraction(1, 1 << bits)

        def step(b: int) -> CBox | None:
            r = self.real_root(b)
            if not r.sign_definite():
                return None
            re = (RI.point(-a1) - r) / 2
            mod2 = RI.point(-a3) / r
            im2 = mod2 - re.sqr()
            if not im2.is_positive():
                return None
            box = CBox(re, ri_sqrt(im2, b))
            return box if box.width <= target else None

        return refine(step, max(bits + 4, 32),
                      "complex root refinement did not converge")

    # -- elements -------------------------------------------------------------

    def element(self, c0, c1=0, c2=0) -> "FieldElement":
        """c0 + c1 g + c2 g^2 for rational coordinates (whatever `Fraction`
        accepts)."""
        if type(c0) is int and type(c1) is int and type(c2) is int:
            return FieldElement(self, c0, c1, c2, 1)
        c0, c1, c2 = Fraction(c0), Fraction(c1), Fraction(c2)
        # the lcm of reduced denominators leaves no common factor to remove
        d = math.lcm(c0.denominator, c1.denominator, c2.denominator)
        return FieldElement(self, c0.numerator * (d // c0.denominator),
                            c1.numerator * (d // c1.denominator),
                            c2.numerator * (d // c2.denominator), d)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        return self.element(0, 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, CubicField) and self.min_poly == other.min_poly

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return f"CubicField{self.min_poly}"


_FIELD_TOKEN = object()


def make_field(coeffs: Sequence[int]) -> CubicField:
    """Validated field constructor from (1, a1, a2, a3)."""
    if len(coeffs) != 4:
        raise ValueError("expected four coefficients")
    a0, a1, a2, a3 = (int(c) for c in coeffs)
    if (a0, a1, a2, a3) != tuple(coeffs):
        raise ValueError("coefficients must be integers")
    if a0 != 1:
        raise NonMonic(f"leading coefficient {a0} != 1")
    if has_rational_root((a0, a1, a2, a3)):
        raise ReduciblePolynomial(f"X^3 + {a1}X^2 + {a2}X + {a3} has a rational root")
    disc = cubic_discriminant(a0, a1, a2, a3)
    if disc > 0:
        raise TotallyReal(f"discriminant {disc} > 0: three real roots")
    # disc == 0 implies a repeated (hence rational) root, caught above
    return CubicField((a0, a1, a2, a3), disc, _token=_FIELD_TOKEN)


def _normal(field: CubicField, n0: int, n1: int, n2: int,
            d: int) -> "FieldElement":
    """(n0 + n1 g + n2 g^2) / d, for d > 0, with the common factor removed."""
    if d != 1:
        c = math.gcd(n0, n1, n2, d)
        if c != 1:
            n0, n1, n2, d = n0 // c, n1 // c, n2 // c, d // c
    return FieldElement(field, n0, n1, n2, d)


def _det3(m: list[list[int]]) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


class FieldElement:
    """(n0 + n1*g + n2*g^2) / d with integer numerators over one denominator.

    The form is normal: d > 0 and gcd(n0, n1, n2, d) = 1, so d = 1 exactly
    on Z[g], every element has one representation, and equality is equality
    of the integers.  Build elements with `CubicField.element`; the
    constructor takes the normal form as given.  `c0`, `c1`, `c2` and
    `coords` are the rational coordinates n_i / d.
    """

    __slots__ = ("field", "n0", "n1", "n2", "d")

    def __init__(self, field: CubicField, n0: int, n1: int, n2: int, d: int):
        self.field = field
        self.n0 = n0
        self.n1 = n1
        self.n2 = n2
        self.d = d

    # -- structure ------------------------------------------------------------

    @property
    def c0(self) -> Fraction:
        return Fraction(self.n0, self.d)

    @property
    def c1(self) -> Fraction:
        return Fraction(self.n1, self.d)

    @property
    def c2(self) -> Fraction:
        return Fraction(self.n2, self.d)

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)

    def is_zero(self) -> bool:
        return self.n0 == 0 and self.n1 == 0 and self.n2 == 0

    def is_rational(self) -> bool:
        return self.n1 == 0 and self.n2 == 0

    def is_integral(self) -> bool:
        """True when the monic minimal polynomial has integer coefficients."""
        return self.d == 1 or all(c.denominator == 1 for c in self.charpoly())

    def __repr__(self) -> str:
        return f"FieldElement({self.c0}, {self.c1}, {self.c2})"

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element(other)

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        d, e = self.d, o.d
        if d == e:
            return _normal(self.field, self.n0 + o.n0, self.n1 + o.n1,
                           self.n2 + o.n2, d)
        return _normal(self.field, self.n0 * e + o.n0 * d,
                       self.n1 * e + o.n1 * d, self.n2 * e + o.n2 * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.n0, -self.n1, -self.n2, self.d)

    def __sub__(self, other) -> "FieldElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _normal(self.field, self.n0 * p, self.n1 * p, self.n2 * p,
                           self.d * q)
        o = self._coerce(other)
        _, a1, a2, a3 = self.field.min_poly
        c0, c1, c2 = self.n0, self.n1, self.n2
        d0, d1, d2 = o.n0, o.n1, o.n2
        p0 = c0 * d0
        p1 = c0 * d1 + c1 * d0
        p2 = c0 * d2 + c1 * d1 + c2 * d0
        p3 = c1 * d2 + c2 * d1
        p4 = c2 * d2
        # reduce g^3 = -a1 g^2 - a2 g - a3 and g^4 accordingly
        e0 = p0 - a3 * p3 + a1 * a3 * p4
        e1 = p1 - a2 * p3 + (a1 * a2 - a3) * p4
        e2 = p2 - a1 * p3 + (a1 * a1 - a2) * p4
        return _normal(self.field, e0, e1, e2, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return self.field.element(Fraction(self.d, self.n0))
        s1, s2, s3 = self._charpoly_sym()
        # x^3 - s1 x^2 + s2 x - s3 = 0  =>  x^-1 = (x^2 - s1 x + s2) / s3
        sq = self * self
        return (sq - self * s1 + s2) * (1 / s3)

    def __truediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o.is_zero():
            raise DivisionByZero("division by zero element")
        return self * o.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.n0 == other * self.d
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field == other.field and self.n0 == other.n0
                and self.n1 == other.n1 and self.n2 == other.n2
                and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.field, self.n0, self.n1, self.n2, self.d))

    # -- invariants of the multiplication action ---------------------------------

    def _mult_matrix(self) -> list[list[int]]:
        """d times the matrix of multiplication by the element on (1, g, g^2)."""
        _, a1, a2, a3 = self.field.min_poly
        c0, c1, c2 = self.n0, self.n1, self.n2
        return [
            [c0, -a3 * c2, -a3 * c1 + a1 * a3 * c2],
            [c1, c0 - a2 * c2, -a2 * c1 + (a1 * a2 - a3) * c2],
            [c2, c1 - a1 * c2, c0 - a1 * c1 + (a1 * a1 - a2) * c2],
        ]

    def trace(self) -> Fraction:
        _, a1, a2, _ = self.field.min_poly
        return Fraction(3 * self.n0 - a1 * self.n1 + (a1 * a1 - 2 * a2) * self.n2,
                        self.d)

    def norm(self) -> Fraction:
        return Fraction(_det3(self._mult_matrix()), self.d ** 3)

    def _charpoly_sym(self) -> tuple[Fraction, Fraction, Fraction]:
        """(s1, s2, s3): trace, second symmetric function, norm."""
        m = self._mult_matrix()
        d = self.d
        s1 = Fraction(m[0][0] + m[1][1] + m[2][2], d)
        s2 = Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0]
                      + m[0][0] * m[2][2] - m[0][2] * m[2][0]
                      + m[1][1] * m[2][2] - m[1][2] * m[2][1], d * d)
        return s1, s2, Fraction(_det3(m), d ** 3)

    def charpoly(self) -> tuple[Fraction, Fraction, Fraction]:
        """(p, q, r) with X^3 + pX^2 + qX + r killing the element."""
        s1, s2, s3 = self._charpoly_sym()
        return (-s1, s2, -s3)

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        """Monic minimal polynomial coefficients, degree 1 or 3."""
        if self.is_rational():
            return (Fraction(1), -self.c0)
        p, q, r = self.charpoly()
        return (Fraction(1), p, q, r)

    # -- certified embeddings ------------------------------------------------------

    def _at(self, z):
        """The element at an RI or CBox z: (z n2 + n1) z + n0, divided by d."""
        return ((z * self.n2 + self.n1) * z + self.n0) / self.d

    def embed(self, precision=DEFAULT_PRECISION) -> tuple[RI, CBox]:
        """Enclosures of the real and the positive-imaginary complex image."""
        target = Fraction(precision)

        def step(bits: int) -> tuple[RI, CBox] | None:
            real = self._at(self.field.real_root(bits))
            cplx = self._at(self.field.complex_root(bits))
            if real.width <= target and cplx.width <= target:
                return real, cplx
            return None

        return refine(step, bits_for_width(target),
                      "embedding refinement stalled")

    def real_image(self, bits: int) -> RI:
        """Enclosure of the real image, of width at most 2^-bits.

        The same refinement as `embed` on the real root cell alone."""
        target = Fraction(1, 1 << bits)

        def step(b: int) -> RI | None:
            real = self._at(self.field.real_root(b))
            return real if real.width <= target else None

        return refine(step, bits_for_width(target),
                      "embedding refinement stalled")


# -- splitting field -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SplitElement:
    """u + v*y where y is a second root of the defining cubic, u, v in K."""

    alg: "SplittingAlgebra"
    u: FieldElement
    v: FieldElement

    def __add__(self, other: "SplitElement") -> "SplitElement":
        return SplitElement(self.alg, self.u + other.u, self.v + other.v)

    def __neg__(self) -> "SplitElement":
        return SplitElement(self.alg, -self.u, -self.v)

    def __sub__(self, other: "SplitElement") -> "SplitElement":
        return self + (-other)

    def __mul__(self, other: "SplitElement") -> "SplitElement":
        s1, s2 = self.alg.s1, self.alg.s2
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        cross = v1 * v2
        return SplitElement(self.alg,
                            u1 * u2 - cross * s2,
                            u1 * v2 + u2 * v1 - cross * s1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SplitElement) and self.u == other.u
                and self.v == other.v)

    def __hash__(self) -> int:
        return hash((self.u, self.v))


class SplittingAlgebra:
    """Degree-6 splitting field of the defining cubic, as K[y]/(q).

    With f(X) = (X - g) * (X^2 + s1 X + s2) over K, the quotient by
    q(y) = y^2 + s1 y + s2 is the Galois closure; y plays the role of the
    complex root g' and tau(y) = -a1 - g - y the role of its conjugate.
    The six automorphisms send (g, y) to (g, y), (g, tau y), (y, g),
    (y, tau y), (tau y, g) and (tau y, y); a minimal polynomial is the
    product of X - w over the distinct images w of an element."""

    def __init__(self, field: CubicField):
        self.field = field
        _, a1, a2, _ = field.min_poly
        g = field.gen()
        self.s1 = g + a1
        self.s2 = g * g + g * a1 + a2

    def one(self) -> SplitElement:
        return SplitElement(self, self.field.one(), self.field.zero())

    def from_k(self, x: FieldElement) -> SplitElement:
        return SplitElement(self, x, self.field.zero())

    def sigma(self, x: FieldElement) -> SplitElement:
        """Image of x in K under g -> g' (exact, inside the closure)."""
        c0, c1, c2 = x.coords
        # c2*y^2 reduces via y^2 = -s1 y - s2
        u = self.field.element(c0) - self.s2 * c2
        v = self.field.element(c1) - self.s1 * c2
        return SplitElement(self, u, v)

    def tau(self, z: SplitElement) -> SplitElement:
        """Automorphism swapping the two complex roots (complex conjugation)."""
        _, a1, _, _ = self.field.min_poly
        # y -> -a1 - g - y
        u = z.u + z.v * (-self.field.gen() - a1)
        return SplitElement(self, u, -z.v)

    def sigma_bar(self, x: FieldElement) -> SplitElement:
        return self.tau(self.sigma(x))

    def is_real_value(self, z: SplitElement) -> bool:
        """Exact test: is the complex value of z under (g, g') real?"""
        return z == self.tau(z)

    def is_imaginary_value(self, z: SplitElement) -> bool:
        """Exact test: tau(z) = -z, i.e. z's value under (g, g') is imaginary."""
        return self.tau(z) == -z

    def conjugates(self, z: SplitElement) -> list[SplitElement]:
        """The images of z = u + v y under the six automorphisms, in the
        order of `embeddings`: u and v go by `from_k`, `sigma` or
        `sigma_bar`, y to the second root of the pair."""
        y = SplitElement(self, self.field.zero(), self.field.one())
        roots = ((self.from_k, self.from_k(self.field.gen())),
                 (self.sigma, y), (self.sigma_bar, self.tau(y)))
        return [image(z.u) + image(z.v) * root
                for i, (image, _) in enumerate(roots)
                for j, (_, root) in enumerate(roots) if i != j]

    def min_poly(self, z: SplitElement) -> tuple[Fraction, ...]:
        """Monic minimal polynomial of z over Q: the product of X - w over
        the distinct conjugates w of z, fixed by every automorphism."""
        zero = SplitElement(self, self.field.zero(), self.field.zero())
        poly = [self.one()]  # highest degree first
        for w in dict.fromkeys(self.conjugates(z)):
            poly = [a - w * b for a, b in zip(poly + [zero], [zero] + poly)]
        assert all(c.v.is_zero() and c.u.is_rational() for c in poly)
        return tuple(c.u.c0 for c in poly)

    def embeddings(self, z: SplitElement, bits: int) -> list[CBox]:
        """The six complex values of z, as certified boxes."""
        r = self.field.real_root(bits)
        c = self.field.complex_root(bits)
        g1 = CBox.from_real(r)
        g2, g3 = c, c.conj()
        return [z.u._at(gi) + z.v._at(gi) * gj
                for gi, gj in ((g1, g2), (g1, g3), (g2, g1), (g2, g3),
                               (g3, g1), (g3, g2))]
