"""Cubic field arithmetic on `Fraction` coordinates, for tests only.

`cubicfield.FieldElement` keeps integer numerators over one common
denominator.  This reference keeps one `Fraction` per power-basis coordinate
and follows the textbook formulas: the product reduced by g^3 = -a1 g^2 -
a2 g - a3, the characteristic polynomial from the multiplication matrix, the
inverse from Cayley-Hamilton, and embeddings by Horner's rule with the
coordinates' common denominator cleared.  The property tests compare the two
on random fields and random rational elements.

`reference_min_poly` is the minimal polynomial in the splitting algebra by
Gauss-Jordan elimination on `Fraction`s over the powers of the element, the
route `SplittingAlgebra.min_poly` took before it multiplied out the Galois
orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from cubicthue.intervals import bits_for_width, refine


@dataclass(frozen=True)
class RefElement:
    """c0 + c1*g + c2*g^2 in Q[X]/(X^3 + a1 X^2 + a2 X + a3)."""

    min_poly: tuple[int, int, int, int]
    c0: Fraction
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)

    def _new(self, c0, c1=0, c2=0) -> "RefElement":
        return RefElement(self.min_poly, Fraction(c0), Fraction(c1), Fraction(c2))

    def is_zero(self) -> bool:
        return self.coords == (0, 0, 0)

    def is_rational(self) -> bool:
        return self.c1 == 0 and self.c2 == 0

    def __add__(self, other: "RefElement") -> "RefElement":
        return self._new(*(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RefElement":
        return self._new(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other: "RefElement") -> "RefElement":
        return self + (-other)

    def __mul__(self, other) -> "RefElement":
        if not isinstance(other, RefElement):
            f = Fraction(other)
            return self._new(self.c0 * f, self.c1 * f, self.c2 * f)
        _, a1, a2, a3 = self.min_poly
        c0, c1, c2 = self.coords
        d0, d1, d2 = other.coords
        p0 = c0 * d0
        p1 = c0 * d1 + c1 * d0
        p2 = c0 * d2 + c1 * d1 + c2 * d0
        p3 = c1 * d2 + c2 * d1
        p4 = c2 * d2
        return self._new(p0 - a3 * p3 + a1 * a3 * p4,
                         p1 - a2 * p3 + (a1 * a2 - a3) * p4,
                         p2 - a1 * p3 + (a1 * a1 - a2) * p4)

    def mult_matrix(self) -> list[list[Fraction]]:
        _, a1, a2, a3 = self.min_poly
        c0, c1, c2 = self.coords
        return [
            [c0, -a3 * c2, -a3 * c1 + a1 * a3 * c2],
            [c1, c0 - a2 * c2, -a2 * c1 + (a1 * a2 - a3) * c2],
            [c2, c1 - a1 * c2, c0 - a1 * c1 + (a1 * a1 - a2) * c2],
        ]

    def charpoly_sym(self) -> tuple[Fraction, Fraction, Fraction]:
        """(s1, s2, s3): trace, second symmetric function, norm."""
        m = self.mult_matrix()
        s1 = m[0][0] + m[1][1] + m[2][2]
        s2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
              + m[0][0] * m[2][2] - m[0][2] * m[2][0]
              + m[1][1] * m[2][2] - m[1][2] * m[2][1])
        s3 = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
              - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
              + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        return s1, s2, s3

    def trace(self) -> Fraction:
        return self.charpoly_sym()[0]

    def norm(self) -> Fraction:
        return self.charpoly_sym()[2]

    def charpoly(self) -> tuple[Fraction, Fraction, Fraction]:
        s1, s2, s3 = self.charpoly_sym()
        return (-s1, s2, -s3)

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        if self.is_rational():
            return (Fraction(1), -self.c0)
        return (Fraction(1),) + self.charpoly()

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.minimal_polynomial())

    def inverse(self) -> "RefElement":
        if self.is_rational():
            return self._new(1 / self.c0)
        s1, s2, s3 = self.charpoly_sym()
        # x^3 - s1 x^2 + s2 x - s3 = 0  =>  x^-1 = (x^2 - s1 x + s2) / s3
        return (self * self - self * s1 + self._new(s2)) * (1 / s3)

    def __pow__(self, n: int) -> "RefElement":
        base = self if n >= 0 else self.inverse()
        result = self._new(1)
        for _ in range(abs(n)):
            result = result * base
        return result


def horner(coords, z):
    """c0 + c1 z + c2 z^2 for an RI or CBox z, with the coordinates' common
    denominator d cleared first and divided out once."""
    c0, c1, c2 = coords
    d = math.lcm(c0.denominator, c1.denominator, c2.denominator)
    return ((z * int(c2 * d) + int(c1 * d)) * z + int(c0 * d)) / d


def reference_embed(field, x: RefElement, precision: Fraction):
    """(real, complex) images of x at the first precision in `refine`'s
    sequence that meets `precision`, as `FieldElement.embed` chooses it."""
    def step(bits):
        real = horner(x.coords, field.real_root(bits))
        cplx = horner(x.coords, field.complex_root(bits))
        if real.width <= precision and cplx.width <= precision:
            return real, cplx
        return None

    return refine(step, bits_for_width(precision), "reference embedding stalled")


def reference_min_poly(alg, z) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of z in a `SplittingAlgebra`, by exact
    elimination: the first power z^d that is a rational combination of
    1, z, ..., z^(d-1) in the six coordinates (u, v) of K[y]/(q)."""
    def coords6(e):
        return e.u.coords + e.v.coords

    powers = [coords6(alg.one())]
    cur = alg.one()
    for _ in range(6):
        cur = cur * z
        powers.append(coords6(cur))
    for d in range(1, 7):
        sol = _solve_exact([list(p) for p in powers[:d]], list(powers[d]))
        if sol is not None:
            return (Fraction(1),) + tuple(-sol[i] for i in reversed(range(d)))
    raise RuntimeError("element of degree > 6 in a degree-6 algebra")


def _solve_exact(cols: list[list[Fraction]], rhs: list[Fraction]):
    """Solve sum_i x_i * cols[i] = rhs exactly; None if inconsistent."""
    n = len(rhs)
    k = len(cols)
    aug = [[cols[j][i] for j in range(k)] + [rhs[i]] for i in range(n)]
    piv_rows = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        piv_rows.append(col)
        row += 1
    # consistency: zero rows must have zero rhs
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, col in enumerate(piv_rows):
        sol[col] = aug[r][k]
    return sol
