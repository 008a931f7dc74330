"""Logarithmic heights, regulator, fundamentality test.

The Mahler measure of an integer polynomial is |a0| times the product of
max(1, |root|) over all roots; the absolute logarithmic height of an
algebraic number is (1/deg) log M of its primitive integer minimal
polynomial.  The root moduli are never isolated from the polynomial: they
are the moduli of certified conjugate enclosures, the embeddings of a
cubic-field element (`abs_log_height`) or of a splitting-field element
(`height_from_conjugates`).  Enclosures are refined until the output meets
`DEFAULT_PRECISION`, and every returned interval encloses the true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cubicfield import DEFAULT_BITS, DEFAULT_PRECISION, FieldElement
from .errors import ZeroElement
from .family import FormFamily
from .intervals import CBox, RI, refine, ri_log, ri_root


@dataclass(frozen=True, slots=True)
class HeightReport:
    mahler: RI
    height: RI
    degree_used: int


def to_int_primitive(coeffs: Sequence[Fraction]) -> list[int]:
    """Primitive integer polynomial proportional to the given one."""
    fracs = [Fraction(c) for c in coeffs]
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fracs]
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    return [c // content for c in ints]


def height_from_conjugates(lead: int, conjugates: Sequence[CBox], degree: int,
                           bits: int) -> HeightReport:
    """Height from certified conjugate enclosures, at working precision `bits`.

    `conjugates` lists every embedding of the ambient field, so each root of
    the degree-`degree` minimal polynomial appears len/degree times; the
    repetition is divided out through a root extraction."""
    mult = len(conjugates) // degree
    prod = RI.point(abs(lead)) if mult == 1 else RI.point(1)
    for box in conjugates:
        prod = prod * box.abs(bits).max_with(1)
    if mult > 1:
        prod = RI.point(abs(lead)) * ri_root(prod, mult, bits)
    height = ri_log(prod, bits) / degree
    return HeightReport(prod, height, degree)


def abs_log_height(x: FieldElement) -> HeightReport:
    """Absolute logarithmic height of a cubic-field element."""
    if x.is_zero():
        raise ZeroElement("height of zero")
    if x.is_rational():
        if x.c0 in (1, -1):
            return HeightReport(RI.point(1), RI.point(0), 1)
        m = Fraction(max(abs(x.c0.numerator), x.c0.denominator))
        return HeightReport(RI.point(m), ri_log(RI.point(m), DEFAULT_BITS), 1)
    # an irrational element of the cubic field has degree 3, and its three
    # conjugates are the real image and the complex pair
    lead = to_int_primitive(x.minimal_polynomial())[0]

    def step(bits: int) -> HeightReport | None:
        real, cplx = x.embed(Fraction(1, 1 << bits))
        report = height_from_conjugates(
            lead, (CBox.from_real(real), cplx, cplx.conj()), 3, bits)
        if (report.height.width <= DEFAULT_PRECISION
                and report.mahler.width <= DEFAULT_PRECISION):
            return report
        return None

    return refine(step, DEFAULT_BITS, "height did not certify")


def regulator(fam: FormFamily) -> RI:
    """Enclosure of log(epsilon) for the family unit epsilon > 1."""

    def step(bits: int) -> RI | None:
        result = fam.at(bits).log_eps
        return result if result.width <= DEFAULT_PRECISION else None

    return refine(step, DEFAULT_BITS, "regulator did not certify")


@dataclass(frozen=True, slots=True)
class FundamentalityResult:
    status: str  # "proved_fundamental" | "unknown"
    margin: RI
    threshold: RI
    disc_abs: int

    @property
    def proved(self) -> bool:
        return self.status == "proved_fundamental"


def check_fundamental(fam: FormFamily) -> FundamentalityResult:
    """Sufficient fundamentality certificate for the unit epsilon > 1.

    In a cubic field with one real embedding, the fundamental unit e0 > 1
    satisfies |disc| < 4*e0^3 + 24.  If epsilon were a proper power, its
    generator would be at most sqrt(epsilon), forcing
    |disc| < 4*epsilon^(3/2) + 24; so |disc| >= 4*epsilon^(3/2) + 24 proves
    epsilon fundamental.  The discriminant used is that of the defining
    polynomial (it equals the field discriminant times the square of an
    index, so a proof here certifies fundamentality in the order Z[g])."""
    images = fam.at(DEFAULT_BITS)
    threshold = 4 * images.eps_r * images.sqeps + 24
    disc_abs = abs(fam.field.disc)
    margin = RI.point(disc_abs) - threshold
    status = "proved_fundamental" if margin.lo >= 0 else "unknown"
    return FundamentalityResult(status, margin, threshold, disc_abs)
