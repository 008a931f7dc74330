"""Reference Mahler measure from sympy's isolated roots, for tests only.

The package takes root moduli from certified conjugate enclosures
(`cubicthue.heights`).  This route takes them from sympy's isolating
intervals and rectangles of the polynomial itself, which have exact rational
corners, so the two agree only if both are right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import sympy

from cubicthue.cubicfield import DEFAULT_PRECISION
from cubicthue.heights import to_int_primitive
from cubicthue.intervals import CBox, RI, bits_for_width, refine


def isolated_root_moduli(int_coeffs: list[int], eps: Fraction,
                         bits: int) -> list[tuple[RI, int]]:
    """(|root| enclosure, multiplicity) pairs for an integer polynomial."""
    poly = sympy.Poly(int_coeffs, sympy.Symbol("x"))
    out: list[tuple[RI, int]] = []
    for factor, mult in poly.sqf_list()[1]:
        if factor.degree() == 0:
            continue
        reals, cplxs = factor.intervals(all=True,
                                        eps=sympy.Rational(eps.numerator,
                                                           eps.denominator))
        for (lo, hi), _m in reals:
            enclosure = abs(RI(Fraction(lo.p, lo.q), Fraction(hi.p, hi.q)))
            out.append((enclosure, mult))
        for (corner_lo, corner_hi), _m in cplxs:
            re_lo, im_lo = corner_lo.as_real_imag()
            re_hi, im_hi = corner_hi.as_real_imag()
            box = CBox(RI(Fraction(re_lo.p, re_lo.q), Fraction(re_hi.p, re_hi.q)),
                       RI(Fraction(im_lo.p, im_lo.q), Fraction(im_hi.p, im_hi.q)))
            out.append((box.abs(bits), mult))
    return out


def mahler_measure(coeffs: Sequence, precision=DEFAULT_PRECISION) -> RI:
    """Certified enclosure of |lead| * prod max(1, |root|).

    Coefficients are in descending degree order; exact rationals allowed."""
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[0] == 0:
        fracs = fracs[1:]
    if not fracs:
        raise ValueError("Mahler measure of the zero polynomial")
    lead = abs(fracs[0])
    # roots at zero contribute max(1, 0) = 1
    while fracs[-1] == 0:
        fracs = fracs[:-1]
    if len(fracs) == 1:
        return RI.point(lead)
    target = Fraction(precision)
    int_coeffs = to_int_primitive(fracs)

    def step(bits: int) -> RI | None:
        result = RI.point(lead)
        for modulus, mult in isolated_root_moduli(
                int_coeffs, Fraction(1, 1 << bits), bits):
            result = result * modulus.max_with(1).pow_int(mult)
        return result if result.width <= target else None

    return refine(step, bits_for_width(target), "Mahler measure did not certify")
