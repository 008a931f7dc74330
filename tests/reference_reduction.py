"""Unit reduction by the certified-t route, for tests only.

`reduction.unit_reduce` guesses the balancing exponent from floats and
certifies it from the balance enclosure.  This reference decides the
exponent first: it encloses t = (log|gamma| - (1/3) log m) / R, with
R = log(epsilon), at rising precision until one integer's nearness window
(ties to the smaller index, by the exact sixth-power test) meets the
enclosure, and only then takes xi = epsilon^-ell * gamma and its balance.
The property tests compare the two routes field by field.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cubicthue.cubicfield import DEFAULT_PRECISION, FieldElement
from cubicthue.errors import ZeroElement
from cubicthue.family import FormFamily
from cubicthue.intervals import RI, bits_for_width, refine, ri_log
from cubicthue.reduction import Decomposition, _is_exact_tie

_HALF = Fraction(1, 2)


def reference_choose_ell(fam: FormFamily, gamma: FieldElement,
                         m: Fraction) -> int:
    eps = fam.epsilon

    def step(bits: int) -> int | None:
        width = Fraction(1, 1 << bits)
        reg = ri_log(eps.embed(width)[0], bits)
        gr = abs(gamma.embed(width)[0])
        if not gr.is_positive():
            return None
        t = (ri_log(gr, bits) - ri_log(RI.point(m), bits) / 3) / reg
        # candidate integers whose nearness window meets the enclosure of t
        lo = math.ceil(t.lo - _HALF)
        hi = math.floor(t.hi + _HALF)
        if lo == hi:
            return lo
        if hi == lo + 1 and _is_exact_tie(gamma, eps, m, lo):
            return lo  # exact halfway point: take the smaller index
        return None

    return refine(step, 64, "balancing exponent undecidable")


def reference_balance(xi: FieldElement, m: Fraction, precision) -> RI:
    """max over the three embeddings of |log(|embedding| / m^(1/3))|."""
    target = Fraction(precision)

    def step(bits: int) -> RI | None:
        real, cplx = xi.embed(Fraction(1, 1 << bits))
        cabs2 = cplx.abs2()
        if not abs(real).is_positive() or not cabs2.is_positive():
            return None
        log_m3 = ri_log(RI.point(m), bits) / 3
        log_real = ri_log(abs(real), bits)
        log_cplx = ri_log(cabs2, bits) / 2
        result = abs(log_real - log_m3).max_with(abs(log_cplx - log_m3))
        return result if result.width <= target else None

    return refine(step, bits_for_width(target), "balance did not certify")


def reference_unit_reduce(fam: FormFamily, gamma: FieldElement,
                          precision=DEFAULT_PRECISION) -> Decomposition:
    if gamma.is_zero():
        raise ZeroElement("cannot reduce zero")
    m = abs(gamma.norm())
    ell = reference_choose_ell(fam, gamma, m)
    u = fam.epsilon ** ell
    xi = u.inverse() * gamma
    assert u * xi == gamma
    return Decomposition(ell, xi, m, reference_balance(xi, m, precision))
