"""Unit reduction: factor out the power of epsilon that balances an element.

For nonzero gamma in K with m = |N(gamma)|, the rank-1 unit group lets us
write gamma = epsilon^ell * xi with all three |conjugates of xi| within a
factor exp(R/2) of m^(1/3), where R = log(epsilon): choosing ell as the
nearest integer to (log|gamma| - (1/3) log m) / R gives
|log(|xi| / m^(1/3))| <= R/2, and the two complex conjugates then sit at
half that log-distance on the other side, since their modulus squared times
|xi| equals m.  Reconstruction epsilon^ell * xi = gamma is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import DEFAULT_PRECISION, FieldElement
from .errors import DegenerateN, TrivialXY, ZeroElement, ZeroValue
from .family import FormFamily, norm_form
from .intervals import RI, bits_for_width, refine, ri_log

BALANCE_TOL = Fraction(1, 10**9)

_HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """gamma = epsilon^ell * xi with log-balanced conjugates of xi."""

    ell: int
    xi: FieldElement
    norm_abs: Fraction
    balance: RI


def _is_exact_tie(gamma: FieldElement, eps: FieldElement, m: Fraction,
                  h: int) -> bool:
    """Exact test for |gamma| = m^(1/3) * eps^(h + 1/2).

    Sixth powers clear both the cube root and the absolute value, turning
    the condition into an equality of field elements."""
    return gamma ** 6 == (eps ** (6 * h + 3)) * (m * m)


def _choose_ell(fam: FormFamily, gamma: FieldElement, m: Fraction) -> int:
    eps = fam.epsilon

    def step(bits: int) -> int | None:
        width = Fraction(1, 1 << bits)
        reg = ri_log(eps.real_embedding(width), bits)
        gr = abs(gamma.real_embedding(width))
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


def unit_reduce(fam: FormFamily, gamma: FieldElement,
                precision=DEFAULT_PRECISION) -> Decomposition:
    """Decompose gamma exactly as epsilon^ell * xi with balanced xi."""
    if gamma.is_zero():
        raise ZeroElement("cannot reduce zero")
    m = abs(gamma.norm())
    ell = _choose_ell(fam, gamma, m)
    u = fam.epsilon ** ell
    xi = u.inverse() * gamma
    assert u * xi == gamma
    balance = _balance(fam, xi, m, precision)
    return Decomposition(ell, xi, m, balance)


def _balance(fam: FormFamily, xi: FieldElement, m: Fraction, precision) -> RI:
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


def house_exponent(abs_real: RI, abs_cplx: RI, log_k: RI, bits: int) -> RI:
    """kappa9_emp = log(max{house(xi), 1/|xi|, 1/|xi'|}) / log k.

    Takes the moduli of the real and complex images of xi; bounded uniformly
    over a sweep when the reduction is doing its job."""
    top = (abs_real.max_with(abs_cplx).max_with(abs_real.recip())
           .max_with(abs_cplx.recip()))
    return ri_log(top, bits) / log_k


def decompose_solution(fam: FormFamily, n: int, x: int, y: int,
                       k: int | None = None,
                       precision=DEFAULT_PRECISION, *,
                       beta: FieldElement | None = None,
                       ) -> tuple[Decomposition, RI | None]:
    """Decomposition of gamma = x - epsilon^n * alpha * y for a solution.

    Returned with its `house_exponent` for k >= 2, else None.  `beta` is
    epsilon^n * alpha when the caller already holds it."""
    if x == 0 or y == 0:
        raise TrivialXY(f"(x, y) = ({x}, {y})")
    if beta is None:
        beta = fam.beta(n)
    if beta.is_rational():
        raise DegenerateN(f"epsilon^{n} * alpha is rational")
    value = norm_form(beta).evaluate(x, y)
    if value == 0:
        raise ZeroValue(f"F_{n}({x}, {y}) = 0")
    dec = unit_reduce(fam, (-y) * beta + x, precision)
    assert dec.norm_abs == abs(value), "norm and form value disagree"
    if k is None or k < 2:
        return dec, None
    bits = bits_for_width(Fraction(precision))
    real, cplx = dec.xi.embed(Fraction(1, 1 << bits))
    return dec, house_exponent(abs(real), cplx.abs(bits),
                               ri_log(RI.point(k), bits), bits)
