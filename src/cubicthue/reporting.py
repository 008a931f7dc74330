"""JSON-friendly rendering of exact and interval quantities.

Non-integer numeric fields are emitted as decimal strings with an explicit
enclosure radius, never as bare floats: the package's numeric claims are
interval claims and the serialization keeps them that way.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .cubicfield import FieldElement
from .intervals import CBox, RI


def _ratio_to_decimal(num: int, den: int, digits: int, rounding: str) -> str:
    if num == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        d = decimal.Decimal(num) / decimal.Decimal(den)
    return str(d)


def frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def coords_json(el: FieldElement) -> list[str]:
    return [frac_str(c) for c in el.coords]


def ri_json(x: RI, digits: int = 40) -> dict:
    """`mid` to `digits` significant digits and `rad` rounded up to 3, so
    that mid +- rad contains x: `rad` covers the rounding error of `mid`."""
    m, r = x.mid, x.rad
    mid = _ratio_to_decimal(m.numerator, m.denominator, digits,
                            decimal.ROUND_HALF_EVEN)
    p, q = decimal.Decimal(mid).as_integer_ratio()
    # r + |p/q - m| on the denominator q * m.denominator * r.denominator, in
    # integers: Fraction arithmetic would cost a gcd per operation
    den = q * m.denominator
    err = abs(p * m.denominator - m.numerator * q) * r.denominator
    return {"mid": mid,
            "rad": _ratio_to_decimal(r.numerator * den + err,
                                     den * r.denominator, 3,
                                     decimal.ROUND_UP)}


def cbox_json(z: CBox, digits: int = 40) -> dict:
    return {"re": ri_json(z.re, digits), "im": ri_json(z.im, digits)}
