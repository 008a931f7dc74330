"""Printed enclosures: every `ri_json` mid +- rad contains its interval."""

import decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cubicthue.intervals import RI
from cubicthue.reporting import ri_json


def _contains(out: dict, x: RI) -> bool:
    mid = Fraction(decimal.Decimal(out["mid"]))
    rad = Fraction(decimal.Decimal(out["rad"]))
    return mid - rad <= x.lo and x.hi <= mid + rad


@settings(deadline=None, max_examples=300)
@given(lo=st.fractions(min_value=-10**6, max_value=10**6,
                       max_denominator=10**40),
       scale=st.integers(-60, 60),
       width_bits=st.integers(0, 200),
       width_mantissa=st.fractions(min_value=Fraction(1, 2), max_value=1,
                                   max_denominator=10**6),
       digits=st.integers(3, 40))
def test_printed_enclosure_contains_interval(lo, scale, width_bits,
                                             width_mantissa, digits):
    lo = lo * Fraction(2) ** scale
    x = RI(lo, lo + width_mantissa / (1 << width_bits))
    assert _contains(ri_json(x, digits), x)


def test_inexact_point_prints_a_radius():
    # 2^-120 has 84 significant decimal digits; printed to 25 it is rounded
    x = RI.point(Fraction(1, 1 << 120))
    out = ri_json(x, 25)
    assert out["rad"] != "0" and _contains(out, x)
    assert ri_json(RI.point(Fraction(3, 4)), 25) == {"mid": "0.75", "rad": "0"}
