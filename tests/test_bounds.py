"""Empirical calibration of the sine lower bound."""

from fractions import Fraction

from cubicthue.bounds import calibrate_c2
from cubicthue.intervals import RI
from cubicthue.tracer import family_angles

P25 = Fraction(1, 10**25)
P30 = Fraction(1, 10**30)


def test_calibrate_zero_delta1(fam1):
    # delta1 = 0, delta2 = the unit angle; scan certifies a finite exponent
    _, theta = family_angles(fam1, P30)
    result = calibrate_c2(RI.point(0), theta, 10**4, P25)
    assert 0 < result.c2 < 100
    assert result.checked > 0
    data = result.to_json()
    assert data["N"] == 10**4


def test_calibrate_skips_exact_degenerate(fam1):
    # delta1 = delta2 makes n = -1 land exactly in Z*pi: it must be skipped
    delta, theta = family_angles(fam1, P30)
    result = calibrate_c2(delta, theta, 50, P25)
    assert -1 in result.skipped
    assert all(n == -1 for n in result.skipped)


def test_calibrate_monotone_in_n():
    theta = RI.point(Fraction(372, 100))  # wide of any small rational of pi
    r1 = calibrate_c2(RI.point(0), theta, 500, P25)
    r2 = calibrate_c2(RI.point(0), theta, 1000, P25)
    assert r2.c2 >= r1.c2


def test_calibration_roundtrip(fam1):
    from cubicthue.intervals import ri_exp, ri_log, ri_sin

    delta, theta = family_angles(fam1, P30)
    result = calibrate_c2(delta, theta, 1000, P25)
    c2 = Fraction(result.c2)
    for n in range(-1000, 1001):
        if n == 0 or n in result.skipped:
            continue
        s = abs(ri_sin(delta + n * theta, 160))
        bound = ri_exp(ri_log(RI.point(abs(n) + 2), 160) * -c2, 160)
        assert s.hi >= bound.lo
