"""Empirical calibration of the sine lower bound."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicthue.bounds import calibrate_c2
from cubicthue.errors import DegenerateAngle
from cubicthue.intervals import RI, ri_exp, ri_log, ri_sin
from cubicthue.tracer import family_angles
from reference_bounds import calibrate_c2_direct
from test_solver_properties import families

P25 = Fraction(1, 10**25)


def test_calibrate_zero_delta1(fam1):
    # delta1 = 0, delta2 = the unit angle; scan certifies a finite exponent
    _, theta = family_angles(fam1)
    result = calibrate_c2(RI.point(0), theta, 10**4, P25)
    assert 0 < result.c2 < 100
    assert result.checked > 0
    data = result.to_json()
    assert data["N"] == 10**4


def test_calibrate_skips_exact_degenerate(fam1):
    # delta1 = delta2 makes n = -1 land exactly in Z*pi: it must be skipped
    delta, theta = family_angles(fam1)
    result = calibrate_c2(delta, theta, 50, P25)
    assert -1 in result.skipped
    assert all(n == -1 for n in result.skipped)


def test_calibrate_monotone_in_n():
    theta = RI.point(Fraction(372, 100))  # wide of any small rational of pi
    r1 = calibrate_c2(RI.point(0), theta, 500, P25)
    r2 = calibrate_c2(RI.point(0), theta, 1000, P25)
    assert r2.c2 >= r1.c2


def test_calibration_roundtrip(fam1):
    delta, theta = family_angles(fam1)
    result = calibrate_c2(delta, theta, 1000, P25)
    c2 = Fraction(result.c2)
    for n in range(-1000, 1001):
        if n == 0 or n in result.skipped:
            continue
        s = abs(ri_sin(delta + n * theta, 160))
        bound = ri_exp(ri_log(RI.point(abs(n) + 2), 160) * -c2, 160)
        assert s.hi >= bound.lo


def test_calibration_is_tight_at_worst_index(fam1):
    # c2 is the smallest exponent that works: at worst_n, a direct 160-bit
    # enclosure of |sin| * (|n| + 2)^c2 reaches no higher than 1 + 1e-9
    delta, theta = family_angles(fam1)
    result = calibrate_c2(delta, theta, 1000, P25)
    n = result.worst_n
    s = abs(ri_sin(delta + n * theta, 160))
    scale = ri_exp(ri_log(RI.point(abs(n) + 2), 160) * Fraction(result.c2), 160)
    assert (s * scale).hi <= 1 + Fraction(1, 10**9)


def outcome(calibrate, delta1, delta2, n_max):
    try:
        r = calibrate(delta1, delta2, n_max, P25)
    except DegenerateAngle:
        return "degenerate"
    return r.c2, r.worst_n, r.skipped, r.checked


RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=10**6)


@st.composite
def angle_pairs(draw):
    """(delta1, delta2): points of random rationals or the angles of a
    random family, with delta1 also drawn as delta2 or as 0."""
    if draw(st.booleans()):
        delta, theta = family_angles(draw(families()))
    else:
        delta, theta = RI.point(draw(RATIONALS)), RI.point(draw(RATIONALS))
    return draw(st.sampled_from((delta, theta, RI.point(0)))), theta


@settings(deadline=None, max_examples=60)
@given(angles=angle_pairs(), n_max=st.integers(1, 400))
@example(angles=(RI.point(Fraction(5, 7)), RI.point(Fraction(5, 7))), n_max=400)
@example(angles=(RI.point(0), RI.point(Fraction(355, 113))), n_max=400)
@example(angles=(RI.point(0), RI.point(0)), n_max=3)
def test_calibrate_matches_direct_scan(angles, n_max):
    # baby and giant steps give the scan index by index, exactly
    assert (outcome(calibrate_c2, *angles, n_max)
            == outcome(calibrate_c2_direct, *angles, n_max))


def test_calibrate_matches_direct_scan_deep(fam1):
    # the 10^4 scan of verify --deep on D = 1
    delta, theta = family_angles(fam1)
    assert (outcome(calibrate_c2, delta, theta, 10**4)
            == outcome(calibrate_c2_direct, delta, theta, 10**4))
