"""Empirical calibration of the sine lower bound."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubicthue.bounds
import cubicthue.intervals
from cubicthue.bounds import (
    DISK_GUARD_BITS,
    _rotate,
    calibrate_c2,
    unit_disks,
)
from cubicthue.errors import DegenerateAngle
from cubicthue.intervals import (
    RI,
    bits_for_width,
    ri_cos,
    ri_exp,
    ri_log,
    ri_sin,
)
from cubicthue.tracer import family_angles
from reference_bounds import calibrate_c2_direct
from test_solver_properties import families

P25 = Fraction(1, 10**25)


def test_calibrate_zero_delta1(fam1):
    # delta1 = 0, delta2 = the unit angle; scan certifies a finite exponent
    _, theta = family_angles(fam1)
    result = calibrate_c2(RI.point(0), theta, 10**4)
    assert 0 < result.c2 < 100
    assert result.checked > 0
    data = result.to_json()
    assert data["N"] == 10**4


def test_calibrate_skips_exact_degenerate(fam1):
    # delta1 = delta2 makes n = -1 land exactly in Z*pi: it must be skipped
    delta, theta = family_angles(fam1)
    result = calibrate_c2(delta, theta, 50)
    assert -1 in result.skipped
    assert all(n == -1 for n in result.skipped)


def test_calibrate_monotone_in_n():
    theta = RI.point(Fraction(372, 100))  # wide of any small rational of pi
    r1 = calibrate_c2(RI.point(0), theta, 500)
    r2 = calibrate_c2(RI.point(0), theta, 1000)
    assert r2.c2 >= r1.c2


def test_calibration_roundtrip(fam1):
    delta, theta = family_angles(fam1)
    result = calibrate_c2(delta, theta, 1000)
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
    result = calibrate_c2(delta, theta, 1000)
    n = result.worst_n
    s = abs(ri_sin(delta + n * theta, 160))
    scale = ri_exp(ri_log(RI.point(abs(n) + 2), 160) * Fraction(result.c2), 160)
    assert (s * scale).hi <= 1 + Fraction(1, 10**9)


def outcome(calibrate, delta1, delta2, n_max):
    try:
        r = calibrate(delta1, delta2, n_max)
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


@pytest.mark.parametrize("fam_name", ["fam2", "fam3"])
def test_calibrate_matches_direct_scan_deep_beyond_d1(fam_name, request):
    # the same scan to 2,000 on D = 2 and D = 3, whose angles differ
    delta, theta = family_angles(request.getfixturevalue(fam_name))
    assert (outcome(calibrate_c2, delta, theta, 2000)
            == outcome(calibrate_c2_direct, delta, theta, 2000))


def test_calibrate_bridge_calls(fam1, monkeypatch):
    # three cos/sin pairs for the disks, then one call per certified log
    delta, theta = family_angles(fam1)
    calls = {"bridge": 0, "log": 0}
    call_iv, log = cubicthue.intervals._call_iv, cubicthue.bounds.ri_log

    def counted_call_iv(*args):
        calls["bridge"] += 1
        return call_iv(*args)

    def counted_log(*args):
        calls["log"] += 1
        return log(*args)

    monkeypatch.setattr(cubicthue.intervals, "_call_iv", counted_call_iv)
    monkeypatch.setattr(cubicthue.bounds, "ri_log", counted_log)
    calibrate_c2(delta, theta, 10**4)
    assert 0 < calls["log"] < 100
    assert calls["bridge"] <= 6 + calls["log"]


def disk_holds(disk, angle, p, bits):
    """Whether the disk (c, s, r) on the grid 2^-p holds the whole box of
    cos and sin enclosures of the point angle at `bits`."""
    c, s, r = disk
    cos, sin = ri_cos(angle, bits), ri_sin(angle, bits)
    mc, ms, unit = Fraction(c, 1 << p), Fraction(s, 1 << p), Fraction(1, 1 << p)
    dx = max(abs(mc - cos.lo), abs(mc - cos.hi))
    dy = max(abs(ms - sin.lo), abs(ms - sin.hi))
    return dx * dx + dy * dy <= (r * unit) ** 2


def test_unit_disks_hold_their_arcs(fam1):
    # every baby and giant disk of a 10^5 scan on D = 1 (B = 448) holds
    # e^(i phi) at both ends of its angle interval: the disk of j delta2
    # must hold j * lo and j * hi, which a disk that lost its accumulated
    # radius no longer does after a few rotations
    delta, theta = family_angles(fam1)
    n_max = 10**5
    bits = bits_for_width(P25)
    p = bits + DISK_GUARD_BITS
    baby, giant = unit_disks(delta, theta, n_max, p)
    step = math.isqrt(2 * n_max) + 1
    assert len(baby) == step == 448
    assert len(giant) == len(range(-n_max, n_max + 1, step))
    angles = [j * theta for j in range(step)]
    start, turn = delta - n_max * theta, step * theta
    angles += [start + k * turn for k in range(len(giant))]
    for disk, angle in zip(baby + giant, angles):
        for end in (angle.lo, angle.hi):
            assert disk_holds(disk, RI.point(end), p, 2 * bits)


def test_rotation_holds_disks_at_their_radius():
    # disks whose midpoints lie 0.99 units from their unit vectors on the
    # grid 2^-4: the floored product lies 3.22 units from e^(i (a + b)),
    # beyond r_z + r_w + ceil(r_z r_w 2^-p) = 3, so the rounding term counts
    a, b = RI.point(Fraction(118455, 10**5)), RI.point(Fraction(-217116, 10**5))
    z, w = (7, 15, 1), (-10, -13, 1)
    assert disk_holds(z, a, 4, 64) and disk_holds(w, b, 4, 64)
    assert disk_holds(_rotate(z, w, 4), a + b, 4, 64)
