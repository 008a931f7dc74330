"""Heights: Mahler measures, regulator, fundamentality certificates.

The Mahler measures come from the sympy reference in `reference_heights`."""

from fractions import Fraction

import mpmath
import pytest

from cubicthue.errors import NotAUnit, ZeroElement
from cubicthue.family import example_family, make_family
from cubicthue.heights import (
    abs_log_height,
    check_fundamental,
    height_from_conjugates,
    regulator,
    to_int_primitive,
)
from cubicthue.intervals import ri_log

from reference_heights import mahler_measure

P12 = Fraction(1, 10**12)
P20 = Fraction(1, 10**20)

# frozen oracle values: 25-digit real roots of X^3 - 3D^2 X^2 - 3D X - 1
# and their logarithms, computed with mpmath at 40 digits
EPS_D1 = "3.847322101863072639518916"
REG_D1 = "1.347377348329384100918188"
REG_D2 = "2.524681404706315896966265"


def _inside(enclosure, oracle_value) -> bool:
    lo = mpmath.mpf(enclosure.lo.numerator) / enclosure.lo.denominator
    hi = mpmath.mpf(enclosure.hi.numerator) / enclosure.hi.denominator
    return lo <= oracle_value <= hi


# -- mahler_measure ---------------------------------------------------------------


def test_mahler_linear():
    assert mahler_measure([1, -2]).contains(2)


def test_mahler_cyclotomic():
    m = mahler_measure([1, 0, 1])
    assert m.lo == 1
    assert m.contains(1) and m.width <= Fraction(1, 10**30)


def test_mahler_unit_minpoly_d1():
    m = mahler_measure([1, -3, -3, -1], P12)
    assert str(float(m.mid)).startswith("3.847322101863")
    assert m.width <= P12


def test_mahler_zero_polynomial():
    with pytest.raises(ValueError):
        mahler_measure([0, 0])


# each of the four cyclotomic factors of degree <= 2, times quadratics whose
# roots lie inside, on and outside the unit circle, as real and complex pairs
CYCLOTOMIC_PRODUCTS = [
    ([1, 1], [1, 0, -1]),     # real pair on the circle; x + 1 repeated
    ([1, 1], [1, -5, 6]),     # real pair outside: 2 and 3
    ([1, 0, 1], [1, 1, 2]),   # complex pair outside, |r|^2 = 2
    ([1, 0, 1], [1, 0, 1]),   # complex pair on the circle, repeated
    ([1, 1, 1], [2, 1, 1]),   # complex pair inside, |r|^2 = 1/2
    ([1, 1, 1], [1, -3, 1]),  # real pair, one root inside, one outside
    ([1, -1, 1], [1, 3, 0]),  # real pair: 0 and -3
    ([1, -1, 1], [1, 1, -1]),  # real pair: 0.618... and -1.618...
]


def test_mahler_multiplicative_on_products():
    # oracle: M(f g) = M(f) M(g)
    p10 = Fraction(1, 10**10)
    measures = {}  # each distinct polynomial is measured once

    def measure(p):
        key = tuple(p)
        if key not in measures:
            measures[key] = mahler_measure(p, p10)
        return measures[key]

    for f, g in CYCLOTOMIC_PRODUCTS:
        assert measure(_poly_mul(f, g)).overlaps(measure(f) * measure(g)), (f, g)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_mahler_repeated_factor():
    sq = _poly_mul([1, 0, 1], [1, 0, 1])
    assert mahler_measure(sq, P12).contains(1)


# -- abs_log_height ----------------------------------------------------------------


def test_height_of_one(fam1):
    report = abs_log_height(fam1.field.one())
    assert report.height.lo == 0 and report.height.hi == 0
    assert report.degree_used == 1


def test_height_of_two(fam1):
    report = abs_log_height(fam1.field.element(2))
    with mpmath.workdps(60):
        assert _inside(report.height, mpmath.log(2))


def test_height_of_unit_is_regulator_third(fam1):
    report = abs_log_height(fam1.epsilon)
    reg = regulator(fam1)
    diff = report.height - reg / 3
    assert abs(diff).hi <= P12
    assert report.degree_used == 3


def test_height_of_zero_rejected(fam1):
    with pytest.raises(ZeroElement):
        abs_log_height(fam1.field.zero())


def test_height_power_scaling(fam1):
    # h(eps^m) = |m| h(eps) within 1e-12 for |m| <= 10
    base = abs_log_height(fam1.epsilon).height
    for m in range(-10, 11):
        if m == 0:
            continue
        h_m = abs_log_height(fam1.epsilon ** m).height
        diff = h_m - abs(m) * base
        assert abs(diff).hi <= P12


def test_height_regulator_relation_all_d():
    for D in range(1, 6):
        fam = example_family(D)
        h = abs_log_height(fam.epsilon).height
        reg = regulator(fam)
        assert abs(h - reg / 3).hi <= P12


def test_height_from_conjugates_matches_minpoly_route(fam1):
    # dual route: conjugate-product formula vs isolated-root Mahler measure
    from cubicthue.cubicfield import SplittingAlgebra

    alg = SplittingAlgebra(fam1.field)
    z = alg.sigma(fam1.epsilon) - alg.from_k(fam1.field.element(3))
    mp_z = alg.min_poly(z)
    via_conj = height_from_conjugates(1, alg.embeddings(z, 200), len(mp_z) - 1,
                                      200)
    via_embed = abs_log_height(fam1.epsilon - 3)
    # the isolated-root route: log M of the primitive minimal polynomial / 3
    mahler = mahler_measure(to_int_primitive(mp_z), P12)
    via_roots = ri_log(mahler, 60) / 3
    # sigma(eps) - 3 is a conjugate of eps - 3: same height on every route
    assert via_conj.height.overlaps(via_roots)
    assert via_embed.height.overlaps(via_roots)


# -- regulator ---------------------------------------------------------------------


def test_regulator_d1(fam1):
    reg = regulator(fam1)
    assert str(float(reg.mid)).startswith(REG_D1[:14])
    assert reg.width <= P20


def test_regulator_d2(fam2):
    reg = regulator(fam2)
    assert str(float(reg.mid)).startswith(REG_D2[:14])
    with mpmath.workdps(60):
        oracle = mpmath.log(mpmath.polyroots([1, -12, -6, -1])[0].real)
        assert _inside(reg, oracle)


def test_regulator_of_square_doubles(fam1):
    fam_sq = make_family(fam1.field, fam1.alpha, fam1.epsilon ** 2)
    reg = regulator(fam1)
    reg_sq = regulator(fam_sq)
    assert (2 * reg).overlaps(reg_sq)


def test_regulator_rejects_non_unit(fam1):
    with pytest.raises(NotAUnit):
        bad = make_family(fam1.field, fam1.alpha, fam1.field.element(2))


# -- fundamentality ----------------------------------------------------------------


def test_fundamental_d1(fam1):
    result = check_fundamental(fam1)
    assert result.proved
    assert result.disc_abs == 108
    # 4 * eps^(3/2) + 24 ~ 54.2 << 108
    assert 50 < float(result.threshold.mid) < 60


def test_fundamental_d2(fam2):
    assert check_fundamental(fam2).proved


def test_fundamental_square_unknown(fam1):
    fam_sq = make_family(fam1.field, fam1.alpha, fam1.epsilon ** 2)
    assert check_fundamental(fam_sq).status == "unknown"
