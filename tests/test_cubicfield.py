"""Cubic field arithmetic: validation, exactness, certified embeddings."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicthue.cubicfield import (
    FieldElement,
    SplittingAlgebra,
    has_rational_root,
    make_field,
)
from cubicthue.errors import (
    DivisionByZero,
    NonMonic,
    ReduciblePolynomial,
    TotallyReal,
)
from reference_field import RefElement, reference_embed, reference_min_poly

P12 = Fraction(1, 10**12)
P30 = Fraction(1, 10**30)


def bisection_oracle(coeffs, lo, hi, steps=80):
    """Independent sign-change bisection on exact rationals."""
    def f(t):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * t + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    assert f(lo) < 0 < f(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- make_field ---------------------------------------------------------------


def test_make_field_example_parameter():
    field = make_field([1, 3, 3, -1])
    root = field.real_root(40)
    assert root.contains(Fraction(2599, 10000)) or abs(
        float(root.mid) - 0.2599) < 1e-3


def test_make_field_cbrt2_root_isolation():
    field = make_field([1, 0, 0, -2])
    lo, hi = bisection_oracle([1, 0, 0, -2], 1, 2)
    root = field.real_root(120)
    assert lo <= root.hi and root.lo <= hi
    assert Fraction(125, 100) < root.mid < Fraction(126, 100)


def test_make_field_rejects_totally_real():
    with pytest.raises(TotallyReal):
        make_field([1, 0, -3, 1])


def test_make_field_rejects_rational_root():
    with pytest.raises(ReduciblePolynomial):
        make_field([1, 0, 0, -8])  # X^3 - 8 = (X-2)(...)


def test_make_field_rejects_nonmonic():
    with pytest.raises(NonMonic):
        make_field([2, 0, 0, -3])


_coeff = st.integers(-40, 40)
_nonzero = _coeff.filter(bool)


@st.composite
def _cubics(draw):
    """Integer cubics with a0 != 0; half of them have a rational root."""
    if draw(st.booleans()):
        # (p X - q)(a X^2 + b X + c) has the root q/p by construction
        p, a = draw(_nonzero), draw(_nonzero)
        q, b, c = draw(_coeff), draw(_coeff), draw(_coeff)
        return (p * a, p * b - q * a, p * c - q * b, -q * c)
    return (draw(_nonzero), draw(_coeff), draw(_coeff), draw(_coeff))


@settings(max_examples=200, deadline=None)
@given(_cubics())
@example((1, 0, 0, -8))
@example((6, -5, -2, 1))
@example((4, 0, 0, -1))
def test_has_rational_root_matches_sympy(coeffs):
    # oracle: sympy's rational roots, imported here only
    import sympy

    x = sympy.Symbol("x")
    expected = bool(sympy.roots(sympy.Poly(list(coeffs), x), filter="Q"))
    assert has_rational_root(coeffs) == expected


# -- arithmetic -----------------------------------------------------------------


def test_mul_inverse_is_one():
    field = make_field([1, 0, 0, -2])
    x = field.element(Fraction(3, 4), 2, Fraction(-1, 5))
    assert x * x.inverse() == field.one()


def test_defining_relation():
    field = make_field([1, 0, 0, -2])
    g = field.gen()
    assert g * (g * g) == field.element(2)


def test_ring_identity():
    field = make_field([1, 3, 3, -1])
    g = field.gen()
    lhs = (1 + g) * (1 - g)
    assert lhs == 1 - g * g


def test_division_by_zero():
    field = make_field([1, 0, 0, -2])
    with pytest.raises(DivisionByZero):
        field.one() / field.zero()


def test_exactness_add_sub_roundtrip():
    field = make_field([1, 3, 3, -1])
    rng = random.Random(11)
    for _ in range(200):
        x = field.element(*(Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                            for _ in range(3)))
        y = field.element(*(Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                            for _ in range(3)))
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x * y) / y == x


# -- norm / trace ----------------------------------------------------------------


def test_unit_norm_is_one(fam1):
    assert fam1.epsilon.norm() == 1


def test_trace_epsilon_d2(fam2):
    # oracle: e1 of X^3 - 3 D^2 X^2 - 3 D X - 1 is 3 D^2 = 12
    assert fam2.epsilon.trace() == 12


def test_trace_of_rational():
    field = make_field([1, 0, 0, -2])
    assert field.one().trace() == 3
    assert field.element(5).norm() == 125


def test_norm_trace_match_embeddings():
    rng = random.Random(5)
    fields = [make_field([1, 3, 3, -1]), make_field([1, 0, 0, -2]),
              make_field([1, -12, -6, -1])]
    for _ in range(1000):
        field = fields[rng.randrange(3)]
        x = field.element(*(rng.randint(-100, 100) for _ in range(3)))
        if x.is_zero():
            continue
        real, cplx = x.embed(P30)
        prod = real * cplx.abs2()
        total = real + 2 * cplx.re
        assert prod.contains(x.norm())
        assert total.contains(x.trace())


# -- embeddings -------------------------------------------------------------------


def test_embed_epsilon_d1(fam1):
    # oracle: 50-digit root of X^3 - 3X^2 - 3X - 1 via mpmath
    with mpmath.workdps(50):
        target = mpmath.polyroots([1, -3, -3, -1])[0]
        real, _ = fam1.epsilon.embed(P12)
        assert float(real.lo) <= float(target) <= float(real.hi)
    assert real.width <= P12
    assert str(float(real.mid)).startswith("3.8473221018630")


def test_embed_conjugate_modulus_relation(fam1):
    real, cplx = fam1.epsilon.embed(P30)
    from cubicthue.intervals import ri_sqrt

    lhs = cplx.abs(140)
    rhs = ri_sqrt(real, 140).recip()
    assert lhs.overlaps(rhs)
    assert lhs.width + rhs.width < Fraction(1, 10**25)


def test_embed_rational_is_exact():
    field = make_field([1, 3, 3, -1])
    real, cplx = field.one().embed(Fraction(1, 10))
    assert real == __import__("cubicthue").intervals.RI.point(1)
    assert cplx.re.width == 0 and cplx.im.width == 0


def test_root_enclosures_depend_only_on_bits():
    first = make_field([1, 3, 3, -1])
    r50, c50 = first.real_root(50), first.complex_root(50)
    refined = make_field([1, 3, 3, -1])
    refined.real_root(400)
    refined.complex_root(400)
    assert refined.real_root(50) == r50 and refined.complex_root(50) == c50
    # the canonical cell of the grid 2^-50
    assert r50.width == Fraction(1, 2**50) and (r50.lo * 2**50).denominator == 1


def test_embed_monotone_refinement(fam1):
    x = fam1.epsilon * fam1.epsilon - 3
    coarse_r, coarse_c = x.embed(Fraction(1, 10**10))
    fine_r, fine_c = x.embed(Fraction(1, 10**20))
    assert coarse_r.lo <= fine_r.lo and fine_r.hi <= coarse_r.hi
    assert coarse_c.re.lo <= fine_c.re.lo and fine_c.re.hi <= coarse_c.re.hi
    assert coarse_c.im.lo <= fine_c.im.lo and fine_c.im.hi <= coarse_c.im.hi


# -- minimal polynomial / integrality ------------------------------------------------


def test_minimal_polynomial_of_generator():
    field = make_field([1, -12, -6, -1])
    assert field.gen().minimal_polynomial() == (1, -12, -6, -1)


def test_minimal_polynomial_rational():
    field = make_field([1, 0, 0, -2])
    assert field.element(Fraction(7, 3)).minimal_polynomial() == (1, Fraction(-7, 3))


def test_integrality():
    field = make_field([1, 0, 0, -2])
    assert field.gen().is_integral()
    assert not field.element(Fraction(1, 2)).is_integral()


# -- splitting algebra -----------------------------------------------------------


def test_splitting_sigma_preserves_minpoly(fam1):
    alg = SplittingAlgebra(fam1.field)
    z = alg.sigma(fam1.epsilon)
    assert alg.min_poly(z) == (1, -3, -3, -1)


def test_splitting_inverse(fam1):
    # sigma is a ring homomorphism: the field inverse maps to the inverse
    alg = SplittingAlgebra(fam1.field)
    x = fam1.epsilon + 2
    assert alg.sigma(x) * alg.sigma(x.inverse()) == alg.one()
    for ell in (-7, -1, 3):
        base = alg.sigma(fam1.epsilon if ell > 0 else fam1.epsilon.inverse())
        power = alg.one()
        for _ in range(abs(ell)):
            power = power * base
        assert alg.sigma(fam1.epsilon ** ell) == power


def test_splitting_embeddings_consistent(fam1):
    # the six embedding values must multiply to the minimal polynomial norm
    alg = SplittingAlgebra(fam1.field)
    z = alg.sigma(fam1.epsilon) - alg.from_k(fam1.field.element(1))
    mp_coeffs = alg.min_poly(z)
    prod = None
    for box in alg.embeddings(z, 120):
        prod = box if prod is None else prod * box
    # product over all 6 values = (constant term) ^ (6/deg) up to sign
    deg = len(mp_coeffs) - 1
    expected = (Fraction(mp_coeffs[-1]) ** (6 // deg)) * (-1) ** 6
    assert prod.re.contains(expected)
    assert prod.im.contains_zero()


def test_splitting_real_value_detection(fam1):
    alg = SplittingAlgebra(fam1.field)
    g = fam1.field.gen()
    # g' + g'' ( = trace - g ) is a real value; g' alone is not
    real_combo = alg.sigma(g) + alg.tau(alg.sigma(g))
    assert alg.is_real_value(real_combo)
    assert not alg.is_real_value(alg.sigma(g))


# -- integer numerators over one denominator, against the Fraction reference ----


@st.composite
def _random_fields(draw):
    """Non-totally-real fields X^3 + a1 X^2 + a2 X + a3, as in the random
    families of the solver property tests but with any a3 != 0."""
    a1, a2 = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    a3 = draw(st.integers(-6, 6).filter(bool))
    try:
        return make_field((1, a1, a2, a3))
    except (ReduciblePolynomial, TotallyReal):
        assume(False)


_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_coords = st.tuples(_rationals, _rationals, _rationals)


def _assert_matches(x, ref):
    """x is in normal form and has the reference's coordinates."""
    assert x.d > 0 and math.gcd(x.n0, x.n1, x.n2, x.d) == 1
    assert x.coords == ref.coords
    assert all(type(c) is Fraction for c in x.coords)


@settings(deadline=None, max_examples=150)
@given(field=_random_fields(), xc=_coords, yc=_coords, s=_rationals,
       n=st.integers(-5, 5), bits=st.integers(8, 160))
@example(field=make_field((1, 0, 0, -2)), xc=(Fraction(1, 2), 0, 0),
         yc=(Fraction(-1, 2), Fraction(3, 4), 0), s=Fraction(2), n=-3, bits=64)
def test_field_arithmetic_matches_fraction_reference(field, xc, yc, s, n, bits):
    x, y = field.element(*xc), field.element(*yc)
    rx, ry = (RefElement(field.min_poly, *map(Fraction, c)) for c in (xc, yc))
    _assert_matches(x, rx)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x - y, rx - ry)
    _assert_matches(x * y, rx * ry)
    _assert_matches(x * s, rx * s)
    _assert_matches(s * x, rx * s)
    _assert_matches(x * s.numerator, rx * s.numerator)
    _assert_matches(x + s, rx + RefElement(field.min_poly, s))
    _assert_matches(-x, -rx)
    assert x.norm() == rx.norm() and x.trace() == rx.trace()
    assert x.charpoly() == rx.charpoly()
    assert x.minimal_polynomial() == rx.minimal_polynomial()
    assert x.is_integral() == rx.is_integral()
    assert (x == y) == (rx.coords == ry.coords)
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        _assert_matches(x.inverse(), rx.inverse())
        _assert_matches(x ** n, rx ** n)
        _assert_matches((y / x) * x, ry)
    width = Fraction(1, 1 << bits)
    assert x.embed(width) == reference_embed(field, rx, width)
    real = x.real_image(bits)
    assert real.width <= width and real.overlaps(x.embed(width)[0])


@settings(deadline=None, max_examples=50)
@given(field=_random_fields(), xc=_coords, m=st.integers(2, 12))
def test_equal_elements_have_one_representation(field, xc, m):
    x = field.element(*xc)
    scaled = field.element(*(c * m for c in xc)) * Fraction(1, m)
    assert scaled == x and hash(scaled) == hash(x)
    assert (scaled.n0, scaled.n1, scaled.n2, scaled.d) == (x.n0, x.n1, x.n2, x.d)
    assert x - x == field.zero() and (x - x).d == 1


def test_element_accepts_unreduced_fractions():
    field = make_field([1, 0, 0, -2])
    half = field.element(Fraction(1, 2))
    assert field.element(Fraction(2, 4)) == half
    assert hash(field.element(Fraction(2, 4))) == hash(half)
    assert field.element("1/2") == half == Fraction(1, 2)
    assert (half.n0, half.n1, half.n2, half.d) == (1, 0, 0, 2)
    assert half + half == field.one() and (half + half).d == 1
    assert field.element(1, 2, 3).d == 1


# -- minimal polynomials from the Galois orbit, against exact elimination -------

_D1_FIELD = make_field((1, 3, 3, -1))  # the field of example_family(1)


@settings(deadline=None, max_examples=60)
@given(field=_random_fields(), uc=_coords, vc=_coords)
@example(field=_D1_FIELD, uc=(Fraction(3, 2), 0, 0), vc=(0, 0, 0))
# (g - y)(g - tau y)(y - tau y), whose square is the discriminant -108
@example(field=_D1_FIELD, uc=(12, 12, 6), vc=(6, 12, 6))
# sigma(epsilon), of degree 3: its orbit repeats every conjugate twice
@example(field=_D1_FIELD, uc=(0, -3, -1), vc=(0, -1, 0))
# mu of the third-case solution (n, x, y) = (-3, -5, -74), of degree 6
@example(field=_D1_FIELD, uc=(-24, -17, -1), vc=(-7, 1, 0))
def test_min_poly_from_orbit_matches_elimination(field, uc, vc):
    alg = SplittingAlgebra(field)
    y = alg.sigma(field.gen())
    z = alg.from_k(field.element(*uc)) + alg.from_k(field.element(*vc)) * y
    mp = alg.min_poly(z)
    assert mp == reference_min_poly(alg, z)
    assert all(type(c) is Fraction for c in mp)
    # conjugate i under the first embedding is z under embedding i
    conjugates = alg.conjugates(z)
    assert len(conjugates) == 6
    for w, box in zip(conjugates, alg.embeddings(z, 96)):
        image = alg.embeddings(w, 96)[0]
        assert image.re.overlaps(box.re) and image.im.overlaps(box.im)
