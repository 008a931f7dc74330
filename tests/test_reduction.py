"""Unit reduction: exact reconstruction and log-balanced conjugates."""

import random
from fractions import Fraction

import pytest

from cubicthue.errors import DegenerateN, TrivialXY, ZeroElement, ZeroValue
from cubicthue.heights import regulator
from cubicthue.intervals import RI, ri_exp, ri_log
from cubicthue.reduction import decompose_solution, unit_reduce

P25 = Fraction(1, 10**25)
TOL = Fraction(1, 10**9)


def test_unit_input(fam1):
    dec = unit_reduce(fam1, fam1.epsilon ** 5)
    assert dec.ell == 5
    assert dec.xi == fam1.field.one()
    assert dec.norm_abs == 1
    assert dec.balance.hi <= TOL


def test_one_input(fam1):
    dec = unit_reduce(fam1, fam1.field.one())
    assert (dec.ell, dec.xi) == (0, fam1.field.one())


def test_small_element(fam1):
    gamma = fam1.field.element(2) - fam1.epsilon
    dec = unit_reduce(fam1, gamma)
    assert (fam1.epsilon ** dec.ell) * dec.xi == gamma
    reg = regulator(fam1, P25)
    assert dec.balance.hi <= (reg / 2).hi + TOL
    # oracle: exhaustive scan over candidate exponents confirms minimality
    best = None
    for ell in range(-10, 11):
        xi = (fam1.epsilon ** (-ell)) * gamma
        real, cplx = xi.embed(P25)
        m3 = ri_log(RI.point(dec.norm_abs), 120) / 3
        b = abs(ri_log(abs(real), 120) - m3)
        b = b.max_with(abs(ri_log(cplx.abs2(), 120) / 2 - m3))
        if best is None or float(b.mid) < best[1]:
            best = (ell, float(b.mid))
    assert best[0] == dec.ell


def test_zero_rejected(fam1):
    with pytest.raises(ZeroElement):
        unit_reduce(fam1, fam1.field.zero())


def test_balance_bound_random_sample(fam1):
    rng = random.Random(42)
    reg_half_plus = (regulator(fam1, P25) / 2).hi + TOL
    for _ in range(200):
        coords = [rng.randint(-50, 50) for _ in range(3)]
        if coords == [0, 0, 0]:
            continue
        gamma = fam1.field.element(*coords)
        dec = unit_reduce(fam1, gamma)
        assert (fam1.epsilon ** dec.ell) * dec.xi == gamma
        assert dec.balance.hi <= reg_half_plus


def test_sandwich_bounds(fam1):
    # e^(-R/2-tol) m^(1/3) <= |embedding| <= e^(R/2+tol) m^(1/3)
    rng = random.Random(43)
    reg = regulator(fam1, P25)
    upper = ri_exp(reg / 2 + TOL, 120)
    lower = upper.recip()
    for _ in range(60):
        coords = [rng.randint(-50, 50) for _ in range(3)]
        if coords == [0, 0, 0]:
            continue
        gamma = fam1.field.element(*coords)
        dec = unit_reduce(fam1, gamma)
        m3 = ri_exp(ri_log(RI.point(dec.norm_abs), 160) / 3, 160)
        real, cplx = dec.xi.embed(P25)
        for emb in (abs(real), cplx.abs(160)):
            assert emb.hi >= (lower * m3).lo
            assert emb.lo <= (upper * m3).hi


def test_conjugate_consistency(fam1):
    # applying the complex embedding to the decomposition reproduces the
    # conjugate linear form within 1e-25
    n, x, y = 0, 1, -1
    dec, _ = decompose_solution(fam1, n, x, y, k=2)
    beta = fam1.beta(n)
    _, beta_c = beta.embed(P25)
    _, eps_c = fam1.epsilon.embed(P25)
    _, xi_c = dec.xi.embed(P25)
    from cubicthue.intervals import CBox

    lhs = CBox.point(x) - beta_c * y
    rhs = eps_c.pow_int(dec.ell) * xi_c
    diff = lhs - rhs
    assert diff.contains_zero()
    assert diff.width <= Fraction(1, 10**20)


def test_decompose_known_solution(fam1):
    dec, kappa9 = decompose_solution(fam1, 0, 1, -1, k=2)
    assert dec.norm_abs == 2
    assert (fam1.epsilon ** dec.ell) * dec.xi == fam1.field.element(1) + fam1.beta(0)
    assert kappa9 is not None
    # xi = cbrt(2): the exponent log(house)/log(2) is exactly 1/3
    assert abs(float(kappa9.mid) - 1 / 3) < 1e-12


def test_decompose_rejects_degenerate(fam1):
    with pytest.raises(DegenerateN):
        decompose_solution(fam1, -1, 5, 3)


def test_decompose_rejects_trivial(fam1):
    with pytest.raises(TrivialXY):
        decompose_solution(fam1, 0, 1, 0)


def test_decompose_rejects_origin(fam1):
    # an irreducible norm form vanishes only at the origin, which is already
    # excluded as a trivial pair; the ZeroValue guard stays defensive
    with pytest.raises(TrivialXY):
        decompose_solution(fam1, 0, 0, 0)


def test_empirical_house_exponent_bounded(fam1):
    # kappa9 stays bounded over a sweep of genuine solutions
    from cubicthue.family import form_at

    seen = []
    for n in range(-6, 7):
        if n == -1:
            continue
        form = form_at(fam1, n)
        for y in range(-25, 26):
            for x in range(-25, 26):
                if x * y == 0:
                    continue
                v = form.evaluate(x, y)
                if v != 0 and abs(v) <= 10:
                    _, kappa9 = decompose_solution(fam1, n, x, y, k=10)
                    seen.append(float(kappa9.hi))
    assert seen
    assert max(seen) < 5.0
