"""Unit reduction: exact reconstruction, log-balanced conjugates, and the
certification of the guessed exponent (wrong guesses, exact ties)."""

import random
from fractions import Fraction

import pytest

from cubicthue import family
from cubicthue.cubicfield import DEFAULT_PRECISION, FieldElement
from cubicthue.errors import DegenerateN, TrivialXY, ZeroElement, ZeroValue
from cubicthue.family import make_family
from cubicthue.heights import regulator
from cubicthue.intervals import RI, bits_for_width, ri_exp, ri_log
from cubicthue import reduction
from cubicthue.reduction import decompose_solution, unit_reduce
from cubicthue.solver import SearchSpec, solve_box
from cubicthue.tracer import SolutionImages
from reference_reduction import reference_unit_reduce

P25 = Fraction(1, 10**25)
TOL = Fraction(1, 10**9)
BITS = bits_for_width(DEFAULT_PRECISION)  # the precision certificates print kappa9 at


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
    reg = regulator(fam1)
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
    reg_half_plus = (regulator(fam1) / 2).hi + TOL
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
    reg = regulator(fam1)
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
    dec = decompose_solution(fam1, n, x, y)
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
    dec = decompose_solution(fam1, 0, 1, -1)
    assert dec.norm_abs == 2
    assert (fam1.epsilon ** dec.ell) * dec.xi == fam1.field.element(1) + fam1.beta(0)
    _, kappa9 = SolutionImages(fam1, 0, dec).house(2, BITS)
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
                    dec = decompose_solution(fam1, n, x, y)
                    images = SolutionImages(fam1, n, dec)
                    _, kappa9 = images.house(10, BITS)
                    seen.append(float(kappa9.hi))
    assert seen
    assert max(seen) < 5.0


def _box_gammas(fam):
    """gamma = x - beta_n y for solutions of |F_n(x, y)| <= 100, whose real
    images cancel, and a few random elements."""
    spec = SearchSpec(k=100, n_lo=-4, n_hi=4, y_max=500)
    records = solve_box(fam, spec)
    gammas = [fam.field.element(r.x) - fam.beta(r.n) * r.y
              for r in records[::max(1, len(records) // 12)]]
    rng = random.Random(44)
    for _ in range(6):
        gammas.append(fam.field.element(*[rng.randint(-10**6, 10**6)
                                          for _ in range(3)]))
    return gammas


@pytest.mark.parametrize("offset", [-5, -1, 1, 5])
def test_wrong_guess_gives_the_same_decomposition(fam1, monkeypatch, offset):
    gammas = _box_gammas(fam1)
    expected = [unit_reduce(fam1, gamma) for gamma in gammas]
    guess = reduction._guess
    calls = []

    def off(fam, gamma, m):
        calls.append(gamma)
        return guess(fam, gamma, m) + offset

    monkeypatch.setattr(reduction, "_guess", off)
    assert [unit_reduce(fam1, gamma) for gamma in gammas] == expected
    assert len(calls) == len(gammas)
    assert expected == [reference_unit_reduce(fam1, gamma) for gamma in gammas]


def test_each_certification_step_takes_one_log_and_no_embedding(
        fam1, monkeypatch):
    # by the norm identity the balance is |dev| from the real image alone:
    # one ri_log per certification step, one more per new norm in log_m3,
    # and never the complex image, also over wrong guesses
    gammas = _box_gammas(fam1)
    fam = make_family(fam1.field, fam1.alpha, fam1.epsilon)  # an empty memo
    for bits in (BITS, 2 * BITS, 4 * BITS):
        fam.at(bits)
    calls = {"log": 0, "norm_log": 0, "embed": 0}
    steps = []  # (bits, m) of every certification step

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def recording_certify_step(fam, gamma, ell, xi, m,
                               certify=reduction._certify_step):
        step = certify(fam, gamma, ell, xi, m)

        def recorded(bits):
            steps.append((bits, m))
            return step(bits)
        return recorded

    monkeypatch.setattr(reduction, "_certify_step", recording_certify_step)
    monkeypatch.setattr(reduction, "ri_log", counting("log", reduction.ri_log))
    monkeypatch.setattr(family, "ri_log", counting("norm_log", family.ri_log))
    monkeypatch.setattr(FieldElement, "embed",
                        counting("embed", FieldElement.embed))
    guess = reduction._guess
    for offset in (0, 3):
        monkeypatch.setattr(reduction, "_guess",
                            lambda fam, g, m, offset=offset:
                            guess(fam, g, m) + offset)
        for gamma in gammas:
            unit_reduce(fam, gamma)
    assert calls == {"log": len(steps), "norm_log": len(set(steps)),
                     "embed": 0}
    # one step per right guess; a guess off by 3 takes one move and one more
    assert len(steps) == 3 * len(gammas)


@pytest.mark.parametrize("h", range(-3, 4))
def test_exact_tie_takes_the_smaller_index(fam1, monkeypatch, h):
    # over the unit epsilon^2, gamma = epsilon^(2h+1) has t = h + 1/2 exactly
    fam = make_family(fam1.field, fam1.alpha, fam1.epsilon ** 2)
    gamma = fam1.epsilon ** (2 * h + 1)
    half = ri_log(fam.epsilon.embed(Fraction(1, 1 << 200))[0], 200) / 2
    decs = [unit_reduce(fam, gamma)]
    for guess in (h, h + 1):  # dev = +R/2 keeps h; dev = -R/2 moves down to h
        monkeypatch.setattr(reduction, "_guess",
                            lambda fam, g, m, guess=guess: guess)
        decs.append(unit_reduce(fam, gamma))
    for dec in decs:
        assert dec.ell == h
        assert dec.xi == fam1.epsilon
        assert dec.balance.lo <= half.lo and half.hi <= dec.balance.hi
    assert decs[0] == reference_unit_reduce(fam, gamma)
