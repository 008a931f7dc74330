"""Interval layer: outward-rounded dyadic ring ops, certified enclosures."""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import (
    from_man_exp,
    mpi_atan2,
    mpi_cos,
    mpi_exp,
    mpi_log,
    mpi_sin,
    mpi_sqrt,
    round_ceiling,
    round_floor,
)

from cubicthue import intervals
from cubicthue.errors import PrecisionExhausted
from cubicthue.family import example_family
from cubicthue.intervals import (
    GUARD_BITS,
    KEEP_BITS,
    MAX_BITS,
    CBox,
    RI,
    bits_for_width,
    ri_atan2,
    ri_cos,
    ri_exp,
    ri_log,
    ri_pi,
    refine,
    ri_root,
    ri_sin,
    ri_sqrt,
)


def test_point_and_width():
    x = RI.point(Fraction(5, 8))
    assert x.width == 0 and x.mid == Fraction(5, 8)
    # a non-dyadic point cannot be exact: it enters at the caller's bits
    z = RI.point(Fraction(3, 7), 100)
    assert z.contains(Fraction(3, 7)) and 0 < z.width <= Fraction(1, 2**100)
    y = RI(1, 2)
    assert y.width == 1 and y.contains(Fraction(3, 2))


def test_ring_ops_contain_true_values():
    rng = random.Random(1)
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        ia = RI(a - Fraction(1, 97), a + Fraction(1, 91))
        ib = RI(b - Fraction(1, 89), b + Fraction(1, 83))
        assert (ia + ib).contains(a + b)
        assert (ia - ib).contains(a - b)
        assert (ia * ib).contains(a * b)
        if not ib.contains_zero():
            assert (ia / ib).contains(a / b)
        assert ia.sqr().contains(a * a)
        assert abs(ia).contains(abs(a))
        assert ia.pow_int(3).contains(a**3)


def test_division_by_zero_interval_raises():
    with pytest.raises(ZeroDivisionError):
        RI(-1, 1).recip()


def test_pow_int_negative():
    x = RI(2, 2)
    assert x.pow_int(-2) == RI.point(Fraction(1, 4))


def _inside(enclosure: RI, oracle_value) -> bool:
    lo = mpmath.mpf(enclosure.lo.numerator) / enclosure.lo.denominator
    hi = mpmath.mpf(enclosure.hi.numerator) / enclosure.hi.denominator
    return lo <= oracle_value <= hi


def test_sqrt_log_exp_sin_against_mpmath():
    # oracle: 60-digit direct evaluation must land inside every enclosure
    rng = random.Random(2)
    with mpmath.workdps(60):
        for _ in range(50):
            v = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            x = RI.point(v)
            mp_v = mpmath.mpf(v.numerator) / v.denominator
            assert _inside(ri_sqrt(x, 160), mpmath.sqrt(mp_v))
            assert _inside(ri_log(x, 160), mpmath.log(mp_v))
            assert _inside(ri_exp(x, 160), mpmath.exp(mp_v))
            assert _inside(ri_sin(x, 160), mpmath.sin(mp_v))
            assert _inside(ri_cos(x, 160), mpmath.cos(mp_v))
            assert ri_sin(x, 160).width <= Fraction(1, 2**120)


def test_exp_zero_fraction_edge():
    assert ri_exp(RI.point(0), 80).contains(1)


def test_pi_and_atan2():
    pi = ri_pi(200)
    assert pi.width <= Fraction(1, 2**190)
    with mpmath.workdps(80):
        assert _inside(pi, +mpmath.pi)
    a = ri_atan2(RI.point(1), RI.point(1), 120)
    assert (4 * a).contains(pi.mid)


def test_atan2_encloses_in_the_left_half_plane():
    # mpmath's atan2 misrounds this second-quadrant box (the complex root of
    # X^3 - 6X^2 - 1 at 2^-108) by about an ulp: it returns a point interval
    # that misses the angle
    y = RI.dyadic(138523005220938237905477854637790641639,
                  138523005220938237905477854637790641653, -128)
    x = RI.dyadic(-36586552425366845154657538517021299,
                  -36586552425366845154657538517021298, -121)
    a = ri_atan2(y, x, 108)
    with mpmath.workprec(400):
        for v in (y.lo, y.hi):
            for u in (x.lo, x.hi):
                assert _inside(a, mpmath.atan2(mpmath.mpf(v.numerator) / v.denominator,
                                               mpmath.mpf(u.numerator) / u.denominator))


def test_root_enclosure():
    x = RI.point(8)
    r = ri_root(x, 3, 120)
    assert r.contains(2)
    assert r.width <= Fraction(1, 2**100)


def test_bits_for_width():
    assert bits_for_width(Fraction(1, 10**30)) >= 100
    with pytest.raises(ValueError):
        bits_for_width(0)


def test_bits_for_width_is_exact_below_the_float_range():
    # floor(log2 w) from bit lengths agrees with the float route wherever
    # that route works, and goes on below 2^-1074, where the float is 0
    widths = ([Fraction(1, 10**n) for n in range(1, 300)]
              + [Fraction(1, 1 << j) for j in range(1070)]
              + [Fraction(3, 7), Fraction(5), Fraction(10**9 + 1, 3)])
    for w in widths:
        assert bits_for_width(w) == max(24, GUARD_BITS - math.floor(math.log2(w)))
    assert bits_for_width(Fraction(1, 1 << 1075)) == bits_for_width(
        Fraction(1, 1 << 1074)) + 1
    real, _ = example_family(1).epsilon.embed(Fraction(1, 1 << 1075))
    assert real.width <= Fraction(1, 1 << 1075)


def test_embedding_loop_reaches_the_cap():
    # every doubling embeds at the precision it asks for, past 2048 bits,
    # until the cap ends the loop
    epsilon = example_family(1).epsilon
    tries = []

    def step(bits):
        tries.append(bits)
        epsilon.embed(Fraction(1, 1 << bits))
        return None

    with pytest.raises(PrecisionExhausted, match="stalled"):
        refine(step, 1536, "stalled")
    assert tries == [1536, 3072, 6144, 12288] and 2 * tries[-1] > MAX_BITS


# -- refine ----------------------------------------------------------------------


def _recording_step(succeed_at):
    """A step that fails below `succeed_at` bits and logs every try."""
    tries = []

    def step(bits):
        tries.append(bits)
        return ("done", bits) if bits >= succeed_at else None

    return step, tries


def test_refine_doubles_from_the_given_bits():
    step, tries = _recording_step(200)
    assert refine(step, 30, "x") == ("done", 240)
    assert tries == [30, 60, 120, 240]


def test_refine_returns_the_first_result():
    step, tries = _recording_step(0)
    assert refine(step, 77, "x") == ("done", 77)
    assert tries == [77]
    # falsy results other than None count as found
    assert refine(lambda bits: 0, 24, "x") == 0


def test_refine_first_try_runs_above_the_cap():
    step, tries = _recording_step(0)
    assert refine(step, 3 * MAX_BITS, "x") == ("done", 3 * MAX_BITS)
    step, tries = _recording_step(10**9)
    with pytest.raises(PrecisionExhausted, match="above the cap"):
        refine(step, 3 * MAX_BITS, "above the cap")
    assert tries == [3 * MAX_BITS]


def test_refine_raises_past_the_cap():
    step, tries = _recording_step(10**9)
    with pytest.raises(PrecisionExhausted, match="never certified"):
        refine(step, 64, "never certified")
    assert tries[0] == 64 and tries[-1] == MAX_BITS
    assert all(b == 2 * a for a, b in zip(tries, tries[1:]))
    # the cap itself is reached and tried, nothing above it
    step, tries = _recording_step(MAX_BITS)
    assert refine(step, MAX_BITS // 8, "x") == ("done", MAX_BITS)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def test_cbox_mul_div_contains():
    # oracle: exact rational complex arithmetic on the box corner
    rng = random.Random(3)
    for _ in range(100):
        re1, im1, re2, im2 = (Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                              for _ in range(4))
        z1 = CBox(RI(re1, re1 + Fraction(1, 101)),
                  RI(im1, im1 + Fraction(1, 103)))
        z2 = CBox(RI(re2, re2 + Fraction(1, 107)),
                  RI(im2, im2 + Fraction(1, 109)))
        w = _cmul((re1, im1), (re2, im2))
        prod = z1 * z2
        assert prod.re.contains(w[0]) and prod.im.contains(w[1])
        if not z2.abs2().contains_zero():
            d = re2 * re2 + im2 * im2
            q = _cmul((re1, im1), (re2 / d, -im2 / d))
            quot = z1 / z2
            assert quot.re.contains(q[0]) and quot.im.contains(q[1])


def test_cbox_arg_quadrants():
    pi = ri_pi(100)
    z = CBox.point(-1, 1)
    a = z.arg(100)
    assert a.contains(Fraction(3, 4) * pi.mid)
    z2 = CBox.point(-1, -1)
    assert z2.arg(100).contains(Fraction(-3, 4) * pi.mid)


def test_enclosure_monotone_under_refinement():
    # proxy for the embedding-monotonicity property at interval level:
    # log of a narrower input is contained in log of a wider one
    wide = ri_log(RI(Fraction(2), Fraction(3)), 80)
    narrow = ri_log(RI(Fraction(9, 4), Fraction(5, 2)), 160)
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


def test_cbox_pow_int_encloses():
    z = CBox.point(Fraction(3, 7), Fraction(2, 7))
    w = (Fraction(1), Fraction(0))
    for _ in range(9):
        w = _cmul(w, (Fraction(3, 7), Fraction(2, 7)))
    box = z.pow_int(9)
    assert box.re.contains(w[0]) and box.im.contains(w[1])


# -- the dyadic kernel against exact interval arithmetic -------------------------

# Each rounding widens an interval by a factor of at most 1 + 2^-(KEEP_BITS - 2).
SLACK = 1 + Fraction(1, 2 ** (KEEP_BITS - 2))


def _rationals(bound=10**6):
    dyadic = st.builds(lambda m, k: Fraction(m, 2**k),
                       st.integers(-2**70, 2**70), st.integers(0, 200))
    return st.one_of(
        st.fractions(-bound, bound, max_denominator=10**9), dyadic,
    ).filter(lambda v: abs(v) <= 2**70)


@st.composite
def _intervals(draw):
    """An RI of positive width from rational or dyadic endpoints, with the
    endpoints it was asked for."""
    lo = draw(_rationals())
    width = draw(_rationals().filter(lambda v: v > 0))
    return RI(lo, lo + width), lo, lo + width


def _exact_mul(x, y):
    p = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(p), max(p)


def _exact_sqr(x):
    lo, hi = x
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def _exact_pow(x, n):
    """Exact interval arithmetic along RI.pow_int's own square-and-multiply."""
    result, base = None, x
    while n:
        if n & 1:
            result = base if result is None else _exact_mul(result, base)
        n >>= 1
        if n:
            base = _exact_sqr(base)
    return result


def _encloses_tightly(result: RI, exact, slack=SLACK) -> bool:
    lo, hi = exact
    return (result.lo <= lo and hi <= result.hi
            and result.width <= (hi - lo) * slack)


def _bounds(x: RI):
    return x.lo, x.hi


@settings(max_examples=300, deadline=None)
@given(_intervals(), _intervals(), st.integers(1, 9),
       st.integers(-10**6, 10**6).filter(bool))
def test_kernel_ops_enclose_exact_interval_arithmetic(xs, ys, n, q):
    (x, x_lo, x_hi), (y, y_lo, y_hi) = xs, ys
    # the rounded operands contain the rationals they were built from, and
    # rounding never moves an endpoint across zero
    assert x.lo <= x_lo and x_hi <= x.hi
    assert x.is_positive() == (x_lo > 0) and x.is_negative() == (x_hi < 0)
    if x.is_positive() and y.is_positive():
        assert (x * y).is_positive() and (x + y).is_positive()
        assert (x / y).is_positive() and (x / q).sign_definite()
    ex, ey = _bounds(x), _bounds(y)
    assert _encloses_tightly(x + y, (ex[0] + ey[0], ex[1] + ey[1]))
    assert _encloses_tightly(x - y, (ex[0] - ey[1], ex[1] - ey[0]))
    assert _encloses_tightly(x * y, _exact_mul(ex, ey))
    assert _encloses_tightly(x.sqr(), _exact_sqr(ex))
    quotient = sorted((ex[0] / q, ex[1] / q))
    assert _encloses_tightly(x / q, quotient)
    steps = 2 * n.bit_length()
    assert _encloses_tightly(x.pow_int(n), _exact_pow(ex, n), SLACK ** steps)
    if x.sign_definite():
        assert _encloses_tightly(x.recip(), (1 / ex[1], 1 / ex[0]))
        assert (x * y / x).contains(y_lo)
    # pointwise: the exact Fraction result of the requested rationals
    assert (x * y).contains(x_lo * y_hi) and (x + y).contains(x_hi + y_lo)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**80, 2**80), st.integers(-300, 300),
       st.integers(-2**80, 2**80), st.integers(-300, 300), st.integers(0, 7))
def test_kernel_dyadic_results_stay_exact(m1, e1, m2, e2, n):
    a = Fraction(m1) * Fraction(2) ** e1
    b = Fraction(m2) * Fraction(2) ** e2
    x, y = RI.point(a), RI.point(b)
    for result, exact in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                          (x.sqr(), a * a), (x.pow_int(n), a**n),
                          (x / 2, a / 2), (x / -8, a / -8)):
        assert result.width == 0 and result.mid == exact
    assert RI.point(a) == RI(a, a) == RI(a, a, 10)
    if a:
        assert (x / 3).contains(a / 3)
        assert (x / 3).width <= abs(a) / 2 ** (MAX_BITS - 2)


def _mp_value(fn, x: RI, prec: int):
    with mpmath.workprec(prec):
        return fn(mpmath.mpf(x.mid.numerator) / x.mid.denominator)


def _contains_mp(enclosure: RI, value, prec: int) -> bool:
    with mpmath.workprec(prec):
        lo = mpmath.mpf(enclosure.lo.numerator) / enclosure.lo.denominator
        hi = mpmath.mpf(enclosure.hi.numerator) / enclosure.hi.denominator
        return lo <= value <= hi


@settings(max_examples=150, deadline=None)
@given(_intervals(), st.integers(24, 400))
def test_bridge_contains_mpmath_at_twice_the_precision(xs, bits):
    x, _, _ = xs
    prec = 2 * bits
    assert _contains_mp(ri_sin(x, bits), _mp_value(mpmath.sin, x, prec), prec)
    if x.is_positive():
        assert _contains_mp(ri_log(x, bits), _mp_value(mpmath.log, x, prec),
                            prec)
        assert _contains_mp(ri_sqrt(x, bits), _mp_value(mpmath.sqrt, x, prec),
                            prec)


# -- the libmp bridge against mpmath's iv context --------------------------------

_IV = {mpi_log: iv.log, mpi_exp: iv.exp, mpi_sin: iv.sin, mpi_cos: iv.cos,
       mpi_sqrt: iv.sqrt, mpi_atan2: iv.atan2}


@contextlib.contextmanager
def _iv_prec(prec: int):
    old = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = old


def _mpf(v: Fraction, prec: int, rounding):
    """A dyadic rational as a libmp value, rounded at `prec` bits."""
    return from_man_exp(v.numerator, 1 - v.denominator.bit_length(), prec,
                        rounding)


def _call_through_iv(fn, args, bits):
    """`intervals._call_iv` by way of the `iv` context at its precision."""
    prec = bits + GUARD_BITS
    with _iv_prec(prec):
        converted = [iv.make_mpf((_mpf(a.lo, prec, round_floor),
                                  _mpf(a.hi, prec, round_ceiling)))
                     for a in args]
        return intervals._from_mpi(_IV[fn](*converted)._mpi_)


def _bridged(x: RI, y: RI, bits: int) -> list[RI]:
    results = [ri_sin(x, bits), ri_cos(x, bits), ri_atan2(y, x, bits)]
    if abs(x).hi < 2**20:
        results.append(ri_exp(x, bits))
    if x.is_positive():
        results += [ri_log(x, bits), ri_sqrt(x, bits), ri_root(x, 3, bits)]
    return results


@st.composite
def _dyadic_intervals(draw):
    a = draw(st.integers(-2**80, 2**80))
    b = a + draw(st.integers(0, 2**80))
    return RI.dyadic(a, b, draw(st.integers(-160, -40)))


@settings(max_examples=150, deadline=None)
@given(_dyadic_intervals(), _dyadic_intervals(), st.integers(24, 400))
def test_bridge_equals_the_iv_context(x, y, bits):
    # every transcendental enclosure equals the one that mpmath's iv context
    # gives at bits + GUARD_BITS, endpoint for endpoint, and the global
    # iv.prec is left as it was
    with _iv_prec(37):
        direct = _bridged(x, y, bits) + [ri_pi(bits)]
        assert iv.prec == 37
    with mock.patch.object(intervals, "_call_iv", _call_through_iv):
        through_iv = _bridged(x, y, bits)
    with _iv_prec(bits + GUARD_BITS):
        through_iv.append(intervals._from_mpi((+iv.pi)._mpi_))
    assert direct == through_iv
