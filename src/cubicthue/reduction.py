"""Unit reduction: factor out the power of epsilon that balances an element.

For nonzero gamma in K with m = |N(gamma)|, the rank-1 unit group lets us
write gamma = epsilon^ell * xi with all three |conjugates of xi| within a
factor exp(R/2) of m^(1/3), where R = log(epsilon) and ell is the nearest
integer to t = (log|gamma| - (1/3) log m) / R.  Reconstruction
epsilon^ell * xi = gamma is exact.

The exponent is guessed, then certified.  With
dev = log|xi| - (1/3) log m for xi = epsilon^-ell * gamma (real images),
t - ell = dev / R, so ell is the nearest integer to t exactly when
|dev| < R/2; the two complex conjugates of xi then sit at half that
log-distance on the other side, since their modulus squared times |xi|
equals m.  The guess is float arithmetic on the complex image gamma': the
real image of x - beta_n y nearly cancels at a solution, gamma' does not,
and log|gamma| = log m - 2 log|gamma'|.  The balance enclosure of xi then
decides the guess: a dev certified inside (-R/2, R/2) keeps ell, one
certified outside moves ell by the rounded dev / R and starts again, so a
wrong guess costs a retry and never a wrong exponent.  An exact halfway
point t = h + 1/2, decided by the sixth-power identity `_is_exact_tie`,
goes to the smaller index h: dev = R/2 keeps ell, dev = -R/2 moves it down
by one.  When dev straddles +-R/2 and no tie holds, the precision doubles.

R and (1/3) log m per working precision, and epsilon^(+-ell) per exponent,
live in a `ReductionCache` that one solving call makes and drops: nothing
is kept on the family between calls.  The enclosures of xi that a trace
certificate needs after the split, kappa9 among them, belong to the
tracer's `SolutionImages`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import DEFAULT_BITS, DEFAULT_PRECISION, FieldElement
from .errors import DegenerateN, TrivialXY, ZeroElement, ZeroValue
from .family import FormFamily, norm_form
from .intervals import RI, refine, ri_log

BALANCE_TOL = Fraction(1, 10**9)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """gamma = epsilon^ell * xi with log-balanced conjugates of xi."""

    ell: int
    xi: FieldElement
    norm_abs: Fraction
    balance: RI


def _is_exact_tie(gamma: FieldElement, eps: FieldElement, m: Fraction,
                  h: int) -> bool:
    """Exact test for |gamma| = m^(1/3) * eps^(h + 1/2).

    Sixth powers clear both the cube root and the absolute value, turning
    the condition into an equality of field elements."""
    return gamma ** 6 == (eps ** (6 * h + 3)) * (m * m)


class ReductionCache:
    """What the reductions of one call share, made once and then reused.

    R = log(epsilon) per working precision, (1/3) log m per (m, precision),
    epsilon^ell and epsilon^-ell per exponent (one `inverse` in all), and the
    float image of the complex root that seeds the guesses."""

    def __init__(self, fam: FormFamily):
        self.eps = fam.epsilon
        box = fam.field.complex_root(64)
        self._z = complex(float(box.re.mid), float(box.im.mid))
        # N(epsilon) = +-1, so log epsilon = -2 log|epsilon'|
        self._reg_float = -2 * self._log_abs_complex(self.eps)
        self._eps_inv = self.eps.inverse()
        self._reg: dict[int, RI] = {}
        self._log_m3: dict[tuple[Fraction, int], RI] = {}
        self._powers: dict[int, tuple[FieldElement, FieldElement]] = {}

    def _log_abs_complex(self, el: FieldElement) -> float:
        """log|el'| in floats, the numerators cut to 1000 bits first."""
        s = max(0, max(abs(el.n0).bit_length(), abs(el.n1).bit_length(),
                       abs(el.n2).bit_length()) - 1000)
        z = self._z
        v = abs(((el.n2 >> s) * z + (el.n1 >> s)) * z + (el.n0 >> s))
        if not v:
            return -math.inf
        return math.log(v) + s * math.log(2) - math.log(el.d)

    def guess(self, gamma: FieldElement, m: Fraction) -> int:
        """Nearest integer to t, from log|gamma| = log m - 2 log|gamma'|."""
        log_m = math.log(m.numerator) - math.log(m.denominator)
        log_c = self._log_abs_complex(gamma)
        t = (2 * log_m / 3 - 2 * log_c) / self._reg_float
        return math.floor(t + 0.5) if math.isfinite(t) else 0

    def reg(self, bits: int) -> RI:
        reg = self._reg.get(bits)
        if reg is None:
            real = self.eps.real_embedding(Fraction(1, 1 << bits))
            reg = self._reg[bits] = ri_log(real, bits)
        return reg

    def log_m3(self, m: Fraction, bits: int) -> RI:
        value = self._log_m3.get((m, bits))
        if value is None:
            value = self._log_m3[m, bits] = ri_log(RI.point(m), bits) / 3
        return value

    def powers(self, ell: int) -> tuple[FieldElement, FieldElement]:
        """(epsilon^ell, epsilon^-ell)."""
        pair = self._powers.get(ell)
        if pair is None:
            up, down = self.eps, self._eps_inv
            if ell < 0:
                up, down = down, up
            pair = self._powers[ell] = (up ** abs(ell), down ** abs(ell))
        return pair


def unit_reduce(fam: FormFamily, gamma: FieldElement, *,
                cache: ReductionCache | None = None) -> Decomposition:
    """Decompose gamma exactly as epsilon^ell * xi with balanced xi.

    ell is the nearest integer to t, the smaller one at an exact halfway
    point; it is guessed in floats and certified from the balance enclosure
    (module docstring).  The balance is max over the three embeddings of
    |log(|embedding of xi| / m^(1/3))|, at the first precision from
    `DEFAULT_BITS` upwards, doubling, where its width is at most
    `DEFAULT_PRECISION`.  `cache` carries R, (1/3) log m and the powers of
    epsilon between the reductions of one solving call; without it the
    call makes its own."""
    if gamma.is_zero():
        raise ZeroElement("cannot reduce zero")
    if cache is None:
        cache = ReductionCache(fam)
    m = abs(gamma.norm())
    ell = cache.guess(gamma, m)
    while True:
        u, u_inv = cache.powers(ell)
        xi = u_inv * gamma
        move, balance = refine(_certify_step(cache, gamma, ell, xi, m),
                               DEFAULT_BITS,
                               "unit reduction did not certify")
        if not move:
            break
        ell += move
    assert u * xi == gamma
    return Decomposition(ell, xi, m, balance)


def _certify_step(cache: ReductionCache, gamma: FieldElement, ell: int,
                  xi: FieldElement, m: Fraction):
    """A `refine` step giving (0, balance) when ell is the balancing
    exponent, (move, None) when it is certified off by about `move`, and
    None when precision must grow.  The balance is the first one, in
    doubling order, whose width meets `DEFAULT_PRECISION`."""
    first = None

    def step(bits: int) -> tuple[int, RI | None] | None:
        nonlocal first
        real, cplx = xi.embed(Fraction(1, 1 << bits))
        cabs2 = cplx.abs2()
        if not abs(real).is_positive() or not cabs2.is_positive():
            return None
        log_m3 = cache.log_m3(m, bits)
        dev = ri_log(abs(real), bits) - log_m3
        if first is None:
            balance = abs(dev).max_with(abs(ri_log(cabs2, bits) / 2 - log_m3))
            if balance.width <= DEFAULT_PRECISION:
                first = balance
        reg = cache.reg(bits)
        half = reg / 2
        if abs(dev).certainly_lt(half):
            return None if first is None else (0, first)
        if half.certainly_lt(dev):
            return max(1, round(dev.mid / reg.mid)), None
        if dev.certainly_lt(-half):
            return min(-1, round(dev.mid / reg.mid)), None
        # dev straddles R/2 (t may be ell + 1/2) or -R/2 (t may be ell - 1/2);
        # an exact halfway point goes to the smaller index
        if dev.is_positive() and _is_exact_tie(gamma, cache.eps, m, ell):
            return None if first is None else (0, first)
        if dev.is_negative() and _is_exact_tie(gamma, cache.eps, m, ell - 1):
            return -1, None
        return None

    return step


def decompose_solution(fam: FormFamily, n: int, x: int, y: int, *,
                       beta: FieldElement | None = None,
                       value: int | None = None) -> Decomposition:
    """Decomposition of gamma = x - epsilon^n * alpha * y for a solution.

    `beta` is epsilon^n * alpha and `value` is F_n(x, y) when the caller
    already holds them."""
    if x == 0 or y == 0:
        raise TrivialXY(f"(x, y) = ({x}, {y})")
    if beta is None:
        beta = fam.beta(n)
    if beta.is_rational():
        raise DegenerateN(f"epsilon^{n} * alpha is rational")
    if value is None:
        value = norm_form(beta).evaluate(x, y)
    if value == 0:
        raise ZeroValue(f"F_{n}({x}, {y}) = 0")
    dec = unit_reduce(fam, (-y) * beta + x)
    assert dec.norm_abs == abs(value), "norm and form value disagree"
    return dec
