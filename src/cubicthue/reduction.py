"""Unit reduction: factor out the power of epsilon that balances an element.

For nonzero gamma in K with m = |N(gamma)|, the rank-1 unit group lets us
write gamma = epsilon^ell * xi with all three |conjugates of xi| within a
factor exp(R/2) of m^(1/3), where R = log(epsilon) and ell is the nearest
integer to t = (log|gamma| - (1/3) log m) / R.  Reconstruction
epsilon^ell * xi = gamma is exact.

The exponent is guessed, then certified.  With
dev = log|xi| - (1/3) log m for xi = epsilon^-ell * gamma (real images),
t - ell = dev / R, so ell is the nearest integer to t exactly when
|dev| < R/2.  The norm identity |xi| * |xi'|^2 = |N(xi)| = m is exact, so
each complex conjugate of xi deviates by exactly -dev/2: the balance, the
largest deviation over the three embeddings, is |dev|, and one real image
and one logarithm per working precision certify it.  The guess is float
arithmetic on the complex image gamma': the real image of x - beta_n y
nearly cancels at a solution, gamma' does not, and
log|gamma| = log m - 2 log|gamma'|.  The enclosure of dev then decides the
guess: a dev certified inside (-R/2, R/2) keeps ell, one certified outside
moves ell by the rounded dev / R and starts again, so a wrong guess costs a
retry and never a wrong exponent.  An exact halfway point t = h + 1/2,
decided by the sixth-power identity `_is_exact_tie`, goes to the smaller
index h: dev = R/2 keeps ell, dev = -R/2 moves it down by one.  When dev
straddles +-R/2 and no tie holds, the precision doubles.

R and (1/3) log m per working precision, and epsilon^ell per exponent,
come from the family (`FormFamily.at`, `FormFamily.unit_power`), so every
reduction of one command shares them.  The enclosures of xi that a trace
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


def _log_abs_complex(el: FieldElement, z: complex) -> float:
    """log|el'| in floats at the float complex root z, the numerators cut to
    1000 bits first."""
    s = max(0, max(abs(el.n0).bit_length(), abs(el.n1).bit_length(),
                   abs(el.n2).bit_length()) - 1000)
    v = abs(((el.n2 >> s) * z + (el.n1 >> s)) * z + (el.n0 >> s))
    if not v:
        return -math.inf
    return math.log(v) + s * math.log(2) - math.log(el.d)


def _guess(fam: FormFamily, gamma: FieldElement, m: Fraction) -> int:
    """Nearest integer to t, from log|gamma| = log m - 2 log|gamma'| and,
    as N(epsilon) = +-1, log epsilon = -2 log|epsilon'|, all in floats."""
    box = fam.field.complex_root(64)
    z = complex(float(box.re.mid), float(box.im.mid))
    log_m = math.log(m.numerator) - math.log(m.denominator)
    reg = -2 * _log_abs_complex(fam.epsilon, z)
    t = (2 * log_m / 3 - 2 * _log_abs_complex(gamma, z)) / reg
    return math.floor(t + 0.5) if math.isfinite(t) else 0


def unit_reduce(fam: FormFamily, gamma: FieldElement) -> Decomposition:
    """Decompose gamma exactly as epsilon^ell * xi with balanced xi.

    ell is the nearest integer to t, the smaller one at an exact halfway
    point; it is guessed in floats and certified from the balance enclosure
    (module docstring).  The balance, max over the three embeddings of
    |log(|embedding of xi| / m^(1/3))|, is |dev| by the norm identity, from
    the real image of xi alone, at the first precision from `DEFAULT_BITS`
    upwards, doubling, where its width is at most `DEFAULT_PRECISION`."""
    if gamma.is_zero():
        raise ZeroElement("cannot reduce zero")
    m = abs(gamma.norm())
    ell = _guess(fam, gamma, m)
    while True:
        xi = fam.unit_power(-ell) * gamma
        move, balance = refine(_certify_step(fam, gamma, ell, xi, m),
                               DEFAULT_BITS,
                               "unit reduction did not certify")
        if not move:
            break
        ell += move
    assert fam.unit_power(ell) * xi == gamma
    return Decomposition(ell, xi, m, balance)


def _certify_step(fam: FormFamily, gamma: FieldElement, ell: int,
                  xi: FieldElement, m: Fraction):
    """A `refine` step giving (0, balance) when ell is the balancing
    exponent, (move, None) when it is certified off by about `move`, and
    None when precision must grow.  The balance is the first one, in
    doubling order, whose width meets `DEFAULT_PRECISION`."""
    first = None

    def step(bits: int) -> tuple[int, RI | None] | None:
        nonlocal first
        real = abs(xi.real_image(bits))
        if not real.is_positive():
            return None
        images = fam.at(bits)
        dev = ri_log(real, bits) - images.log_m3(m)
        balance = abs(dev)
        if first is None and balance.width <= DEFAULT_PRECISION:
            first = balance
        reg = images.log_eps
        half = reg / 2
        if balance.certainly_lt(half):
            return None if first is None else (0, first)
        if half.certainly_lt(dev):
            return max(1, round(dev.mid / reg.mid)), None
        if dev.certainly_lt(-half):
            return min(-1, round(dev.mid / reg.mid)), None
        # dev straddles R/2 (t may be ell + 1/2) or -R/2 (t may be ell - 1/2);
        # an exact halfway point goes to the smaller index
        if dev.is_positive() and _is_exact_tie(gamma, fam.epsilon, m, ell):
            return None if first is None else (0, first)
        if dev.is_negative() and _is_exact_tie(gamma, fam.epsilon, m, ell - 1):
            return -1, None
        return None

    return step


def decompose_solution(fam: FormFamily, n: int, x: int, y: int, *,
                       value: int | None = None) -> Decomposition:
    """Decomposition of gamma = x - epsilon^n * alpha * y for a solution.

    `value` is F_n(x, y) when the caller already holds it."""
    if x == 0 or y == 0:
        raise TrivialXY(f"(x, y) = ({x}, {y})")
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
