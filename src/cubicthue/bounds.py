"""Empirical calibration of the sine lower bound.

`calibrate_c2` scans |sin(delta1 + n delta2)| with certified enclosures and
returns the smallest exponent c for which |sin| * (|n| + 2)^c >= 1 holds at
every certified index; indices whose sine enclosure straddles zero are
reported as skipped rather than guessed.  The exponent is measured, not
proven: no lower bound for linear forms in logarithms is evaluated here,
because such a bound is only as certified as its explicit constants.

The scan rotates by baby steps and giant steps.  With B = isqrt(2 N) + 1,
the mpmath bridge encloses cos and sin of j delta2 for 0 <= j < B and of
delta1 + m delta2 for every B-th m from -N; then at n = m + j,
sin(delta1 + n delta2) = sin(a) cos(b) + cos(a) sin(b) costs two certified
products of the dyadic kernel.  That is about 4 sqrt(2 N) bridge calls
instead of 2 N.  Each sine is one product of two bridge enclosures, so its
width does not grow along the scan, as it would by up to sqrt(2) per step
if the unit vector were rotated by a running product.

The exponent an index needs comes from a certified log of its sine's lower
end.  A float estimate of that exponent decides first: when it lies below
the running maximum by a relative 2^-30, the index cannot raise the
maximum and no certified log is taken (on D = 1, 22 logs instead of
19,999).  The certified exponent exceeds the estimate only by the outward
rounding of the log, far below 2^-30 relative for narrow enclosures at the
default precision, so the result is that of taking the certified log at
every index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import DEFAULT_PRECISION
from .errors import DegenerateAngle, InvalidParameter
from .intervals import CBox, RI, bits_for_width, ri_cos, ri_log, ri_sin


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    delta1: RI
    delta2: RI
    n_max: int
    c2: float
    skipped: tuple[int, ...]
    worst_n: int
    checked: int

    def to_json(self) -> dict:
        from .reporting import ri_json

        return {
            "delta1": ri_json(self.delta1, 30),
            "delta2": ri_json(self.delta2, 30),
            "N": self.n_max,
            "c2": self.c2,
            "worst_n": self.worst_n,
            "checked": self.checked,
            "skipped": list(self.skipped),
        }


def calibrate_c2(delta1: RI, delta2: RI, n_max: int,
                 precision=DEFAULT_PRECISION) -> CalibrationResult:
    """Smallest exponent making the sine bound hold for 0 < |n| <= n_max.

    The sines come from baby-step and giant-step unit vectors, and the
    certified log is taken only where a float estimate says it may raise
    the running maximum (see the module docstring).  An index whose sine
    enclosure straddles zero cannot be certified nonzero at this precision
    (it may lie in Z*pi) and is skipped and reported.  At any precision the
    returned exponent makes |sin| >= (|n| + 2)^-c2 hold at every certified
    index, because an index the estimate passes over needs less than the
    maximum by a relative margin far above float error."""
    if n_max < 1:
        raise InvalidParameter("n_max must be >= 1")
    bits = bits_for_width(Fraction(precision))
    step = math.isqrt(2 * n_max) + 1
    below = 1 - 2.0 ** -30

    def unit(angle: RI) -> CBox:
        return CBox(ri_cos(angle, bits), ri_sin(angle, bits))

    baby = [unit(j * delta2) for j in range(step)]

    best = 0.0
    worst_n = 0
    skipped: list[int] = []
    checked = 0
    for m in range(-n_max, n_max + 1, step):
        g = unit(delta1 + m * delta2)
        for n, b in zip(range(m, min(m + step, n_max + 1)), baby):
            if n == 0:
                continue
            # the imaginary part of g * b only
            s = abs(g.re * b.im + g.im * b.re)
            if not s.is_positive():
                skipped.append(n)
                continue
            checked += 1
            log_n = math.log(abs(n) + 2)
            lo = float(s.lo)
            if lo > 0 and -math.log(lo) / log_n < best * below:
                continue
            # exponent needed at this n, from the certified lower sine bound;
            # the .lo endpoint makes the quotient an upper bound
            need = float(ri_log(s, bits).lo) / -log_n
            if need > best:
                best = need
                worst_n = n
    if checked == 0:
        raise DegenerateAngle("no index could be certified away from Z*pi")
    c2 = best * (1 + 1e-12) + 1e-15
    return CalibrationResult(delta1, delta2, n_max, c2, tuple(skipped),
                             worst_n, checked)
