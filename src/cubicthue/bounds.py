"""Empirical calibration of the sine lower bound.

`calibrate_c2` scans |sin(delta1 + n delta2)| with certified enclosures and
returns the smallest exponent c for which |sin| * (|n| + 2)^c >= 1 holds at
every certified index; indices whose sine enclosure straddles zero are
reported as skipped rather than guessed.  The exponent is measured, not
proven: no lower bound for linear forms in logarithms is evaluated here,
because such a bound is only as certified as its explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import DEFAULT_PRECISION
from .errors import DegenerateAngle, InvalidParameter
from .intervals import RI, bits_for_width, ri_log, ri_sin


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

    Uses certified sine enclosures; an index whose enclosure straddles zero
    cannot be certified nonzero at this precision (it may lie in Z*pi) and
    is skipped and reported."""
    if n_max < 1:
        raise InvalidParameter("n_max must be >= 1")
    bits = bits_for_width(Fraction(precision))

    best = 0.0
    worst_n = 0
    skipped: list[int] = []
    checked = 0
    for n in range(-n_max, n_max + 1):
        if n == 0:
            continue
        s = abs(ri_sin(delta1 + n * delta2, bits))
        if s.lo <= 0:
            skipped.append(n)
            continue
        checked += 1
        # exponent needed at this n, from the certified lower sine bound;
        # the .lo endpoint makes the quotient an upper bound
        need = float(ri_log(s, bits).lo) / -math.log(abs(n) + 2)
        if need > best:
            best = need
            worst_n = n
    if checked == 0:
        raise DegenerateAngle("no index could be certified away from Z*pi")
    c2 = best * (1 + 1e-12) + 1e-15
    return CalibrationResult(delta1, delta2, n_max, c2, tuple(skipped),
                             worst_n, checked)

