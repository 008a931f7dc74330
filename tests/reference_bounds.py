"""The sine calibration scan index by index, for tests only.

`bounds.calibrate_c2` rotates by baby steps and giant steps and takes the
certified logarithm only where it can raise the running exponent.  This
reference evaluates every index directly: one certified sine of
delta1 + n delta2 and one certified logarithm per index, with the same
skip rule, the same exponent per index and the same final margin.  The
property tests require both to return the same result.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cubicthue.bounds import CalibrationResult
from cubicthue.cubicfield import DEFAULT_PRECISION
from cubicthue.errors import DegenerateAngle, InvalidParameter
from cubicthue.intervals import RI, bits_for_width, ri_log, ri_sin


def index_need(delta1: RI, delta2: RI, n: int, bits: int) -> float | None:
    """Exponent needed at n from the certified lower sine bound, or None
    when the sine enclosure straddles zero."""
    s = abs(ri_sin(delta1 + n * delta2, bits))
    if s.lo <= 0:
        return None
    # the .lo endpoint makes the quotient an upper bound
    return float(ri_log(s, bits).lo) / -math.log(abs(n) + 2)


def calibrate_c2_direct(delta1: RI, delta2: RI, n_max: int,
                        precision=DEFAULT_PRECISION) -> CalibrationResult:
    """`calibrate_c2` by a direct sine and logarithm at every index."""
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
        need = index_need(delta1, delta2, n, bits)
        if need is None:
            skipped.append(n)
            continue
        checked += 1
        if need > best:
            best = need
            worst_n = n
    if checked == 0:
        raise DegenerateAngle("no index could be certified away from Z*pi")
    c2 = best * (1 + 1e-12) + 1e-15
    return CalibrationResult(delta1, delta2, n_max, c2, tuple(skipped),
                             worst_n, checked)
