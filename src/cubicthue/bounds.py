"""Empirical calibration of the sine lower bound.

`calibrate_c2` scans |sin(delta1 + n delta2)| with certified enclosures and
returns the smallest exponent c for which |sin| * (|n| + 2)^c >= 1 holds at
every certified index; indices whose sine enclosure straddles zero are
reported as skipped rather than guessed.  The exponent is measured, not
proven: no lower bound for linear forms in logarithms is evaluated here,
because such a bound is only as certified as its explicit constants.

The scan rotates by baby steps and giant steps on integer unit disks.  A
disk (c, s, r) on the grid 2^-p encloses a unit vector e^(i phi) as
|e^(i phi) - (c + i s) 2^-p| <= r 2^-p, the midpoint-radius form of Arb
(Johansson, IEEE Trans. Computers 66, 2017) with an integer midpoint.  With
B = isqrt(2 N) + 1, the mpmath bridge encloses cos and sin of only three
angles: delta2, B delta2 and delta1 - N delta2.  The baby disks of
j delta2 (0 <= j < B) come from repeated rotation by delta2's disk, and
the giant disks of delta1 + m delta2 (every B-th m from -N) from rotation by
B delta2's disk.  Rotating z by w multiplies the midpoints exactly and
floors the product back onto the grid; as |z| = 1 and |m_w| <= 1 + r_w,

    |zw - m_z m_w| <= |z| |w - m_w| + |m_w| |z - m_z|,

so the radius grows as r' = r_z + r_w + ceil(r_z r_w 2^-p) plus 2 for
the two floors, each of which moves a component by less than one unit.  A
disk does not wrap: rotated, it is the same disk about a rotated midpoint,
so its radius grows additively along the scan.  A box (a real and an
imaginary interval) does wrap: the rotated box must be enclosed again by an
axis-parallel box up to sqrt(2) wider, so a running product of boxes would
widen geometrically.

At n = m + j, sin(delta1 + n delta2) is the imaginary part of the product
of giant m's disk g and baby j's disk b: S = g_c b_s + g_s b_c on the grid
2^-2p, within E = (r_g + r_b) 2^p + r_g r_b + 1 units by the same bound.
An index is skipped exactly when |S| <= E.  The scan works on integers on
one grid, p = `DEFAULT_BITS` + `DISK_GUARD_BITS`, and calls the bridge six
times and once more per certified log.

The exponent an index needs comes from a certified log of its sine's lower
end, (|S| - E) 2^-2p.  A float estimate of that exponent decides first:
when it lies below the running maximum by a relative 2^-30, the index
cannot raise the maximum and no certified log is taken (on D = 1, 22 logs
instead of 19,999).  The certified exponent exceeds the estimate only by
the outward rounding of the log, far below 2^-30 relative for narrow
enclosures at the default precision, so the result is that of taking the
certified log at every index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cubicfield import DEFAULT_BITS
from .errors import DegenerateAngle, InvalidParameter
from .intervals import RI, ri_cos, ri_log, ri_sin

# Bits of the disk grid below the working precision.  Besides the angles' own
# widths, a rotation adds a few units of 2^-p to a radius, so the about
# 2 sqrt(2 N) rotations of a scan keep their rounding below 2^-bits while N
# is below 2^50.
DISK_GUARD_BITS = 32

Disk = tuple[int, int, int]


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


def _grid(x: RI, p: int) -> tuple[int, int]:
    """(m, r) with x inside [m - r, m + r] 2^-p."""
    lo = math.floor(x.lo * (1 << p))
    hi = math.ceil(x.hi * (1 << p))
    m = (lo + hi) // 2
    return m, hi - m


def _disk(angle: RI, p: int) -> Disk:
    """Integer disk of e^(i angle) on the grid 2^-p, from the bridge; the
    radius rc + rs covers the distance sqrt(rc^2 + rs^2)."""
    c, rc = _grid(ri_cos(angle, p), p)
    s, rs = _grid(ri_sin(angle, p), p)
    return c, s, rc + rs


def _rotate(z: Disk, w: Disk, p: int) -> Disk:
    """Disk of the product of two unit vectors (see the module docstring)."""
    zc, zs, zr = z
    wc, ws, wr = w
    return ((zc * wc - zs * ws) >> p, (zc * ws + zs * wc) >> p,
            zr + wr + (-(-(zr * wr) >> p)) + 2)


def unit_disks(delta1: RI, delta2: RI, n_max: int,
               p: int) -> tuple[list[Disk], list[Disk]]:
    """(baby, giant): disks on the grid 2^-p of e^(i j delta2) for
    0 <= j < B and of e^(i (delta1 + m delta2)) for m = -N, -N + B, ...,
    up to N, with B = isqrt(2 N) + 1."""
    step = math.isqrt(2 * n_max) + 1
    baby = [(1 << p, 0, 0)]
    rot = _disk(delta2, p)
    for _ in range(1, step):
        baby.append(_rotate(baby[-1], rot, p))
    giant = [_disk(delta1 - n_max * delta2, p)]
    rot = _disk(step * delta2, p)
    for _ in range(1, len(range(-n_max, n_max + 1, step))):
        giant.append(_rotate(giant[-1], rot, p))
    return baby, giant


def calibrate_c2(delta1: RI, delta2: RI, n_max: int) -> CalibrationResult:
    """Smallest exponent making the sine bound hold for 0 < |n| <= n_max.

    Each sine is the imaginary part of a product of a giant disk and a
    baby disk, S 2^-2p within E 2^-2p, in exact integers (see the module
    docstring for the disks and their radii).  The certified log is taken
    only where a float estimate says it may raise the running maximum.  An
    index whose sine enclosure reaches zero, |S| <= E, cannot be certified
    nonzero at this precision (it may lie in Z*pi) and is skipped and
    reported.  The scan works at `DEFAULT_BITS`.  At any precision the
    returned exponent makes |sin| >= (|n| + 2)^-c2 hold at every certified
    index, because an index the estimate passes over needs less than the
    maximum by a relative margin far above float error."""
    if n_max < 1:
        raise InvalidParameter("n_max must be >= 1")
    p = DEFAULT_BITS + DISK_GUARD_BITS
    baby, giant = unit_disks(delta1, delta2, n_max, p)
    step = len(baby)
    unit2 = 1 << 2 * p
    below = 1 - 2.0 ** -30

    best = 0.0
    worst_n = 0
    skipped: list[int] = []
    checked = 0
    for m, (gc, gs, gr) in zip(range(-n_max, n_max + 1, step), giant):
        for n, (bc, bs, br) in zip(range(m, min(m + step, n_max + 1)), baby):
            if n == 0:
                continue
            s = abs(gc * bs + gs * bc)
            e = ((gr + br) << p) + gr * br + 1
            if s <= e:
                skipped.append(n)
                continue
            checked += 1
            log_n = math.log(abs(n) + 2)
            lo = (s - e) / unit2
            if lo > 0 and -math.log(lo) / log_n < best * below:
                continue
            # exponent needed at this n, from the certified lower sine bound;
            # the .lo endpoint makes the quotient an upper bound
            sine = RI.dyadic(s - e, s + e, -2 * p)
            need = float(ri_log(sine, DEFAULT_BITS).lo) / -log_n
            if need > best:
                best = need
                worst_n = n
    if checked == 0:
        raise DegenerateAngle("no index could be certified away from Z*pi")
    c2 = best * (1 + 1e-12) + 1e-15
    return CalibrationResult(delta1, delta2, n_max, c2, tuple(skipped),
                             worst_n, checked)
