"""Exhaustive solving of 0 < |F_n(x, y)| <= k over a finite box.

Two independent enumeration paths cover the same box and must agree:

* `solve_box` works from the factorization |F| = |x - b y| |x - b' y|^2,
  with b the real root and b' the complex root of the n-th form, and
  g = |b - b'|, Im = |Im b'| taken as certified lower bounds.  Since
  |x - b y| + |x - b' y| >= g |y|, every solution falls in one of two cases:

  - Case A, |x - b' y| >= g |y| / 2.  Then |b - x/y| <= 4k / (g^2 |y|^3),
    which is below 1 / (2 y^2) once |y| > 8k / g^2.  Writing x/y = p/q in
    lowest terms, q <= |y| gives |b - p/q| < 1 / (2 q^2), so by Legendre's
    theorem p/q is a convergent of b, and (x, y) = +-m (p, q) with
    m^3 |F(p, q)| = |F(x, y)| <= k.
  - Case B, |x - b y| >= g |y| / 2.  As |x - b' y| >= Im |y| always,
    k >= (g |y| / 2) (Im |y|)^2, so |y|^3 <= 2k / (g Im^2).

  So with Y* = max(8k / g^2, (2k / (g Im^2))^(1/3)) the candidates come from
  two sources.  Every y with |y| <= min(Y*, y_max) is scanned: the integers
  nearest b*y, and the band |x - Re(b') y| <= sqrt(k), both cut to the
  radius |x - b y| <= k / (Im y)^2 that every solution obeys.  Beyond Y*,
  the candidates are the points +-m (p, q) with p/q a convergent of b,
  m^3 <= k and Y* < m q <= y_max; Lagrange's method computes the
  convergents exactly from the integer cubic F(t, 1).  A non-primitive
  solution needs no third source: Case A bounds x/y itself, whatever the
  size of its primitive part.  The scan tests run in exact scaled-integer
  arithmetic on certified dyadic brackets, and each candidate is confirmed
  by exact integer evaluation.  The cost grows only like log(y_max).
  This is the reduction step of Thue solvers: Tzanakis & de Weger,
  J. Number Theory 31 (1989); Bilu & Hanrot, J. Number Theory 60 (1996).

* `brute_force_oracle` never looks at the roots' enclosures.  As
  F(-x, -y) = -F(x, y), it searches only the rows y > 0 of each index and
  records every hit with its mirror image.  Along a row, F is an exact
  integer cubic in x, evaluated by Horner's rule from the row's
  coefficients a1 y, a2 y^2 and a3 y^3.  The oracle splits it into its
  monotone pieces (the critical points come from the exact integer
  quadratic F'), discards pieces whose endpoint values exclude the window
  [-k, k], and binary-searches the window boundaries on the remaining
  pieces with exact evaluations.  A rough root approximation merely seeds
  the search; correctness rests on the exact monotone bracketing alone.
  `naive=True` forces the literal triple loop for small boxes: every cell
  of the box is evaluated exactly, by exact forward differences along each
  row (n, y), where F is a monic cubic in x whose third difference is the
  constant 6 a0; all rows of the box step together as fixed-width lanes of
  a few integers (SIMD within a register: Lamport, CACM 18(8), 1975).

Both paths only enumerate, and their records carry no decomposition.  The
next stage, writing each x - beta_n y as epsilon^ell xi, belongs to
`reduction.decompose_solution`, which `cli.cmd_solve` calls on the rows it
prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .cubicfield import FieldElement
from .errors import PrecisionExhausted
from .family import BinaryCubicForm, FormFamily, norm_form
from .intervals import CBox, RI, refine
from .reduction import Decomposition
from .reporting import frac_str, ri_json


@dataclass(frozen=True, slots=True)
class SearchSpec:
    k: int
    n_lo: int
    n_hi: int
    y_max: int
    exclude_trivial: bool = True
    exclude_degenerate: bool = True

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.n_lo > self.n_hi:
            raise ValueError("empty index range")
        if self.y_max < 1:
            raise ValueError("y_max must be >= 1")

    def indices(self) -> range:
        return range(self.n_lo, self.n_hi + 1)


@dataclass(frozen=True, slots=True)
class SolutionRecord:
    n: int
    x: int
    y: int
    value: int
    primitive: bool
    degenerate: bool = False
    decomposition: Decomposition | None = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.n, self.y, self.x)

    def to_json(self) -> dict:
        out = {"n": self.n, "x": self.x, "y": self.y, "value": self.value,
               "primitive": self.primitive}
        if self.degenerate:
            out["degenerate"] = True
        if self.decomposition is not None:
            out["ell"] = self.decomposition.ell
            out["xi1"] = [frac_str(c) for c in self.decomposition.xi.coords]
            out["balance"] = ri_json(self.decomposition.balance, 20)
        return out


def record_keys(records: list[SolutionRecord]) -> list[tuple[int, int, int, int]]:
    return [(r.n, r.x, r.y, r.value) for r in records]


def _iroot(n: int, e: int) -> int:
    """Largest integer r >= 0 with r^e <= n, for an integer n >= 0."""
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // e)  # >= the root; Newton descends to it
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def x_cap(fam: FormFamily, spec: SearchSpec) -> int:
    """|x| bound closing the box; see `_cap`."""
    return x_caps(fam, spec, [spec.y_max])[0]


def x_caps(fam: FormFamily, spec: SearchSpec,
           y_maxes: Iterable[int]) -> list[int]:
    """`x_cap` of the box with each y_max of `y_maxes` in place of its own,
    from one embedding of each beta_n."""
    return _cap(fam, spec, y_maxes)[0]


def _cap(fam: FormFamily, spec: SearchSpec,
         y_maxes: Iterable[int]) -> tuple[list[int], dict]:
    """floor(y_max * max |root| + k^(1/3)) from certified upper bounds, for
    each y_max of `y_maxes`, and the midpoint of each beta_n's real image
    that gave them.

    F_n(x, y) = prod_i (x - b_i y) gives min_i |x - b_i y| <= k^(1/3), so
    every solution with |y| <= y_max has |x| <= y_max * |b_i| + k^(1/3) for
    some root b_i: the real root or the complex pair, whichever is larger."""
    top2 = Fraction(0)
    roots = {}
    for n in spec.indices():
        real, cplx = fam.beta(n).embed(Fraction(1, 1 << 48))
        top2 = max(top2, abs(real).hi ** 2, cplx.abs2().hi)
        roots[n] = real.mid
    # numerators over 2^32 of upper bounds on y_max * sqrt(top2) and k^(1/3)
    cbrt_k = _iroot(spec.k << 96, 3) + 1
    caps = [(math.isqrt(math.ceil(top2 * (y_max << 32) ** 2)) + 1 + cbrt_k) >> 32
            for y_max in y_maxes]
    return caps, roots


def _box(fam: FormFamily, spec: SearchSpec) -> tuple[dict, int, list]:
    """The setup both enumerations share: (found, cap, rows).

    The degenerate indices are enumerated exactly into `found` when kept,
    and `rows` lists (n, beta_n, F_n, root) for the others, with root the
    midpoint of beta_n's real image from `_cap`.  With k = 0 no value
    qualifies: the box is empty."""
    found: dict = {}
    if spec.k == 0:
        return found, 0, []
    (cap,), roots = _cap(fam, spec, [spec.y_max])
    rows = []
    for n in spec.indices():
        beta = fam.beta(n)
        form = norm_form(beta)
        if not beta.is_rational():
            rows.append((n, beta, form, roots[n]))
        elif not spec.exclude_degenerate:
            _degenerate_lines(found, spec, cap, n, beta, form)
            _trivial_axis_solutions(found, spec, cap, n, form, True)
    return found, cap, rows


def _finish(found: dict) -> list[SolutionRecord]:
    """The records of `found`, sorted by (n, y, x)."""
    records = [SolutionRecord(n, x, y, value, math.gcd(abs(x), abs(y)) == 1,
                              degenerate)
               for (n, x, y), (value, degenerate) in found.items()]
    records.sort(key=lambda r: r.key)
    return records


def _collect(found: dict, spec: SearchSpec, cap: int, n: int, x: int, y: int,
             value: int, degenerate: bool) -> None:
    if value == 0 or abs(value) > spec.k or abs(x) > cap:
        return
    if spec.exclude_trivial and x * y == 0:
        return
    found[(n, x, y)] = (value, degenerate)


def _trivial_axis_solutions(found: dict, spec: SearchSpec, cap: int, n: int,
                            form: BinaryCubicForm, degenerate: bool) -> None:
    """Solutions on the axes x = 0 and y = 0, when trivial pairs are kept."""
    if spec.exclude_trivial or spec.k == 0:
        return
    # F(0, y) = a3 y^3 with a3 a nonzero integer, so |y|^3 <= k
    y_top = min(spec.y_max, _iroot(spec.k, 3))
    for y in range(-y_top, y_top + 1):
        v = form.evaluate(0, y)
        if v != 0 and abs(v) <= spec.k:
            found[(n, 0, y)] = (v, degenerate)
    x = 1
    while abs(form.evaluate(x, 0)) <= spec.k:
        for s in (x, -x):
            v = form.evaluate(s, 0)
            if v != 0 and abs(v) <= spec.k and abs(s) <= cap:
                found[(n, s, 0)] = (v, degenerate)
        x += 1


def _degenerate_lines(found: dict, spec: SearchSpec, cap: int, n: int,
                      beta: FieldElement, form: BinaryCubicForm) -> None:
    """Enumerate the degenerate index exactly: F = (x - b y)^3 with b in Z."""
    b = beta.c0
    assert b.denominator == 1, "degenerate root of an integral form is an integer"
    b = int(b)
    tmax = _iroot(spec.k, 3)
    for y in range(-spec.y_max, spec.y_max + 1):
        for t in range(-tmax, tmax + 1):
            if t == 0:
                continue
            x = b * y + t
            _collect(found, spec, cap, n, x, y, form.evaluate(x, y), True)


# -- certified pruned enumeration -------------------------------------------------


class _Anchors(NamedTuple):
    """Certified data of one index, as integers scaled by 2^shift."""

    shift: int
    p_lo: int  # bracket of the real root b
    p_hi: int
    r_lo: int  # bracket of Re b'
    r_hi: int
    num2: int  # num2 / 2^s2 <= Im(b')^2, with num2 > 0
    s2: int
    y_scan: int  # every solution with |y| > y_scan is a convergent multiple


def _stripe_data(beta: FieldElement, spec: SearchSpec) -> _Anchors:
    """Dyadic anchors for the scan of one index, and its certified range.

    y_scan bounds Y* = max(8k/g^2, (2k/(g Im^2))^(1/3)) from above, where
    g = |b - b'| and Im = |Im b'| enter through lower bounds."""
    shift = 64 + max(48, (2 * spec.y_max).bit_length() + 100)

    def step(bits: int) -> tuple[RI, CBox] | None:
        real, cplx = beta.embed(Fraction(1, 1 << bits))
        return (real, cplx) if cplx.im.sign_definite() else None

    real, cplx = refine(step, shift, f"imaginary part not separated for {beta}")
    scale = 1 << shift
    im2 = abs(cplx.im).lo ** 2
    # dyadic lower bound num2 / 2^s2 <= Im^2, with num2 > 0
    s2 = 80
    num2 = math.floor(im2 * (1 << s2))
    while num2 <= 0:
        s2 *= 2
        num2 = math.floor(im2 * (1 << s2))
    gap = max(real.lo - cplx.re.hi, cplx.re.lo - real.hi, 0)
    g2 = gap * gap + im2  # <= |b - b'|^2
    k = spec.k
    y_scan = max(math.floor(8 * k / g2),
                 _iroot(math.floor(4 * k * k / (g2 * im2 * im2)), 6))
    return _Anchors(shift, math.floor(real.lo * scale),
                    math.ceil(real.hi * scale), math.floor(cplx.re.lo * scale),
                    math.ceil(cplx.re.hi * scale), num2, s2, y_scan)


def _floor_real_root(c: tuple[int, int, int, int]) -> int:
    """Floor of the single real root r of c0 t^3 + c1 t^2 + c2 t + c3.

    The cubic is c0 (t - r) |t - z|^2, so sign(c0 P(t)) = sign(t - r), and r
    is irrational: exact sign tests bracket it between consecutive integers."""
    c0, c1, c2, c3 = c
    sign = 1 if c0 > 0 else -1

    def above(t: int) -> bool:
        return sign * (((c0 * t + c1) * t + c2) * t + c3) > 0

    lo, hi = -1, 1
    while above(lo):
        lo *= 2
    while not above(hi):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _convergents(form: BinaryCubicForm, q_max: int):
    """Convergents p/q, 0 < q <= q_max, of the real root of F(t, 1).

    Lagrange's method: each partial quotient a is the floor of the real root
    of an integer cubic P, and u^3 P(a + 1/u) is the next cubic, whose real
    root 1/(root - a) > 1 is the next complete quotient."""
    c = form.coefficients
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = _floor_real_root(c)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > q_max:
            return
        yield p1, q1
        c0, c1, c2, c3 = c
        c = (((c0 * a + c1) * a + c2) * a + c3,
             (3 * c0 * a + 2 * c1) * a + c2,
             3 * c0 * a + c1,
             c0)


def solve_box(fam: FormFamily, spec: SearchSpec) -> list[SolutionRecord]:
    """Pruned exhaustive enumeration; equals the oracle on the same box.

    Per index, the candidates come from two sources (see the module
    docstring for the proof that together they hold every solution):

    * the stripe scan of every y with |y| <= min(y_scan, y_max);
    * the points +-m (p, q) with p/q a convergent of the real root, m^3 <= k
      and y_scan < m q <= y_max.

    Every candidate is confirmed by exact integer evaluation.  The records
    carry no decomposition: `cli.cmd_solve` reduces the rows it prints."""
    found, cap, rows = _box(fam, spec)
    zk = math.isqrt(spec.k) + 1
    for n, beta, form, root in rows:
        try:
            shift, p_lo, p_hi, r_lo, r_hi, num2, s2, y_scan = _stripe_data(
                beta, spec)
        except PrecisionExhausted:
            _oracle_index(found, spec, cap, n, root, form)
            continue
        one = 1 << shift
        evaluate = form.evaluate
        y_scan = min(y_scan, spec.y_max)
        for y in range(-y_scan, y_scan + 1):
            if y == 0:
                continue
            # every solution has |x - b y| <= k / (y Im b')^2: r_scaled
            # bounds that radius, and the integers nearest b*y are kept
            # only when within it
            t_lo, t_hi = (p_lo * y, p_hi * y) if y > 0 else (p_hi * y, p_lo * y)
            r_scaled = ((spec.k << (shift + s2)) // (y * y * num2)) + 1
            x_first = t_lo // one
            x_last = -((-t_hi) // one)
            for x in range(x_first, x_last + 1):
                d = max(t_lo - x * one, x * one - t_hi, 0)
                if d <= r_scaled:
                    _collect(found, spec, cap, n, x, y, evaluate(x, y), False)
            # the other integers have |x - b y| >= 1, so |x - b' y|^2 <= k:
            # the band |x - Re(b') y| <= sqrt(k), cut to the same radius
            # around b y
            c_lo, c_hi = (r_lo * y, r_hi * y) if y > 0 else (r_hi * y, r_lo * y)
            z_first = max((c_lo - (zk << shift)) // one,
                          -((r_scaled - t_lo) // one))
            z_last = min(-((-(c_hi + (zk << shift))) // one),
                         (t_hi + r_scaled) // one)
            for x in range(z_first, z_last + 1):
                if x_first <= x <= x_last:
                    continue
                _collect(found, spec, cap, n, x, y, evaluate(x, y), False)
        if y_scan < spec.y_max:
            for p, q in _convergents(form, spec.y_max):
                value = evaluate(p, q)  # nonzero: the form is irreducible
                m = 1
                while m * q <= spec.y_max and m ** 3 * abs(value) <= spec.k:
                    if m * q > y_scan:
                        for s in (m, -m):
                            _collect(found, spec, cap, n, s * p, s * q,
                                     evaluate(s * p, s * q), False)
                    m += 1
        _trivial_axis_solutions(found, spec, cap, n, form, False)
    return _finish(found)


# -- oracle -----------------------------------------------------------------------


def _window(c0: int, c1: int, c2: int, c3: int, lo: int, hi: int, k: int,
            seed: int) -> tuple[int, int] | None:
    """Integer subinterval of [lo, hi] where -k <= g(x) <= k, or None, for
    the integer cubic g(x) = ((c0 x + c1) x + c2) x + c3, increasing on the
    integers of [lo, hi].

    The two end values exclude most pieces: g(hi) < -k first, then
    g(lo) > k.  Otherwise left, the least x with g(x) >= -k, and right + 1,
    the least with g(x) >= k + 1 (hi + 1 when there is none), are each
    bracketed by exact galloping, from the seed clamped to [lo, hi] for left
    and from left for right, then found by exact binary search.  A bad seed
    costs time, never correctness."""
    if lo > hi or ((c0 * hi + c1) * hi + c2) * hi + c3 < -k \
            or ((c0 * lo + c1) * lo + c2) * lo + c3 > k:
        return None
    u, s = lo, min(max(seed, lo), hi)
    firsts = []
    for t in (-k, k + 1):
        # every x < u has g(x) < t; v = hi + 1 or g(v) >= t
        v, step = hi + 1, 1
        if ((c0 * s + c1) * s + c2) * s + c3 >= t:
            v = s
            while s - step > u:
                x = s - step
                if ((c0 * x + c1) * x + c2) * x + c3 < t:
                    u = x + 1
                    break
                v, step = x, step << 1
        else:
            u = s + 1
            while s + step <= hi:
                x = s + step
                if ((c0 * x + c1) * x + c2) * x + c3 >= t:
                    v = x
                    break
                u, step = x + 1, step << 1
        while u < v:
            m = (u + v) // 2
            if ((c0 * m + c1) * m + c2) * m + c3 >= t:
                v = m
            else:
                u = m + 1
        firsts.append(u)
        s = u  # left <= hi, as g(hi) >= -k
    left, right = firsts[0], firsts[1] - 1
    return (left, right) if left <= right else None


def _oracle_index(found: dict, spec: SearchSpec, cap: int, n: int,
                  root: Fraction, form: BinaryCubicForm) -> None:
    """Monotone-piece exhaustive search for one index; no enclosures used.

    F is homogeneous of odd degree, so F(-x, -y) = -F(x, y), and the box
    and every test of `_collect` are unchanged by negation: only the rows
    y = 1..y_max are searched, and each hit (x, y, v) is recorded together
    with (-x, -y, -v).  Along row y, F(x, y) is the exact integer cubic
    P(x) = ((a0 x + b1) x + b2) x + b3 with b1 = a1 y, b2 = a2 y^2 and
    b3 = a3 y^3, computed once per row.

    P' = 3 a0 x^2 + 2 a1 y x + a2 y^2 is an upward parabola, so the row
    splits into increasing / decreasing / increasing at the two critical
    points.  Integer bounds for the pieces come from the exact integer
    square root; the few integers between the outer and inner bounds around
    each critical point are evaluated directly.  `_window` searches each
    piece on sign * P, increasing there, starting at floor(root * y), with
    root the midpoint of beta_n's real image from `_cap` (the real root of
    F_n(t, 1) within 2^-48): an exact integer seed per row, which only
    steers the search."""
    a0, a1, a2, a3 = form.coefficients
    assert a0 > 0, "family forms are monic"
    disc = a1 * a1 - 3 * a0 * a2  # critical points exist iff positive
    k = spec.k
    for y in range(1, spec.y_max + 1):
        b1, b2, b3 = a1 * y, a2 * y * y, a3 * y**3
        seed = root.numerator * y // root.denominator
        if disc > 0:
            s = math.isqrt(disc * y * y)
            outer_left = (-b1 - s - 1) // (3 * a0)
            inner_left = -((b1 + s) // (3 * a0))
            inner_right = (-b1 + s) // (3 * a0)
            outer_right = -((b1 - s - 1) // (3 * a0))
            windows = [
                _window(a0, b1, b2, b3, -cap, min(outer_left, cap), k, seed),
                _window(-a0, -b1, -b2, -b3, max(inner_left, -cap),
                        min(inner_right, cap), k, seed),
                _window(a0, b1, b2, b3, max(outer_right, -cap), cap, k, seed)]
            xs = [*range(max(outer_left + 1, -cap), min(inner_left, cap + 1)),
                  *range(max(inner_right + 1, -cap), min(outer_right, cap + 1))]
        else:
            windows = [_window(a0, b1, b2, b3, -cap, cap, k, seed)]
            xs = []
        for window in windows:
            if window is not None:
                xs.extend(range(window[0], window[1] + 1))
        for x in xs:
            v = ((a0 * x + b1) * x + b2) * x + b3
            _collect(found, spec, cap, n, x, y, v, False)
            _collect(found, spec, cap, n, -x, -y, -v, False)
    _trivial_axis_solutions(found, spec, cap, n, form, False)


def _lane_bound(forms: list[tuple[int, BinaryCubicForm]], cap: int,
                y_max: int) -> int:
    """M >= |F_n(x, y)| on every cell |x| <= cap, |y| <= y_max of `forms`.

    The triangle inequality applied to F's four terms."""
    return max(abs(a0) * cap**3 + abs(a1) * cap**2 * y_max
               + abs(a2) * cap * y_max**2 + abs(a3) * y_max**3
               for a0, a1, a2, a3 in (form.coefficients for _, form in forms))


def _pack(lanes: list[int], width: int) -> int:
    """sum_i lanes[i] * 2^(width i), exactly, for signed lanes too."""
    packed = 0
    for value in reversed(lanes):
        packed = (packed << width) + value
    return packed


def _naive_scan(found: dict, spec: SearchSpec, cap: int,
                forms: list[tuple[int, BinaryCubicForm]]) -> None:
    """Literal scan of every cell (n, x, y), |x| <= cap, 0 < |y| <= y_max.

    Along a row (n, y), F(x, y) = a0 x^3 + a1 y x^2 + a2 y^2 x + a3 y^3 is a
    cubic in x with constant third forward difference 6 a0: from F and its
    first two differences at x = -cap, three exact additions step the row to
    x + 1.  All rows share the x range, so all of them step together.  Row
    i is lane i, the `width` bits at 2^(width i), of the integers

        V = sum_i (F_i(x) + B) 2^(width i),  D1 = sum_i d1_i(x) 2^(width i),

    D2 likewise from the second differences and D3 from 6 a0.  D1 and D2
    are exact signed sums, and `V += D1; D1 += D2; D2 += D3` is the row step
    of every lane at once, as an identity of integers.

    No lane carries into or borrows from its neighbour.  M = `_lane_bound`
    bounds |F| on every cell, and B = 2^bitlen(M + k) > M + k, so every lane
    value F + B lies in (0, 2B): the base-2^width digits of V are the lane
    values, and bit 2B of a lane, its guard bit, is never set (width =
    bitlen(B) + 1 holds it).  With H the packed guard bits 2B, C_lo the
    packed B - k > 0 and C_hi the packed 3B + k, the lanes of (V | H) - C_lo
    are F + 2B + k and those of C_hi - V are 2B + k - F, all in
    (B + k, 3B + k), inside [0, 2^width): neither difference borrows across
    lanes.  The first has the guard bit iff F >= -k, the second iff F <= k,
    so the guard bits of ((V | H) - C_lo) & (C_hi - V) & H are exactly the
    lanes with |F| <= k.  Only those lanes are unpacked, and their exact
    values reach `_collect`, which keeps the nonzero ones."""
    k = spec.k
    x0 = -cap
    b = 1 << (_lane_bound(forms, cap, spec.y_max) + k).bit_length()
    width = b.bit_length() + 1
    rows, v, d1, d2, d3 = [], [], [], [], []
    for n, form in forms:
        a0, a1, a2, a3 = form.coefficients
        for y in range(-spec.y_max, spec.y_max + 1):
            if y == 0:
                continue
            b1, b2, b3 = a1 * y, a2 * y * y, a3 * y**3
            rows.append((n, y))
            # F(x0), F(x0 + 1) - F(x0) and the second difference at x0
            v.append(((a0 * x0 + b1) * x0 + b2) * x0 + b3 + b)
            d1.append(a0 * (3 * x0 * (x0 + 1) + 1) + b1 * (2 * x0 + 1) + b2)
            d2.append(6 * a0 * (x0 + 1) + 2 * b1)
            d3.append(6 * a0)
    v, d1, d2, d3 = (_pack(lanes, width) for lanes in (v, d1, d2, d3))
    guards = _pack([2 * b] * len(rows), width)
    c_lo = _pack([b - k] * len(rows), width)
    c_hi = _pack([3 * b + k] * len(rows), width)
    low_bits = 2 * b - 1
    for x in range(x0, cap + 1):
        hits = ((v | guards) - c_lo) & (c_hi - v) & guards
        while hits:
            top = hits.bit_length() - 1
            hits ^= 1 << top
            i = top // width
            n, y = rows[i]
            _collect(found, spec, cap, n, x, y,
                     ((v >> (width * i)) & low_bits) - b, False)
        v += d1
        d1 += d2
        d2 += d3
    for n, form in forms:
        _trivial_axis_solutions(found, spec, cap, n, form, False)


def brute_force_oracle(fam: FormFamily, spec: SearchSpec,
                       naive: bool = False) -> list[SolutionRecord]:
    """Ground-truth enumeration over the same box as `solve_box`.

    The default path is exhaustive-equivalent: on each monotone piece of
    the row's integer cubic, evaluated by Horner's rule from coefficients
    computed once per row, it brackets the window |F| <= k by exact binary
    search, so its output equals a literal scan of every x in the box.  It
    searches the rows y > 0 and mirrors each hit by F(-x, -y) = -F(x, y).
    `naive=True`
    performs that literal scan (use only on small boxes): one `_naive_scan`
    of the whole box, every cell (n, x, y) of every non-degenerate index
    stepped by exact forward differences, all rows together in packed
    lanes, with no pruning, window or symmetry.  Like `solve_box`, it
    returns records without a decomposition."""
    found, cap, rows = _box(fam, spec)
    if naive and rows:
        _naive_scan(found, spec, cap, [(n, form) for n, _, form, _ in rows])
    elif not naive:
        for n, _, form, root in rows:
            _oracle_index(found, spec, cap, n, root, form)
    return _finish(found)
