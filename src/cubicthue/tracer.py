"""Numerical replay of the unit-equation argument for a concrete solution.

Eliminating x and y from the three conjugate linear forms of a solution
produces a vanishing sum T1 + T2 + T3 = 0 of three purely imaginary
quantities.  Each term is evaluated twice, independently: once as a product
of conjugate enclosures and once in polar form through certified angles and
sines.  The trace records which two terms dominate, the chain of elementary
inequalities with the constant each row would need to be tight, and, in the
case where T2 and T3 dominate, the associated linear form in logarithms
together with its integer period count h.

All case decisions run on certified intervals with automatic precision
escalation; a decision that cannot be made at the precision cap
(`intervals.MAX_BITS`) raises instead of guessing.

The stages read the family's enclosures of epsilon and alpha from the
family itself (`FormFamily.at`), which the unit reduction has already
filled, and one `SolutionImages` per solution, which embeds xi once per
working precision (the lambda stage, the only reader of beta_n's images,
embeds beta_n itself); every enclosure depends on (element, bits) alone,
so sharing them changes no output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import DEFAULT_BITS, DEFAULT_PRECISION, FieldElement
from .errors import (
    AmbiguousOrdering,
    InvalidParameter,
    NotASolution,
    NotThirdCase,
    PrecisionExhausted,
)
from .family import FormFamily, norm_form
from .heights import HeightReport, height_from_conjugates, to_int_primitive
from .reduction import Decomposition, decompose_solution
from .intervals import (
    CBox,
    RI,
    refine,
    ri_log,
    ri_pi,
    ri_sin,
)
from .reporting import cbox_json, coords_json, frac_str, ri_json

CASE_T1T2 = "T1T2_dominant"
CASE_T1T3 = "T1T3_dominant"
CASE_T2T3 = "T2T3_dominant"


@dataclass(frozen=True, slots=True)
class TraceCheck:
    check_id: str
    holds: bool
    margin: RI | None = None
    note: str = ""


@dataclass(frozen=True, slots=True)
class LedgerRow:
    """One inequality of the elementary-estimates chain, as a report.

    `empirical_constant` is the value that would make the row tight; the
    chain's constants are existence-only, so rows report rather than assert
    unless `holds` is a genuine two-sided comparison."""

    row_id: str
    description: str
    lhs: RI | None
    rhs_structure: str
    holds: bool | None
    margin: RI | None = None
    empirical_constant: RI | None = None
    note: str = ""


@dataclass(frozen=True, slots=True)
class SiegelTrace:
    n: int
    ell: int
    t1: CBox
    t2: CBox
    t3: CBox
    sine_ims: tuple[RI, RI, RI]
    abs_terms: tuple[RI, RI, RI]
    theta: RI
    delta: RI
    v: RI
    case: str
    ledger: tuple[TraceCheck, ...]
    degenerate_sines: tuple[str, ...]
    precision_bits: int

    @property
    def terms(self) -> tuple[CBox, CBox, CBox]:
        return (self.t1, self.t2, self.t3)


@dataclass(frozen=True, slots=True)
class LambdaData:
    Lambda: CBox
    h: int
    nu: RI
    theta_n: RI
    mu_height: HeightReport
    checks: tuple[TraceCheck, ...]
    rows: tuple[LedgerRow, ...]


# -- the enclosures of one solution ---------------------------------------------


class Images:
    """Real (`xi_r`) and complex (`xi_c`) images of xi at one working
    precision, |xi'| and `top` = k^kappa9 = max{house(xi), 1/|xi|, 1/|xi'|},
    which row 20, the ledger and `house` read at every level; epsilon's and
    alpha's are the family's."""

    def __init__(self, xi: FieldElement, bits: int):
        self.xi_r, self.xi_c = xi.embed(Fraction(1, 1 << bits))
        self.abs_xi_c = b = self.xi_c.abs(bits)
        a = abs(self.xi_r)
        self.top = a.max_with(b).max_with(a.recip()).max_with(b.recip())


class SolutionImages:
    """One audited solution: beta_n = epsilon^n alpha from the family, the
    decomposition of x - beta_n y, and the `Images` of its xi, made once per
    working precision."""

    def __init__(self, fam: FormFamily, n: int, dec: Decomposition):
        self.fam, self.n, self.dec, self.beta = fam, n, dec, fam.beta(n)
        self._levels: dict[int, Images] = {}
        self._house: dict[tuple[int, int], tuple[RI, RI]] = {}

    def at(self, bits: int) -> Images:
        if bits not in self._levels:
            self._levels[bits] = Images(self.dec.xi, bits)
        return self._levels[bits]

    def house(self, k: int, bits: int) -> tuple[RI, RI]:
        """(log k, kappa9_emp), kappa9_emp = log(top) / log k, so k^kappa9_emp
        is `Images.top` at `bits`; bounded over a sweep when reduction works."""
        if (k, bits) not in self._house:
            top, log_k = self.at(bits).top, ri_log(RI.point(k), bits)
            self._house[k, bits] = log_k, ri_log(top, bits) / log_k
        return self._house[k, bits]


# -- angle helpers -----------------------------------------------------------------


def _angle_mod_2pi(box: CBox, bits: int) -> RI | None:
    """Enclosure of the argument with representative in [0, 2pi).

    None when the box straddles the negative real axis (caller refines)."""
    if box.im.is_positive():
        return box.arg(bits)
    if box.im.is_negative():
        return box.arg(bits) + 2 * ri_pi(bits)
    if box.re.is_positive():
        # angle near 0: a slightly negative lower endpoint may remain
        return box.arg(bits)
    return None


def _angle_of_element_image(x: FieldElement, box: CBox, bits: int) -> RI | None:
    """Angle of the complex image of x, exact for rational x."""
    if x.is_rational():
        return RI.point(0) if x.c0 > 0 else ri_pi(bits)
    return _angle_mod_2pi(box, bits)


def family_angles(fam: FormFamily) -> tuple[RI, RI]:
    """(delta, theta): angles of the complex images of alpha and epsilon."""

    def step(bits: int) -> tuple[RI, RI] | None:
        images = fam.at(bits)
        delta = _angle_of_element_image(fam.alpha, images.alpha_c, bits)
        theta = _angle_of_element_image(fam.epsilon, images.eps_c, bits)
        if (delta is not None and theta is not None
                and delta.width <= DEFAULT_PRECISION
                and theta.width <= DEFAULT_PRECISION):
            return delta, theta
        return None

    return refine(step, DEFAULT_BITS, "family angles did not certify")


# -- ordering ---------------------------------------------------------------------


def order_terms(a1: RI, a2: RI, a3: RI) -> tuple[str, RI] | None:
    """Classify which pair of |T| values dominates.

    Returns (case, domination margin 2|b| - |a|) or None when the smallest
    term cannot be strictly separated at the current enclosure width."""
    mags = (a1, a2, a3)
    smallest = None
    for i in range(3):
        if all(mags[i].certainly_lt(mags[j]) for j in range(3) if j != i):
            smallest = i
            break
    if smallest is None:
        return None
    case = (CASE_T2T3, CASE_T1T3, CASE_T1T2)[smallest]
    dom = [mags[j] for j in range(3) if j != smallest]
    margin = 2 * dom[0].min_with(dom[1]) - dom[0].max_with(dom[1])
    return case, margin


def classify_case(trace: SiegelTrace) -> tuple[str, TraceCheck]:
    """Re-derive the dominant pair from the stored term enclosures."""
    result = order_terms(*trace.abs_terms)
    if result is None:
        raise AmbiguousOrdering("stored term enclosures overlap")
    case, margin = result
    return case, _domination(margin)


def _domination(margin: RI) -> TraceCheck:
    """The check on the margin 2|b| - |a| of the two dominant terms."""
    return TraceCheck("domination", margin.hi >= 0, margin,
                      "largest term at most twice the second")


# -- the trace proper -----------------------------------------------------------


def _term_boxes(images: SolutionImages, bits: int) -> tuple | None:
    """(terms, sine forms, angles) at one working precision, or None when an
    angle straddles the branch cut."""
    fim, im = images.fam.at(bits), images.at(bits)
    n, ell = images.n, images.dec.ell
    eps_r, eps_c = fim.eps_r, fim.eps_c

    z_beta = fim.alpha_c * eps_c.pow_int(n)      # complex image of the form root
    gamma_r = eps_r.pow_int(ell) * im.xi_r       # real image of epsilon^ell xi
    w2 = eps_c.pow_int(ell) * im.xi_c            # complex image of the same
    t1 = CBox.from_real(gamma_r) * (z_beta - z_beta.conj())
    t2 = CBox.from_real(fim.alpha_r * eps_r.pow_int(n)) * (w2.conj() - w2)
    w3 = w2 * z_beta.conj()
    t3 = w3 - w3.conj()

    theta = _angle_mod_2pi(eps_c, bits)
    delta = _angle_of_element_image(images.fam.alpha, fim.alpha_c, bits)
    v = _angle_of_element_image(images.dec.xi, im.xi_c, bits)
    if theta is None or delta is None or v is None:
        return None
    s1 = ri_sin(delta + n * theta, bits)
    s2 = ri_sin(v + ell * theta, bits)
    s3 = ri_sin(v - delta + (ell - n) * theta, bits)
    half_power, abs_alpha_c = fim.half_power, fim.abs_alpha_c
    sine1 = 2 * im.xi_r * abs_alpha_c * half_power(2 * ell - n) * s1
    sine2 = -2 * im.abs_xi_c * fim.alpha_r * half_power(2 * n - ell) * s2
    sine3 = 2 * im.abs_xi_c * abs_alpha_c * half_power(-(n + ell)) * s3
    return (t1, t2, t3), (sine1, sine2, sine3), (theta, delta, v)


def _exact_zero_terms(images: SolutionImages) -> tuple[str, ...]:
    """Exact detection of identically-vanishing terms (degenerate sines)."""
    fam, beta, dec = images.fam, images.beta, images.dec
    flags = []
    gamma = fam.unit_power(dec.ell) * dec.xi
    if beta.is_rational():
        flags.append("T1")  # sin(delta + n*theta) in Z*pi
    if gamma.is_rational():
        flags.append("T2")  # sin(v + ell*theta) in Z*pi
    alg = fam.algebra()
    w3 = alg.sigma(gamma) * alg.sigma_bar(beta)
    if alg.is_real_value(w3):
        flags.append("T3")  # sin(v - delta + (ell-n)*theta) in Z*pi
    return tuple(flags)


def siegel_terms(images: SolutionImages) -> SiegelTrace:
    """Certified trace of the vanishing three-term identity for a solution."""
    degenerate = _exact_zero_terms(images)
    ambiguous = False  # did the last try fail only on the ordering?

    def step(bits: int):
        nonlocal ambiguous
        data = _term_boxes(images, bits)
        ambiguous = False
        if data is None:
            return None
        terms = [CBox.point(0) if name in degenerate else t
                 for name, t in zip(("T1", "T2", "T3"), data[0])]
        re_ok = all(t.re.contains_zero() and t.re.width <= DEFAULT_PRECISION
                    for t in terms)
        abs_terms = tuple(t.abs(bits) for t in terms)
        ordering = order_terms(*abs_terms)
        ambiguous = ordering is None
        if re_ok and ordering is not None:
            return bits, data, terms, abs_terms, ordering
        return None

    try:
        bits, data, terms, abs_terms, ordering = refine(
            step, DEFAULT_BITS, "trace could not be certified")
    except PrecisionExhausted:
        if ambiguous:
            raise AmbiguousOrdering(
                "term magnitudes overlap at maximum precision") from None
        raise
    t1, t2, t3 = terms
    _, sines, (theta, delta, v) = data
    case, dom_margin = ordering

    checks = []
    for name, t in zip(("T1", "T2", "T3"), terms):
        checks.append(TraceCheck(
            f"re_zero_{name}",
            t.re.contains_zero() and t.re.width <= DEFAULT_PRECISION,
            RI.point(t.re.width), "real part encloses 0 within tolerance"))
    total = t1 + t2 + t3
    checks.append(TraceCheck("sum_zero", total.contains_zero(),
                             RI.point(total.width),
                             "T1 + T2 + T3 encloses 0"))
    for name, t, s in zip(("T1", "T2", "T3"), terms, sines):
        overlap = t.im.overlaps(s) and t.re.contains_zero()
        gap = max(Fraction(0), t.im.lo - s.hi, s.lo - t.im.hi)
        checks.append(TraceCheck(
            f"dual_form_{name}", overlap, RI.point(gap),
            "product-form and sine-form enclosures agree"))
    checks.append(_domination(dom_margin))
    return SiegelTrace(images.n, images.dec.ell, t1, t2, t3, tuple(sines),
                       abs_terms, theta, delta, v, case, tuple(checks),
                       degenerate, bits)


# -- elementary-estimates ledger ---------------------------------------------------


def inequality_ledger(images: SolutionImages, x: int, y: int, k: int,
                      trace: SiegelTrace) -> list[LedgerRow]:
    """Evaluate the chain of elementary inequalities, reporting tight constants."""
    if k < 2:
        raise InvalidParameter("the estimates assume k >= 2")
    bits = max(trace.precision_bits, DEFAULT_BITS)
    fim, im = images.fam.at(bits), images.at(bits)
    n, ell = images.n, images.dec.ell
    eps_r, half_power = fim.eps_r, fim.half_power
    abs_alpha, abs_alpha_c = abs(fim.alpha_r), fim.abs_alpha_c
    abs_xi, abs_xi_c = abs(im.xi_r), im.abs_xi_c
    log_k, _ = images.house(k, bits)
    k_pow_kappa9 = im.top

    rows: list[LedgerRow] = []
    if n < 0:
        rows.append(LedgerRow(
            "swap", "negative index: swap reduction applies", None,
            "solutions at -n map to the variable-swapped problem at |n|",
            None, note="rows below evaluate the literal quantities at n < 0"))

    # (8): eps^n |alpha| >= 2 |eps'^n alpha'|
    lhs8 = eps_r.pow_int(n) * abs_alpha
    rhs8 = 2 * abs_alpha_c * half_power(-n)
    margin8 = lhs8 - rhs8
    holds8 = True if margin8.lo >= 0 else (False if margin8.hi < 0 else None)
    rows.append(LedgerRow("8", "real root dominates its conjugate", lhs8,
                          "2 |eps'^n alpha'|", holds8, margin8))
    if holds8 is False:
        lhs_alt = half_power(3 * n)
        rhs_alt = 2 * abs_alpha_c / abs_alpha
        rows.append(LedgerRow(
            "8-alt", "dominance fails: eps^(3n/2) < 2|alpha'|/|alpha|",
            lhs_alt, "2 |alpha'| / |alpha|",
            True if (rhs_alt - lhs_alt).lo > 0 else None,
            rhs_alt - lhs_alt,
            note="this branch feeds the n-bound of row 18 directly"))

    # |y| <= 4 |A| / |B| with A the larger of the reduced conjugate pair
    abs_y = RI.point(abs(y))
    big_a = (eps_r.pow_int(ell) * abs_xi).max_with(half_power(-ell) * abs_xi_c)
    big_b = eps_r.pow_int(n) * abs_alpha
    lhs_y = abs_y
    rhs_y = 4 * big_a / big_b
    margin_y = rhs_y - lhs_y
    row_id = "9" if ell <= 0 else "12"
    kappa_y = (abs_y * half_power(2 * n - abs(ell)) / k_pow_kappa9
               if ell <= 0 else abs_y * half_power(2 * (n - ell)) / k_pow_kappa9)
    rows.append(LedgerRow(
        row_id, "|y| against the balanced numerator bound", lhs_y,
        "4 max(eps^l |xi|, eps^(|l|/2) |xi'|) / (eps^n |alpha|)",
        True if margin_y.lo >= 0 else (False if margin_y.hi < 0 else None),
        margin_y, kappa_y,
        note="constant shown makes |y| <= c * eps^(...) * k^kappa9 tight"))

    # index bound: n <= |l|/2 + c log k   (l <= 0)   /   n <= l + c log k  (l > 0)
    if ell <= 0:
        kappa_n = (RI.point(n) - Fraction(abs(ell), 2)) / log_k
        rows.append(LedgerRow("10", "index bound from the first case",
                              RI.point(n), "|l|/2 + c log k", None,
                              empirical_constant=kappa_n))
    else:
        kappa_n = (RI.point(n) - ell) / log_k
        rows.append(LedgerRow("13", "index bound from the second case",
                              RI.point(n), "l + c log k", None,
                              empirical_constant=kappa_n))

    # |x| <= eps^(-n/2) |alpha' y| + c k^kappa9 eps^(±|l|/2)
    abs_x = RI.point(abs(x))
    base_x = half_power(-n) * abs_alpha_c * abs_y
    tail_scale = half_power(abs(ell)) if ell <= 0 else half_power(-ell)
    kappa_x = (abs_x - base_x) / (k_pow_kappa9 * tail_scale)
    rows.append(LedgerRow(
        "11" if ell <= 0 else "14", "|x| recovered from the conjugate relation",
        abs_x, "eps^(-n/2) |alpha' y| + c k^kappa9 eps^(-+l/2)", None,
        empirical_constant=kappa_x))

    if ell > 0:
        small = half_power(-ell) * abs_xi_c
        branch = small.hi < Fraction(1, 2)
        if branch:
            kappa16 = (RI.point(Fraction(3 * n, 2)) - ell) / log_k
            rows.append(LedgerRow(
                "16", "sharpened index bound (small conjugate branch)",
                RI.point(Fraction(3 * n, 2)), "l + c log k", None,
                empirical_constant=kappa16,
                note="|eps'^l xi'| < 1/2 certified"))
        else:
            rows.append(LedgerRow(
                "16", "small-conjugate branch not taken", small,
                "|eps'^l xi'| >= 1/2 leads directly to the length bound",
                None))

    kappa17a = (RI.point(n) - RI.point(Fraction(2 * abs(ell), 3), bits)) / log_k
    rows.append(LedgerRow("17a", "uniform index bound", RI.point(n),
                          "(2/3)|l| + c log k", None,
                          empirical_constant=kappa17a))
    kappa17b = (RI.point(Fraction(abs(ell), 3), bits) - abs(ell - n)) / log_k
    rows.append(LedgerRow("17b", "gap bound |l - n| >= |l|/3 - c log k",
                          RI.point(abs(ell - n)), "|l|/3 - c log k", None,
                          empirical_constant=kappa17b))

    log_ell = ri_log(RI.point(max(abs(ell), 2)), bits)
    kappa18 = RI.point(n) / (log_k + log_ell)
    rows.append(LedgerRow("18", "index bound in the remaining case",
                          RI.point(n), "c (log k + log max(|l|, 2))", None,
                          empirical_constant=kappa18))
    return rows


# -- linear form in logarithms -------------------------------------------------------


def _angle01(box: CBox, bits: int, imaginary: bool) -> RI | None:
    """Argument divided by 2 pi, representative in [0, 1), of conj(z)/z.

    On a box straddling the negative real axis it is exactly 1/2 when z is
    purely imaginary (conj(z)/z = -1), and undecided otherwise."""
    if box.im.contains_zero() and box.re.is_negative():
        return RI.point(Fraction(1, 2)) if imaginary else None
    a = _angle_mod_2pi(box, bits)
    if a is None:
        return None
    return a / (2 * ri_pi(bits))


def _unique_integer(x: RI) -> int | None:
    lo = math.ceil(x.lo)
    hi = math.floor(x.hi)
    if lo == hi:
        return lo
    return None


def lambda_machinery(images: SolutionImages,
                     trace: SiegelTrace | None = None) -> LambdaData:
    """Linear form in logarithms attached to a third-case solution.

    With rho = xi (beta' - beta'bar) and mu = xi' (beta'bar - beta), the
    vanishing identity becomes rho eps^l + mu eps'^l - conj(mu eps'^l) = 0;
    dividing by -mu eps'^l yields e^Lambda - 1 on one side.  The integer h
    makes Lambda - 2 i pi (l nu + theta_n) = 2 i pi h, and |h| <= |l| + 2.
    Row 20's scale always includes k^kappa9, that is `Images.top`."""
    if trace is not None and trace.case != CASE_T2T3:
        raise NotThirdCase(f"trace case is {trace.case}")
    fam, n, dec, beta = images.fam, images.n, images.dec, images.beta
    ell = dec.ell
    alg = fam.algebra()
    mu_split = alg.sigma(dec.xi) * (alg.sigma_bar(beta) - alg.from_k(beta))
    w_split = mu_split * alg.sigma(fam.unit_power(ell))
    # branch-cut ties: conj(z)/z = -1 exactly when z is purely imaginary
    mu_imaginary = alg.is_imaginary_value(mu_split)
    w_imaginary = alg.is_imaginary_value(w_split)

    def step(bits: int):
        im, fim = images.at(bits), fam.at(bits)
        eps_c = fim.eps_c
        beta_r, beta_c = beta.embed(Fraction(1, 1 << bits))
        rho = CBox.from_real(im.xi_r) * (beta_c - beta_c.conj())
        mu = im.xi_c * (beta_c.conj() - CBox.from_real(beta_r))
        w = mu * eps_c.pow_int(ell)
        if w.contains_zero():
            return None
        q = w.conj() / w
        q1 = eps_c.conj() / eps_c
        nu = _angle01(q1, bits, False)
        theta_n = _angle01(mu.conj() / mu, bits, mu_imaginary)
        lam_arg = _principal_arg(q, bits, w_imaginary)
        if nu is None or theta_n is None or lam_arg is None:
            return None
        two_pi = 2 * ri_pi(bits)
        big_lambda = CBox(ri_log(q.abs2(), bits) / 2, lam_arg)
        h_interval = (big_lambda.im - two_pi * (ell * nu + theta_n)) / two_pi
        h = _unique_integer(h_interval)
        ok_width = max(big_lambda.width, nu.width,
                       theta_n.width) <= DEFAULT_PRECISION
        if h is None or not ok_width:
            return None
        return bits, fim, rho, w, q, nu, theta_n, big_lambda, h

    bits, fim, rho, w, q, nu, theta_n, big_lambda, h = refine(
        step, DEFAULT_BITS, "period count h could not be pinned")

    checks = []
    checks.append(TraceCheck("h_bound", abs(h) <= abs(ell) + 2,
                             RI.point(abs(ell) + 2 - abs(h)),
                             "period count within |l| + 2"))
    residual = (rho * CBox.from_real(fim.eps_r.pow_int(ell)) + w - w.conj())
    checks.append(TraceCheck("identity_residual", residual.contains_zero(),
                             RI.point(residual.width),
                             "rho eps^l + mu eps'^l - conj(...) encloses 0"))
    q_minus_1 = q - CBox.point(1)
    abs_q1 = q_minus_1.abs(bits)
    abs_lambda = big_lambda.abs(bits)
    if abs_q1.hi < Fraction(1, 2):
        margin3b = 2 * abs_q1 - abs_lambda
        checks.append(TraceCheck("log_vs_distance", margin3b.hi >= 0, margin3b,
                                 "|Lambda| <= 2 |e^Lambda - 1|"))
    else:
        checks.append(TraceCheck("log_vs_distance", True, None,
                                 "skipped: |e^Lambda - 1| >= 1/2"))

    # quantitative smallness row with its tight constant
    scale = fim.half_power(-(n + 3 * abs(ell))) * images.at(bits).top
    row20 = LedgerRow(
        "20", "smallness of the unit-equation ratio", abs_q1,
        "c * eps^(-(n + 3|l|)/2) * k^kappa9", None,
        empirical_constant=abs_q1 / scale)

    mp = alg.min_poly(mu_split)
    lead = to_int_primitive(mp)[0]
    mu_height = height_from_conjugates(lead, alg.embeddings(mu_split, bits),
                                       len(mp) - 1, DEFAULT_BITS)
    return LambdaData(big_lambda, h, nu, theta_n, mu_height, tuple(checks),
                      (row20,))


def _principal_arg(box: CBox, bits: int, imaginary: bool) -> RI | None:
    """Principal argument of the ratio conj(z)/z from an enclosure of it.

    On a box straddling the branch cut it is pi when z is purely imaginary
    (conj(z)/z = -1), and undecided otherwise."""
    if not (box.im.contains_zero() and box.re.is_negative()):
        return box.arg(bits)
    return ri_pi(bits) if imaginary else None


# -- certificates ------------------------------------------------------------------


def _check_json(c: TraceCheck) -> dict:
    out = {"id": c.check_id, "holds": c.holds, "note": c.note}
    if c.margin is not None:
        out["margin"] = ri_json(c.margin, 25)
    return out


def _row_json(r: LedgerRow) -> dict:
    out = {"id": r.row_id, "description": r.description,
           "rhs": r.rhs_structure, "holds": r.holds, "note": r.note}
    if r.lhs is not None:
        out["lhs"] = ri_json(r.lhs, 25)
    if r.margin is not None:
        out["margin"] = ri_json(r.margin, 25)
    if r.empirical_constant is not None:
        out["empirical_constant"] = ri_json(r.empirical_constant, 25)
    return out


def trace_certificate(fam: FormFamily, n: int, x: int, y: int,
                      k: int) -> dict:
    """Full JSON-serializable audit of one solution.

    Raises `NotASolution` unless 0 < |F_n(x, y)| <= k.  `precision_bits`
    is the working precision the Siegel step certified at; every enclosure
    is a function of it and of the solution alone."""
    value = norm_form(fam.beta(n)).evaluate(x, y)
    if value == 0 or abs(value) > k:
        raise NotASolution(f"|F_{n}({x}, {y})| = {abs(value)} not in (0, {k}]")
    dec = decompose_solution(fam, n, x, y, value=value)
    images = SolutionImages(fam, n, dec)
    trace = siegel_terms(images)
    rows = inequality_ledger(images, x, y, k, trace)
    _, kappa9 = images.house(k, DEFAULT_BITS)
    cert = {
        "schema": 2,
        "type": "trace",
        "precision_bits": trace.precision_bits,
        "n": n, "x": x, "y": y, "k": k,
        "value": value,
        "ell": dec.ell,
        "xi1": coords_json(dec.xi),
        "norm_abs": frac_str(dec.norm_abs),
        "balance": ri_json(dec.balance, 25),
        "kappa9_emp": ri_json(kappa9, 25),
        "case": trace.case,
        "degenerate_sines": list(trace.degenerate_sines),
        "terms": {
            "T1": cbox_json(trace.t1, 30),
            "T2": cbox_json(trace.t2, 30),
            "T3": cbox_json(trace.t3, 30),
        },
        "angles": {
            "theta": ri_json(trace.theta, 30),
            "delta": ri_json(trace.delta, 30),
            "v": ri_json(trace.v, 30),
        },
        "checks": [_check_json(c) for c in trace.ledger],
        "section2_rows": [_row_json(r) for r in rows],
        "lambda": None,
    }
    if trace.case == CASE_T2T3:
        lam = lambda_machinery(images, trace=trace)
        cert["lambda"] = {
            "h": lam.h,
            "nu": ri_json(lam.nu, 30),
            "theta_n": ri_json(lam.theta_n, 30),
            "Lambda": cbox_json(lam.Lambda, 30),
            "mu_height": ri_json(lam.mu_height.height, 25),
            "mu_degree": lam.mu_height.degree_used,
            "checks": [_check_json(c) for c in lam.checks],
            "rows": [_row_json(r) for r in lam.rows],
        }
    return cert


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, indent=2)
