"""Unit-indexed families of binary cubic forms.

A family is built from a cubic field K, an integral generator alpha whose
norm form is the base form, and a unit epsilon > 1.  The n-th member is the
norm form of X - epsilon^n * alpha * Y; its coefficients are obtained from
exact traces and norms (symmetric functions of the conjugates), never from
floating root products, so index-shift identities hold exactly.

The D-parametrized example family has generator alpha = epsilon where
epsilon is the inverse of the real root of X^3 + 3D X^2 + 3D^2 X - 1.  Its
coefficient slots satisfy

    F_n = X^3 - a_n X^2 Y - b_n X Y^2 - Y^3,
    a_n = trace(epsilon^(n+1)),   b_n = -a_(-n-2),
    a_(n+3) = 3D^2 a_(n+2) + 3D a_(n+1) + a_n.

Note the recurrence multipliers: the order (3D^2, 3D) is forced by the
minimal polynomial X^3 - 3D^2 X^2 - 3D X - 1 of epsilon and by the initial
values a_0 = 3D^2, a_(-1) = 3, a_(-2) = -3D; the frequently quoted reversed
order (3D, 3D^2) is inconsistent with trace(epsilon^2) already at D = 2.
`coefficient_sequence` records this discrepancy in its metadata.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction

from .cubicfield import (
    CubicField,
    FieldElement,
    SplittingAlgebra,
    has_rational_root,
    make_field,
)
from .errors import InvalidParameter, NotAUnit
from .intervals import RI, refine, ri_log, ri_sqrt
from .reporting import frac_str


@dataclass(frozen=True, slots=True)
class BinaryCubicForm:
    """a0 X^3 + a1 X^2 Y + a2 X Y^2 + a3 Y^3 with integer coefficients."""

    a0: int
    a1: int
    a2: int
    a3: int

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def evaluate(self, x: int, y: int) -> int:
        return (self.a0 * x**3 + self.a1 * x * x * y
                + self.a2 * x * y * y + self.a3 * y**3)

    def is_irreducible(self) -> bool:
        """Reducibility of a cubic over Q reduces to having a rational root."""
        if self.a0 == 0:
            return False
        return not has_rational_root(self.coefficients)

    def swapped(self) -> "BinaryCubicForm":
        """G(X, Y) = F(Y, X): coefficient reversal.

        Swapping the variables reduces negative indices to positive ones."""
        return BinaryCubicForm(self.a3, self.a2, self.a1, self.a0)

    def __neg__(self) -> "BinaryCubicForm":
        return BinaryCubicForm(-self.a0, -self.a1, -self.a2, -self.a3)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coefficients)


@dataclass(frozen=True, slots=True)
class FormFamily:
    """Family data: field, integral generator alpha, unit epsilon > 1.

    The family is also the context that solving, tracing and verifying
    share: every member has the same epsilon and alpha, so their enclosures
    per working precision (`at`), the roots beta_n = epsilon^n alpha
    (`beta`), the powers of epsilon (`unit_power`) and the splitting algebra
    (`algebra`) are made on first use and memoised on the family, as
    `CubicField.complex_root` memoises root boxes.  Each value depends on
    (epsilon, alpha, n, bits) alone, so the memo changes no result.  It
    takes no part in `==`, `hash` or the repr, and `dataclasses.replace`
    gives the new family an empty one."""

    field: CubicField
    alpha: FieldElement
    epsilon: FieldElement
    D: int | None = None
    _memo: dict = dataclasses.field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def beta(self, n: int) -> FieldElement:
        """epsilon^n * alpha, the real root of the n-th form."""
        return self._memoised(("beta", n),
                              lambda: self.unit_power(n) * self.alpha)

    def is_degenerate_index(self, n: int) -> bool:
        """True when epsilon^n * alpha is rational and the form degenerates."""
        return self.beta(n).is_rational()

    def _memoised(self, key, make):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
        return value

    def at(self, bits: int) -> "FamilyImages":
        """The family's enclosures at working precision `bits`."""
        return self._memoised(("at", bits), lambda: FamilyImages(self, bits))

    def unit_power(self, ell: int) -> FieldElement:
        """epsilon^ell."""
        return self._memoised(("power", ell), lambda: self.epsilon ** ell)

    def algebra(self) -> SplittingAlgebra:
        """The splitting algebra of the family's field."""
        return self._memoised("algebra", lambda: SplittingAlgebra(self.field))


class FamilyImages:
    """Real (`_r`) and complex (`_c`) images of epsilon and alpha at one
    working precision, with R = log epsilon, sqrt(epsilon), |alpha'| and,
    per norm m on demand, (1/3) log m."""

    def __init__(self, fam: FormFamily, bits: int):
        width = Fraction(1, 1 << bits)
        self.bits = bits
        self.eps_r, self.eps_c = fam.epsilon.embed(width)
        self.alpha_r, self.alpha_c = fam.alpha.embed(width)
        self.log_eps = ri_log(self.eps_r, bits)
        self.sqeps = ri_sqrt(self.eps_r, bits)
        self.abs_alpha_c = self.alpha_c.abs(bits)
        self._log_m3: dict[Fraction, RI] = {}

    def half_power(self, two_j: int) -> RI:
        """epsilon^(two_j / 2), that is |epsilon'|^(-two_j)."""
        return self.sqeps.pow_int(two_j)

    def log_m3(self, m: Fraction) -> RI:
        value = self._log_m3.get(m)
        if value is None:
            value = self._log_m3[m] = ri_log(RI.point(m), self.bits) / 3
        return value


def make_family(field: CubicField, alpha: FieldElement, epsilon: FieldElement,
                D: int | None = None) -> FormFamily:
    """Validated family constructor."""
    if not alpha.is_integral():
        raise InvalidParameter("alpha must be an algebraic integer")
    if abs(epsilon.norm()) != 1 or not epsilon.is_integral():
        raise NotAUnit(f"epsilon has norm {epsilon.norm()}")

    def exceeds_one(bits: int) -> bool | None:
        real = epsilon.real_image(bits)
        if real.hi <= 1:
            raise NotAUnit("epsilon is not > 1 in the real embedding")
        return True if real.lo > 1 else None

    refine(exceeds_one, 32, "epsilon > 1 did not certify")
    return FormFamily(field, alpha, epsilon, D)


def form_at(fam: FormFamily, n: int) -> BinaryCubicForm:
    """n-th family member from exact symmetric functions of epsilon^n*alpha."""
    return norm_form(fam.beta(n))


def norm_form(beta: FieldElement) -> BinaryCubicForm:
    """N(X - beta Y) from exact symmetric functions of the integral beta.

    N(X - beta Y) = Y^3 chi(X / Y) for beta's characteristic polynomial chi,
    whose coefficients come from the multiplication matrix with no inverse."""
    coeffs = (Fraction(1), *beta.charpoly())
    if any(c.denominator != 1 for c in coeffs):
        raise InvalidParameter(f"non-integral coefficients for beta = {beta}")
    return BinaryCubicForm(*(int(c) for c in coeffs))


def example_family(D: int) -> FormFamily:
    """The D-parametrized family with alpha = epsilon.

    epsilon is the inverse of the real root of X^3 + 3D X^2 + 3D^2 X - 1,
    i.e. epsilon = (cbrt(D^3 + 1) - D)^(-1)."""
    if D == -1:
        raise InvalidParameter("D = -1: the defining value D^3 + 1 vanishes")
    if D == 0:
        raise InvalidParameter("D = 0: epsilon = 1 is not a unit > 1")
    field = make_field((1, 3 * D, 3 * D * D, -1))
    g = field.gen()
    epsilon = g * g + 3 * D * g + 3 * D * D  # exact inverse of g
    assert (epsilon * g).is_rational() and (epsilon * g).c0 == 1
    return make_family(field, alpha=epsilon, epsilon=epsilon, D=D)


@dataclass(frozen=True, slots=True)
class CoefficientSequence:
    """Exact a_n slots plus recurrence metadata for the example family."""

    D: int
    n_lo: int
    n_hi: int
    values: dict[int, int]
    recurrence: tuple[int, int, int]  # multipliers of a_{n+2}, a_{n+1}, a_n
    printed_order_mismatch: dict

    def b(self, n: int) -> int:
        """Companion slot b_n = -a_(-n-2) (requires -n-2 in range)."""
        return -self.values[-n - 2]


def coefficient_sequence(D: int, n_lo: int, n_hi: int) -> CoefficientSequence:
    """a_n = trace(epsilon^(n+1)) on [n_lo, n_hi], checked vs the recurrence."""
    if D in (-1, 0):
        raise InvalidParameter(f"D = {D} outside the family domain")
    fam = example_family(D)
    values = {n: int(fam.epsilon.__pow__(n + 1).trace()) for n in range(n_lo, n_hi + 1)}
    rec = (3 * D * D, 3 * D, 1)
    for n in range(n_lo, n_hi - 2):
        expected = rec[0] * values[n + 2] + rec[1] * values[n + 1] + rec[2] * values[n]
        if expected != values[n + 3]:
            raise AssertionError(f"trace sequence violates its recurrence at n={n}")
    # The reversed multiplier order (3D, 3D^2) circulates in the literature;
    # it already fails against trace(epsilon^2) when D != 0, +-1.
    a0, am1, am2 = (int(fam.epsilon.__pow__(m + 1).trace()) for m in (0, -1, -2))
    reversed_pred = 3 * D * a0 + 3 * D * D * am1 + am2
    true_a1 = int((fam.epsilon ** 2).trace())
    mismatch = {
        "reversed_order": (3 * D, 3 * D * D, 1),
        "reversed_order_predicts_a1": reversed_pred,
        "trace_a1": true_a1,
        "orders_agree": reversed_pred == true_a1,
    }
    return CoefficientSequence(D, n_lo, n_hi, values, rec, mismatch)


def swap_identity_check(fam: FormFamily, n: int) -> tuple[bool, dict]:
    """Verify F_(-n)(X, Y) = -F_(n-2)(Y, X) coefficient-by-coefficient."""
    lhs = form_at(fam, -n)
    rhs = -form_at(fam, n - 2).swapped()
    ok = lhs.coefficients == rhs.coefficients
    witness = {"n": n, "lhs": lhs.coefficients, "rhs": rhs.coefficients}
    return ok, witness


# -- serialization ---------------------------------------------------------------


def _coords_json(el: FieldElement) -> list[str]:
    return [frac_str(c) for c in el.coords]


def family_to_json(fam: FormFamily) -> str:
    record = {
        "schema": 1,
        "min_poly": list(fam.field.min_poly),
        "alpha": _coords_json(fam.alpha),
        "epsilon": _coords_json(fam.epsilon),
    }
    if fam.D is not None:
        record["D"] = fam.D
    return json.dumps(record)


def family_from_json(text: str) -> FormFamily:
    """The family of a `family_to_json` record; `InvalidParameter` for a
    record that is not an object, lacks a key, or whose alpha or epsilon is
    not a list of three rationals or whose min_poly is not a list."""
    record = json.loads(text)
    if (not isinstance(record, dict)
            or not {"min_poly", "alpha", "epsilon"} <= record.keys()):
        raise InvalidParameter("a family record is an object with the keys "
                               "min_poly, alpha and epsilon")
    if "original_a0" in record:
        # a record of a non-monic form's monic model: nothing maps solutions
        # of the model back, so solving it would answer another inequality
        raise InvalidParameter("non-monic families (original_a0) are not "
                               "supported")

    def parse(key: str) -> FieldElement:
        coords = record[key]
        if not isinstance(coords, list) or len(coords) != 3:
            raise InvalidParameter(f"{key} must list three coordinates")
        return field.element(*(Fraction(c) for c in coords))

    try:
        field = make_field(tuple(record["min_poly"]))
        alpha, epsilon = parse("alpha"), parse("epsilon")
    except (TypeError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"malformed family record: {exc}") from None
    fam = make_family(field, alpha, epsilon, D=record.get("D"))
    # verify's D-only checks run on example_family(D), so D must name fam
    if fam.D is not None and fam != example_family(fam.D):
        raise InvalidParameter(f"the family is not example_family({fam.D})")
    return fam
