"""Family construction: exact coefficients, identities, serialization."""

import json
import random
from fractions import Fraction

import pytest

from cubicthue.cubicfield import has_rational_root
from cubicthue.errors import InvalidParameter
from cubicthue.family import (
    BinaryCubicForm,
    coefficient_sequence,
    example_family,
    family_from_json,
    family_to_json,
    form_at,
    swap_identity_check,
)

P25 = Fraction(1, 10**25)


# -- form_at -----------------------------------------------------------------


def test_form_minus_one_is_cube(fam1, fam2, fam3):
    for fam in (fam1, fam2, fam3):
        assert form_at(fam, -1).coefficients == (1, -3, 3, -1)


def test_base_form_d1(fam1):
    assert form_at(fam1, 0).coefficients == (1, -3, -3, -1)


def test_form_d2_n1(fam2):
    # oracle: trace(eps^2) = e1^2 - 2 e2 = 144 + 12 = 156,
    #         trace(eps^-2) = f1^2 - 2 f2 = 36 - 24 = 12
    assert form_at(fam2, 1).coefficients == (1, -156, 12, -1)


def test_forms_match_trace_recurrences():
    for D in range(1, 6):
        fam = example_family(D)
        seq = coefficient_sequence(D, -23, 23)
        for n in range(-20, 21):
            form = form_at(fam, n)
            a_n = seq.values[n]
            b_n = seq.b(n)
            assert form.coefficients == (1, -a_n, -b_n, -1)


def test_form_endpoints_are_units(fam2):
    for n in range(-12, 13):
        form = form_at(fam2, n)
        assert form.evaluate(1, 0) == 1
        assert abs(form.evaluate(0, 1)) == 1


def test_forms_irreducible_except_degenerate(fam1):
    for n in range(-8, 9):
        form = form_at(fam1, n)
        if n == -1:
            assert has_rational_root(form.coefficients)
        else:
            assert not has_rational_root(form.coefficients)


# -- example_family -------------------------------------------------------------


def test_example_family_d1_epsilon(fam1):
    # oracle: 1/(cbrt(2) - 1) = 1 + cbrt(2) + cbrt(4) = 3.847322...
    real = fam1.epsilon.embed(Fraction(1, 10**12))[0]
    assert str(float(real.mid)).startswith("3.8473221")


def test_example_family_rejects_degenerate_parameters():
    with pytest.raises(InvalidParameter):
        example_family(-1)
    with pytest.raises(InvalidParameter):
        example_family(0)


def test_example_family_trace(fam2):
    assert fam2.epsilon.trace() == 12


def test_example_family_negative_parameter():
    fam = example_family(-2)
    real = fam.epsilon.embed(Fraction(1, 10**10))[0]
    assert real.lo > 1
    assert abs(fam.epsilon.norm()) == 1


# -- coefficient sequence ----------------------------------------------------------


def test_sequence_initial_conditions():
    for D in (1, 2, 3, 4, 5, -2):
        seq = coefficient_sequence(D, -3, 3)
        assert seq.values[0] == 3 * D * D
        assert seq.values[-1] == 3
        assert seq.values[-2] == -3 * D


def test_sequence_reversed_order_mismatch_d2():
    seq = coefficient_sequence(2, -3, 3)
    mism = seq.printed_order_mismatch
    assert mism["reversed_order_predicts_a1"] == 102
    assert mism["trace_a1"] == 156
    assert not mism["orders_agree"]
    assert seq.values[1] == 156


def test_sequence_b_slot():
    seq = coefficient_sequence(3, -6, 6)
    assert seq.b(0) == 3 * 3  # b_0 = -a_(-2) = 3D


# -- swap identity -----------------------------------------------------------------


def test_swap_identity_n1(fam1):
    ok, witness = swap_identity_check(fam1, 1)
    assert ok
    assert witness["lhs"] == (1, -3, 3, -1)


def test_swap_identity_n0_d3(fam3):
    ok, _ = swap_identity_check(fam3, 0)
    assert ok


def test_swap_identity_range_d2(fam2):
    for n in range(-10, 11):
        ok, witness = swap_identity_check(fam2, n)
        assert ok, witness


# -- the negative-index variable swap -------------------------------------------------


def test_negative_n_swap_reverses():
    form = BinaryCubicForm(1, -3, -3, -1)
    assert form.swapped().coefficients == (-1, -3, -3, 1)


def test_negative_n_swap_involution():
    form = BinaryCubicForm(2, 5, -7, 11)
    assert form.swapped().swapped() == form


def test_negative_n_swap_evaluation():
    rng = random.Random(9)
    form = BinaryCubicForm(1, -12, -6, -1)
    swapped = form.swapped()
    for _ in range(100):
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        assert swapped.evaluate(x, y) == form.evaluate(y, x)


# -- analytic consistency ------------------------------------------------------------


def test_norm_form_product_structure(fam1):
    # |F_n(x, y)| = |x - b y| * |x - b' y|^2 with certified enclosures
    rng = random.Random(12)
    for _ in range(100):
        n = rng.choice([m for m in range(-6, 7) if m != -1])
        x, y = rng.randint(-30, 30), rng.randint(-30, 30)
        if x == 0 and y == 0:
            continue
        beta = fam1.beta(n)
        real, cplx = beta.embed(P25)
        from cubicthue.intervals import CBox, RI

        lin = RI.point(x) - real * y
        quad = (CBox.point(x) - cplx * y).abs2()
        value = form_at(fam1, n).evaluate(x, y)
        assert (abs(lin) * quad).contains(abs(value))


def test_degenerate_index_detection(fam1):
    assert fam1.is_degenerate_index(-1)
    assert not any(fam1.is_degenerate_index(n) for n in range(-9, 9) if n != -1)


# -- serialization ------------------------------------------------------------------


def test_family_json_roundtrip(fam2):
    text = family_to_json(fam2)
    record = json.loads(text)
    assert record["schema"] == 1
    assert record["min_poly"] == [1, 6, 12, -1]
    back = family_from_json(text)
    assert back.field.min_poly == fam2.field.min_poly
    assert back.epsilon == fam2.epsilon
    assert back.D == 2


def test_family_json_rejects_corrupted(fam1):
    record = json.loads(family_to_json(fam1))
    record["epsilon"] = ["2", "0", "0"]  # not a unit
    from cubicthue.errors import NotAUnit

    with pytest.raises(NotAUnit):
        family_from_json(json.dumps(record))
