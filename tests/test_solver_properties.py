"""Property tests on random families: `solve_box` equals the oracles, both
oracles equal a per-cell reference scan, family JSON round-trips,
`unit_reduce` reconstructs with balanced conjugates and equals the
certified-t reference, and the identity checks of `trace_certificate` hold
on the solutions found.

Families come from monic irreducible cubics X^3 + a1 X^2 + a2 X +- 1 with
negative discriminant.  Their generator g is a unit, so epsilon = +-g^(+-1),
signed and inverted to make its real embedding exceed 1, is a valid family
unit; alpha is a random irrational algebraic integer."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicthue.cubicfield import make_field
from cubicthue.errors import ReduciblePolynomial, TotallyReal
from cubicthue.family import (
    example_family,
    family_from_json,
    family_to_json,
    form_at,
    make_family,
)
from cubicthue.heights import regulator
from cubicthue.reduction import unit_reduce
from cubicthue.solver import (
    SearchSpec,
    _lane_bound,
    _naive_scan,
    brute_force_oracle,
    record_keys,
    solve_box,
    x_cap,
)
from cubicthue.tracer import trace_certificate
from reference_reduction import reference_unit_reduce
from reference_solver import per_cell_reference

CAP_WITNESS = family_from_json(
    '{"schema":1,"min_poly":[1,0,1,-1],"alpha":["0","0","1"],'
    '"epsilon":["1","1","1"]}')


def _unit(field):
    """epsilon = +-g^(+-1), signed and inverted so its real image exceeds 1."""
    g = field.gen()
    real = g.embed(Fraction(1, 1 << 64))[0]
    assert real.sign_definite()
    unit = g if abs(real).lo > 1 else g.inverse()
    # g and 1/g have the same sign
    return unit if real.is_positive() else -unit


# ri_atan2 without its endpoint padding fails dual_form_T2 here, at
# (n, x, y) = (-1, -6, -1) with |F| = 1
_G6 = make_field((1, -6, 0, -1))
ATAN2_WITNESS = make_family(_G6, _G6.gen() ** 2, _unit(_G6))


@st.composite
def families(draw, coeff: int = 6, alpha_coeff: int = 3):
    a1 = draw(st.integers(-coeff, coeff))
    a2 = draw(st.integers(-coeff, coeff))
    a3 = draw(st.sampled_from((-1, 1)))
    try:
        field = make_field((1, a1, a2, a3))
    except (ReduciblePolynomial, TotallyReal):
        assume(False)
    epsilon = _unit(field)
    c0, c1, c2 = draw(st.tuples(*[st.integers(-alpha_coeff, alpha_coeff)] * 3)
                      .filter(lambda c: c[1:] != (0, 0)))
    return make_family(field, field.element(c0, c1, c2), epsilon)


@st.composite
def boxes(draw, k_max: int, n_abs: int, y_max: int, k_min: int = 1):
    n_lo = draw(st.integers(-n_abs, n_abs))
    n_hi = draw(st.integers(n_lo, min(n_abs, n_lo + 2)))
    return SearchSpec(k=draw(st.integers(k_min, k_max)), n_lo=n_lo, n_hi=n_hi,
                      y_max=draw(st.integers(1, y_max)))


@settings(deadline=None, max_examples=40)
@given(fam=families(), spec=boxes(k_max=60, n_abs=4, y_max=300))
@example(fam=CAP_WITNESS, spec=SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=40))
def test_solve_box_equals_oracle_on_random_families(fam, spec):
    pruned = record_keys(solve_box(fam, spec))
    oracle = record_keys(brute_force_oracle(fam, spec))
    assert pruned == oracle


@settings(deadline=None, max_examples=25)
@given(fam=families(coeff=4, alpha_coeff=2),
       spec=boxes(k_max=30, n_abs=1, y_max=6))
@example(fam=CAP_WITNESS, spec=SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=5))
def test_solve_box_equals_naive_oracle_on_tiny_boxes(fam, spec):
    pruned = record_keys(solve_box(fam, spec))
    naive = record_keys(brute_force_oracle(fam, spec, naive=True))
    assert pruned == naive


def _equals_reference(fam, spec, naive=True):
    """Compare the oracle with the per-cell reference on `spec`, then again
    with k lowered to the largest |F| found, so that a solution sits on the
    boundary |F| = k; returns the first reference."""
    reference = per_cell_reference(fam, spec)
    assert brute_force_oracle(fam, spec, naive=naive) == reference
    if reference:
        edge = replace(spec, k=max(abs(r.value) for r in reference))
        oracle = brute_force_oracle(fam, edge, naive=naive)
        assert oracle == per_cell_reference(fam, edge)
    return reference


@settings(deadline=None, max_examples=40)
@given(fam=families(), spec=boxes(k_max=100, n_abs=1, y_max=12))
@example(fam=CAP_WITNESS, spec=SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=5))
def test_oracle_equals_per_cell_reference(fam, spec):
    # the monotone-piece oracle searches the rows y > 0 and mirrors each hit;
    # the reference evaluates every cell of both half boxes
    for exclude_trivial in (True, False):
        _equals_reference(fam, replace(spec, exclude_trivial=exclude_trivial),
                          naive=False)


@settings(deadline=None, max_examples=25)
@given(fam=families(coeff=4, alpha_coeff=2),
       spec=boxes(k_max=30, n_abs=1, y_max=6))
@example(fam=CAP_WITNESS, spec=SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=5))
def test_naive_oracle_equals_per_cell_reference(fam, spec):
    for exclude_trivial in (True, False):
        _equals_reference(fam, replace(spec,
                                             exclude_trivial=exclude_trivial))


@pytest.mark.parametrize("D", [1, 2, 3])
def test_naive_oracle_equals_per_cell_reference_with_degenerate_index(D):
    # n = -1 is the degenerate index F_-1 = (X - Y)^3 of the example family;
    # the one-index boxes with k = 1, y_max = 1 have x_cap as small as 2, so
    # a row has 5 cells and the start values at x = -x_cap span most of it
    fam = example_family(D)
    specs = [SearchSpec(k=10, n_lo=-2, n_hi=1, y_max=3)]
    specs += [SearchSpec(k=1, n_lo=n, n_hi=n, y_max=1) for n in range(-3, 2)]
    for spec in specs:
        for exclude_trivial in (True, False):
            reference = _equals_reference(
                fam, replace(spec, exclude_degenerate=False,
                             exclude_trivial=exclude_trivial))
            if spec.n_lo <= -1 <= spec.n_hi:
                assert any(r.degenerate for r in reference)


def test_naive_oracle_equals_per_cell_reference_on_long_rows():
    # F_3 = X^3 - 219 X^2 Y - 21 X Y^2 - Y^3 on D = 1: rows of 5,261 cells
    # whose values pass 2^30 at the row ends, and every solution lies near
    # x = 0, some 2,600 forward-difference steps into its row
    fam = example_family(1)
    spec = SearchSpec(k=500, n_lo=3, n_hi=3, y_max=12)
    reference = _equals_reference(fam, spec)
    assert len(reference) == 8


def test_lane_bound_covers_every_cell():
    # on F_3 of D = 1 at y = 12 the -219 X^2 Y term is as large as X^3 at
    # the row ends, so a bound from a0 cap^3 alone is too small
    fam = example_family(1)
    spec = SearchSpec(k=500, n_lo=3, n_hi=3, y_max=12)
    cap = x_cap(fam, spec)
    form = form_at(fam, 3)
    largest = max(abs(form.evaluate(x, y))
                  for y in range(-spec.y_max, spec.y_max + 1)
                  for x in range(-cap, cap + 1))
    assert largest > cap**3
    assert _lane_bound([(3, form)], cap, spec.y_max) >= largest


@pytest.mark.parametrize("D", [1, 2, 3, -2])
def test_packed_scan_when_k_exceeds_every_value(D):
    # a pinned x range far below k^(1/3) makes every nonzero cell a hit, and
    # the lane size must hold k as well as the values (x_cap itself always
    # exceeds k^(1/3))
    fam = example_family(D)
    spec = SearchSpec(k=10**15, n_lo=-2, n_hi=2, y_max=2)
    cap = 12
    forms = [(n, form_at(fam, n)) for n in spec.indices()
             if not fam.is_degenerate_index(n)]
    expected = {(n, x, y): (form.evaluate(x, y), False)
                for n, form in forms
                for y in range(-spec.y_max, spec.y_max + 1)
                for x in range(-cap, cap + 1)
                if x * y != 0}
    assert max(abs(v) for v, _ in expected.values()) <= spec.k
    found = {}
    _naive_scan(found, spec, cap, forms)
    assert found == expected


@settings(deadline=None, max_examples=25)
@given(fam=families(),
       gammas=st.lists(st.tuples(*[st.integers(-50, 50)] * 3)
                       .filter(lambda c: c != (0, 0, 0)),
                       min_size=1, max_size=3))
def test_family_json_and_unit_reduce_on_random_families(fam, gammas):
    back = family_from_json(family_to_json(fam))
    assert back.field.min_poly == fam.field.min_poly
    assert back.alpha == fam.alpha and back.epsilon == fam.epsilon
    reg_half = regulator(fam).hi / 2 + Fraction(1, 10**9)
    for coords in gammas:
        gamma = fam.field.element(*coords)
        dec = unit_reduce(fam, gamma)
        assert (fam.epsilon ** dec.ell) * dec.xi == gamma
        assert dec.balance.hi <= reg_half


_D1 = example_family(1)
# over the unit epsilon^2 of D = 1, gamma = epsilon^3 sits at t = 3/2 exactly
TIE_FAMILY = make_family(_D1.field, _D1.alpha, _D1.epsilon ** 2)
_EPS1 = tuple(int(c) for c in _D1.epsilon.coords)


@settings(deadline=None, max_examples=60)
@given(fam=families(),
       gammas=st.lists(
           st.tuples(st.tuples(*[st.integers(-10**6, 10**6)] * 3)
                     .filter(lambda c: c != (0, 0, 0)),
                     st.integers(-40, 40)),
           min_size=1, max_size=3))
@example(fam=TIE_FAMILY, gammas=[(_EPS1, 1), (_EPS1, -2)])
def test_unit_reduce_matches_reference(fam, gammas):
    for coords, h in gammas:  # the reductions share the family's memo
        gamma = fam.field.element(*coords) * fam.epsilon ** h
        dec = unit_reduce(fam, gamma)
        ref = reference_unit_reduce(fam, gamma)
        assert (dec.ell, dec.xi, dec.norm_abs) == (ref.ell, ref.xi,
                                                   ref.norm_abs)
        assert (dec.balance.lo, dec.balance.hi) == (ref.balance.lo,
                                                    ref.balance.hi)


IDENTITY_CHECKS = ("sum_zero", "dual_form_T1", "dual_form_T2", "dual_form_T3")


# trace_certificate's estimates assume k >= 2
@settings(deadline=None, max_examples=30)
@given(fam=families(), spec=boxes(k_min=2, k_max=60, n_abs=4, y_max=300))
@example(fam=CAP_WITNESS, spec=SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=40))
@example(fam=ATAN2_WITNESS, spec=SearchSpec(k=2, n_lo=-1, n_hi=-1, y_max=1))
def test_certificate_identity_checks_on_random_families(fam, spec):
    for record in solve_box(fam, spec)[:3]:
        cert = trace_certificate(fam, record.n, record.x, record.y, spec.k)
        holds = {c["id"]: c["holds"] for c in cert["checks"]}
        assert {name: holds[name] for name in IDENTITY_CHECKS} == dict.fromkeys(
            IDENTITY_CHECKS, True), (record, cert["checks"])
