"""Solver: oracle equivalence, box semantics, cost."""

import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from cubicthue import intervals, solver
from cubicthue.cubicfield import FieldElement
from cubicthue.errors import PrecisionExhausted
from cubicthue.family import BinaryCubicForm, family_from_json, form_at
from cubicthue.solver import (
    SearchSpec,
    _convergents,
    _stripe_data,
    brute_force_oracle,
    record_keys,
    solve_box,
    x_cap,
)

SMALL = SearchSpec(k=10, n_lo=-3, n_hi=3, y_max=25)

# the complex root of F_-10 is far larger than its real root: a cap built
# from the real root alone (240) drops F_-10(268, -4) and F_-10(335, -5)
CAP_WITNESS = ('{"schema":1,"min_poly":[1,0,1,-1],"alpha":["0","0","1"],'
               '"epsilon":["1","1","1"]}')


# -- oracle ------------------------------------------------------------------


def test_oracle_contains_known_solution(fam1):
    spec = SearchSpec(k=2, n_lo=-5, n_hi=5, y_max=50)
    records = brute_force_oracle(fam1, spec)
    keys = record_keys(records)
    assert (0, 1, -1, 2) in keys
    # direct evaluation oracle: [1,-3,-3,-1] at (1,-1) is 1 + 3 - 3 + 1
    assert form_at(fam1, 0).evaluate(1, -1) == 2


def test_oracle_k_zero_empty(fam1):
    spec = SearchSpec(k=0, n_lo=-2, n_hi=2, y_max=10)
    assert brute_force_oracle(fam1, spec) == []


def test_oracle_excludes_degenerate_index(fam1):
    spec = SearchSpec(k=8, n_lo=-1, n_hi=-1, y_max=20)
    assert brute_force_oracle(fam1, spec) == []
    included = brute_force_oracle(
        fam1, SearchSpec(k=8, n_lo=-1, n_hi=-1, y_max=20,
                         exclude_degenerate=False))
    # (x - y)^3: value 1 along x = y + 1, flagged degenerate
    assert included
    assert all(r.degenerate for r in included)
    assert any((r.x - r.y) == 1 and r.value == 1 for r in included)


def test_oracle_matches_naive_small_boxes(fam1, fam2):
    spec = SearchSpec(k=6, n_lo=-2, n_hi=2, y_max=12)
    for fam in (fam1, fam2):
        fast = record_keys(brute_force_oracle(fam, spec))
        naive = record_keys(brute_force_oracle(fam, spec, naive=True))
        assert fast == naive


def test_oracle_on_a_huge_real_root(fam1):
    # beta_300 is about 10^176: the oracle seeds its searches from the exact
    # midpoint of beta_300's real image, with no float root finder to fail
    for exclude_trivial in (True, False):
        spec = SearchSpec(k=5, n_lo=300, n_hi=300, y_max=3,
                          exclude_trivial=exclude_trivial)
        assert record_keys(brute_force_oracle(fam1, spec)) == \
            record_keys(solve_box(fam1, spec))


def test_oracle_trivial_pairs_included_when_requested(fam1):
    spec = SearchSpec(k=8, n_lo=0, n_hi=0, y_max=5, exclude_trivial=False)
    keys = record_keys(brute_force_oracle(fam1, spec))
    assert (0, 1, 0, 1) in keys     # F(1, 0) = 1
    assert (0, 0, 1, -1) in keys    # F(0, 1) = -1
    naive = record_keys(brute_force_oracle(fam1, spec, naive=True))
    assert keys == naive
    pruned = record_keys(solve_box(fam1, spec))
    assert keys == pruned


def test_oracle_finds_the_decreasing_piece_witness(fam1):
    # F_0(-1, 3) = -10 lies on the decreasing middle piece of row y = 3,
    # between the critical points x = 3 (1 -+ sqrt 2); a search that tests
    # the wrong end of that piece loses it and 11 more of this box's 74 rows
    # (28 of the 204 rows at n in [-3, 3])
    spec = SearchSpec(k=100, n_lo=0, n_hi=0, y_max=300)
    keys = record_keys(brute_force_oracle(fam1, spec))
    assert (0, -1, 3, -10) in keys
    assert (0, 1, -3, 10) in keys


@pytest.mark.parametrize("exclude_trivial", [True, False])
def test_oracle_symmetry_closure(fam1, exclude_trivial):
    # the oracle searches the rows y > 0 and records each hit with its image
    # under F(-x, -y) = -F(x, y)
    spec = SearchSpec(k=100, n_lo=-3, n_hi=3, y_max=300,
                      exclude_trivial=exclude_trivial)
    keys = set(record_keys(brute_force_oracle(fam1, spec)))
    assert any(y < 0 for _, _, y, _ in keys)
    for (n, x, y, v) in keys:
        assert (n, -x, -y, -v) in keys


def test_oracle_index_reads_no_enclosure(fam1, monkeypatch):
    # once `_box` has set the box up, each index is searched in exact
    # integers alone: no embedding and no refinement of an enclosure
    spec = SearchSpec(k=100, n_lo=-3, n_hi=3, y_max=300)
    expected = record_keys(brute_force_oracle(fam1, spec))
    found, cap, rows = solver._box(fam1, spec)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read an enclosure")

    monkeypatch.setattr(FieldElement, "embed", refuse)
    monkeypatch.setattr(intervals, "refine", refuse)
    monkeypatch.setattr(solver, "refine", refuse)
    for n, _, form, root in rows:
        solver._oracle_index(found, spec, cap, n, root, form)
    assert record_keys(solver._finish(found, rows)) == expected


# -- solve_box ----------------------------------------------------------------


def test_solve_box_equals_oracle(fam1, fam2, fam3):
    for fam in (fam1, fam2, fam3):
        pruned = record_keys(solve_box(fam, SMALL))
        oracle = record_keys(brute_force_oracle(fam, SMALL))
        assert pruned == oracle


def test_exact_im2_bound_where_im_is_tiny(fam1):
    # |Im b'| < 2^-40 at n = 40..44 on D=1: the Im^2 bound is the exact
    # square of its enclosure's dyadic lower end, below Im^2 and within
    # 2^-100 of it, measured against an enclosure 64 bits finer
    spec = SearchSpec(k=100, n_lo=40, n_hi=44, y_max=50)
    for n in spec.indices():
        beta = fam1.beta(n)
        anchors = _stripe_data(beta, spec)
        _, fine = beta.embed(Fraction(1, 1 << (anchors.shift + 64)))
        lo, hi = abs(fine.im).lo, abs(fine.im).hi
        assert 0 < hi < Fraction(1, 1 << 40)
        bound = Fraction(anchors.num2, 1 << anchors.s2)
        assert 0 < bound <= hi * hi
        assert lo * lo - bound <= lo * lo / 2**100
    for box in (spec, replace(spec, exclude_trivial=False)):
        assert record_keys(solve_box(fam1, box)) == record_keys(
            brute_force_oracle(fam1, box))


def test_stripe_failure_falls_back_to_the_oracle(fam1, monkeypatch):
    # an index whose stripe anchors exhaust precision is enumerated by the
    # oracle instead, and the box still holds every solution
    spec = SearchSpec(k=100, n_lo=-3, n_hi=3, y_max=500)
    failing = fam1.beta(1)
    stripe_data, failed = solver._stripe_data, []

    def exhausted_at_one_index(beta, spec):
        if beta == failing:
            failed.append(beta)
            raise PrecisionExhausted("anchors did not separate")
        return stripe_data(beta, spec)

    monkeypatch.setattr(solver, "_stripe_data", exhausted_at_one_index)
    records = solve_box(fam1, spec)
    assert len(failed) == 1 and any(r.n == 1 for r in records)
    assert record_keys(records) == record_keys(
        brute_force_oracle(fam1, spec))


def test_solve_box_records_verify_exactly(fam1):
    records = solve_box(fam1, SMALL)
    assert records
    for r in records:
        value = form_at(fam1, r.n).evaluate(r.x, r.y)
        assert value == r.value
        assert 0 < abs(value) <= SMALL.k
        assert abs(r.x) <= x_cap(fam1, SMALL)
        # the solver only enumerates; `cmd_solve` decomposes the rows
        assert r.decomposition is None


def test_solve_box_symmetry_closure(fam1):
    keys = set(record_keys(solve_box(fam1, SMALL)))
    for (n, x, y, v) in keys:
        assert (n, -x, -y, -v) in keys


def test_negative_index_swap_correspondence(fam1):
    # solutions at -n match solutions at n-2 with x and y exchanged,
    # because F_(-n)(x, y) = -F_(n-2)(y, x) exactly
    spec = SearchSpec(k=10, n_lo=-5, n_hi=3, y_max=30)
    keys = set(record_keys(solve_box(fam1, spec)))
    for (n, x, y, v) in keys:
        if -5 <= n <= -2 and abs(y) <= 30 and abs(x) <= 30:
            partner = (-n - 2, y, x, -v)
            assert partner in keys, (n, x, y, v)


def test_solve_box_primitive_flag(fam1):
    spec = SearchSpec(k=8, n_lo=0, n_hi=0, y_max=10)
    for r in solve_box(fam1, spec):
        import math

        assert r.primitive == (math.gcd(abs(r.x), abs(r.y)) == 1)


def test_complex_root_cap_witness():
    fam = family_from_json(CAP_WITNESS)
    spec = SearchSpec(k=200, n_lo=-10, n_hi=-10, y_max=40)
    assert x_cap(fam, spec) >= 335
    keys = record_keys(solve_box(fam, spec))
    assert keys == record_keys(brute_force_oracle(fam, spec))
    assert (-10, 268, -4, 64) in keys
    assert (-10, 335, -5, 125) in keys


def test_convergent_source_beyond_the_scan(fam1):
    # F_-3(5, 74) = 51 lies beyond the certified scan range of its index,
    # so only the convergent candidates can find it
    spec = SearchSpec(k=60, n_lo=-3, n_hi=-3, y_max=100)
    assert _stripe_data(fam1.beta(-3), spec).y_scan < 74
    keys = record_keys(solve_box(fam1, spec))
    assert (-3, 5, 74, 51) in keys
    assert keys == record_keys(brute_force_oracle(fam1, spec))


@pytest.mark.parametrize("coeffs", [(1, 0, 0, -2), (1, 0, 0, 2),
                                    (1, -12, 50, 7), (1, 3, 3, -1)])
def test_convergents_match_a_high_precision_expansion(coeffs):
    form = BinaryCubicForm(*coeffs)
    with mpmath.workdps(300):
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=600)
        t = min(roots, key=lambda r: abs(mpmath.im(r))).real
        expected, (p0, q0, p1, q1) = [], (0, 1, 1, 0)
        while q1 <= 10**30:
            a = int(mpmath.floor(t))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            expected.append((p1, q1))
            t = 1 / (t - a)
    assert list(_convergents(form, 10**30)) == expected[:-1]


def test_sorted_output(fam1):
    records = solve_box(fam1, SMALL)
    keys = [r.key for r in records]
    assert keys == sorted(keys)


# -- performance -----------------------------------------------------------------


def test_pruning_speedup_reported(fam1):
    spec = SearchSpec(k=10, n_lo=-6, n_hi=6, y_max=2000)
    t0 = time.perf_counter()
    pruned = record_keys(solve_box(fam1, spec))
    t_pruned = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = record_keys(brute_force_oracle(fam1, spec))
    t_oracle = time.perf_counter() - t0
    assert pruned == oracle
    ratio = t_oracle / max(t_pruned, 1e-9)
    print(f"\npruned path speedup over oracle: {ratio:.1f}x "
          f"({t_pruned:.2f}s vs {t_oracle:.2f}s)")
    assert ratio > 1.0


def test_empty_stripes_cost_nothing(fam1):
    # large |y| stripes admit no candidates: the run stays fast even though
    # the box has 2 * 10^4 stripes per index
    spec = SearchSpec(k=2, n_lo=2, n_hi=2, y_max=10**4)
    t0 = time.perf_counter()
    records = solve_box(fam1, spec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert all(abs(r.y) <= 20 for r in records)


def test_large_box_extends_the_small_one(fam1):
    # beyond the certified scan range only convergents are examined, so a
    # box 5 * 10^4 times taller costs about as much as the canonical one
    small = SearchSpec(k=100, n_lo=-10, n_hi=10, y_max=20000)
    t0 = time.perf_counter()
    records = solve_box(fam1, replace(small, y_max=10**9))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    inner = record_keys([r for r in records if abs(r.y) <= small.y_max])
    assert inner == record_keys(solve_box(fam1, small))
    for r in records:
        assert form_at(fam1, r.n).evaluate(r.x, r.y) == r.value
        assert 0 < abs(r.value) <= small.k
