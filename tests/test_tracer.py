"""Trace of the vanishing three-term identity and the logarithm machinery."""

import dataclasses
import json
from fractions import Fraction

import mpmath
import pytest

from cubicthue import tracer
from cubicthue.cubicfield import DEFAULT_PRECISION, FieldElement
from cubicthue.errors import AmbiguousOrdering, NotThirdCase
from cubicthue.family import example_family, family_to_json, form_at
from cubicthue.heights import regulator
from cubicthue.intervals import CBox, RI, ri_pi
from cubicthue.reduction import Decomposition, decompose_solution
from cubicthue.solver import SearchSpec, solve_box
from cubicthue.tracer import (
    CASE_T2T3,
    SolutionImages,
    certificate_json,
    classify_case,
    family_angles,
    inequality_ledger,
    lambda_machinery,
    order_terms,
    siegel_terms,
    trace_certificate,
)

P20 = Fraction(1, 10**20)


def _solutions(fam, k=10, n_span=6, box=30):
    out = []
    for n in range(-n_span, n_span + 1):
        if fam.is_degenerate_index(n):
            continue
        form = form_at(fam, n)
        for y in range(-box, box + 1):
            for x in range(-box, box + 1):
                if x * y == 0:
                    continue
                v = form.evaluate(x, y)
                if v != 0 and abs(v) <= k:
                    out.append((n, x, y, v))
    return out


def _images(fam, n, x, y):
    return SolutionImages(fam, n, decompose_solution(fam, n, x, y))


# -- siegel_terms -------------------------------------------------------------


def test_sum_encloses_zero(fam1):
    images = _images(fam1, 0, 1, -1)
    trace = siegel_terms(images)
    total = trace.t1 + trace.t2 + trace.t3
    assert total.contains_zero()
    for check in trace.ledger:
        assert check.holds, check


def test_dual_evaluation_agrees(fam1):
    # the product-form and sine-form paths are independent computations
    images = _images(fam1, 0, 1, -1)
    trace = siegel_terms(images)
    for t, s in zip(trace.terms, trace.sine_ims):
        assert t.im.overlaps(s)
        assert t.re.contains_zero()
        gap = max(abs(float(t.im.mid) - float(s.mid)), 0)
        assert gap < 1e-20


def test_degenerate_sine_flagged(fam1):
    # a synthetic decomposition with rational xi makes the second term
    # vanish identically
    dec = Decomposition(0, fam1.field.one(), Fraction(1), RI.point(0))
    trace = siegel_terms(SolutionImages(fam1, 0, dec))
    assert "T2" in trace.degenerate_sines
    assert trace.t2.re == RI.point(0) and trace.t2.im == RI.point(0)


def test_purely_imaginary_widths(fam1, fam2):
    for fam in (fam1, fam2):
        for (n, x, y, v) in _solutions(fam, k=8, n_span=4, box=15)[:10]:
            images = _images(fam, n, x, y)
            trace = siegel_terms(images)
            for t in trace.terms:
                assert t.re.contains_zero()
                assert t.re.width <= Fraction(1, 10**20)


# -- classification -----------------------------------------------------------


def test_order_terms_constructed_triples():
    a = RI.point(2)
    b = RI.point(Fraction(3, 2))
    c = RI.point(Fraction(1, 2))
    case, margin = order_terms(a, b, c)
    assert case == "T1T2_dominant"
    assert margin.lo >= 0  # |a| <= 2|b|


def test_order_terms_top_two_split():
    case, margin = order_terms(RI.point(3), RI.point(1), RI.point(2))
    assert case == "T1T3_dominant"
    assert margin.contains(1)  # 2*2 - 3


def test_order_terms_ambiguous():
    wide = RI(0, 3)
    assert order_terms(wide, wide, wide) is None
    trace_like = type("T", (), {"abs_terms": (wide, wide, wide)})
    with pytest.raises(AmbiguousOrdering):
        classify_case(trace_like)


def test_sweep_no_domination_violations(fam1):
    for (n, x, y, v) in _solutions(fam1):
        images = _images(fam1, n, x, y)
        trace = siegel_terms(images)
        case, check = classify_case(trace)
        assert case == trace.case
        assert check.holds


# -- inequality ledger -----------------------------------------------------------


def test_ledger_rows_present(fam1):
    images = _images(fam1, 0, 1, -1)
    trace = siegel_terms(images)
    rows = inequality_ledger(images, 1, -1, 2, trace)
    ids = [r.row_id for r in rows]
    assert "8" in ids
    assert any(i in ids for i in ("9", "12"))
    assert any(i in ids for i in ("10", "13"))
    assert "17a" in ids and "17b" in ids and "18" in ids


def test_ledger_negative_index_notes_swap(fam1):
    images = _images(fam1, -2, 1, -1)
    trace = siegel_terms(images)
    rows = inequality_ledger(images, 1, -1, 10, trace)
    assert rows[0].row_id == "swap"


def test_ledger_alternate_branch_on_failed_dominance(fam1):
    # at n = -2 the real root eps^(-1) is small, its conjugates dominate,
    # row 8 fails and the fallback branch row must appear
    n, x, y = -2, 1, -1
    assert form_at(fam1, n).evaluate(x, y) == 2
    images = _images(fam1, n, x, y)
    trace = siegel_terms(images)
    rows = inequality_ledger(images, x, y, 10, trace)
    by_id = {r.row_id: r for r in rows}
    assert by_id["8"].holds is False
    assert "8-alt" in by_id


def test_ledger_margins_finite(fam1):
    for (n, x, y, v) in _solutions(fam1, k=10, n_span=5, box=20)[:12]:
        images = _images(fam1, n, x, y)
        trace = siegel_terms(images)
        for row in inequality_ledger(images, x, y, 10, trace):
            if row.empirical_constant is not None:
                assert row.empirical_constant.width < 1


# -- lambda machinery ----------------------------------------------------------


def _third_case_solutions(fam, k=10):
    out = []
    for (n, x, y, v) in _solutions(fam, k=k):
        images = _images(fam, n, x, y)
        trace = siegel_terms(images)
        if trace.case == CASE_T2T3:
            out.append((n, x, y, images, trace))
    return out


def test_lambda_h_bound_over_sweep(fam1):
    sols = _third_case_solutions(fam1)
    assert sols
    for n, x, y, images, trace in sols:
        lam = lambda_machinery(images, trace=trace)
        assert abs(lam.h) <= abs(images.dec.ell) + 2
        for check in lam.checks:
            assert check.holds, (n, x, y, check)
        assert 0 <= float(lam.nu.mid) < 1
        assert 0 <= float(lam.theta_n.mid) < 1 or abs(float(lam.theta_n.mid)) < 1e-25


def test_lambda_trivial_branch(fam1):
    # ell = 0 with mu real positive would give Lambda = theta_n = 0, h = 0;
    # realize the h = 0, small-Lambda situation through a synthetic
    # decomposition with rational xi
    dec = Decomposition(0, fam1.field.element(1), Fraction(1), RI.point(0))
    lam = lambda_machinery(SolutionImages(fam1, 0, dec))
    assert lam.h in (-1, 0, 1)
    assert abs(lam.h) <= 2


def test_lambda_rejects_wrong_case(fam1):
    images = _images(fam1, 0, 1, -1)
    trace = siegel_terms(images)
    assert trace.case != CASE_T2T3
    with pytest.raises(NotThirdCase):
        lambda_machinery(images, trace=trace)


def test_lemma3b_inequality_direct(fam1):
    # |e^Lambda - 1| >= |Lambda| / 2, cross-checked by direct complex
    # arithmetic at high precision
    sols = _third_case_solutions(fam1)
    n, x, y, images, trace = sols[0]
    lam = lambda_machinery(images, trace=trace)
    with mpmath.workdps(50):
        lam_mid = mpmath.mpc(float(lam.Lambda.re.mid), float(lam.Lambda.im.mid))
        direct = abs(mpmath.exp(lam_mid) - 1)
        assert direct >= abs(lam_mid) / 2 - 1e-25


def test_branch_cut_ties_are_decided_by_tau(fam1):
    # conj(z)/z is exactly -1 when z is purely imaginary, tau(z) = -z
    alg = fam1.algebra()
    y = alg.sigma(fam1.field.gen())
    diff, total = y - alg.tau(y), y + alg.tau(y)  # g' - g'', g' + g''
    assert alg.is_imaginary_value(diff) and not alg.is_real_value(diff)
    assert alg.is_real_value(total) and not alg.is_imaginary_value(total)
    # a box around -1 that straddles the real axis, as an enclosure of
    # conj(z)/z sees it
    box = CBox(RI.dyadic(-1025, -1023, -10), RI.dyadic(-1, 1, -10))
    for z, tie in ((diff, True), (total, False)):
        imaginary = alg.is_imaginary_value(z)
        angle = tracer._angle01(box, 64, imaginary)
        arg = tracer._principal_arg(box, 64, imaginary)
        if not tie:
            assert angle is None and arg is None
            continue
        assert (angle.lo, angle.hi) == (Fraction(1, 2), Fraction(1, 2))
        assert arg == ri_pi(64) and arg.width < Fraction(1, 2**60)
        with mpmath.workdps(60):
            assert (mpmath.mpf(arg.lo.numerator) / arg.lo.denominator
                    < mpmath.pi
                    < mpmath.mpf(arg.hi.numerator) / arg.hi.denominator)


def test_mu_height_growth(fam1):
    # h(mu_n) <= C (n + log k) for a bounded empirical C over the sweep
    ratios = []
    for n, x, y, images, trace in _third_case_solutions(fam1):
        lam = lambda_machinery(images, trace=trace)
        h_mu = float(lam.mu_height.height.hi)
        scale = abs(n) + mpmath.log(10)
        ratios.append(h_mu / float(scale))
    assert ratios
    assert max(ratios) < 50


# -- certificates ------------------------------------------------------------------


def test_certificate_structure(fam1):
    cert = trace_certificate(fam1, 0, 1, -1, 2)
    assert cert["schema"] == 2
    assert cert["case"] in ("T1T2_dominant", "T1T3_dominant", "T2T3_dominant")
    assert cert["value"] == 2
    assert {"T1", "T2", "T3"} <= set(cert["terms"])
    assert all(c["holds"] for c in cert["checks"])
    import json

    assert json.loads(json.dumps(cert)) == cert


def test_certificate_third_case_has_lambda(fam1):
    sols = _third_case_solutions(fam1)
    n, x, y, images, trace = sols[0]
    cert = trace_certificate(fam1, n, x, y, 10)
    assert cert["lambda"] is not None
    assert abs(cert["lambda"]["h"]) <= abs(cert["ell"]) + 2


def test_family_angles_match_oracle(fam1):
    # oracle: direct 50-digit arg of the complex root image of epsilon
    delta, theta = family_angles(fam1)
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 3, 3, -1])
        gp = [r for r in roots if mpmath.im(r) > 0][0]
        eps_c = gp**2 + 3 * gp + 3
        oracle = mpmath.arg(eps_c) % (2 * mpmath.pi)
        assert abs(float(theta.mid) - float(oracle)) < 1e-25
    # alpha = epsilon for this family
    assert delta.overlaps(theta)


def test_certificates_do_not_depend_on_history():
    # ten solutions of the D = 1 box, traced on a fresh family and again on
    # one whose root enclosures solve_box and a 2000-bit request refined
    warm = example_family(1)
    records = solve_box(warm, SearchSpec(k=100, n_lo=-10, n_hi=10,
                                         y_max=20000))
    picks = [(r.n, r.x, r.y) for r in records[::len(records) // 10][:10]]
    fresh = example_family(1)
    first = [certificate_json(trace_certificate(fresh, n, x, y, 100))
             for n, x, y in picks]
    warm.field.real_root(2000)
    again = [certificate_json(trace_certificate(warm, n, x, y, 100))
             for n, x, y in picks]
    assert first == again
    cert = json.loads(first[0])
    assert cert["schema"] == 2 and cert["precision_bits"] >= 100


def test_stages_embed_each_element_once_per_precision(monkeypatch):
    # after the decomposition, the stages share one embedding of epsilon,
    # alpha, xi and beta_n per working precision, whatever the case
    widths = []
    embed = FieldElement.embed
    decompose = tracer.decompose_solution

    def counted_embed(self, precision=DEFAULT_PRECISION):
        widths.append(Fraction(precision))
        return embed(self, precision)

    def decompose_then_count(*args, **kwargs):
        result = decompose(*args, **kwargs)
        widths.clear()
        return result

    fam = example_family(1)
    records = solve_box(fam, SearchSpec(k=100, n_lo=-10, n_hi=10,
                                        y_max=20000))
    monkeypatch.setattr(FieldElement, "embed", counted_embed)
    monkeypatch.setattr(tracer, "decompose_solution", decompose_then_count)
    cases = set()
    for r in records[::16]:
        cert = trace_certificate(fam, r.n, r.x, r.y, 100)
        cases.add(cert["case"])
        assert len(widths) <= 4 * len(set(widths)), (r, widths)
    assert CASE_T2T3 in cases and len(cases) == 3


def test_family_memo_is_shared_and_invisible(monkeypatch):
    # a family warmed by solve_box and a certificate equals a fresh one, a
    # second certificate reads epsilon and alpha from the family's memo, and
    # a family made by replace starts without the memo of the old one
    fam, fresh = example_family(1), example_family(1)
    records = solve_box(fam, SearchSpec(k=100, n_lo=-10, n_hi=10,
                                        y_max=20000))
    for r in records:
        cert = trace_certificate(fam, r.n, r.x, r.y, 100)
        if cert["case"] == CASE_T2T3:
            break
    assert fam._memo and fam == fresh and hash(fam) == hash(fresh)
    assert (repr(fam), family_to_json(fam)) == (repr(fresh),
                                                family_to_json(fresh))
    embedded = []
    embed = FieldElement.embed

    def counted_embed(self, precision=DEFAULT_PRECISION):
        embedded.append(self)
        return embed(self, precision)

    monkeypatch.setattr(FieldElement, "embed", counted_embed)
    assert trace_certificate(fam, r.n, r.x, r.y, 100) == cert
    assert embedded and fam.epsilon not in embedded
    assert fam.alpha not in embedded
    square = dataclasses.replace(fam, epsilon=fam.epsilon ** 2)
    assert not square._memo
    assert regulator(square).overlaps(2 * regulator(fam))
