"""Command-line interface: output contracts and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cubicthue.cli
import cubicthue.cubicfield
import cubicthue.family
import cubicthue.reduction
import cubicthue.tracer
from cubicthue.cli import main
from cubicthue.cubicfield import DEFAULT_BITS, DEFAULT_PRECISION
from cubicthue.family import example_family, family_to_json, make_family
from cubicthue.reduction import Decomposition
from reference_reduction import reference_balance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- family ------------------------------------------------------------------


def test_family_single_index(capsys):
    code, out, _ = run_cli(capsys, "family", "--D", "2", "--n", "1")
    assert code == 0
    assert out.strip() == "1 -156 12 -1"


def test_family_range_includes_cube(capsys):
    code, out, _ = run_cli(capsys, "family", "--D", "1", "--n", "-2..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "-1\t1 -3 3 -1" in lines


def test_family_invalid_parameter_exit_2(capsys):
    code, _, err = run_cli(capsys, "family", "--D", "-1", "--n", "0")
    assert code == 2
    assert "invalid" in err.lower()


def test_family_empty_range_exit_2(capsys):
    # the same message and exit code as solve gives for an empty range
    for command in (("family",), ("solve", "--k", "3")):
        code, out, err = run_cli(capsys, command[0], "--D", "1", "--n", "5..3",
                                 *command[1:])
        assert (code, out) == (2, "")
        assert err == "invalid parameters: empty index range\n"


def test_family_json_mode(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "family", "--D", "1",
                           "--n", "0..1")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0] == {"schema": 1}
    assert lines[1]["coefficients"] == [1, -3, -3, -1]


# -- solve -------------------------------------------------------------------


def test_solve_contains_expected_line(capsys):
    code, out, _ = run_cli(capsys, "solve", "--D", "1", "--k", "2",
                           "--n", "-5..5", "--y-max", "50")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert ["0", "1", "-1", "2", "1"] in rows


def test_solve_k_zero_empty_success(capsys):
    code, out, _ = run_cli(capsys, "solve", "--D", "1", "--k", "0",
                           "--n", "0..2", "--y-max", "10")
    assert code == 0
    assert out.strip() == ""


def test_solve_oracle_equivalence(capsys):
    code, pruned, _ = run_cli(capsys, "--output", "json", "solve", "--D", "1",
                              "--k", "10", "--n", "-3..3", "--y-max", "40")
    assert code == 0
    code, oracle, _ = run_cli(capsys, "--output", "json", "solve", "--D", "1",
                              "--k", "10", "--n", "-3..3", "--y-max", "40",
                              "--oracle")
    assert code == 0
    assert pruned == oracle


def test_solve_naive_oracle_prints_the_oracle_rows(capsys):
    box = ("solve", "--D", "1", "--k", "5", "--n", "-3..3", "--y-max", "10")
    code, oracle, _ = run_cli(capsys, *box, "--oracle")
    assert code == 0
    code, naive, _ = run_cli(capsys, *box, "--oracle", "--naive")
    assert code == 0
    assert naive == oracle
    assert len(oracle.splitlines()) > 0


def test_degenerate_flag_is_read_off_the_index(capsys):
    # beta_n is rational exactly at n = -1 on D=1: its rows, and only they,
    # are flagged, and the three enumeration paths print the same rows
    box = ("--output", "json", "solve", "--D", "1", "--n", "-3..3", "--k",
           "20", "--y-max", "30", "--include-trivial", "--include-degenerate")
    outs = []
    for path in ((), ("--oracle",), ("--oracle", "--naive")):
        code, out, _ = run_cli(capsys, *box, *path)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    rows = [json.loads(line) for line in outs[0].splitlines()[1:]]
    assert {row["n"] for row in rows} >= {-1, 0}
    for row in rows:
        assert row.get("degenerate", False) == (row["n"] == -1)


def test_solve_naive_without_oracle_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--D", "1", "--k", "5",
                             "--n", "0", "--naive")
    assert code == 2
    assert out == ""
    assert "--naive requires --oracle" in err


def test_solve_json_schema_header(capsys):
    code, out, _ = run_cli(capsys, "--output", "json", "solve", "--D", "1",
                           "--k", "2", "--n", "0..0", "--y-max", "5")
    lines = out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["schema"] == 1
    body = [json.loads(line) for line in lines[1:]]
    assert all(isinstance(rec["n"], int) for rec in body)
    assert any(rec["x"] == 1 and rec["y"] == -1 for rec in body)


@pytest.mark.parametrize("path", [(), ("--oracle",)], ids=["pruned", "oracle"])
def test_solve_decomposes_every_row_off_the_axes(path, capsys):
    # the solvers only enumerate; solve writes x - beta_n y = eps^ell xi for
    # each row with xy != 0 at a non-degenerate index, on either path
    code, out, _ = run_cli(capsys, "--output", "json", "solve", "--D", "1",
                           "--n", "-3..3", "--k", "20", "--y-max", "30",
                           "--include-trivial", "--include-degenerate", *path)
    assert code == 0
    fam = example_family(1)
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    decomposed = 0
    for row in rows:
        n, x, y = row["n"], row["x"], row["y"]
        if x * y == 0 or fam.is_degenerate_index(n):
            assert "ell" not in row and "xi1" not in row
            continue
        xi = fam.field.element(*(Fraction(c) for c in row["xi1"]))
        assert (fam.epsilon ** row["ell"]) * xi == \
            fam.field.element(x) - fam.beta(n) * y
        decomposed += 1
    assert 0 < decomposed < len(rows)
    assert any(row.get("degenerate") for row in rows)


# -- trace -------------------------------------------------------------------


def test_trace_valid_solution(capsys, monkeypatch):
    # the form is built and evaluated once per certificate
    calls = []
    norm_form = cubicthue.family.norm_form

    def counted(beta):
        calls.append(beta)
        return norm_form(beta)

    for module in (cubicthue.family, cubicthue.reduction, cubicthue.tracer):
        monkeypatch.setattr(module, "norm_form", counted)
    code, out, _ = run_cli(capsys, "trace", "--D", "1", "--n", "0",
                           "--x", "1", "--y", "-1", "--k", "2")
    assert code == 0
    assert len(calls) == 1
    cert = json.loads(out)
    assert cert["case"].endswith("_dominant")
    assert cert["schema"] == 2
    assert all(c["holds"] for c in cert["checks"])


def test_trace_degenerate_index_exit_4(capsys):
    code, _, err = run_cli(capsys, "trace", "--D", "1", "--n", "-1",
                           "--x", "2", "--y", "1", "--k", "10")
    assert code == 4
    assert "not a valid solution" in err


def test_trace_trivial_pair_exit_4(capsys):
    code, _, _ = run_cli(capsys, "trace", "--D", "1", "--n", "0",
                         "--x", "1", "--y", "0", "--k", "10")
    assert code == 4


def test_trace_value_out_of_range_exit_4(capsys):
    code, _, err = run_cli(capsys, "trace", "--D", "1", "--n", "0",
                           "--x", "5", "--y", "7", "--k", "2")
    assert code == 4
    assert "not a solution" in err


def test_trace_ambiguous_ordering_exit_3(capsys, monkeypatch):
    from cubicthue.errors import AmbiguousOrdering

    def ambiguous(*args, **kwargs):
        raise AmbiguousOrdering("term magnitudes overlap at maximum precision")

    monkeypatch.setattr(cubicthue.cli, "trace_certificate", ambiguous)
    code, out, err = run_cli(capsys, "trace", "--D", "1", "--n", "0",
                             "--x", "1", "--y", "-1", "--k", "2")
    assert code == 3
    assert out == ""
    assert "precision exhausted" in err


# -- verify -------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--D", "1")
    assert code == 0
    assert "FAIL" not in out
    assert "swap_identity" in out
    assert ("[D=1] ok   fundamentality: certificate: proved_fundamental in "
            "Z[g]" in out.splitlines())
    # the literal loop covers the whole y_max = 30 box of D = 1
    assert ("[D=1] ok   naive_oracle_equivalence: literal triple loop, "
            "y_max' = 30, 5522580 cells" in out.splitlines())
    # on D = 1 the reversed order cannot disagree, and the line says so
    assert ("[D=1] ok   reversed_recurrence_detected: reversed order predicts "
            "15, trace gives 15; passes by construction on D in {0, +-1}"
            in out.splitlines())


def test_verify_names_a_sub_box_over_the_cell_budget(monkeypatch, capsys):
    # y_max' = 1 is the smallest sub-box; when even it is over the budget,
    # the check still runs on it and its line says so
    monkeypatch.setattr(cubicthue.cli, "NAIVE_CELL_BUDGET", 1000)
    code, out, _ = run_cli(capsys, "verify", "--D", "1")
    assert code == 0
    line, = (row for row in out.splitlines() if "naive_oracle_equivalence" in row)
    assert line.startswith("[D=1] ok   naive_oracle_equivalence: literal "
                           "triple loop, y_max' = 1, ")
    assert line.endswith(" cells, over the 1000-cell budget")


def test_verify_sub_box_embeds_each_index_once(monkeypatch, capsys):
    # verify --D 3 tries every y_max' from 30 down to 1; pricing them takes
    # one embedding of each of the seven beta_n, not one per y_max'
    embeds = [0]
    real_embed = cubicthue.cubicfield.FieldElement.embed
    real_sub_box = cubicthue.cli._naive_sub_box
    during = {}

    def counted_embed(self, *args, **kwargs):
        embeds[0] += 1
        return real_embed(self, *args, **kwargs)

    def counted_sub_box(fam, spec):
        before = embeds[0]
        sub, cells = real_sub_box(fam, spec)
        during[sub.y_max] = embeds[0] - before
        return sub, cells

    monkeypatch.setattr(cubicthue.cubicfield.FieldElement, "embed",
                        counted_embed)
    monkeypatch.setattr(cubicthue.cli, "_naive_sub_box", counted_sub_box)
    code, out, _ = run_cli(capsys, "verify", "--D", "3")
    assert code == 0
    assert during == {1: 7}


# the boxes of verify's equivalence checks: D = 1 has rows at the ladder's
# first k = 5, while D = 2 and D = 3 have none there and move to k = 20
NAIVE_BOXES = {
    1: "y_max' = 30, 5522580 cells",
    2: "y_max' = 2, 2723084 cells, k = 20",
    3: "y_max' = 1, 15622810 cells, over the 6000000-cell budget, k = 20",
}
SOLVER_BOXES = {1: "11 solutions, y_max = 30",
                2: "23 solutions, y_max = 30, k = 20",
                3: "3 solutions, y_max = 30, k = 20"}


@pytest.mark.parametrize("D", [1, 2, 3])
def test_verify_naive_oracle_equivalence_can_fail(D, monkeypatch, capsys):
    # a literal scan that loses one solution must fail the check
    real = cubicthue.cli.brute_force_oracle

    def lossy(fam, spec, naive=False, **kwargs):
        records = real(fam, spec, naive=naive, **kwargs)
        return records[1:] if naive else records

    monkeypatch.setattr(cubicthue.cli, "brute_force_oracle", lossy)
    code, out, err = run_cli(capsys, "verify", "--D", str(D))
    assert code == 5
    assert (f"[D={D}] FAIL naive_oracle_equivalence: literal triple loop, "
            f"{NAIVE_BOXES[D]}" in out.splitlines())
    assert "naive_oracle_equivalence" in err


def test_verify_empty_equivalence_is_info(monkeypatch, capsys):
    # a comparison of two empty row sets cannot fail, so it is info, not ok:
    # at k = 1 neither D = 3 box holds a row
    monkeypatch.setattr(cubicthue.cli, "EQUIVALENCE_KS", (1,))
    code, out, _ = run_cli(capsys, "verify", "--D", "3")
    assert code == 0
    lines = out.splitlines()
    assert "[D=3] info solver_equivalence: 0 solutions, y_max = 30" in lines
    naive, = (line for line in lines if "naive_oracle_equivalence" in line)
    assert naive.startswith("[D=3] info naive_oracle_equivalence: ")


def test_verify_unknown_fundamentality_is_info(monkeypatch, capsys):
    # an unproved fundamentality certificate is reported, never a failure
    real = cubicthue.cli.check_fundamental

    def unknown(fam):
        return dataclasses.replace(real(fam), status="unknown")

    monkeypatch.setattr(cubicthue.cli, "check_fundamental", unknown)
    code, out, _ = run_cli(capsys, "verify", "--D", "1")
    assert code == 0
    assert "FAIL" not in out
    assert ("[D=1] info fundamentality: certificate: unknown in Z[g]"
            in out.splitlines())


def test_verify_deep_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--D", "1", "--deep")
    assert code == 0
    assert "FAIL" not in out
    assert ("[D=1] ok   solver_equivalence: 12 solutions, y_max = 1000"
            in out.splitlines())
    assert ("[D=1] ok   sine_calibration: c2 = 1.514509, skipped = 1"
            in out.splitlines())


def test_verify_sine_calibration_can_fail(monkeypatch, capsys):
    # a calibration that reports half the exponent it needs must fail
    real = cubicthue.cli.calibrate_c2

    def halved(*args, **kwargs):
        cal = real(*args, **kwargs)
        return dataclasses.replace(cal, c2=cal.c2 / 2)

    monkeypatch.setattr(cubicthue.cli, "calibrate_c2", halved)
    code, out, err = run_cli(capsys, "verify", "--D", "1", "--deep")
    assert code == 5
    assert ("[D=1] FAIL sine_calibration: c2 = 0.757255, skipped = 1"
            in out.splitlines())
    assert "sine_calibration" in err


def test_verify_unit_reduction_can_fail(monkeypatch, capsys):
    # an exponent one too large, with the xi it implies and that xi's honest
    # balance, reconstructs exactly but is not balanced: the check must fail
    real = cubicthue.cli.unit_reduce

    def shifted(fam, gamma, *args, **kwargs):
        dec = real(fam, gamma, *args, **kwargs)
        ell = dec.ell + 1
        xi = fam.epsilon ** -ell * gamma
        return Decomposition(ell, xi, dec.norm_abs,
                             reference_balance(xi, dec.norm_abs,
                                               DEFAULT_PRECISION))

    monkeypatch.setattr(cubicthue.cli, "unit_reduce", shifted)
    code, out, err = run_cli(capsys, "verify", "--D", "1")
    assert code == 5
    assert ("[D=1] FAIL unit_reduction: exact reconstruction and balance "
            "<= R/2 + 1e-9" in out.splitlines())
    assert "unit_reduction" in err


@pytest.mark.parametrize("D", [1, 2, 3])
def test_verify_solver_equivalence_can_fail(D, monkeypatch, capsys):
    # a pruned solver that drops a row disagrees with the oracle
    real = cubicthue.cli.solve_box

    def lossy(*args, **kwargs):
        return real(*args, **kwargs)[1:]

    monkeypatch.setattr(cubicthue.cli, "solve_box", lossy)
    code, out, err = run_cli(capsys, "verify", "--D", str(D))
    assert code == 5
    assert (f"[D={D}] FAIL solver_equivalence: {SOLVER_BOXES[D]}"
            in out.splitlines())
    assert "solver_equivalence" in err


def test_verify_deep_solver_equivalence_can_fail(monkeypatch, capsys):
    # an oracle that drops one row of the y_max = 1000 box fails --deep
    real = cubicthue.cli.brute_force_oracle

    def lossy(*args, **kwargs):
        return real(*args, **kwargs)[1:]

    monkeypatch.setattr(cubicthue.cli, "brute_force_oracle", lossy)
    code, out, err = run_cli(capsys, "verify", "--D", "1", "--deep")
    assert code == 5
    assert ("[D=1] FAIL solver_equivalence: 12 solutions, y_max = 1000"
            in out.splitlines())
    assert "solver_equivalence" in err


def test_verify_height_equals_regulator_third_can_fail(monkeypatch, capsys):
    # a regulator shifted by 3e-6 moves R/3 away from h(epsilon) by 1e-6
    real = cubicthue.cli.regulator

    def shifted(fam):
        return real(fam) + Fraction(3, 10**6)

    monkeypatch.setattr(cubicthue.cli, "regulator", shifted)
    code, out, err = run_cli(capsys, "verify", "--D", "1")
    assert code == 5
    assert ("[D=1] FAIL height_equals_regulator_third: |h - R/3| <= 1.00e-06"
            in out.splitlines())
    assert "height_equals_regulator_third" in err


def test_verify_swap_identity_can_fail(monkeypatch, capsys):
    # family members indexed one slot off for negative n break the identity
    real = cubicthue.family.form_at

    def shifted(fam, n):
        return real(fam, n - 1 if n < 0 else n)

    monkeypatch.setattr(cubicthue.family, "form_at", shifted)
    code, out, err = run_cli(capsys, "verify", "--D", "1")
    assert code == 5
    assert ("[D=1] FAIL swap_identity: F_(-n)(X,Y) = -F_(n-2)(Y,X) on "
            "[-10, 10]" in out.splitlines())
    assert "swap_identity" in err


def test_verify_recurrence_initial_values_can_fail(monkeypatch, capsys):
    # a sequence indexed as a_n = trace(eps^n), one slot off from
    # trace(eps^(n+1)), gives a_-1 = trace(eps^-1) = -3 instead of 3
    real = cubicthue.cli.coefficient_sequence

    def shifted(D, n_lo, n_hi):
        seq = real(D, n_lo, n_hi)
        return dataclasses.replace(
            seq, values={n + 1: v for n, v in seq.values.items()})

    monkeypatch.setattr(cubicthue.cli, "coefficient_sequence", shifted)
    code, out, err = run_cli(capsys, "verify", "--D", "1")
    assert code == 5
    assert ("[D=1] FAIL recurrence_initial_values: a_0, a_-1, a_-2"
            in out.splitlines())
    assert "recurrence_initial_values" in err


def test_verify_conjugate_modulus_can_fail(monkeypatch, capsys):
    # a square root that returns its argument compares |eps'| with eps^-1
    monkeypatch.setattr(cubicthue.cli, "ri_sqrt", lambda x, bits: x)
    code, out, err = run_cli(capsys, "verify", "--D", "1")
    assert code == 5
    assert ("[D=1] FAIL conjugate_modulus: |eps'| = eps^(-1/2) within 1e-20"
            in out.splitlines())
    assert "conjugate_modulus" in err


def test_verify_corrupted_family_file_exit_5(tmp_path, capsys):
    fam = example_family(1)
    record = json.loads(family_to_json(fam))
    record["epsilon"] = ["2", "0", "0"]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "verify", "--family-file", str(path))
    assert code == 5
    assert "verification" in err.lower() or "failed" in err.lower()


def test_verify_family_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(family_to_json(example_family(2)))
    code, out, _ = run_cli(capsys, "verify", "--family-file", str(path))
    assert code == 0
    assert "[file]" in out


def test_verify_swap_identity_only_where_it_holds(tmp_path, capsys):
    # F_(-n)(X, Y) = -F_(n-2)(Y, X) needs alpha = epsilon and N(epsilon) = 1;
    # for alpha = g + 2 the swapped form belongs to another family, so the
    # check does not apply and must not fail a valid family
    d1 = example_family(1)
    fam = make_family(d1.field, d1.field.gen() + 2, d1.epsilon)
    path = tmp_path / "family.json"
    path.write_text(family_to_json(fam))
    code, out, _ = run_cli(capsys, "verify", "--family-file", str(path))
    assert code == 0
    lines = out.splitlines()
    swap, = (line for line in lines if "swap_identity" in line)
    assert swap.startswith("[file] info swap_identity: ")
    assert "does not apply" in swap
    assert all(line.startswith("[file] ok   ") for line in lines
               if line != swap)


MALFORMED_RECORDS = {
    "zero_denominator": lambda r: {**r, "alpha": ["1/0", "0", "0"]},
    "no_min_poly": lambda r: {k: v for k, v in r.items() if k != "min_poly"},
    "min_poly_number": lambda r: {**r, "min_poly": 3},
    "array": lambda r: [r],
    "alpha_number": lambda r: {**r, "alpha": 3},
    "four_coordinates": lambda r: {**r, "alpha": [*r["alpha"], "0"]},
    "two_coordinates": lambda r: {**r, "alpha": ["3", "3"]},
    # each subclass of InvalidParameter reaches the same handler
    "non_monic": lambda r: {**r, "min_poly": [2, 0, 0, 1]},
    "reducible": lambda r: {**r, "min_poly": [1, 0, 0, -1]},
    "totally_real": lambda r: {**r, "min_poly": [1, 0, -3, 1]},
    "non_unit_epsilon": lambda r: {**r, "epsilon": ["2", "0", "0"]},
    # a rational alpha generates no cubic field: every F_n is a cube
    "alpha_zero": lambda r: {**r, "alpha": ["0", "0", "0"]},
    "alpha_two": lambda r: {**r, "alpha": ["2", "0", "0"]},
}


@pytest.mark.parametrize("malform", MALFORMED_RECORDS.values(),
                         ids=MALFORMED_RECORDS.keys())
def test_malformed_family_file_is_an_invalid_parameter(malform, tmp_path,
                                                      capsys):
    # a record that is not an object, lacks a key, has malformed
    # coordinates or names no family of the paper is refused, never read as
    # another family; the record has no "D", whose check would refuse
    # 3 + 3g for another reason
    d1 = json.loads(family_to_json(example_family(1)))
    record = malform({key: value for key, value in d1.items() if key != "D"})
    path = tmp_path / "family.json"
    path.write_text(json.dumps(record))
    for argv in (("solve", "--n", "0..0", "--k", "2", "--y-max", "5"),
                 ("trace", "--n", "0", "--x", "1", "--y", "-1", "--k", "2")):
        code, out, err = run_cli(capsys, argv[0], "--family-file", str(path),
                                 *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("invalid parameters: ")
    code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
    assert (code, out) == (5, "")
    assert "verification setup failed" in err


def test_family_file_with_original_a0_rejected(tmp_path, capsys):
    # the scaling of a non-monic model is applied nowhere, so such a file
    # would silently solve the monic model: refuse it
    record = json.loads(family_to_json(example_family(1)))
    assert "original_a0" not in record
    record["original_a0"] = 2
    path = tmp_path / "family.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "solve", "--family-file", str(path),
                             "--n", "0..0", "--k", "2", "--y-max", "5")
    assert (code, out) == (2, "")
    assert "original_a0" in err
    code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
    assert (code, out) == (5, "")
    assert "verification setup failed" in err


def test_family_file_with_wrong_d_rejected(tmp_path, capsys):
    # verify's D-only checks run on example_family(D), so a record of the
    # D=2 family labelled D=1 would pass them on the wrong family
    record = json.loads(family_to_json(example_family(2)))
    record["D"] = 1
    path = tmp_path / "family.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "verify", "--family-file", str(path))
    assert (code, out) == (5, "")
    assert "verification setup failed" in err
    code, out, err = run_cli(capsys, "solve", "--family-file", str(path),
                             "--n", "0..0", "--k", "2", "--y-max", "5")
    assert (code, out) == (2, "")
    assert "example_family(1)" in err


def test_import_leaves_sympy_unloaded():
    # sympy is a test dependency only (the reference Mahler measure in
    # tests/reference_heights.py): every command runs with it blocked
    src = os.path.dirname(os.path.dirname(cubicthue.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cubicthue; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    commands = [
        ["family", "--D", "1", "--n", "0"],
        ["solve", "--D", "1", "--n", "-2..2", "--k", "10", "--y-max", "50"],
        ["trace", "--D", "1", "--n", "0", "--x", "1", "--y", "-1", "--k", "2"],
        ["verify", "--D", "1"],
    ]
    code = ("import contextlib, io, sys\n"
            "sys.modules['sympy'] = None\n"
            "from cubicthue.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(src)
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]

    def names(requirements):
        return [r.split(">")[0].split("=")[0].strip() for r in requirements]

    assert "sympy" not in names(project["dependencies"])
    assert "sympy" in names(project["optional-dependencies"]["test"])


# -- one precision target ----------------------------------------------------


def test_verify_builds_family_images_at_one_precision(monkeypatch, capsys):
    # every check certifies at DEFAULT_PRECISION, so the family's enclosures
    # are made at DEFAULT_BITS and at no second level
    levels = []
    init = cubicthue.family.FamilyImages.__init__

    def recorded(self, fam, bits):
        levels[-1].add(bits)
        init(self, fam, bits)

    monkeypatch.setattr(cubicthue.family.FamilyImages, "__init__", recorded)
    for deep in ((), ("--deep",)):
        levels.append(set())
        code, _, _ = run_cli(capsys, "verify", "--D", "1", *deep)
        assert code == 0
    assert levels == [{DEFAULT_BITS}, {DEFAULT_BITS}]


def test_no_setting_moves_the_precision_target(monkeypatch, capsys):
    # every command certifies at DEFAULT_PRECISION: no environment variable
    # changes a byte of its output
    argv = ("--output", "json", "solve", "--D", "1", "--n", "0..1",
            "--k", "10", "--y-max", "25")
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("CUBICTHUE_PRECISION", "1e-10")
    assert run_cli(capsys, *argv) == plain
    assert plain[0] == 0 and len(plain[1].splitlines()) > 1
