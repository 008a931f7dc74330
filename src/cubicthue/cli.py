"""Command-line interface.

Subcommands:
  family   print family members over an index range
  solve    enumerate 0 < |F_n(x, y)| <= k over a box (pruned or oracle path)
  trace    emit the JSON audit certificate for one solution
  verify   run the cross-module identity suite (exit 5 on first failure)

`--output json` (before the subcommand) prints JSON lines, not a table.

Exit codes: 0 success, 2 usage or invalid parameters, 3 precision
exhausted, 4 the trace input is not a solution, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

from . import errors
from .bounds import calibrate_c2
from .cubicfield import DEFAULT_BITS
from .family import (
    FormFamily,
    coefficient_sequence,
    example_family,
    family_from_json,
    form_at,
    swap_identity_check,
)
from .heights import abs_log_height, check_fundamental, regulator
from .intervals import ri_log, ri_sin, ri_sqrt
from .reduction import decompose_solution, unit_reduce
from .solver import (
    SearchSpec,
    brute_force_oracle,
    record_keys,
    solve_box,
    x_caps,
)
from .tracer import certificate_json, family_angles, trace_certificate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_NOT_A_SOLUTION = 4
EXIT_VERIFY_FAILED = 5

# Cells (n, x, y) that verify's literal triple loop may visit.  x_cap grows
# like eps^(n_hi + 1), so the full y_max = 30 box costs 5.5e6 cells for
# D = 1 but 6.1e8 for D = 2; the loop runs on the largest y_max that fits.
# Each cell is one lane of a packed step of exact forward differences, which
# advances every row of the box at once: in CPython 3.11 on a 2-vCPU x86 host
# about 0.013 us per cell on D = 1 (360 rows) and 0.036 us on D = 3 (14 rows),
# so a full budget costs from 0.08 s to about 0.2 s there.
NAIVE_CELL_BUDGET = 6 * 10**6

# The k at which verify's equivalence checks may run, in the order tried.
EQUIVALENCE_KS = (5, 20, 100)

_SOLUTION_INPUT_ERRORS = (errors.DegenerateN, errors.TrivialXY,
                          errors.ZeroValue)


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = (int(end) for end in text.split("..", 1))
        if lo > hi:
            raise errors.InvalidParameter("empty index range")
        return lo, hi
    n = int(text)
    return n, n


def _load_family(args) -> FormFamily:
    if getattr(args, "family_file", None):
        with open(args.family_file, "r", encoding="utf-8") as handle:
            return family_from_json(handle.read())
    if args.D is None:
        raise errors.InvalidParameter("provide --D or --family-file")
    return example_family(args.D)


def cmd_family(args) -> int:
    fam = _load_family(args)
    n_lo, n_hi = _parse_n_range(args.n)
    single = n_lo == n_hi
    if args.output == "json":
        print(json.dumps({"schema": 1}))
    for n in range(n_lo, n_hi + 1):
        form = form_at(fam, n)
        if args.output == "json":
            print(json.dumps({"n": n, "coefficients": list(form.coefficients),
                              "degenerate": fam.is_degenerate_index(n)}))
        elif single:
            print(form)
        else:
            print(f"{n}\t{form}")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.naive and not args.oracle:
        raise errors.InvalidParameter("--naive requires --oracle")
    fam = _load_family(args)
    n_lo, n_hi = _parse_n_range(args.n)
    spec = SearchSpec(k=args.k, n_lo=n_lo, n_hi=n_hi, y_max=args.y_max,
                      exclude_trivial=not args.include_trivial,
                      exclude_degenerate=not args.include_degenerate)
    if args.oracle:
        records = brute_force_oracle(fam, spec, naive=args.naive)
    else:
        records = solve_box(fam, spec)
    # the solvers only enumerate; each row with xy != 0 at a non-degenerate
    # index is written as epsilon^ell xi here
    records = [replace(r, decomposition=decompose_solution(
                   fam, r.n, r.x, r.y, value=r.value))
               if r.x and r.y and not r.degenerate else r for r in records]
    if args.output == "json":
        print(json.dumps({"schema": 1, "k": spec.k, "n_lo": n_lo,
                          "n_hi": n_hi, "y_max": spec.y_max}))
        for r in records:
            print(json.dumps(r.to_json()))
    else:
        for r in records:
            ell = r.decomposition.ell if r.decomposition else ""
            print(f"{r.n}\t{r.x}\t{r.y}\t{r.value}\t{ell}")
    return EXIT_OK


def cmd_trace(args) -> int:
    fam = _load_family(args)
    cert = trace_certificate(fam, args.n, args.x, args.y, args.k)
    print(certificate_json(cert))
    return EXIT_OK


def _verify_checks(fam: FormFamily, deep: bool):
    """Yield (name, passed, detail) for the cross-module identity suite.

    `passed` is None for an informational line, which cannot fail."""
    reg = regulator(fam)

    # -F_(n-2)(Y, X) = N(eps)^n N(alpha) N(X - eps^(2-n) alpha^-1 Y) is
    # F_(-n)(X, Y) for every n exactly when alpha = eps and N(eps) = 1
    if fam.alpha == fam.epsilon and fam.epsilon.norm() == 1:
        ok = all(swap_identity_check(fam, n)[0] for n in range(-10, 11))
        yield "swap_identity", ok, "F_(-n)(X,Y) = -F_(n-2)(Y,X) on [-10, 10]"
    else:
        yield "swap_identity", None, (
            "F_(-n)(X,Y) = -F_(n-2)(Y,X) does not apply: it needs "
            "alpha = epsilon and N(epsilon) = 1")

    if fam.D is not None:
        seq = coefficient_sequence(fam.D, -10, 10)
        init_ok = (seq.values[0] == 3 * fam.D**2 and seq.values[-1] == 3
                   and seq.values[-2] == -3 * fam.D)
        yield "recurrence_initial_values", init_ok, "a_0, a_-1, a_-2"
        mism = seq.printed_order_mismatch
        # both orders give the same a_1 when D is 0 or +-1
        trivial = fam.D in (0, 1, -1)
        yield ("reversed_recurrence_detected",
               trivial or not mism["orders_agree"],
               f"reversed order predicts {mism['reversed_order_predicts_a1']}, "
               f"trace gives {mism['trace_a1']}"
               + ("; passes by construction on D in {0, +-1}" if trivial
                  else ""))

    h = abs_log_height(fam.epsilon).height
    diff = h - reg / 3
    ok = abs(diff).hi <= Fraction(1, 10**12)
    yield "height_equals_regulator_third", ok, f"|h - R/3| <= {float(abs(diff).hi):.2e}"

    images = fam.at(DEFAULT_BITS)
    lhs = images.eps_c.abs(DEFAULT_BITS)
    rhs = ri_sqrt(images.eps_r, DEFAULT_BITS).recip()
    ok = lhs.overlaps(rhs) and (lhs.width + rhs.width) <= Fraction(1, 10**20)
    yield "conjugate_modulus", ok, "|eps'| = eps^(-1/2) within 1e-20"

    rng = random.Random(7)
    reg_half = reg.hi / 2 + Fraction(1, 10**9)
    ok = True
    for _ in range(20):
        coords = [rng.randint(-50, 50) for _ in range(3)]
        if coords == [0, 0, 0]:
            coords = [1, 0, 0]
        gamma = fam.field.element(*coords)
        dec = unit_reduce(fam, gamma)
        if fam.unit_power(dec.ell) * dec.xi != gamma or dec.balance.hi > reg_half:
            ok = False
            break
    yield "unit_reduction", ok, "exact reconstruction and balance <= R/2 + 1e-9"

    # each equivalence check runs at the first k of the ladder at which the
    # oracle finds a row in its box, so that it compares rows, not two
    # empty sets
    y_max = 1000 if deep else 30
    for k in EQUIVALENCE_KS:
        spec = SearchSpec(k=k, n_lo=-3, n_hi=3, y_max=y_max)
        oracle = record_keys(brute_force_oracle(fam, spec))
        if oracle:
            break
    pruned = record_keys(solve_box(fam, spec))
    yield "solver_equivalence", _compared(pruned, oracle), (
        f"{len(pruned)} solutions, y_max = {y_max}{_k_moved(k)}")
    if not deep:
        for k in EQUIVALENCE_KS:
            sub, cells = _naive_sub_box(fam, replace(spec, k=k))
            rows = (oracle if sub == spec
                    else record_keys(brute_force_oracle(fam, sub)))
            if rows:
                break
        naive = record_keys(brute_force_oracle(fam, sub, naive=True))
        over = (f", over the {NAIVE_CELL_BUDGET}-cell budget"
                if cells > NAIVE_CELL_BUDGET else "")
        yield "naive_oracle_equivalence", _compared(naive, rows), (
            f"literal triple loop, y_max' = {sub.y_max}, {cells} cells{over}"
            f"{_k_moved(k)}")

    fund = check_fundamental(fam)
    yield ("fundamentality", True if fund.proved else None,
           f"certificate: {fund.status} in Z[g]")

    if deep:
        delta, theta = family_angles(fam)
        cal = calibrate_c2(delta, theta, 10**4)
        # the exponent needed at worst_n again, from a direct sine of
        # delta + n theta: c2 must cover it and exceed it only by its margin
        n = cal.worst_n
        s = abs(ri_sin(delta + n * theta, DEFAULT_BITS))
        ok = s.is_positive()
        if ok:
            need = float(ri_log(s, DEFAULT_BITS).lo) / -math.log(abs(n) + 2)
            ok = need <= cal.c2 <= need * (1 + 1e-9) + 1e-14
        yield ("sine_calibration", ok,
               f"c2 = {cal.c2:.6f}, skipped = {len(cal.skipped)}")


def _compared(rows: list, oracle: list) -> bool | None:
    """Whether two enumerations agree; None (info) when both are empty,
    where the comparison could not have failed."""
    return None if rows == oracle == [] else rows == oracle


def _k_moved(k: int) -> str:
    """The detail's note of k, empty at the ladder's first rung."""
    return "" if k == EQUIVALENCE_KS[0] else f", k = {k}"


def _naive_sub_box(fam: FormFamily, spec: SearchSpec) -> tuple[SearchSpec, int]:
    """Largest sub-box y_max' <= y_max within the cell budget, or y_max' = 1
    when even that is over it (the caller then says so).

    Returns it with its cell count (n_hi - n_lo + 1) * 2 y_max' * (2 x_cap + 1);
    every candidate's x_cap comes from one embedding of each beta_n."""
    sizes = range(spec.y_max, 0, -1)
    for y_max, cap in zip(sizes, x_caps(fam, spec, sizes)):
        cells = (spec.n_hi - spec.n_lo + 1) * 2 * y_max * (2 * cap + 1)
        if cells <= NAIVE_CELL_BUDGET or y_max == 1:
            return replace(spec, y_max=y_max), cells


def cmd_verify(args) -> int:
    families = []
    if args.family_file:
        with open(args.family_file, "r", encoding="utf-8") as handle:
            families.append(("file", family_from_json(handle.read())))
    for d_text in (args.D.split(",") if args.D else []):
        d = int(d_text)
        families.append((f"D={d}", example_family(d)))
    if not families:
        families = [(f"D={d}", example_family(d)) for d in (1, 2, 3)]
    failed = None
    for label, fam in families:
        for name, passed, detail in _verify_checks(fam, args.deep):
            status = "info" if passed is None else "ok" if passed else "FAIL"
            print(f"[{label}] {status:4s} {name}: {detail}")
            if passed is False and failed is None:
                failed = f"{label} {name}"
    if failed is not None:
        print(f"first failing identity: {failed}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicthue",
        description="Unit-indexed families of cubic Thue inequalities: "
                    "exact solving and proof auditing.")
    parser.add_argument("--output", choices=("table", "json"),
                        default="table", help="output mode")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--D", type=int, help="example-family parameter")
        p.add_argument("--family-file", help="JSON family record")

    p_family = sub.add_parser("family", help="print family members")
    add_family_args(p_family)
    p_family.add_argument("--n", required=True,
                          help="index or inclusive range lo..hi")

    p_solve = sub.add_parser("solve", help="enumerate solutions over a box")
    add_family_args(p_solve)
    p_solve.add_argument("--n", required=True, help="index range lo..hi")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--y-max", type=int, default=100)
    p_solve.add_argument("--oracle", action="store_true",
                         help="use the unpruned reference path")
    p_solve.add_argument("--naive", action="store_true",
                         help="with --oracle: literal triple loop")
    p_solve.add_argument("--include-trivial", action="store_true")
    p_solve.add_argument("--include-degenerate", action="store_true")

    p_trace = sub.add_parser("trace", help="audit one solution")
    add_family_args(p_trace)
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--x", type=int, required=True)
    p_trace.add_argument("--y", type=int, required=True)
    p_trace.add_argument("--k", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--D", help="comma-separated parameters, e.g. 1,2,3")
    p_verify.add_argument("--family-file", help="JSON family record")
    p_verify.add_argument("--deep", action="store_true",
                          help="add the 10^4 calibration scan and larger boxes")

    return parser


def _merge_range_values(argv: list[str]) -> list[str]:
    """Join `--n -5..5` into `--n=-5..5` so argparse accepts the dash."""
    import re

    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok == "--n" and i + 1 < len(argv)
                and re.fullmatch(r"-\d+(\.\.(-?\d+))?", argv[i + 1])):
            out.append(f"--n={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_range_values(
        list(sys.argv[1:] if argv is None else argv)))
    try:
        handler = {"family": cmd_family, "solve": cmd_solve,
                   "trace": cmd_trace, "verify": cmd_verify}[args.command]
        return handler(args)
    except _SOLUTION_INPUT_ERRORS as exc:
        print(f"not a valid solution input: {exc}", file=sys.stderr)
        return EXIT_NOT_A_SOLUTION
    except errors.NotASolution as exc:
        print(f"not a solution: {exc}", file=sys.stderr)
        return EXIT_NOT_A_SOLUTION
    except errors.PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (errors.InvalidParameter, errors.NotAUnit,
            errors.ReduciblePolynomial, errors.TotallyReal, errors.NonMonic,
            ValueError, OSError, json.JSONDecodeError) as exc:
        if args.command == "verify":
            print(f"verification setup failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
