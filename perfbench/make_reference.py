"""Regenerate `perfbench/reference.json`, the outputs the benchmark checks.

    python3 perfbench/make_reference.py

The solution set of the `solve` box comes from `brute_force_oracle`, never
from `solve_box`, so the pruned solver is checked against the independent
path.  Certificate fields come from `cubicthue trace` on every solution,
and the check names from `cubicthue verify --D 1` with and without
`--deep`.  The file is committed: regenerate it only when an output format
changes on purpose.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import common

common.import_program()

from cubicthue import cli  # noqa: E402
from cubicthue.family import example_family, form_at  # noqa: E402
from cubicthue.solver import SearchSpec, brute_force_oracle, x_cap  # noqa: E402


def cap_note(fam, spec) -> dict:
    """The solver's |x| cap next to the bound closed under complex roots.

    Every solution has min_i |x - root_i y| <= k^(1/3), so
    |x| <= y_max * max_n max(|b_n|, |b'_n|) + k^(1/3) bounds the box; the
    value recorded here is an upper bound of it, rounded up."""
    scale = 1 << 64
    top = Fraction(0)
    for n in spec.indices():
        real, cplx = fam.beta(n).embed(Fraction(1, scale))
        mod2 = (max(abs(cplx.re.lo), abs(cplx.re.hi)) ** 2
                + max(abs(cplx.im.lo), abs(cplx.im.hi)) ** 2)
        cplx_hi = Fraction(math.isqrt(math.ceil(mod2 * scale * scale)) + 1,
                           scale)
        top = max(top, abs(real).hi, cplx_hi)
    cbrt_k = Fraction(math.ceil(spec.k ** (1 / 3) * 10**6) + 1, 10**6)
    closed = math.ceil(spec.y_max * top + cbrt_k)
    cap = x_cap(fam, spec)
    return {
        "x_cap": cap,
        "closed_bound": closed,
        "covered": cap >= closed,
        "note": "x_cap is y_max*ceil(max|b_n|)+k; closed_bound is "
                "y_max*max_n max(|b_n|,|b'_n|)+k^(1/3), rounded up; the cap "
                "covers it on this box, so the cap defect leaves this "
                "solution set unchanged",
    }


def certificate_fields(cert: dict) -> dict:
    lam = cert["lambda"]
    return {
        "n": cert["n"], "x": cert["x"], "y": cert["y"], "value": cert["value"],
        "case": cert["case"], "ell": cert["ell"], "xi1": cert["xi1"],
        "lambda_h": None if lam is None else lam["h"],
        "enclosures": {path: [encl["mid"], encl["rad"]] for path, encl, _digits
                       in common.certificate_enclosures(cert)},
    }


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cubicthue {' '.join(argv)} exited {code}")
    return out.getvalue()


def verify_check_names(deep: bool) -> list[str]:
    out = run_cli(["verify", "--D", "1"] + (["--deep"] if deep else []))
    return [common.parse_verify_line(line)[1] for line in out.splitlines()]


def main() -> None:
    fam = example_family(1)
    spec = SearchSpec(**common.SOLVE_BOX)
    records = brute_force_oracle(fam, spec)
    rows = [[r.n, r.x, r.y, r.value] for r in records]
    print(f"oracle: {len(rows)} solutions", file=sys.stderr)
    forms = {str(n): list(form_at(fam, n).coefficients)
             for n in spec.indices()}

    certs = []
    for n, x, y, _value in rows:
        certs.append(certificate_fields(
            json.loads(run_cli(common.trace_argv(n, x, y)))))
    print(f"certificates: {len(certs)}", file=sys.stderr)

    reference = {
        "schema": 1,
        "family": {"D": 1},
        "solve_box": common.SOLVE_BOX,
        "cap": cap_note(fam, spec),
        "forms": forms,
        "solutions": rows,
        "certificates": certs,
        "verify_checks": {"default": verify_check_names(False),
                          "deep": verify_check_names(True)},
    }
    with open(common.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
