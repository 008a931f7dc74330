"""Paths, program import and output parsing shared by the benchmark scripts."""

from __future__ import annotations

import decimal
import os
import re
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# ROADMAP's canonical box for the D = 1 family
SOLVE_BOX = {"k": 100, "n_lo": -10, "n_hi": 10, "y_max": 20000}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import `cubicthue` from this checkout's `src`, and nowhere else."""
    init = os.path.join(SRC, "cubicthue", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no cubicthue sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cubicthue

    if os.path.realpath(os.path.dirname(cubicthue.__file__)) != \
            os.path.realpath(os.path.dirname(init)):
        raise ProgramMissing(f"cubicthue imported from {cubicthue.__file__}")
    return cubicthue


def program_env() -> dict:
    """Environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# -- certificate enclosures -------------------------------------------------------

def certificate_enclosures(cert: dict):
    """Yield (path, {"mid", "rad"}, digits) for the enclosures the checker uses.

    `digits` is the number of significant digits the certificate prints for
    that midpoint."""
    yield "balance", cert["balance"], 25
    if cert["kappa9_emp"] is not None:
        yield "kappa9_emp", cert["kappa9_emp"], 25
    for name, box in cert["terms"].items():
        yield f"terms.{name}.re", box["re"], 30
        yield f"terms.{name}.im", box["im"], 30
    for name, enclosure in cert["angles"].items():
        yield f"angles.{name}", enclosure, 30
    lam = cert["lambda"]
    if lam is not None:
        yield "lambda.nu", lam["nu"], 30
        yield "lambda.theta_n", lam["theta_n"], 30
        yield "lambda.Lambda.re", lam["Lambda"]["re"], 30
        yield "lambda.Lambda.im", lam["Lambda"]["im"], 30
        yield "lambda.mu_height", lam["mu_height"], 25


def _half_ulp(mid: decimal.Decimal, digits: int) -> Fraction:
    """Half a unit in the last printed place of a `digits`-digit midpoint."""
    if mid == 0:
        return Fraction(0)
    return Fraction(decimal.Decimal(5).scaleb(mid.adjusted() - digits))


def enclosures_meet(new: dict, new_digits: int, ref_mid: str, ref_rad: str,
                    ref_digits: int) -> bool:
    """True when the printed enclosure `new` contains the reference midpoint.

    Midpoints are printed to a fixed number of significant digits and the true
    value lies within the reference radius of the reference midpoint, so
    the test allows the reference radius and both rounding errors: a correct
    enclosure at any precision passes, one that misses the value fails."""
    new_mid = decimal.Decimal(new["mid"])
    old_mid = decimal.Decimal(ref_mid)
    slack = (Fraction(decimal.Decimal(new["rad"])) + Fraction(decimal.Decimal(ref_rad))
             + _half_ulp(new_mid, new_digits) + _half_ulp(old_mid, ref_digits))
    return abs(Fraction(new_mid) - Fraction(old_mid)) <= slack


# -- verify output ------------------------------------------------------------------

_VERIFY_LINE = re.compile(r"\[(?P<label>[^\]]+)\] (?P<status>\S+)\s+"
                          r"(?P<name>\w+): (?P<detail>.*)")


def parse_verify_line(line: str) -> tuple[str, str, str]:
    """(status, check name, detail) of one `verify` output line."""
    m = _VERIFY_LINE.fullmatch(line)
    if m is None:
        raise ValueError(f"unparsable verify line {line!r}")
    return m["status"], m["name"], m["detail"]


def trace_argv(n: int, x: int, y: int) -> list[str]:
    return ["trace", "--D", "1", "--n", str(n), "--x", str(x), "--y", str(y),
            "--k", str(SOLVE_BOX["k"])]
