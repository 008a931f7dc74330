"""The three workloads: their inputs, one timed batch, and the output checks.

Every operation goes through `cubicthue.cli.main` in this process with
stdout captured, so a batch costs what the user's command costs minus
interpreter start-up (reported separately as `setup_s`).

* `solve`: one `solve --D 1 --n -10..10 --k 100 --y-max 20000` in JSON.
  An operation is the solve call.
* `trace`: one `trace` per solution class of that box.  Solutions come in
  pairs (x, y), (-x, -y) with equal certificate cost, and the seed picks
  one member of each of the 104 pairs and the order, so every seed audits
  the same classes and the batch cost barely depends on the seed.  An
  operation is one certificate.
* `verify`: `verify --D 1`, then `verify --D 1 --deep`.  An operation is
  one check line, and a latency sample is one verify command (many check
  lines take only tens of milliseconds, too short to time steadily).
  The seed is unused.

The checks compare every output with `reference.json`, which
`brute_force_oracle`, `cubicthue trace` and `cubicthue verify` produced once
(see `make_reference.py`).
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import common


@dataclass
class Call:
    argv: list[str]
    code: object
    stdout: str
    stderr: str
    start: float
    end: float


@dataclass
class Batch:
    wall_s: float
    op_ms: list[float]
    attempted: int
    failed: int
    problems: list[str]


def run_call(main, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception as exc:  # counted as a failed operation by the checks
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return Call(argv, code, out.getvalue(), err.getvalue(), start, end)


def _evaluate(coeffs: list[int], x: int, y: int) -> int:
    a0, a1, a2, a3 = coeffs
    return a0 * x**3 + a1 * x * x * y + a2 * x * y * y + a3 * y**3


def _check_each(problems_of, calls: list[Call]) -> tuple[int, int, list[str]]:
    """One operation per call; a call with any problem is a failed one."""
    failed = 0
    problems = []
    for call in calls:
        try:
            found = problems_of(call)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"{' '.join(call.argv)}: malformed output ({exc!r})"]
        failed += bool(found)
        problems.extend(found)
    return len(calls), failed, problems


class Workload:
    name = ""

    def __init__(self, reference: dict):
        self.ref = reference
        self.certs = {(c["n"], c["x"], c["y"]): c
                      for c in reference["certificates"]}

    def inputs(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, calls: list[Call]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over the operations of a batch."""
        raise NotImplementedError

    def run_batch(self, main, argvs: list[list[str]], tracer=None) -> Batch:
        """Run every operation once; with a tracer, each operation is a root
        span."""
        calls = []
        start = time.perf_counter()
        for argv in argvs:
            span = tracer.open_span(f"cli.{self.name}") if tracer else None
            calls.append(run_call(main, argv))
            if span is not None:
                tracer.close_span(span)
        wall = time.perf_counter() - start
        attempted, failed, problems = self.check(calls)
        return Batch(wall, [(c.end - c.start) * 1e3 for c in calls],
                     attempted, failed, problems)


class SolveWorkload(Workload):
    name = "solve"

    def inputs(self, seed: int) -> list[list[str]]:
        box = common.SOLVE_BOX
        return [["--output", "json", "solve", "--D", "1",
                 "--n", f"{box['n_lo']}..{box['n_hi']}", "--k", str(box["k"]),
                 "--y-max", str(box["y_max"])]]

    def check(self, calls):
        return _check_each(self._problems, calls)

    def _problems(self, call: Call) -> list[str]:
        if call.code != 0:
            return [f"solve exited {call.code}: {call.stderr.strip()}"]
        lines = call.stdout.splitlines()
        header = json.loads(lines[0]) if lines else None
        if header != {"schema": 1, **common.SOLVE_BOX}:
            return [f"solve header {header}"]
        k = common.SOLVE_BOX["k"]
        forms = self.ref["forms"]
        problems = []
        found = []
        for line in lines[1:]:
            row = json.loads(line)
            n, x, y, value = row["n"], row["x"], row["y"], row["value"]
            found.append((n, x, y, value))
            exact = _evaluate(forms[str(n)], x, y)
            if exact != value or not 0 < abs(value) <= k:
                problems.append(f"row {row}: F_n(x, y) = {exact}")
            if row["primitive"] != (math.gcd(x, y) == 1):
                problems.append(f"row {row}: primitive flag")
            cert = self.certs.get((n, x, y))
            if cert is None:
                continue
            if row.get("ell") != cert["ell"] or row.get("xi1") != cert["xi1"]:
                problems.append(f"row {row}: decomposition differs")
            mid, rad = cert["enclosures"]["balance"]
            if not common.enclosures_meet(row["balance"], 20, mid, rad, 25):
                problems.append(f"row {row}: balance misses {mid}")
        expected = sorted(tuple(r) for r in self.ref["solutions"])
        if sorted(found) != expected:
            missing = set(expected) - set(found)
            extra = set(found) - set(expected)
            problems.append(f"solution set differs: {len(missing)} missing, "
                            f"{len(extra)} extra, {len(found)} rows")
        return problems


class TraceWorkload(Workload):
    name = "trace"

    def inputs(self, seed: int) -> list[list[str]]:
        rng = random.Random(seed)
        pairs = sorted({(c["n"], abs(c["x"]), abs(c["y"]), c["x"] * c["y"] > 0)
                        for c in self.certs.values()})
        chosen = []
        for n, ax, ay, same_sign in pairs:
            x, y = (ax, ay) if same_sign else (ax, -ay)
            sign = rng.choice((1, -1))
            chosen.append((n, sign * x, sign * y))
        rng.shuffle(chosen)
        return [common.trace_argv(*solution) for solution in chosen]

    def check(self, calls):
        return _check_each(self._problems, calls)

    def _problems(self, call: Call) -> list[str]:
        options = dict(zip(call.argv[1::2], call.argv[2::2]))
        n, x, y = (int(options[flag]) for flag in ("--n", "--x", "--y"))
        label = f"trace n={n} x={x} y={y}"
        if call.code != 0:
            return [f"{label}: exited {call.code}: {call.stderr.strip()}"]
        cert = json.loads(call.stdout)
        ref = self.certs[(n, x, y)]
        problems = []
        for key in ("n", "x", "y", "value", "case", "ell", "xi1"):
            if cert[key] != ref[key]:
                problems.append(f"{label}: {key} {cert[key]!r} != {ref[key]!r}")
        lam = cert["lambda"]
        if (None if lam is None else lam["h"]) != ref["lambda_h"]:
            problems.append(f"{label}: lambda.h differs from {ref['lambda_h']}")
        checks = cert["checks"] + ([] if lam is None else lam["checks"])
        problems.extend(f"{label}: check {c['id']} fails"
                        for c in checks if c["holds"] is not True)
        seen = set()
        for path, enclosure, digits in common.certificate_enclosures(cert):
            seen.add(path)
            mid, rad = ref["enclosures"].get(path, (None, None))
            if mid is None or not common.enclosures_meet(enclosure, digits,
                                                         mid, rad, digits):
                problems.append(f"{label}: {path} misses reference {mid}")
        if seen != set(ref["enclosures"]):
            problems.append(f"{label}: enclosure fields differ")
        return problems


class VerifyWorkload(Workload):
    name = "verify"

    def inputs(self, seed: int) -> list[list[str]]:
        return [["verify", "--D", "1"], ["verify", "--D", "1", "--deep"]]

    def check(self, calls):
        attempted = failed = 0
        problems = []
        for call in calls:
            mode = "deep" if "--deep" in call.argv else "default"
            expected = self.ref["verify_checks"][mode]
            attempted += len(expected)
            found = []
            seen = {}
            for line in call.stdout.splitlines():
                try:
                    status, name, _detail = common.parse_verify_line(line)
                except ValueError as exc:
                    found.append(str(exc))
                    continue
                seen[name] = status
            bad = [name for name in expected if seen.get(name) != "ok"]
            found.extend(f"verify {mode}: {name} is {seen.get(name)}"
                         for name in bad)
            if list(seen) != expected:
                found.append(f"verify {mode}: checks {list(seen)}")
            if call.code != 0:
                found.append(f"verify {mode} exited {call.code}")
            # each check that is missing or not ok fails one operation, and
            # any other problem of the call fails at least one
            failed += max(len(bad), int(bool(found)))
            problems.extend(found)
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (SolveWorkload, TraceWorkload, VerifyWorkload)}


def percentile(values: list[float], pct: int) -> float:
    """`pct`-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
