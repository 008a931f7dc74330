"""Benchmark of `cubicthue`: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload solve --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from anywhere; the program is imported from `src/` next to this
directory, and the run fails (exit 2, no result) when it is absent.

With `--trace 0` a run measures set-up in fresh interpreters, then repeats
the workload batch (at least twice) while another batch still fits in
`--seconds`.  With `--trace 1` it runs the kernel probes and the import-time
probe, then repeats pairs of an untraced and a traced batch the same way.
Every output is checked against `reference.json` in both modes.

Timings are as measured, and every one is a median over the run: `wall_s`
is the median batch, `op_p50_ms` and `op_p90_ms` are percentiles over every
operation latency of every batch, `setup_s` is the median over fresh
interpreters, and the layer times are medians over the traced batches.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it repeat the metrics for people,
with the failure fraction and an environment record.  A fuller record, with
every batch and the spans of the last traced batch, goes to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import common
from probes import run_probes
from tracing import Tracer
from workloads import WORKLOADS, percentile

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 60

# import cubicthue and build the D = 1 family in a fresh interpreter, timed
SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import cubicthue\n"
              "cubicthue.example_family(1)\n"
              "print(time.perf_counter() - t)\n")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def run_seconds() -> float:
    """The run length that BENCHMARK.json gives the benchmark."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=common.ROOT,
                          env=common.program_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def setup_s() -> float:
    """Median time from a fresh interpreter to a constructed family."""
    args = ["-c", SETUP_CODE]
    _child(args)  # writes bytecode caches, untimed
    return statistics.median(float(_child(args).stdout)
                             for _ in range(SETUP_RUNS))


def sympy_import_s() -> float:
    """Median cumulative import time of `sympy` under `import cubicthue`."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        err = _child(["-X", "importtime", "-c", "import cubicthue"]).stderr
        micros = 0  # sympy no longer imported
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "sympy":
                micros = int(parts[1])
        samples.append(micros / 1e6)
    return statistics.median(samples)


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "sympy": importlib.metadata.version("sympy"),
        "loadavg_before": os.getloadavg(),
    }


def layer_metrics(tracer) -> dict[str, float]:
    g = tracer.group
    evals = tracer.form_evals["solver.solve_box"]
    solutions = g("solver.solve_box").items
    return {
        "solver.solve_box_s": g("solver.solve_box").self_s,
        "solver.form_evals": evals,
        "solver.evals_per_solution": evals / solutions if solutions else 0,
        "solver.oracle_s": g("solver.oracle").self_s,
        "solver.oracle_form_evals": tracer.form_evals["solver.oracle"],
        "family.form_at_calls": g("family.form_at").calls,
        "family.beta_calls": g("family.beta").calls,
        "family.form_at_s": g("family.form_at").incl_s,
        "cubicfield.embed_calls": g("cubicfield.embed").calls,
        "cubicfield.embed_s": g("cubicfield.embed").incl_s,
        "cubicfield.mul_calls": g("cubicfield.mul").calls,
        "cubicfield.pow_s": g("cubicfield.pow").incl_s,
        "cubicfield.root_bits_max": g("cubicfield.root").bits_max,
        "intervals.ring_ops": g("intervals.ring").calls,
        "intervals.ring_s": g("intervals.ring").incl_s,
        "intervals.bridge_calls": g("intervals.bridge").calls,
        "intervals.bridge_s": g("intervals.bridge").incl_s,
        "intervals.bridge_bits_max": g("intervals.bridge").bits_max,
        "reduction.decompose_calls": g("reduction.decompose").calls,
        "reduction.decompose_s": g("reduction.decompose").incl_s,
        "reduction.unit_reduce_s": g("reduction.unit_reduce").incl_s,
        "tracer.siegel_terms_s": g("tracer.siegel_terms").incl_s,
        "tracer.lambda_s": g("tracer.lambda").incl_s,
        "tracer.lambda_calls": g("tracer.lambda").calls,
        "tracer.ledger_s": g("tracer.ledger").incl_s,
        "tracer.precision_bits_max": g("tracer.siegel_terms").bits_max,
        "heights.abs_log_height_s": g("heights.abs_log_height").incl_s,
        "heights.height_from_conjugates_s":
            g("heights.height_from_conjugates").incl_s,
        "bounds.calibrate_c2_s": g("bounds.calibrate_c2").incl_s,
        "reporting.json_s": g("reporting.json").incl_s,
    }


def _repeat(step, seconds: float) -> None:
    """Call `step` at least MIN_REPEATS times, then while another call of
    typical length still ends within `seconds` of the start."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(durations) >= MIN_REPEATS
                and elapsed + statistics.median(durations) > seconds):
            return


def run_untraced(workload, argvs, seconds: float, main):
    """(end-to-end metrics, batches).

    The percentiles pool the operation latencies of all batches."""
    setup = setup_s()
    batches = []
    _repeat(lambda: batches.append(workload.run_batch(main, argvs)), seconds)
    op_ms = [ms for b in batches for ms in b.op_ms]
    metrics = {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "setup_s": setup,
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, batches


def run_traced(workload, argvs, seconds: float, main, seed: int):
    metrics = {name: (value, "us") for name, value in run_probes(seed).items()}
    metrics["setup.sympy_import_s"] = (sympy_import_s(), "s")
    untraced, traced, layers, spans = [], [], [], []

    def pair():
        untraced.append(workload.run_batch(main, argvs))
        tracer = Tracer()
        with tracer:
            traced.append(workload.run_batch(main, argvs, tracer))
        layers.append(layer_metrics(tracer))
        spans[:] = tracer.spans_json()

    _repeat(pair, seconds)
    counts = [{k: v for k, v in d.items() if not k.endswith("_s")}
              for d in layers]
    if any(c != counts[0] for c in counts):
        print("warning: traced counts differ between batches", file=sys.stderr)
    for name in layers[0]:
        if name in counts[0]:
            metrics[name] = (counts[0][name], "bits" if name.endswith("_bits_max")
                             else "count")
        else:
            metrics[name] = (statistics.median(d[name] for d in layers), "s")
    # untraced and traced batches alternate, so each pair ran at about the
    # same host speed
    metrics["trace_overhead_frac"] = (statistics.median(
        (t.wall_s - u.wall_s) / u.wall_s for u, t in zip(untraced, traced)),
        "ratio")
    return metrics, untraced + traced, spans


def run_one(args) -> int:
    try:
        common.import_program()
        with open(common.REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
    except (common.ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from cubicthue import cli

    env = environment()
    workload = WORKLOADS[args.workload](reference)
    argvs = workload.inputs(args.seed)
    spans = []
    if args.trace:
        metrics, batches, spans = run_traced(workload, argvs, args.seconds,
                                             cli.main, args.seed)
    else:
        metrics, batches = run_untraced(workload, argvs, args.seconds,
                                        cli.main)
    env["loadavg_after"] = os.getloadavg()
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    problems = [p for b in batches for p in b.problems]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"batches={len(batches)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} operations)")
    print("  env " + json.dumps(env))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")

    os.makedirs(common.OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "batch_wall_s": [b.wall_s for b in batches],
              "batch_op_ms": [b.op_ms for b in batches],
              "problems": problems[:200], "spans": spans}
    out_path = os.path.join(
        common.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    code = 0
    for name in ("solve", "trace", "verify"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not proc.stdout.strip():
            return proc.returncode
        code = code or proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results["solve"]["metrics"])
    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for metric in names:
        row = "".join(f"{r['metrics'][metric]['value']:14.6g}"
                      for r in results.values())
        print(f"{metric:34s}{row}  {results['solve']['metrics'][metric]['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "trace", "verify", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
