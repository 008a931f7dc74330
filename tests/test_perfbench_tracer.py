"""The benchmark's call tracer and kernel probes run against the program."""

import importlib.util
import sys
from pathlib import Path

import cubicthue
from cubicthue import cubicfield, family, intervals, reduction

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROBES = TRACING.with_name("probes.py")


def _tracing_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    originals = (intervals.ri_cos, reduction.decompose_solution,
                 family.FormFamily.__dict__["beta"])
    tracer = tracing.Tracer()
    tracer.install()  # KeyError if a TARGETS name no longer exists
    try:
        assert intervals.ri_cos.__wrapped__ is originals[0]
        assert reduction.decompose_solution.__wrapped__ is originals[1]
        fam = cubicthue.example_family(1)
        reduction.decompose_solution(fam, 0, 1, -1)
        # beta_0 is computed once per decomposition
        assert tracer.group("family.beta").calls == 1
        assert tracer.group("reduction.decompose").calls == 1
    finally:
        tracer.uninstall()
    assert (intervals.ri_cos, reduction.decompose_solution,
            family.FormFamily.__dict__["beta"]) == originals
    assert not hasattr(cubicfield.FieldElement.embed, "__wrapped__")


def test_probes_run():
    # the probes build RI operands from Fraction endpoints, as `--trace 1` does
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    metrics = probes.run_probes(1)
    assert metrics and all(value > 0 for value in metrics.values())
