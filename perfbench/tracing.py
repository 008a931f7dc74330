"""Call tracing of `cubicthue` from outside the program.

`Tracer.install()` replaces the public functions and methods listed in
`TARGETS` by timing wrappers, in every `cubicthue` module namespace that
binds them (modules that did `from .intervals import ri_sin` hold their own
reference, so patching `intervals.ri_sin` alone would miss those calls) and
under every alias a class defines (`__radd__ = __add__`).  `uninstall()`
puts the originals back.

Each wrapped function belongs to a group, one per reported quantity.  A
group accumulates

* `calls`: calls into any of its functions;
* `incl_s`: wall time during which at least one of its functions is on the
  stack, so recursion (`FieldElement.__pow__` with a negative exponent) and
  nesting inside the group (`CBox.__mul__` calling `RI.__mul__`) are not
  counted twice;
* `self_s`: time in its functions minus time in wrapped callees;
* `bits_max`: the largest working precision passed to or returned by it,
  for the groups that have one;
* `items`: the number of records its calls returned (`solve_box`).

Groups marked as spans also record each call as a span (id, parent id, name,
start, end) in memory, for the workload operations, certificates, solver
calls and tracer stages; the hot kernels are aggregated only.
`BinaryCubicForm.evaluate` is counted, not timed, and the count is split by
which solver entry point is on the stack.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# (group, module, attribute path, measure, span).  `measure` is the index
# of a working-precision argument whose maximum the group keeps, "result"
# for the precision a SiegelTrace reports, or "len" to sum result lengths.
TARGETS = [
    ("solver.solve_box", "solver", "solve_box", "len", True),
    ("solver.oracle", "solver", "brute_force_oracle", None, True),
    ("family.form_at", "family", "form_at", None, False),
    ("family.beta", "family", "FormFamily.beta", None, False),
    ("cubicfield.embed", "cubicfield", "FieldElement.embed", None, False),
    ("cubicfield.mul", "cubicfield", "FieldElement.__mul__", None, False),
    ("cubicfield.pow", "cubicfield", "FieldElement.__pow__", None, False),
    ("cubicfield.root", "cubicfield", "CubicField.real_root", 1, False),
    ("cubicfield.root", "cubicfield", "CubicField.complex_root", 1, False),
    *[("intervals.ring", "intervals", f"{cls}.{op}", None, False)
      for cls in ("RI", "CBox")
      for op in ("__add__", "__sub__", "__rsub__", "__mul__", "recip")],
    ("intervals.bridge", "intervals", "ri_sqrt", 1, False),
    ("intervals.bridge", "intervals", "ri_root", 2, False),
    ("intervals.bridge", "intervals", "ri_log", 1, False),
    ("intervals.bridge", "intervals", "ri_exp", 1, False),
    ("intervals.bridge", "intervals", "ri_sin", 1, False),
    ("intervals.bridge", "intervals", "ri_cos", 1, False),
    ("intervals.bridge", "intervals", "ri_atan2", 2, False),
    ("intervals.bridge", "intervals", "ri_pi", 0, False),
    ("reduction.decompose", "reduction", "decompose_solution", None, True),
    ("reduction.unit_reduce", "reduction", "unit_reduce", None, False),
    ("tracer.certificate", "tracer", "trace_certificate", None, True),
    ("tracer.siegel_terms", "tracer", "siegel_terms", "result", True),
    ("tracer.ledger", "tracer", "inequality_ledger", None, True),
    ("tracer.lambda", "tracer", "lambda_machinery", None, True),
    ("heights.abs_log_height", "heights", "abs_log_height", None, True),
    ("heights.height_from_conjugates", "heights", "height_from_conjugates",
     None, True),
    ("bounds.calibrate_c2", "bounds", "calibrate_c2", None, True),
    ("reporting.json", "tracer", "certificate_json", None, False),
    ("reporting.json", "solver", "SolutionRecord.to_json", None, False),
    ("reporting.json", "reporting", "ri_json", None, False),
    ("reporting.json", "reporting", "cbox_json", None, False),
]


class Group:
    __slots__ = ("name", "calls", "incl_s", "self_s", "depth", "bits_max",
                 "items", "span")

    def __init__(self, name: str, span: bool):
        self.name = name
        self.span = span
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.bits_max = 0
        self.items = 0


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Wrappers, per-group accumulators and the span list of one traced run."""

    def __init__(self):
        self.groups: dict[str, Group] = {}
        self.spans: list[Span] = []
        self.form_evals = {"solver.solve_box": 0, "solver.oracle": 0}
        # child time accumulated by each open wrapped frame; the bottom
        # entry absorbs top-level calls
        self._child = [0.0]
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself --------------------------------

    def open_span(self, name: str) -> Span:
        parent = self._open_spans[-1] if self._open_spans else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._open_spans.append(span.span_id)
        return span

    def close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open_spans.pop()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, group: Group, measure):
        perf = time.perf_counter
        child = self._child
        spans = self.spans
        open_spans = self._open_spans

        def wrapper(*args, **kwargs):
            group.calls += 1
            group.depth += 1
            if isinstance(measure, int):
                bits = args[measure] if len(args) > measure else 0
                if isinstance(bits, int) and bits > group.bits_max:
                    group.bits_max = bits
            span = None
            if group.span:
                parent = open_spans[-1] if open_spans else None
                span = Span(len(spans), parent, group.name, perf())
                spans.append(span)
                open_spans.append(span.span_id)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = child.pop()
                child[-1] += dt
                group.self_s += dt - inner
                group.depth -= 1
                if group.depth == 0:
                    group.incl_s += dt
                if span is not None:
                    span.end = t0 + dt
                    open_spans.pop()
            if measure == "result":
                group.bits_max = max(group.bits_max, result.precision_bits)
            elif measure == "len":
                group.items += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_evaluate(self, fn):
        solve = self.groups["solver.solve_box"]
        oracle = self.groups["solver.oracle"]
        evals = self.form_evals

        def evaluate(form, x, y):
            if solve.depth:
                evals["solver.solve_box"] += 1
            elif oracle.depth:
                evals["solver.oracle"] += 1
            return fn(form, x, y)

        evaluate.__wrapped__ = fn
        return evaluate

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cubicthue" or name.startswith("cubicthue.")]
        for group_name, module, path, measure, span in TARGETS:
            group = self.groups.setdefault(group_name, Group(group_name, span))
            owner = importlib.import_module(f"cubicthue.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, group, measure)
            if cls_path:
                # the method and every alias of it on the class
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, name, wrapper)
            else:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        from cubicthue.family import BinaryCubicForm

        self._patch(BinaryCubicForm, "evaluate",
                    self._counted_evaluate(BinaryCubicForm.evaluate))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------

    def group(self, name: str) -> Group:
        return self.groups[name]

    def spans_json(self) -> list[dict]:
        return [{"id": s.span_id, "parent": s.parent_id, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]
