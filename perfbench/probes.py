"""Kernel microbenchmarks, reported as per-layer metrics of the traced run.

Each probe times one public operation of a layer on operands drawn from
the seed, as the median over repeats of the mean time per call, in
microseconds.  Operands mimic what the workloads feed the kernels: dyadic
interval endpoints at a given binary precision, the D = 1 unit, and
embeddings on a freshly built field (whose root enclosures are not cached
yet, as in every CLI call).
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPEATS = 5


def _per_call_us(fn, number: int) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number * 1e6)
    return statistics.median(samples)


def _dyadic_interval(rng: random.Random, bits: int):
    from cubicthue.intervals import RI

    scale = 1 << bits
    lo = rng.randrange(scale, 2 * scale)
    return RI(Fraction(lo, scale), Fraction(lo + rng.randrange(1, 16), scale))


def run_probes(seed: int) -> dict[str, float]:
    from cubicthue.cubicfield import make_field
    from cubicthue.family import example_family, form_at
    from cubicthue.intervals import ri_log, ri_sin

    rng = random.Random(seed)
    out = {}
    for bits, number in ((64, 1000), (256, 500), (1024, 100)):
        a, b = _dyadic_interval(rng, bits), _dyadic_interval(rng, bits)
        out[f"probe.ri_mul_us.b{bits}"] = _per_call_us(lambda: a * b, number)
    a, b = _dyadic_interval(rng, 256), _dyadic_interval(rng, 256)
    out["probe.ri_add_us.b256"] = _per_call_us(lambda: a + b, 1000)

    x = _dyadic_interval(rng, 128)
    out["probe.ri_sin_us.b128"] = _per_call_us(lambda: ri_sin(x, 128), 100)
    out["probe.ri_log_us.b128"] = _per_call_us(lambda: ri_log(x, 128), 100)

    fam = example_family(1)
    eps = fam.epsilon
    out["probe.field_pow_us"] = _per_call_us(
        lambda: (eps ** 50, eps ** -50), 20) / 2

    def fresh_embed_us() -> float:
        field = make_field(fam.field.min_poly)
        g = field.gen()
        element = g * g + 3 * g + 3
        start = time.perf_counter()
        element.embed(Fraction(1, 10**30))
        return (time.perf_counter() - start) * 1e6

    out["probe.embed_us.p30"] = statistics.median(
        fresh_embed_us() for _ in range(25))

    indices = list(range(-10, 11))
    rng.shuffle(indices)
    out["probe.form_at_us"] = _per_call_us(
        lambda: [form_at(fam, n) for n in indices], 4) / len(indices)
    return out
