"""Runtime configuration: precision targets, bound constants, output mode."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import BakerConfig
from .errors import InvalidParameter

PRECISION_ENV = "CUBICTHUE_PRECISION"


@dataclass(frozen=True, slots=True)
class Config:
    precision: Fraction = Fraction(1, 10**30)
    baker: BakerConfig = field(default_factory=BakerConfig)
    output: str = "table"

    def __post_init__(self):
        if self.precision <= 0:
            raise InvalidParameter("precision must be positive")
        if self.output not in ("table", "json"):
            raise InvalidParameter(f"unknown output mode {self.output!r}")


def load_config(path: str | None = None, env=os.environ,
                output_override: str | None = None) -> Config:
    """Config from an optional JSON file, with environment precision override.

    Recognized keys: precision (decimal string), baker {c0, c1, c2_default},
    output ("table" | "json").  The precision cap of the refinement loops
    is the constant `intervals.MAX_BITS`, not a setting."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    precision = Fraction(str(data.get("precision", "1e-30")))
    if env.get(PRECISION_ENV):
        precision = Fraction(env[PRECISION_ENV])
    baker_data = data.get("baker", {})
    baker = BakerConfig(
        c0=float(baker_data.get("c0", 1.0)),
        c1=float(baker_data.get("c1", 1.0)),
        c2_default=float(baker_data.get("c2_default", 2.0)),
    )
    output = output_override or data.get("output", "table")
    return Config(
        precision=precision,
        baker=baker,
        output=output,
    )
