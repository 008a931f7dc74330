"""Runtime configuration: the precision target and the output mode."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter

PRECISION_ENV = "CUBICTHUE_PRECISION"


@dataclass(frozen=True, slots=True)
class Config:
    precision: Fraction = Fraction(1, 10**30)
    output: str = "table"

    def __post_init__(self):
        if self.precision <= 0:
            raise InvalidParameter("precision must be positive")
        if self.output not in ("table", "json"):
            raise InvalidParameter(f"unknown output mode {self.output!r}")


def load_config(path: str | None = None, env=os.environ,
                output_override: str | None = None) -> Config:
    """Config from an optional JSON file, with environment precision override.

    Recognized keys: precision (decimal string) and output ("table" |
    "json"); other keys are ignored.  The precision cap of the refinement
    loops is the constant `intervals.MAX_BITS`, not a setting."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    precision = Fraction(str(data.get("precision", "1e-30")))
    if env.get(PRECISION_ENV):
        precision = Fraction(env[PRECISION_ENV])
    output = output_override or data.get("output", "table")
    return Config(precision=precision, output=output)
