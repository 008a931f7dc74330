"""Per-cell reference scan of a solver box, for tests only.

`brute_force_oracle(..., naive=True)` steps every row of the box at once
by exact forward differences packed into fixed-width lanes of a few
integers, and unpacks only the lanes whose guard bit marks a value in
[-k, k].  The default `brute_force_oracle` searches monotone pieces of the
rows y > 0 and mirrors each hit to (-x, -y).  This reference makes one
`form.evaluate(x, y)` call per cell of the whole box, both halves, the axes
and degenerate indices included, and applies the rules of a solution
itself, so the packed scan agrees with it only if it skips no cell, steps
to no wrong value and lets no lane spill into another, and the default
oracle only if its windows and its mirror lose and invent no row.
"""

from __future__ import annotations

import math

from cubicthue.family import FormFamily, norm_form
from cubicthue.solver import SearchSpec, SolutionRecord, x_cap


def per_cell_reference(fam: FormFamily, spec: SearchSpec) -> list[SolutionRecord]:
    """Every (n, x, y) with |x| <= x_cap, |y| <= y_max and 0 < |F_n| <= k.

    Pairs with x y = 0 are dropped when `exclude_trivial` is set, and indices
    with a rational beta_n are skipped when `exclude_degenerate` is set and
    flagged degenerate otherwise."""
    if spec.k == 0:
        return []
    cap = x_cap(fam, spec)
    records = []
    for n in spec.indices():
        beta = fam.beta(n)
        degenerate = beta.is_rational()
        if degenerate and spec.exclude_degenerate:
            continue
        form = norm_form(beta)
        for y in range(-spec.y_max, spec.y_max + 1):
            for x in range(-cap, cap + 1):
                value = form.evaluate(x, y)
                if value == 0 or abs(value) > spec.k:
                    continue
                if spec.exclude_trivial and x * y == 0:
                    continue
                records.append(SolutionRecord(
                    n, x, y, value, math.gcd(x, y) == 1, degenerate))
    records.sort(key=lambda r: r.key)
    return records
