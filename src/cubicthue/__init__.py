"""Exact arithmetic and proof auditing for unit-indexed cubic Thue families."""

from .bounds import CalibrationResult, calibrate_c2
from .cubicfield import (
    CubicField,
    FieldElement,
    SplittingAlgebra,
    make_field,
)
from .family import (
    BinaryCubicForm,
    FormFamily,
    coefficient_sequence,
    example_family,
    family_from_json,
    family_to_json,
    form_at,
    make_family,
    swap_identity_check,
)
from .heights import (
    HeightReport,
    abs_log_height,
    check_fundamental,
    regulator,
)
from .reduction import Decomposition, decompose_solution, unit_reduce
from .solver import (
    SearchSpec,
    SolutionRecord,
    brute_force_oracle,
    solve_box,
)
from .tracer import (
    LambdaData,
    SiegelTrace,
    SolutionImages,
    classify_case,
    family_angles,
    inequality_ledger,
    lambda_machinery,
    siegel_terms,
    trace_certificate,
)

__version__ = "0.1.0"
