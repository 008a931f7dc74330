"""Exception hierarchy; `cli.main` gives each family one exit code:
`InvalidParameter` with its subclasses (`NonMonic`, `ReduciblePolynomial`,
`TotallyReal`, `NotAUnit`) 2, or 5 under `verify`; `PrecisionExhausted` 3;
`NotASolution`, `DegenerateN`, `TrivialXY` and `ZeroValue` 4."""


class CubicThueError(Exception):
    """Base class for all package errors."""


class InvalidParameter(CubicThueError):
    """Parameter outside the documented domain."""


class NonMonic(InvalidParameter):
    """Defining polynomial must have leading coefficient 1."""


class ReduciblePolynomial(InvalidParameter):
    """Cubic has a rational root, hence is reducible over Q."""


class TotallyReal(InvalidParameter):
    """Cubic has three real roots (positive discriminant)."""


class DivisionByZero(CubicThueError, ZeroDivisionError):
    """Division by the zero field element."""


class ZeroElement(CubicThueError):
    """Operation undefined for the zero element."""


class NotASolution(CubicThueError):
    """(x, y) is outside the range 0 < |F_n(x, y)| <= k of a certificate."""


class ZeroValue(CubicThueError):
    """Form value is zero, outside the range 0 < |F| <= k."""


class TrivialXY(CubicThueError):
    """Solutions with x*y = 0 are excluded by hypothesis."""


class DegenerateN(CubicThueError):
    """Index n for which the form root is rational; the form degenerates
    to a perfect cube and the decomposition is undefined."""


class DegenerateAngle(CubicThueError):
    """Angle combination lies in Z*pi, where the sine lower bound is void."""


class NotAUnit(InvalidParameter):
    """Element is not a unit of the ring of integers (|norm| != 1)."""


class PrecisionExhausted(CubicThueError):
    """Requested certification not reachable within the precision cap."""


class AmbiguousOrdering(PrecisionExhausted):
    """Term magnitudes cannot be separated at maximum precision."""


class NotThirdCase(CubicThueError):
    """Logarithm machinery requires a trace classified with T2, T3 dominant."""
