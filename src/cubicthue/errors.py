"""Exception hierarchy for the cubicthue package."""


class CubicThueError(Exception):
    """Base class for all package errors."""


class NonMonic(CubicThueError):
    """Defining polynomial must have leading coefficient 1."""


class ReduciblePolynomial(CubicThueError):
    """Cubic has a rational root, hence is reducible over Q."""


class TotallyReal(CubicThueError):
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


class NotAUnit(CubicThueError):
    """Element is not a unit of the ring of integers (|norm| != 1)."""


class InvalidParameter(CubicThueError):
    """Parameter outside the documented domain."""


class PrecisionExhausted(CubicThueError):
    """Requested certification not reachable within the precision cap."""


class AmbiguousOrdering(PrecisionExhausted):
    """Term magnitudes cannot be separated at maximum precision."""


class NotThirdCase(CubicThueError):
    """Logarithm machinery requires a trace classified with T2, T3 dominant."""
