"""Exception hierarchy shared by all convexproj modules.

Each class carries the command-line exit code for its kind of failure:
domain errors keep the base class's 3, input-structure errors set 2,
flow-target errors 4 and chart errors 5.  `located` is the one place an
error gains the location (pants key, JSON path) it was raised under.
"""


class CoordinateError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class located:
    """Re-raise a CoordinateError from the block with the prefix ``where: ``."""

    __slots__ = ("where",)

    def __init__(self, where: str):
        self.where = where

    def __enter__(self):
        return None

    def __exit__(self, kind, err, traceback):
        if isinstance(err, CoordinateError):
            raise type(err)(f"{self.where}: {err}") from err
        return False


class WindowViolation(CoordinateError):
    """A (lambda, tau) pair lies outside Goldman's open boundary window."""


class DomainViolation(CoordinateError):
    """Shear/triangle data fails the length-positivity conditions, or a
    computed value leaves the float range."""


class NoPositiveRoot(CoordinateError):
    """The crossratio quadratic has no positive solution."""


class DegenerateConfiguration(CoordinateError):
    """A flag pairing or determinant is zero, or a configuration or holonomy is unrepresentable."""


class NonPositiveRatio(CoordinateError):
    """A projective ratio that must be positive is not."""


class ClosureViolation(CoordinateError):
    """Length matching across a decomposition curve fails."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CountMismatch(CoordinateError):
    """Pants/gluing/boundary counts are inconsistent."""

    exit_code = 2


class SlotReuse(CoordinateError):
    """A pants slot is glued or marked as boundary more than once."""

    exit_code = 2


class NonNegativeEuler(CoordinateError):
    """The surface does not have negative Euler characteristic."""

    exit_code = 2


class UnknownCurve(CoordinateError):
    """A curve key does not exist in the decomposition."""

    exit_code = 4


class BoundaryCurve(CoordinateError):
    """A flow was requested along a boundary curve."""

    exit_code = 4


class SchemaError(CoordinateError):
    """A coordinate file does not match the documented JSON schema."""

    exit_code = 2


class ChartFailure(CoordinateError):
    """A point cannot be placed in the rendering chart X+Y+Z=1."""

    exit_code = 5
