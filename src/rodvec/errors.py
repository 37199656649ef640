"""Exception types shared across the package."""


class RodvecError(Exception):
    """Base class for all rodvec domain errors."""


class HalfTurnUndefined(RodvecError):
    """The Rodrigues vector tan(theta/2)*n has no value at theta = pi."""


class NotARotation(RodvecError):
    """A 3x3 matrix failed the special-orthogonality checks."""


class NotPerpendicular(RodvecError):
    """An input vector violated a perpendicularity precondition."""


class ParallelAxes(RodvecError):
    """Two rotation axes are (anti)parallel where distinct axes are required."""


class DegenerateComposition(RodvecError):
    """A composition landed on the half-turn branch where a regular result was required."""


class StepTooLarge(RodvecError):
    """An integration step's increment is past the float range: its rotation angle, or a
    first-order Q = w*dt/2, overflows."""


class NonMonotonicTime(RodvecError):
    """Sample times must be strictly increasing."""


class MissingInput(RodvecError):
    """A required argument for the requested figure kind was not supplied."""


class SpecFormatError(RodvecError):
    """A textual rotation spec or omega file could not be parsed."""
