"""Infinitesimal rotations, the rigid-body velocity field, and attitude
integration from sampled angular velocity.

For small Q the rotation matrix collapses to 1 + 2(Qx) and Rodrigues vectors
compose additively; matching dx = 2(Q x x) against dx/dt = w x x gives the
per-step increment Q = w*dt/2.  The integrator uses that increment (or its
exact constant-rate form tan(|w|dt/2) * w/|w|, finite for every finite step
angle, since no float is an odd multiple of pi) per step but always
accumulates with the exact composition law, so the per-step approximation
is the only error source.  The increment and the integrator loop are the
float routines ``rodvec._lifted._increment`` and ``_integrate``; the
functions here convert the typed values at their boundary.
"""

from dataclasses import dataclass

from rodvec._lifted import (
    EXACT_STEP,
    FIRST_ORDER,
    SCHEMES,
    _floats,
    _increment,
    _integrate,
)
from rodvec.composition import RotationResult
from rodvec.core import Matrix3, RodriguesVector, Vec3, _from_lifted, _lift

__all__ = [
    "AngularVelocity",
    "AngularVelocitySample",
    "AttitudeTrajectory",
    "SCHEMES",
    "FIRST_ORDER",
    "EXACT_STEP",
    "small_rotation_matrix",
    "infinitesimal_displacement",
    "compose_infinitesimal",
    "velocity_field",
    "rodrigues_increment",
    "integrate_attitude",
]


@dataclass(frozen=True)
class AngularVelocity(Vec3):
    """Instantaneous angular velocity, rad/s, in the fixed frame."""


@dataclass(frozen=True)
class AngularVelocitySample:
    """The angular velocity at time t; t is stored as a float, with the
    checks and errors of Vec3."""

    t: float
    omega: AngularVelocity

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", *_floats(self.t))


@dataclass(frozen=True)
class AttitudeTrajectory:
    """Orientation at each sample time; entry 0 is the initial orientation."""

    points: tuple[tuple[float, RotationResult], ...]

    @property
    def final(self) -> RotationResult:
        return self.points[-1][1]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def small_rotation_matrix(q: RodriguesVector) -> Matrix3:
    """First-order rotation matrix 1 + 2(Qx).

    Not orthogonal for finite Q (the defect is O(||Q||^2)), hence returned
    as a plain matrix on purpose.
    """
    x, y, z = q.as_tuple()
    return Matrix3((1.0, -2.0 * z, 2.0 * y, 2.0 * z, 1.0, -2.0 * x, -2.0 * y, 2.0 * x, 1.0))


def infinitesimal_displacement(q: RodriguesVector, x: Vec3) -> Vec3:
    """dx = 2 (Q x x).

    Exactly twice the tangent-to-bisector step: (1 + Qx) x - x = dx/2 is an
    algebraic identity at any magnitude, not an approximation.
    """
    c = q.cross(x)
    return Vec3(2.0 * c.x, 2.0 * c.y, 2.0 * c.z)


def compose_infinitesimal(q1: RodriguesVector, q2: RodriguesVector) -> RodriguesVector:
    """Small-rotation composition: plain vector addition (commutative)."""
    return q1 + q2


def velocity_field(omega: AngularVelocity, x: Vec3) -> Vec3:
    """dx/dt = w x x about a fixed point at the origin."""
    return omega.cross(x)


def rodrigues_increment(omega: AngularVelocity, dt: float, scheme: str = FIRST_ORDER) -> RodriguesVector:
    """Rodrigues vector of the rotation accrued over dt at rate omega.

    first-order: Q = w*dt/2.  exact-step: Q = tan(|w|dt/2) * w/|w|, exact
    when omega is constant over the step, for a step angle |w|dt of any
    number of turns: tan has its pole at odd multiples of pi, which no
    float is, so Q is finite for every finite step angle.

    Raises:
        StepTooLarge: when the increment is past the float range: in the
            exact-step scheme when |w|*dt overflows, in the first-order
            scheme when a component of w*dt/2 does.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return RodriguesVector(*_increment(omega.x, omega.y, omega.z, *_floats(dt), scheme == EXACT_STEP))


def integrate_attitude(
    samples: list[AngularVelocitySample] | tuple[AngularVelocitySample, ...],
    scheme: str = EXACT_STEP,
    initial: RotationResult | None = None,
    substeps: int = 1,
) -> AttitudeTrajectory:
    """Propagate orientation through piecewise-linear angular velocity.

    Each sample interval is split into ``substeps`` equal steps; omega is
    evaluated at every step midpoint (removing the O(dt) quadrature error
    that would mask the scheme order), the step rotation comes from
    :func:`rodrigues_increment`, and accumulation is always the exact
    composition - never small-angle addition.  Orientations are recorded at
    the original sample times only.

    Raises:
        NonMonotonicTime: if sample times are not strictly increasing.
        ValueError: if two sample times are farther apart than the largest
            float, so that their interval has no step size.
        StepTooLarge: propagated from a step's increment past the float
            range (see :func:`rodrigues_increment`).
    """
    times = [s.t for s in samples]
    rates = [s.omega.as_tuple() for s in samples]
    rows = _integrate(times, rates, scheme, None if initial is None else _lift(initial), substeps)
    return AttitudeTrajectory(tuple((t, _from_lifted(s, x, y, z)) for t, s, x, y, z in rows))
