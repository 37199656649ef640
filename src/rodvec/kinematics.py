"""Infinitesimal rotations, the rigid-body velocity field, and attitude
integration from sampled angular velocity.

For small Q the rotation matrix collapses to 1 + 2(Qx) and Rodrigues vectors
compose additively; matching dx = 2(Q x x) against dx/dt = w x x gives the
per-step increment Q = w*dt/2.  The integrator uses that increment (or its
exact constant-rate form tan(|w|dt/2) * w/|w|) per step but always
accumulates with the exact composition law, so the per-step approximation
is the only error source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

from rodvec.composition import RotationResult, _compose_lifted, _from_lifted, _lift
from rodvec.core import Matrix3, RodriguesVector, Vec3, _require_finite, _scaled_norm
from rodvec.errors import NonMonotonicTime, StepTooLarge

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

FIRST_ORDER = "first-order"
EXACT_STEP = "exact-step"
SCHEMES = (FIRST_ORDER, EXACT_STEP)

#: exact-step pole guard: |w|*dt must stay below pi - this
STEP_ANGLE_MARGIN = 1e-3


@dataclass(frozen=True)
class AngularVelocity(Vec3):
    """Instantaneous angular velocity, rad/s, in the fixed frame."""


@dataclass(frozen=True)
class AngularVelocitySample:
    t: float
    omega: AngularVelocity

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError("non-finite sample time")


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
    when omega is constant over the step.

    Raises:
        StepTooLarge: in the exact-step scheme when |w|*dt reaches
            pi - 1e-3 (the half-angle tangent pole).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return RodriguesVector(*_increment(omega.x, omega.y, omega.z, dt, scheme == EXACT_STEP))


def _increment(wx: float, wy: float, wz: float, dt: float, exact: bool) -> tuple[float, float, float]:
    """rodrigues_increment on floats; a non-finite Q raises ValueError.

    |w| is the plain square root of the sum of squares wherever that sum
    is a finite normal float, and is taken from a power-of-two scaled
    copy of w elsewhere, so that no |w| overflows or underflows.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if exact:
        n, f = _scaled_norm(wx, wy, wz)
        w = n / f
        if w == 0.0:
            return 0.0, 0.0, 0.0
        angle = w * dt
        if angle >= math.pi - STEP_ANGLE_MARGIN:
            raise StepTooLarge(
                f"step spans {angle:.6g} rad, at/over the half-angle tangent pole; "
                "reduce dt or add substeps"
            )
        c = math.tan(0.5 * angle) / w
    else:
        c = 0.5 * dt
    q = (wx * c, wy * c, wz * c)
    if not math.isfinite(q[0] + q[1] + q[2]):  # the sum may also overflow
        _require_finite(*q)
    return q


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
        StepTooLarge: propagated from the exact-step increment.
    """
    times = [s.t for s in samples]
    rates = [s.omega.as_tuple() for s in samples]
    rows = _integrate(times, rates, scheme, None if initial is None else _lift(initial), substeps)
    return AttitudeTrajectory(tuple((t, _from_lifted(s, x, y, z)) for t, s, x, y, z in rows))


def _integrate(
    times: list[float],
    rates: list[tuple[float, float, float]],
    scheme: str,
    start: tuple[float, float, float, float] | None,
    substeps: int,
) -> list[tuple[float, float, float, float, float]]:
    """integrate_attitude on finite sample times and (wx, wy, wz) rates.

    The orientation is carried as the Euler parameters of the composition
    law, (1, Q) or (0, n), from ``start`` (the identity when None), and is
    returned as such: one (t, s, x, y, z) row per sample time, in a list.
    """
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    for t0, t1 in pairwise(times):
        if not t1 > t0:
            raise NonMonotonicTime(f"sample times must increase: {t0} -> {t1}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    exact = scheme == EXACT_STEP

    s, x, y, z = (1.0, 0.0, 0.0, 0.0) if start is None else start
    rows = [(times[0], s, x, y, z)]
    for (t0, t1), ((ax, ay, az), (bx, by, bz)) in zip(pairwise(times), pairwise(rates)):
        dt = (t1 - t0) / substeps
        # an interval shorter than substeps * 5e-324 has steps of dt = 0,
        # which are the identity
        for i in range(substeps if dt > 0.0 else 0):
            # omega at the step midpoint, linear between the samples
            u = (t0 + (i + 0.5) * dt - t0) / (t1 - t0)
            wx, wy, wz = ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)
            if not math.isfinite(wx + wy + wz):  # the sum may also overflow
                _require_finite(wx, wy, wz)
            qx, qy, qz = _increment(wx, wy, wz, dt, exact)
            s, x, y, z = _compose_lifted(1.0, qx, qy, qz, s, x, y, z)
        rows.append((t1, s, x, y, z))
    return rows
