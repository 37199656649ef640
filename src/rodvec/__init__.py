"""rodvec: rotation algebra on Rodrigues vectors.

The Rodrigues vector Q = tan(theta/2)*n encodes a rotation by theta about
the unit axis n in three free parameters.  This package provides the
representation conversions (axis-angle, matrix, half-turn), the Cayley
transform pair, the closed-form composition law with its half-turn branch,
the spherical-triangle (Donkin) construction behind that law, infinitesimal
and kinematic limits with an attitude integrator, and a CLI with an SVG
figure emitter.

Hot numeric kernels live in a compiled extension when it is built and
imports, and in pure Python otherwise; backend_name() says which is used.
"""

from rodvec._backend import backend_name
from rodvec.cayley import (
    cayley_inverse_explicit,
    cayley_residuals,
    cayley_rotation,
    rodrigues_from_matrix,
)
from rodvec.composition import (
    CompositionDiagnostics,
    RotationResult,
    compose,
    compose_general,
    composition_diagnostics,
)
from rodvec.core import (
    AxisAngle,
    HalfTurn,
    Matrix3,
    RodriguesVector,
    RotationMatrix,
    SkewMatrix,
    UnitVector,
    Vec3,
    apply_rotation,
    axis_angle_from_rodrigues,
    euler_rodrigues_matrix,
    invert_rotation,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    rodrigues_from_axis_angle,
    skew,
    unskew,
)
from rodvec.errors import (
    DegenerateComposition,
    HalfTurnUndefined,
    MissingInput,
    NonMonotonicTime,
    NotARotation,
    NotPerpendicular,
    ParallelAxes,
    RodvecError,
    SpecFormatError,
    StepTooLarge,
)
from rodvec.geometry import (
    FigureScene,
    SphericalTriangle,
    arc_angle,
    bisector_intersection,
    donkin_residual,
    donkin_triangle,
    donkin_verify,
    figure_scene,
    half_angle_point,
    tangent_to_bisector,
)
from rodvec.kinematics import (
    EXACT_STEP,
    FIRST_ORDER,
    AngularVelocity,
    AngularVelocitySample,
    AttitudeTrajectory,
    compose_infinitesimal,
    infinitesimal_displacement,
    integrate_attitude,
    rodrigues_increment,
    small_rotation_matrix,
    velocity_field,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # core
    "Vec3",
    "UnitVector",
    "AxisAngle",
    "RodriguesVector",
    "Matrix3",
    "SkewMatrix",
    "RotationMatrix",
    "HalfTurn",
    "skew",
    "unskew",
    "euler_rodrigues_matrix",
    "rodrigues_from_axis_angle",
    "axis_angle_from_rodrigues",
    "matrix_from_rodrigues",
    "matrix_from_half_turn",
    "apply_rotation",
    "invert_rotation",
    # cayley
    "cayley_rotation",
    "cayley_inverse_explicit",
    "rodrigues_from_matrix",
    "cayley_residuals",
    # composition
    "RotationResult",
    "CompositionDiagnostics",
    "compose",
    "compose_general",
    "composition_diagnostics",
    # geometry
    "SphericalTriangle",
    "FigureScene",
    "tangent_to_bisector",
    "bisector_intersection",
    "half_angle_point",
    "donkin_triangle",
    "donkin_verify",
    "donkin_residual",
    "arc_angle",
    "figure_scene",
    # kinematics
    "AngularVelocity",
    "AngularVelocitySample",
    "AttitudeTrajectory",
    "FIRST_ORDER",
    "EXACT_STEP",
    "small_rotation_matrix",
    "infinitesimal_displacement",
    "compose_infinitesimal",
    "velocity_field",
    "rodrigues_increment",
    "integrate_attitude",
    # errors
    "RodvecError",
    "HalfTurnUndefined",
    "NotARotation",
    "NotPerpendicular",
    "ParallelAxes",
    "DegenerateComposition",
    "StepTooLarge",
    "NonMonotonicTime",
    "MissingInput",
    "SpecFormatError",
]
