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

The public names are resolved on first access (PEP 562): ``import rodvec``
loads no submodule, and ``import rodvec.cli`` loads only what the command
line runs.
"""

__version__ = "0.1.0"

#: Each public name, by the public module that provides it, in the order of __all__.
_EXPORTS = {
    "rodvec._backend": "backend_name",
    "rodvec.core": """
        Vec3 UnitVector AxisAngle RodriguesVector Matrix3 SkewMatrix
        RotationMatrix HalfTurn skew unskew euler_rodrigues_matrix
        rodrigues_from_axis_angle axis_angle_from_rodrigues matrix_from_rodrigues
        matrix_from_half_turn apply_rotation invert_rotation
    """,
    "rodvec.cayley": """
        cayley_rotation cayley_inverse_explicit rodrigues_from_matrix cayley_residuals
    """,
    "rodvec.composition": """
        RotationResult CompositionDiagnostics compose compose_general
        composition_diagnostics
    """,
    "rodvec.geometry": """
        SphericalTriangle FigureScene tangent_to_bisector bisector_intersection
        half_angle_point donkin_triangle donkin_verify donkin_residual arc_angle
        figure_scene
    """,
    "rodvec.kinematics": """
        AngularVelocity AngularVelocitySample AttitudeTrajectory FIRST_ORDER
        EXACT_STEP small_rotation_matrix infinitesimal_displacement
        compose_infinitesimal velocity_field rodrigues_increment integrate_attitude
    """,
    "rodvec.errors": """
        RodvecError HalfTurnUndefined NotARotation NotPerpendicular ParallelAxes
        DegenerateComposition StepTooLarge NonMonotonicTime MissingInput
        SpecFormatError
    """,
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module that defines the public ``name`` and keep the value."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
