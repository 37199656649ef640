"""The finite-rotation composition law and its half-turn branch.

Q3 = (Q1 + Q2 + Q2 x Q1) / (1 - Q2.Q1) represents R(Q2) R(Q1): the second
rotation is the FIRST argument, mirroring matrix-product order.  When the
denominator vanishes the result is a half-turn about the (never-zero)
numerator direction; that case is a result variant, not an error.
Numerator and denominator are the vector and scalar parts of an Euler
parameter (quaternion) product, which also composes half-turns.  That
product is ``rodvec._lifted._compose_lifted`` and the diagnostics are
``_lifted._composition_diagnostics``; the functions here lift their typed
operands with ``core._lift`` and build the typed result.
"""

from dataclasses import dataclass

from rodvec._lifted import DEGENERACY_REL_TOL, _composition_diagnostics, _compose_lifted
from rodvec.core import HalfTurn, RodriguesVector, UnitVector, Vec3, _from_lifted, _lift

__all__ = [
    "RotationResult",
    "CompositionDiagnostics",
    "compose",
    "compose_general",
    "composition_diagnostics",
    "DEGENERACY_REL_TOL",
]

#: A composition result: either a Rodrigues vector or the half-turn the
#: formula cannot represent.  Discriminate with isinstance().
RotationResult = RodriguesVector | HalfTurn


@dataclass(frozen=True)
class CompositionDiagnostics:
    """The proportionality data lambda = 1 - Q2.Q1 of the derivation.

    numerator and denominator are the two parts of the composition law;
    lambda equals the denominator and is recorded redundantly so test
    output can show both.  residual is the defect of
    lambda*(1 + Q3x) A = (1 + Q1x + Q2x + (Q2x)(Q1x)) A.
    """

    lam: float
    numerator: Vec3
    denominator: float
    residual: float


def compose(q2: RodriguesVector, q1: RodriguesVector) -> RotationResult:
    """Composition R(Q2) R(Q1): q1 is applied first.

    Returns the Rodrigues vector of the product, or a :class:`HalfTurn`
    about the numerator direction when 1 - Q2.Q1 vanishes (within
    1e-9 * (1 + ||Q1|| ||Q2||)).
    """
    return compose_general(q2, q1)


def compose_general(b: RotationResult, a: RotationResult) -> RotationResult:
    """Composition with half-turn operands allowed; a is applied first.

    This is the composition law before its division, read as the product
    of Euler parameters (s, v): a Rodrigues vector Q lifts to (1, Q) and a
    half-turn about n to (0, n), and the product

        (s2 s1 - v2.v1,  s2 v1 + s1 v2 + v2 x v1)

    projects back to the Rodrigues vector v/s, or to the half-turn about
    v/||v|| when |s| <= 1e-9 * (|s1 s2| + ||v1|| ||v2||) or v/s overflows.
    With s1 = s2 = 1, s and v are the denominator and numerator of the
    law, bit for bit.  When a term of the product overflows, the product
    is taken again from the operands divided by their largest components;
    a positive factor changes neither v/s, the test nor v/||v||.
    """
    s2, x2, y2, z2 = _lift(b)
    s1, x1, y1, z1 = _lift(a)
    s, x, y, z = _compose_lifted(s2, x2, y2, z2, s1, x1, y1, z1)
    return _from_lifted(s, x, y, z)


def composition_diagnostics(
    q2: RodriguesVector, q1: RodriguesVector, a: UnitVector
) -> CompositionDiagnostics:
    """Verify the proportionality constant of the composition derivation.

    Requires a perpendicular to Q1 (the assumption under which lambda is
    determined); the returned residual is
    ||lambda (1 + Q3x) a - (1 + Q1x + Q2x + (Q2x)(Q1x)) a||
    and stays below 1e-10 for well-scaled inputs.

    Raises:
        NotPerpendicular: if a.Q1/||Q1|| exceeds 1e-9.
        DegenerateComposition: if the composition lands on the half-turn
            branch, where no finite Q3 exists.
    """
    num, den, residual = _composition_diagnostics(q2.as_tuple(), q1.as_tuple(), a.as_tuple())
    return CompositionDiagnostics(
        lam=den, numerator=Vec3(*num), denominator=den, residual=residual
    )
