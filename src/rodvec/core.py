"""Rotation representations and the conversions among them.

The representations are the Rodrigues vector Q = tan(theta/2)*n, the axis-angle
pair (n, theta), the 3x3 rotation matrix, and the half-turn (angle exactly pi,
the one rotation class without a Rodrigues vector).  Rotations are active
dextro-rotations: they move vectors, axes stay fixed, and the sense follows
the right-hand rule about the oriented axis.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.  The types are a facade:
their checks and conversions are the float routines of ``rodvec._lifted``,
applied to their components.  ``_lift`` and ``_from_lifted`` carry a
rotation to the Euler parameters of those routines and back, and
``_matrix3`` and ``_rotation_matrix`` wrap their checked nine floats.
"""

import math
from dataclasses import dataclass

from rodvec._backend import kernels as _k
from rodvec._lifted import (
    HALF_TURN_ANGLE_TOL,
    ROTATION_MATRIX_TOL,
    UNIT_RENORM_TOL,
    _IDENTITY9,
    _axis_angle,
    _checked9,
    _euler_rodrigues9,
    _flip_half_axis,
    _fold_angle,
    _from_vec,
    _lift_axis_angle,
    _require_finite,
    _require_so3,
    _rotation9,
    _unit_components,
)
from rodvec.errors import HalfTurnUndefined

__all__ = [
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
]

@dataclass(frozen=True)
class Vec3:
    """A vector in R^3 with finite components."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _require_finite(self.x, self.y, self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @property
    def vec(self) -> "Vec3":
        """A plain :class:`Vec3` with the same components."""
        return Vec3(self.x, self.y, self.z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(*_k.cross3(self.as_tuple(), other.as_tuple()))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class UnitVector(Vec3):
    """A vector of norm 1 (verified to 1e-12 at construction).

    Inputs within 1e-6 of unit norm are renormalized silently; anything
    farther off is rejected.  Use :meth:`from_vec` to normalize an arbitrary
    direction.
    """

    def __post_init__(self) -> None:
        u = _unit_components(self.x, self.y, self.z)
        if u != (self.x, self.y, self.z):  # renormalized
            object.__setattr__(self, "x", u[0])
            object.__setattr__(self, "y", u[1])
            object.__setattr__(self, "z", u[2])

    @classmethod
    def from_vec(cls, v: Vec3) -> "UnitVector":
        """v/||v|| for any finite v of norm at least 1e-15."""
        return cls(*_from_vec(v.x, v.y, v.z))

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class AxisAngle:
    """Unit axis plus signed angle in radians, normalized into (-pi, pi]."""

    axis: UnitVector
    angle: float

    def __post_init__(self) -> None:
        _require_finite(self.angle)
        object.__setattr__(self, "angle", _fold_angle(self.angle))


@dataclass(frozen=True)
class RodriguesVector(Vec3):
    """The rotation vector Q = tan(theta/2)*n.

    Any finite magnitude is legal; the encoded angle 2*atan(||Q||) lies in
    [0, pi) automatically, with the axis direction carrying the sign.
    """

    def angle(self) -> float:
        """Rotation angle 2*atan(||Q||), in [0, pi)."""
        return 2.0 * math.atan(self.norm())

    def __neg__(self) -> "RodriguesVector":
        return RodriguesVector(-self.x, -self.y, -self.z)

    def __add__(self, other: "RodriguesVector") -> "RodriguesVector":
        return RodriguesVector(self.x + other.x, self.y + other.y, self.z + other.z)


@dataclass(frozen=True)
class Matrix3:
    """A 3x3 real matrix stored as nine floats, row-major."""

    elements: tuple[float, float, float, float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.elements) != 9:
            raise ValueError("Matrix3 takes exactly 9 elements")
        elems = tuple(map(float, self.elements))
        _require_finite(*elems)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def identity(cls) -> "Matrix3":
        return cls(_IDENTITY9)

    @property
    def rows(self) -> tuple[tuple[float, float, float], ...]:
        e = self.elements
        return ((e[0], e[1], e[2]), (e[3], e[4], e[5]), (e[6], e[7], e[8]))

    def __getitem__(self, ij: tuple[int, int]) -> float:
        i, j = ij
        return self.elements[3 * i + j]

    def transpose(self) -> "Matrix3":
        e = self.elements
        return Matrix3((e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8]))

    def trace(self) -> float:
        e = self.elements
        return e[0] + e[4] + e[8]

    def __matmul__(self, other):
        if isinstance(other, Matrix3):
            return Matrix3(_k.matmul(self.elements, other.elements))
        if isinstance(other, Vec3):
            return Vec3(*_k.matvec(self.elements, other.as_tuple()))
        return NotImplemented

    def __add__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(tuple(a + b for a, b in zip(self.elements, other.elements)))

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(tuple(a - b for a, b in zip(self.elements, other.elements)))

    def __mul__(self, s: float) -> "Matrix3":
        return Matrix3(tuple(a * s for a in self.elements))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SkewMatrix:
    """The operator (v x): skew-symmetric by construction.

    Only the three generating components are stored, which makes
    M^T = -M structural rather than numerical.
    """

    generator: Vec3

    @property
    def matrix(self) -> Matrix3:
        x, y, z = self.generator.as_tuple()
        return Matrix3((0.0, -z, y, z, 0.0, -x, -y, x, 0.0))

    def apply(self, x: Vec3) -> Vec3:
        return self.generator.cross(x)

    def transpose(self) -> "SkewMatrix":
        return SkewMatrix(-self.generator)


@dataclass(frozen=True)
class RotationMatrix:
    """A member of SO(3), validated at construction.

    R^T R = 1 and det R = +1 must hold to 1e-9; violations raise
    :class:`NotARotation`.  Validation happens once, here, not on use.
    """

    matrix: Matrix3

    def __post_init__(self) -> None:
        _require_so3(self.matrix.elements)

    @classmethod
    def identity(cls) -> "RotationMatrix":
        return cls(Matrix3.identity())

    @property
    def elements(self):
        return self.matrix.elements

    def apply(self, x: Vec3) -> Vec3:
        return Vec3(*_k.matvec(self.matrix.elements, x.as_tuple()))

    def transpose(self) -> "RotationMatrix":
        return RotationMatrix(self.matrix.transpose())

    def trace(self) -> float:
        return self.matrix.trace()

    def __matmul__(self, other):
        if isinstance(other, RotationMatrix):
            return RotationMatrix(Matrix3(_k.matmul(self.elements, other.elements)))
        if isinstance(other, Vec3):
            return self.apply(other)
        return NotImplemented


@dataclass(frozen=True)
class HalfTurn:
    """A rotation by exactly pi about ``axis``.

    axis and -axis generate the same rotation, so the axis is canonicalized
    to have its first nonzero component positive.
    """

    axis: UnitVector

    def __post_init__(self) -> None:
        a = self.axis
        if _flip_half_axis(a.x, a.y, a.z):
            object.__setattr__(self, "axis", -a)


def _matrix3(e) -> Matrix3:
    """The Matrix3 of a tuple of nine finite floats, built without
    converting or checking them again."""
    m = object.__new__(Matrix3)
    object.__setattr__(m, "elements", e)
    return m


def _rotation_matrix(e) -> RotationMatrix:
    """The RotationMatrix of nine floats that passed _checked9, built
    without converting or checking them again."""
    r = object.__new__(RotationMatrix)
    object.__setattr__(r, "matrix", _matrix3(e))
    return r


def _lift(r: RodriguesVector | HalfTurn) -> tuple[float, float, float, float]:
    """Euler parameters (s, v) of a rotation: (1, Q) or (0, n)."""
    if isinstance(r, HalfTurn):
        return (0.0, *r.axis.as_tuple())
    return (1.0, r.x, r.y, r.z)


def _from_lifted(s: float, x: float, y: float, z: float) -> RodriguesVector | HalfTurn:
    """The rotation of Euler parameters (1, Q) or (0, n)."""
    if s:
        return RodriguesVector(x, y, z)
    return HalfTurn(UnitVector(x, y, z))


def skew(v: Vec3) -> SkewMatrix:
    """The matrix operator (v x), mapping x to v cross x."""
    return SkewMatrix(v)


def unskew(m: SkewMatrix) -> Vec3:
    """Inverse of :func:`skew`; exact by construction."""
    return m.generator


def euler_rodrigues_matrix(n: UnitVector, theta: float) -> RotationMatrix:
    """R(n, theta) = cos(theta)*1 + sin(theta)*(n x) + (1 - cos(theta))*n n^T."""
    return _rotation_matrix(_euler_rodrigues9(n.as_tuple(), theta))


def rodrigues_from_axis_angle(aa: AxisAngle) -> RodriguesVector:
    """Q = tan(angle/2)*axis.

    Raises:
        HalfTurnUndefined: when the angle is pi (to 1e-12); tan(angle/2)
            has a pole there and the rotation has no Rodrigues vector.
    """
    s, x, y, z = _lift_axis_angle(*aa.axis.as_tuple(), aa.angle)
    if not s:
        raise HalfTurnUndefined(
            "the Rodrigues vector tan(theta/2)*n has no value at theta = pi; "
            "use a HalfTurn or the matrix representation"
        )
    return RodriguesVector(x, y, z)


def axis_angle_from_rodrigues(q: RodriguesVector) -> AxisAngle:
    """Axis Q/||Q|| and angle 2*atan(||Q||) in [0, pi).

    The zero vector maps to angle 0 about the conventional axis (0, 0, 1).
    """
    axis, angle = _axis_angle(q.x, q.y, q.z)
    return AxisAngle(UnitVector(*axis), angle)


def matrix_from_rodrigues(q: RodriguesVector) -> RotationMatrix:
    """R(Q) = 1 + 2*((Q x) + (Q x)^2)/(1 + Q.Q).

    When Q.Q overflows, the half-turn about Q is returned: R(Q) is a
    rotation by pi - 2/||Q||, and 2/||Q|| < 1e-153 there.
    """
    return _rotation_matrix(_rotation9(1.0, q.x, q.y, q.z))


def matrix_from_half_turn(h: HalfTurn) -> RotationMatrix:
    """R = 2 n n^T - 1: symmetric, eigenvalues (+1, -1, -1)."""
    return _rotation_matrix(_checked9(_k.half_turn9(h.axis.as_tuple())))


def apply_rotation(r: RotationMatrix, x: Vec3) -> Vec3:
    """The rotated vector R x."""
    return r.apply(x)


def invert_rotation(q: RodriguesVector) -> RodriguesVector:
    """The inverse rotation is the negated Rodrigues vector."""
    return -q
