"""Rotation representations and the conversions among them.

The representations are the Rodrigues vector Q = tan(theta/2)*n, the axis-angle
pair (n, theta), the 3x3 rotation matrix, and the half-turn (angle exactly pi,
the one rotation class without a Rodrigues vector).  Rotations are active
dextro-rotations: they move vectors, axes stay fixed, and the sense follows
the right-hand rule about the oriented axis.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.  The types are a facade:
they store their numbers as Python floats, converted once at construction
by ``rodvec._lifted._floats``, and their checks and conversions are the
float routines of ``rodvec._lifted``, applied to those floats.  ``_lift``
and ``_from_lifted`` carry a rotation to the Euler parameters of those
routines and back, and ``_matrix3`` and ``_rotation_matrix`` wrap their
checked nine floats.
"""

import math
from dataclasses import dataclass

from rodvec._lifted import (
    HALF_TURN_ANGLE_TOL,
    ROTATION_MATRIX_TOL,
    UNIT_RENORM_TOL,
    _IDENTITY9,
    _axis_angle,
    _checked9,
    _direction,
    _euler_rodrigues9,
    _flip_half_axis,
    _floats,
    _fold_angle,
    _lift_axis_angle,
    _matmul9,
    _rotation9,
    _scaled_norm,
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
    """A vector in R^3 with finite components, stored as floats.  A
    component that is not finite, or an int past the float range, raises
    ValueError; one that is not a real number raises TypeError.  A scalar
    factor or divisor is checked and converted the same way."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        # a float triple with a finite sum is stored as it is
        if type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z):
            return
        self._store(_floats(x, y, z))

    def _store(self, c) -> None:
        object.__setattr__(self, "x", c[0])
        object.__setattr__(self, "y", c[1])
        object.__setattr__(self, "z", c[2])

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
        (s,) = _floats(s)
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        (s,) = _floats(s)
        return Vec3(self.x / s, self.y / s, self.z / s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        n, f = _scaled_norm(self.x, self.y, self.z)
        return n / f


@dataclass(frozen=True)
class UnitVector(Vec3):
    """A vector of norm 1 (verified to 1e-12 at construction).

    Inputs within 1e-6 of unit norm are renormalized silently; anything
    farther off is rejected.  Use :meth:`from_vec` to normalize an arbitrary
    direction.
    """

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if not (type(x) is float and type(y) is float and type(z) is float):
            self._store(_unit_components(*_floats(x, y, z)))
            return
        u = _unit_components(x, y, z)
        # u holds x, y and z themselves unless it renormalized them
        if u[0] is not x or u[1] is not y or u[2] is not z:
            self._store(u)

    @classmethod
    def from_vec(cls, v: Vec3) -> "UnitVector":
        """v/||v|| for any finite nonzero v."""
        return cls(*_direction(v.x, v.y, v.z))

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class AxisAngle:
    """Unit axis plus signed angle in radians, normalized into (-pi, pi].

    A UnitVector axis is stored as it is; any other Vec3 is stored as the
    UnitVector of its components, so it is renormalized or rejected by
    UnitVector's rule.
    """

    axis: UnitVector
    angle: float

    def __post_init__(self) -> None:
        a = self.axis
        if not isinstance(a, UnitVector):
            object.__setattr__(self, "axis", UnitVector(a.x, a.y, a.z))
        object.__setattr__(self, "angle", _fold_angle(*_floats(self.angle)))


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
    """A 3x3 real matrix stored as nine finite floats, row-major, with the
    checks and errors of Vec3."""

    elements: tuple[float, float, float, float, float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.elements) != 9:
            raise ValueError("Matrix3 takes exactly 9 elements")
        object.__setattr__(self, "elements", _floats(*self.elements))

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
            return Matrix3(_matmul9(self.elements, other.elements))
        if isinstance(other, Vec3):
            return _apply9(self.elements, other)
        return NotImplemented

    def __add__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(tuple(a + b for a, b in zip(self.elements, other.elements)))

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(tuple(a - b for a, b in zip(self.elements, other.elements)))

    def __mul__(self, s: float) -> "Matrix3":
        (s,) = _floats(s)
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
        _checked9(self.matrix.elements)

    @classmethod
    def identity(cls) -> "RotationMatrix":
        return cls(Matrix3.identity())

    @property
    def elements(self):
        return self.matrix.elements

    def apply(self, x: Vec3) -> Vec3:
        return _apply9(self.matrix.elements, x)

    def transpose(self) -> "RotationMatrix":
        return RotationMatrix(self.matrix.transpose())

    def trace(self) -> float:
        return self.matrix.trace()

    def __matmul__(self, other):
        if isinstance(other, RotationMatrix):
            return RotationMatrix(Matrix3(_matmul9(self.elements, other.elements)))
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


def _apply9(e, v: Vec3) -> Vec3:
    """The Vec3 of the row-major 3x3 matrix e times v."""
    e0, e1, e2, e3, e4, e5, e6, e7, e8 = e
    x, y, z = v.x, v.y, v.z
    return Vec3(e0 * x + e1 * y + e2 * z, e3 * x + e4 * y + e5 * z, e6 * x + e7 * y + e8 * z)


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
    return _rotation_matrix(_euler_rodrigues9(n.as_tuple(), *_floats(theta)))


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
    return _rotation_matrix(_rotation9(0.0, *h.axis.as_tuple()))


def apply_rotation(r: RotationMatrix, x: Vec3) -> Vec3:
    """The rotated vector R x."""
    return r.apply(x)


def invert_rotation(q: RodriguesVector) -> RodriguesVector:
    """The inverse rotation is the negated Rodrigues vector."""
    return -q
