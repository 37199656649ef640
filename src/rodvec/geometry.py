"""Geometric meaning of the Rodrigues vector and the spherical-triangle law.

Three facts drive everything here, for a rotation with Rodrigues vector Q
about axis n = Q/||Q|| by theta = 2*atan(||Q||):

(a) Q x x is tangent to the rotation arc at x and reaches exactly to the
    half-angle bisector plane;
(b) (1 + Qx) x is the intersection point of that tangent with the bisector;
(c) for unit a perpendicular to the axis, normalizing (1 + Qx) a gives the
    point of the unit rotation arc at angular distance theta/2 from a.

Fact (c) turns rotation composition into a spherical triangle: a triangle
ABC with arcs theta1/2 = AB, theta2/2 = BC realizes "twice AB then twice BC
equals twice AC" (Donkin's theorem), which this module constructs and
verifies numerically.  The half-angle point, the triangle and the Donkin
residual are float routines of ``rodvec._lifted`` on plain coordinate
triples; the public functions here build the typed values only at the
boundary, and the figure scenes are built from them.
"""

from dataclasses import dataclass

from rodvec._lifted import (
    FIGURE_KINDS,
    _arc_angle,
    _bisector,
    _donkin_residual,
    _donkin_triangle,
    _floats,
    _half_angle_point,
    _require_triangle,
)
from rodvec.core import (
    RodriguesVector,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    matrix_from_rodrigues,
)
from rodvec.errors import MissingInput

__all__ = [
    "SphericalTriangle",
    "Segment",
    "Arc",
    "Label",
    "FigureScene",
    "FIGURE_KINDS",
    "tangent_to_bisector",
    "bisector_intersection",
    "half_angle_point",
    "donkin_triangle",
    "donkin_residual",
    "donkin_verify",
    "arc_angle",
    "plane_basis",
    "figure_scene",
]


@dataclass(frozen=True)
class SphericalTriangle:
    """Unit-sphere triangle with non-collinear vertices a, b, c."""

    a: UnitVector
    b: UnitVector
    c: UnitVector

    def __post_init__(self) -> None:
        _require_triangle(self.a.as_tuple(), self.b.as_tuple(), self.c.as_tuple())


def arc_angle(u: UnitVector, v: UnitVector) -> float:
    """Great-arc angle between unit vectors, atan2-stable near 0 and pi."""
    return _arc_angle(u.as_tuple(), v.as_tuple())


def plane_basis(axis: UnitVector) -> tuple[Vec3, Vec3]:
    """A deterministic right-handed orthonormal pair (u, v) with u x v = axis."""
    ref = Vec3(0.0, 0.0, 1.0) if abs(axis.z) < 0.9 else Vec3(1.0, 0.0, 0.0)
    u = UnitVector.from_vec(ref.cross(axis)).vec
    v = axis.cross(u)
    return u, v


def tangent_to_bisector(q: RodriguesVector, x: Vec3) -> Vec3:
    """Q x x: the tangent segment from x to the half-angle bisector.

    Perpendicular to both x and the axis; its length is tan(theta/2) times
    the arc radius ||Q x x||/||Q||.
    """
    return q.cross(x)


def bisector_intersection(q: RodriguesVector, x: Vec3) -> Vec3:
    """(1 + Qx) x: where the tangent from x meets the half-angle bisector.

    The component along the axis is untouched; in the plane perpendicular
    to Q the result sits at planar angle theta/2 from x.
    """
    return Vec3(*_bisector(q.as_tuple(), x.as_tuple()))


def half_angle_point(q: RodriguesVector, a: UnitVector) -> UnitVector:
    """Normalize (1 + Qx) a: the point of the unit arc at angle theta/2 from a.

    Requires ||Q|| > 0 and a perpendicular to Q (|a.Q|/||Q|| <= 1e-9).
    """
    return UnitVector(*_half_angle_point(q.as_tuple(), a.as_tuple()))


def donkin_triangle(q1: RodriguesVector, q2: RodriguesVector) -> SphericalTriangle:
    """The spherical triangle realizing the composition of q1 then q2.

    B is the (sign-fixed) intersection of the two axis-perpendicular great
    circles, B = normalize(Q2 x Q1); A precedes B by theta1/2 along the Q1
    circle and C follows B by theta2/2 along the Q2 circle, so that
    normalize((1 + Q1x) A) = B and normalize((1 + Q2x) B) = C.

    Raises:
        ParallelAxes: when the unit axes n1, n2 have ||n2 x n1|| <= 1e-9
            (the composition is then same-axis and needs no triangle).
        ValueError: when A, B and C are collinear to 1e-9, as for
            rotations too small to span a triangle the floats resolve.
    """
    a, b, c = _donkin_triangle(q1.as_tuple(), q2.as_tuple())
    return SphericalTriangle(UnitVector(*a), UnitVector(*b), UnitVector(*c))


def donkin_residual(a: UnitVector, b: UnitVector, c: UnitVector) -> float:
    """||R_2bc R_2ab - R_2ac||_inf for arbitrary unit vertices.

    Accepts collapsed sides (the corresponding rotation degenerates to the
    identity), unlike :class:`SphericalTriangle`.
    """
    return _donkin_residual(a.as_tuple(), b.as_tuple(), c.as_tuple())


def donkin_verify(tri: SphericalTriangle) -> float:
    """Residual of "twice AB, then twice BC, equals twice AC" for tri.

    At most ~1e-13 for any valid triangle; the contract bound is 1e-10.
    """
    return donkin_residual(tri.a, tri.b, tri.c)


# --- figure scenes -------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Straight primitive; role "bisector" is rendered as a ray."""

    start: Vec3
    end: Vec3
    role: str


@dataclass(frozen=True)
class Arc:
    """Circular arc from ``start`` sweeping ``sweep`` radians about ``axis``
    through ``center`` (right-hand rule).  The sweep is stored as a checked
    float, and any other Vec3 axis as a UnitVector, as AxisAngle does."""

    center: Vec3
    axis: UnitVector
    start: Vec3
    sweep: float
    role: str

    def __post_init__(self) -> None:
        a = self.axis
        if not isinstance(a, UnitVector):
            object.__setattr__(self, "axis", UnitVector(a.x, a.y, a.z))
        object.__setattr__(self, "sweep", *_floats(self.sweep))


@dataclass(frozen=True)
class Label:
    position: Vec3
    text: str


@dataclass(frozen=True)
class FigureScene:
    """Pure 3D scene data; projection to 2D happens in the SVG renderer."""

    kind: str
    primitives: tuple
    view_axis: UnitVector
    degenerate: bool = False

    def count(self, cls, role: str | None = None) -> int:
        return sum(
            1
            for p in self.primitives
            if isinstance(p, cls) and (role is None or getattr(p, "role", None) == role)
        )


def _scene_fig1a(q: RodriguesVector, x: Vec3) -> FigureScene:
    axis = axis_angle_from_rodrigues(q).axis
    theta = q.angle()
    center = axis * axis.dot(x)
    tangent = tangent_to_bisector(q, x)
    meet = bisector_intersection(q, x)
    prims = (
        Arc(center, axis, x, theta, "rotation-arc"),
        Segment(center, x, "radius"),
        Segment(x, meet, "tangent"),
        Segment(center, meet, "bisector"),
        Label(x, "x"),
        Label(x + 0.5 * tangent, "Q×x"),
    )
    return FigureScene("fig1a", prims, axis, degenerate=(q.norm() == 0.0))


def _scene_fig1b(q: RodriguesVector, x: Vec3) -> FigureScene:
    axis = axis_angle_from_rodrigues(q).axis
    theta = q.angle()
    center = axis * axis.dot(x)
    meet = bisector_intersection(q, x)
    origin = Vec3(0.0, 0.0, 0.0)
    prims = (
        Arc(center, axis, x, theta, "rotation-arc"),
        Segment(origin, x, "position"),
        Segment(x, meet, "tangent"),
        Segment(origin, meet, "result"),
        Label(x, "x"),
        Label(meet, "(1+Q×)x"),
    )
    return FigureScene("fig1b", prims, axis, degenerate=(q.norm() == 0.0))


def _scene_fig1c(q: RodriguesVector, x: Vec3) -> FigureScene:
    axis = axis_angle_from_rodrigues(q).axis
    theta = q.angle()
    perp = x - axis * axis.dot(x)
    degenerate = q.norm() == 0.0 or perp.norm() < 1e-12
    origin = Vec3(0.0, 0.0, 0.0)
    if degenerate:
        u, _ = plane_basis(axis)
        a = UnitVector.from_vec(u)
    else:
        a = UnitVector.from_vec(perp)
    meet = bisector_intersection(q, a)
    # a is a unit vector perpendicular to Q, so |meet| >= 1
    h = UnitVector.from_vec(meet)
    prims = (
        Arc(origin, axis, a.vec, theta, "rotation-arc"),
        Segment(a.vec, meet, "tangent"),
        Segment(origin, h.vec, "half-angle"),
        Label(a.vec, "a"),
        Label(h.vec, "h"),
    )
    return FigureScene("fig1c", prims, axis, degenerate=degenerate)


def _scene_fig2(q: RodriguesVector, x: Vec3) -> FigureScene:
    axis = axis_angle_from_rodrigues(q).axis
    theta = q.angle()
    center = axis * axis.dot(x)
    rx = matrix_from_rodrigues(q).apply(x)
    meet = bisector_intersection(q, x)
    prims = (
        Arc(center, axis, x, theta, "rotation-arc"),
        Segment(center, x, "radius"),
        Segment(center, rx, "radius"),
        Segment(x, meet, "tangent"),
        Segment(rx, meet, "tangent"),
        Segment(center, meet, "bisector"),
        Label(x, "x"),
        Label(rx, "Rx"),
        Label(meet, "(1+Q×)x"),
    )
    return FigureScene("fig2", prims, axis, degenerate=(q.norm() == 0.0))


def _reflect_through(v: UnitVector, w: UnitVector) -> UnitVector:
    s = 2.0 * v.dot(w)
    return UnitVector.from_vec(w * s - v)


def _triangle_arcs(a: UnitVector, b: UnitVector, c: UnitVector, role: str) -> list[Arc]:
    origin = Vec3(0.0, 0.0, 0.0)
    arcs = []
    for u, v in ((a, b), (b, c), (c, a)):
        w = u.cross(v)
        if w.norm() <= 1e-12:
            continue
        axis = UnitVector.from_vec(w)
        arcs.append(Arc(origin, axis, u.vec, arc_angle(u, v), role))
    return arcs


def _scene_fig4(q1: RodriguesVector, q2: RodriguesVector) -> FigureScene:
    tri = donkin_triangle(q1, q2)
    view = UnitVector.from_vec(tri.a + tri.b + tri.c)
    prims: list = []
    prims += _triangle_arcs(tri.a, tri.b, tri.c, "triangle-0")
    for i, vertex in enumerate((tri.a, tri.b, tri.c), start=1):
        va = _reflect_through(tri.a, vertex)
        vb = _reflect_through(tri.b, vertex)
        vc = _reflect_through(tri.c, vertex)
        prims += _triangle_arcs(va, vb, vc, f"triangle-{i}")
    prims += [Label(tri.a.vec, "A"), Label(tri.b.vec, "B"), Label(tri.c.vec, "C")]
    return FigureScene("fig4", tuple(prims), view)


def _scene_fig5(q1: RodriguesVector, q2: RodriguesVector) -> FigureScene:
    tri = donkin_triangle(q1, q2)
    view = UnitVector.from_vec(tri.a + tri.b + tri.c)
    u, _ = plane_basis(view)
    offset = -2.6 * u
    # flat "triangle law" panel built from the chord vectors of the arcs
    p0 = offset
    p1 = offset + (tri.b - tri.a)
    p2 = offset + (tri.c - tri.a)
    prims: list = [
        Segment(p0, p1, "translation-side"),
        Segment(p1, p2, "translation-side"),
        Segment(p0, p2, "translation-side"),
    ]
    prims += _triangle_arcs(tri.a, tri.b, tri.c, "rotation-side")
    prims += [
        Label(tri.a.vec, "A"),
        Label(tri.b.vec, "B"),
        Label(tri.c.vec, "C"),
        Label(p0, "t1+t2"),
    ]
    return FigureScene("fig5", tuple(prims), view)


def figure_scene(
    kind: str,
    q: RodriguesVector | None = None,
    x: Vec3 | None = None,
    q2: RodriguesVector | None = None,
) -> FigureScene:
    """Scene data for one of the package's geometric constructions.

    fig1a/fig1b/fig1c/fig2 need (q, x); fig4/fig5 need (q, q2).  Output is
    deterministic for fixed inputs.

    Raises:
        MissingInput: when a required argument for the kind is absent.
    """
    if kind not in FIGURE_KINDS:
        raise MissingInput(f"unknown figure kind {kind!r}; choose from {FIGURE_KINDS}")
    if q is None:
        raise MissingInput("all figure kinds need the rotation q")
    if kind in ("fig1a", "fig1b", "fig1c", "fig2"):
        if x is None:
            raise MissingInput(f"{kind} needs the point x")
        return {
            "fig1a": _scene_fig1a,
            "fig1b": _scene_fig1b,
            "fig1c": _scene_fig1c,
            "fig2": _scene_fig2,
        }[kind](q, x)
    if q2 is None:
        raise MissingInput(f"{kind} needs the second rotation q2")
    return {"fig4": _scene_fig4, "fig5": _scene_fig5}[kind](q, q2)
