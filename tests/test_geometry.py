import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rodvec import (
    HalfTurn,
    MissingInput,
    NotPerpendicular,
    ParallelAxes,
    RodriguesVector,
    SphericalTriangle,
    UnitVector,
    Vec3,
    arc_angle,
    bisector_intersection,
    compose,
    donkin_residual,
    donkin_triangle,
    donkin_verify,
    figure_scene,
    half_angle_point,
    tangent_to_bisector,
)
from rodvec._lifted import _arc_angle, _donkin_residual, _donkin_triangle, _unit
from rodvec.geometry import Arc, Label, Segment
from conftest import np_euler_rodrigues, rand_rod, rand_unit, rand_vec, vec_np

S2 = 1.0 / math.sqrt(2.0)


class TestTangentToBisector:
    def test_unit_case_length_law(self):
        t = tangent_to_bisector(RodriguesVector(0, 0, 1), Vec3(1, 0, 0))
        assert t == Vec3(0, 1, 0)
        # tangent length = tan(theta/2) * arc radius, both 1 here
        assert t.norm() == pytest.approx(math.tan(math.pi / 4) * 1.0)

    def test_point_on_axis_does_not_move(self):
        assert tangent_to_bisector(RodriguesVector(0, 0, 2), Vec3(0, 0, 5)) == Vec3(0, 0, 0)

    def test_null_rotation(self):
        assert tangent_to_bisector(RodriguesVector(0, 0, 0), Vec3(0.3, 1, -2)) == Vec3(0, 0, 0)

    def test_perpendicularity_and_length(self, rng):
        for _ in range(500):
            q = rand_rod(rng, 2.8)
            x = rand_vec(rng)
            t = tangent_to_bisector(q, x)
            scale = max(1.0, t.norm()) * max(1.0, x.norm()) * max(1.0, q.norm())
            assert abs(t.dot(x)) <= 1e-12 * scale
            assert abs(t.dot(q.vec)) <= 1e-12 * scale
            if q.norm() > 1e-6:
                radius = q.vec.cross(x).norm() / q.norm()
                theta = q.angle()
                assert t.norm() == pytest.approx(math.tan(theta / 2) * radius, rel=1e-12)


class TestBisectorIntersection:
    def test_unit_case_half_angle(self):
        p = bisector_intersection(RodriguesVector(0, 0, 1), Vec3(1, 0, 0))
        assert p == Vec3(1, 1, 0)
        assert math.atan2(p.y, p.x) == pytest.approx(math.pi / 4)  # theta/2

    def test_identity_operator_at_zero(self):
        x = Vec3(0.2, -0.9, 1.4)
        assert bisector_intersection(RodriguesVector(0, 0, 0), x) == x

    def test_axis_component_preserved(self):
        p = bisector_intersection(RodriguesVector(0, 0, 1), Vec3(1, 0, 2))
        assert p == Vec3(1, 1, 2)

    def test_planar_angle_is_half_angle(self, rng):
        for _ in range(500):
            q = rand_rod(rng, 2.8)
            if q.norm() < 1e-3:
                continue
            x = rand_vec(rng)
            n = UnitVector.from_vec(q.vec)
            perp = x - n.vec * n.dot(x)
            if perp.norm() < 1e-3:
                continue
            p = bisector_intersection(q, x)
            perp2 = p - n.vec * n.dot(p)
            ang = math.atan2(perp.cross(perp2).dot(n.vec), perp.dot(perp2))
            assert abs(ang - q.angle() / 2.0) <= 1e-12
            assert abs(n.dot(p) - n.dot(x)) <= 1e-12 * max(1.0, x.norm())


class TestHalfAnglePoint:
    def test_quarter_turn(self):
        h = half_angle_point(RodriguesVector(0, 0, 1), UnitVector(1, 0, 0))
        assert vec_np(h) == pytest.approx([S2, S2, 0.0])

    def test_two_thirds_turn(self):
        h = half_angle_point(RodriguesVector(0, 0, math.sqrt(3.0)), UnitVector(1, 0, 0))
        assert vec_np(h) == pytest.approx([0.5, math.sqrt(3.0) / 2.0, 0.0])

    def test_other_start_point(self):
        h = half_angle_point(RodriguesVector(0, 0, 1), UnitVector(0, 1, 0))
        assert vec_np(h) == pytest.approx([-S2, S2, 0.0])

    def test_rejects_non_perpendicular(self):
        with pytest.raises(NotPerpendicular):
            half_angle_point(RodriguesVector(0, 0, 1), UnitVector(0, 0, 1))

    def test_rejects_non_perpendicular_past_norm_overflow(self):
        # ||Q||^2 overflows here; the test must not turn into |a.Q| <= inf
        with pytest.raises(NotPerpendicular):
            half_angle_point(RodriguesVector(1e200, 0, 0), UnitVector(1, 0, 0))
        h = half_angle_point(RodriguesVector(1e200, 0, 0), UnitVector(0, 1, 0))
        assert vec_np(h) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_equals_half_angle_rotation(self, rng):
        for _ in range(1000):
            q = rand_rod(rng, 2.8)
            if q.norm() < 1e-3:
                continue
            n = UnitVector.from_vec(q.vec)
            seed = rand_vec(rng)
            perp = seed - n.vec * n.dot(seed)
            if perp.norm() < 1e-3:
                continue
            a = UnitVector.from_vec(perp)
            got = half_angle_point(q, a)
            oracle = np_euler_rodrigues(vec_np(n), q.angle() / 2.0) @ vec_np(a)
            assert np.max(np.abs(vec_np(got) - oracle)) <= 1e-12


class TestDonkinTriangle:
    def test_worked_construction(self):
        tri = donkin_triangle(RodriguesVector(1, 0, 0), RodriguesVector(0, 1, 0))
        assert vec_np(tri.b) == pytest.approx([0.0, 0.0, -1.0])
        assert vec_np(tri.a) == pytest.approx([0.0, -S2, -S2])
        assert vec_np(tri.c) == pytest.approx([-S2, 0.0, -S2])
        # oracle: A and C are half-angle steps away from B along each circle
        a_oracle = np_euler_rodrigues(np.array([1.0, 0, 0]), -math.pi / 4) @ vec_np(tri.b)
        c_oracle = np_euler_rodrigues(np.array([0.0, 1, 0]), math.pi / 4) @ vec_np(tri.b)
        assert vec_np(tri.a) == pytest.approx(a_oracle)
        assert vec_np(tri.c) == pytest.approx(c_oracle)

    def test_great_circle_membership(self, rng):
        for _ in range(500):
            q1 = rand_rod(rng, 2.6)
            q2 = rand_rod(rng, 2.6)
            if q1.norm() < 1e-2 or q2.norm() < 1e-2:
                continue
            if q1.vec.cross(q2.vec).norm() <= 1e-6 * q1.norm() * q2.norm():
                continue
            tri = donkin_triangle(q1, q2)
            s1, s2 = q1.norm(), q2.norm()
            assert abs(tri.a.dot(q1.vec)) <= 1e-12 * s1
            assert abs(tri.b.dot(q1.vec)) <= 1e-12 * s1
            assert abs(tri.b.dot(q2.vec)) <= 1e-12 * s2
            assert abs(tri.c.dot(q2.vec)) <= 1e-12 * s2

    def test_parallel_axes_rejected(self):
        with pytest.raises(ParallelAxes):
            donkin_triangle(RodriguesVector(0, 0, 1), RodriguesVector(0, 0, 2))

    def test_axes_of_any_finite_length(self):
        # ||Q1||^2 overflows in the first pair, Q2 x Q1 itself in the second
        for q2, half2 in [
            (RodriguesVector(0, 1, 0), math.pi / 4),
            (RodriguesVector(0, 1e200, 0), math.pi / 2),
        ]:
            tri = donkin_triangle(RodriguesVector(1e200, 0, 0), q2)
            assert vec_np(tri.b) == pytest.approx([0.0, 0.0, -1.0], abs=1e-15)
            assert arc_angle(tri.a, tri.b) == pytest.approx(math.pi / 2)
            assert arc_angle(tri.b, tri.c) == pytest.approx(half2)
            assert donkin_verify(tri) <= 1e-10

    #: Q1, Q2 with axes 3.4e-9 rad apart: rounding in Q2 x Q1 puts B
    #: 5.3e-9 off the Q2 circle, where a perpendicularity test on C raised
    #: NotPerpendicular
    NEAR_PARALLEL = (
        RodriguesVector(-0.9737716208221956, -0.5665403990723037, -0.44103526797777937),
        RodriguesVector(-1.8782759933291822, -1.0927811167031554, -0.8506983946786105),
    )

    def test_nearly_parallel_axes(self):
        tri = donkin_triangle(*self.NEAR_PARALLEL)
        assert donkin_verify(tri) <= 1e-14

    def test_nearly_parallel_axes_keep_the_half_angles(self):
        # axes 1e-9 to 1e-5 rad apart and ||Q|| log-uniform in 1e-3 to 1e3:
        # B is off each axis' perpendicular circle by up to about 1e-16
        # over the axes' angle, which changes the arcs only in its square
        rng = random.Random(25)
        triangles = 0
        for _ in range(1000):
            u1 = rand_unit(rng)
            n1 = u1.as_tuple()
            e = _unit(*rand_unit(rng).cross(u1).as_tuple())
            d = 10.0 ** rng.uniform(-9.0, -5.0)
            n2 = tuple(math.cos(d) * u + math.sin(d) * v for u, v in zip(n1, e))
            s1, s2 = (10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
            q1, q2 = tuple(s1 * u for u in n1), tuple(s2 * u for u in n2)
            try:
                a, b, c = _donkin_triangle(q1, q2)
            except ParallelAxes:
                continue
            triangles += 1
            for arc, q in ((_arc_angle(a, b), q1), (_arc_angle(b, c), q2)):
                assert arc == pytest.approx(math.atan(math.hypot(*q)), rel=1e-12), (q1, q2)
            assert _donkin_residual(a, b, c) <= 1e-14, (q1, q2)
        assert triangles >= 990

    def test_arcs_are_half_angles(self):
        q1 = RodriguesVector(1, 0, 0)
        q2 = RodriguesVector(0, 1, 0)
        tri = donkin_triangle(q1, q2)
        assert arc_angle(tri.a, tri.b) == pytest.approx(q1.angle() / 2)
        assert arc_angle(tri.b, tri.c) == pytest.approx(q2.angle() / 2)
        q3 = compose(q2, q1)
        assert arc_angle(tri.a, tri.c) == pytest.approx(q3.angle() / 2)


class TestDonkinVerify:
    def test_octant_triangle(self):
        tri = SphericalTriangle(UnitVector(1, 0, 0), UnitVector(0, 1, 0), UnitVector(0, 0, 1))
        assert donkin_verify(tri) <= 1e-12

    def test_constructed_triangle(self):
        tri = donkin_triangle(RodriguesVector(1, 0, 0), RodriguesVector(0, 1, 0))
        assert donkin_verify(tri) <= 1e-12

    def test_collapsed_side_reduces(self):
        # A = B: twice-arc-AB is the identity, so residual is |R_2BC - R_2AC|
        a = UnitVector(1, 0, 0)
        c = UnitVector(0, 0, 1)
        assert donkin_residual(a, a, c) <= 1e-12

    def test_randomized_closure(self, rng):
        for _ in range(500):
            a, b, c = rand_unit(rng), rand_unit(rng), rand_unit(rng)
            assert donkin_residual(a, b, c) <= 1e-10

    def test_composition_direction_follows_lambda_sign(self, rng):
        for _ in range(300):
            q1 = rand_rod(rng, 2.6)
            q2 = rand_rod(rng, 2.6)
            if q1.norm() < 1e-2 or q2.norm() < 1e-2:
                continue
            if q1.vec.cross(q2.vec).norm() <= 1e-6 * q1.norm() * q2.norm():
                continue
            q3 = compose(q2, q1)
            if isinstance(q3, HalfTurn):
                continue
            tri = donkin_triangle(q1, q2)
            lam = 1.0 - q2.vec.dot(q1.vec)
            got = half_angle_point(q3, tri.a)
            expected = tri.c.vec if lam > 0 else -tri.c.vec
            assert (got.vec - expected).norm() <= 1e-10


class TestFigureScenes:
    def test_fig1a_census_and_content(self):
        scene = figure_scene("fig1a", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0))
        assert scene.count(Arc) == 1
        assert scene.count(Segment, "radius") == 1
        assert scene.count(Segment, "tangent") == 1
        assert scene.count(Segment, "bisector") == 1
        tangent = next(p for p in scene.primitives if isinstance(p, Segment) and p.role == "tangent")
        assert tangent.start == Vec3(1, 0, 0) and tangent.end == Vec3(1, 1, 0)
        arc = next(p for p in scene.primitives if isinstance(p, Arc))
        assert (arc.start - arc.center).norm() == pytest.approx(1.0)

    def test_fig1b_degenerate_flag(self):
        scene = figure_scene("fig1b", RodriguesVector(0, 0, 0), x=Vec3(1, 0, 0))
        assert scene.degenerate
        tangent = next(p for p in scene.primitives if isinstance(p, Segment) and p.role == "tangent")
        assert (tangent.end - tangent.start).norm() == 0.0

    def test_fig1c_unit_arc(self):
        scene = figure_scene("fig1c", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 2))
        arc = next(p for p in scene.primitives if isinstance(p, Arc))
        assert (arc.start - arc.center).norm() == pytest.approx(1.0)
        assert scene.count(Segment, "half-angle") == 1

    def test_fig1c_axis_parallel_point_degenerates(self):
        scene = figure_scene("fig1c", RodriguesVector(0, 0, 1), x=Vec3(0, 0, 3))
        assert scene.degenerate

    def test_fig2_census(self):
        scene = figure_scene("fig2", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0))
        assert scene.count(Arc) == 1
        assert scene.count(Segment, "radius") == 2
        assert scene.count(Segment, "tangent") == 2
        assert scene.count(Segment, "bisector") == 1

    def test_fig4_four_triangles(self):
        scene = figure_scene("fig4", RodriguesVector(1, 0, 0), q2=RodriguesVector(0, 1, 0))
        roles = {p.role for p in scene.primitives if isinstance(p, Arc)}
        assert roles == {"triangle-0", "triangle-1", "triangle-2", "triangle-3"}
        for role in roles:
            assert scene.count(Arc, role) == 3

    def test_fig4_reflections_share_vertices(self):
        scene = figure_scene("fig4", RodriguesVector(1, 0, 0), q2=RodriguesVector(0, 1, 0))
        labels = {p.text: p.position for p in scene.primitives if isinstance(p, Label)}
        assert set(labels) == {"A", "B", "C"}

    def test_fig5_both_panels(self):
        scene = figure_scene("fig5", RodriguesVector(1, 0, 0), q2=RodriguesVector(0, 1, 0))
        assert scene.count(Segment, "translation-side") == 3
        assert scene.count(Arc, "rotation-side") == 3

    def test_missing_inputs(self):
        with pytest.raises(MissingInput):
            figure_scene("fig1c", RodriguesVector(0, 0, 1))
        with pytest.raises(MissingInput):
            figure_scene("fig4", RodriguesVector(1, 0, 0))
        with pytest.raises(MissingInput):
            figure_scene("nope", RodriguesVector(1, 0, 0), x=Vec3(1, 0, 0))

    def test_arc_checks_its_sweep_and_axis(self):
        origin, z, x = Vec3(0, 0, 0), UnitVector(0, 0, 1), Vec3(1, 0, 0)
        # an int sweep past the float range raised a bare OverflowError
        # from FigureScene, and a Vec3 axis of norm 2 was stored as it was
        with pytest.raises(ValueError, match="too large for a float"):
            Arc(origin, z, x, 10**400, "rotation-arc")
        with pytest.raises(ValueError, match="non-finite component: nan"):
            Arc(origin, z, x, math.nan, "rotation-arc")
        with pytest.raises(ValueError, match="not a unit vector"):
            Arc(origin, Vec3(0, 0, 2), x, 1.0, "rotation-arc")
        assert Arc(origin, z, x, 1.0, "rotation-arc").axis is z
        arc = Arc(origin, Vec3(0.0, 0.0, 1.0 + 1e-8), x, 1, "rotation-arc")
        assert type(arc.axis) is UnitVector and arc.axis == UnitVector(0.0, 0.0, 1.0 + 1e-8)
        assert type(arc.sweep) is float and arc.sweep == 1.0

    def test_deterministic(self):
        a = figure_scene("fig1a", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0))
        b = figure_scene("fig1a", RodriguesVector(0, 0, 1), x=Vec3(1, 0, 0))
        assert a == b


@given(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_tangent_orthogonality_property(qx, qy, qz, x, y, z):
    q = RodriguesVector(qx, qy, qz)
    v = Vec3(x, y, z)
    t = tangent_to_bisector(q, v)
    scale = max(1.0, q.norm()) * max(1.0, v.norm())
    assert abs(t.dot(v)) <= 1e-12 * scale * max(1.0, t.norm())
    assert abs(t.dot(q.vec)) <= 1e-12 * scale * max(1.0, t.norm())
