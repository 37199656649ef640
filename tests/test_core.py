import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rodvec._backend

from rodvec import (
    AxisAngle,
    HalfTurn,
    HalfTurnUndefined,
    Matrix3,
    NotARotation,
    RodriguesVector,
    RotationMatrix,
    UnitVector,
    Vec3,
    apply_rotation,
    axis_angle_from_rodrigues,
    cayley_rotation,
    compose,
    euler_rodrigues_matrix,
    invert_rotation,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    rodrigues_from_axis_angle,
    skew,
    unskew,
)
from rodvec.kinematics import EXACT_STEP, FIRST_ORDER, AngularVelocity, AngularVelocitySample, rodrigues_increment
from conftest import np_euler_rodrigues, rand_axis_angle, rand_rod, to_np, vec_np
from reference import ref_half_turn9

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestVecTypes:
    def test_vec3_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec3(0.0, math.nan, 0.0)

    # repr(10**5000) raises ValueError itself on Python >= 3.11: the message
    # must not print the int, and the ids name the ints
    @pytest.mark.parametrize("big", [10**400, -(10**5000)], ids=["1e400", "-1e5000"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda big: Vec3(big, 0, 0),
            lambda big: UnitVector(0, big, 0),
            lambda big: RodriguesVector(0, 0, big),
            lambda big: Matrix3((1, 0, 0, 0, 1, 0, 0, 0, big)),
            lambda big: AxisAngle(UnitVector(0, 0, 1), big),
            lambda big: AngularVelocitySample(big, AngularVelocity(0, 0, 0)),
            lambda big: euler_rodrigues_matrix(UnitVector(0, 0, 1), big),
            lambda big: rodrigues_increment(AngularVelocity(0, 0, 1), big, FIRST_ORDER),
            lambda big: rodrigues_increment(AngularVelocity(0, 0, 1), big, EXACT_STEP),
            lambda big: Vec3(1.0, 0, 0) * big,
            lambda big: big * Vec3(1.0, 0, 0),
            lambda big: Vec3(1.0, 0, 0) / big,
            lambda big: Matrix3.identity() * big,
            lambda big: big * Matrix3.identity(),
        ],
        ids=[
            "Vec3", "UnitVector", "RodriguesVector", "Matrix3", "AxisAngle", "AngularVelocitySample",
            "euler_rodrigues_matrix", "increment_first_order", "increment_exact_step",
            "Vec3_mul", "Vec3_rmul", "Vec3_truediv", "Matrix3_mul", "Matrix3_rmul",
        ],
    )
    def test_int_past_the_float_range_raises_value_error(self, build, big):
        with pytest.raises(ValueError, match="too large for a float"):
            build(big)

    def test_axis_angle_takes_unit_vector_rule_for_its_axis(self):
        # a Vec3 axis of norm 2 gave twice tan(1/2) about z
        with pytest.raises(ValueError, match="not a unit vector"):
            rodrigues_from_axis_angle(AxisAngle(Vec3(0, 0, 2), 1.0))
        u = UnitVector(0.6, 0.0, -0.8)
        assert AxisAngle(u, 1.0).axis is u
        aa = AxisAngle(Vec3(0.0, 0.0, 1.0 + 1e-8), 1.0)
        assert type(aa.axis) is UnitVector
        assert aa.axis == UnitVector(0.0, 0.0, 1.0 + 1e-8)

    @pytest.mark.parametrize(
        "number", [1, True, Fraction(1), np.float64(1.0)], ids=["int", "bool", "Fraction", "float64"]
    )
    @pytest.mark.parametrize(
        "stored",
        [
            lambda c: Vec3(c, 0, c).as_tuple(),
            lambda c: UnitVector(c, 0, 0).as_tuple(),
            lambda c: RodriguesVector(0, c, 0).as_tuple(),
            lambda c: AngularVelocity(c, c, 0).as_tuple(),
            lambda c: Matrix3((c,) * 9).elements,
            lambda c: (AxisAngle(UnitVector(0, 0, c), c).angle,),
            lambda c: (AngularVelocitySample(c, AngularVelocity(0, 0, 0)).t,),
        ],
        ids=["Vec3", "UnitVector", "RodriguesVector", "AngularVelocity", "Matrix3", "AxisAngle", "AngularVelocitySample"],
    )
    def test_numbers_are_stored_as_floats(self, stored, number):
        assert all(type(c) is float for c in stored(number))

    def test_kernel_results_of_numpy_scalars_are_floats(self):
        e = matrix_from_rodrigues(RodriguesVector(np.float64(0.5), 0, 0)).elements
        assert all(type(c) is float for c in e)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Vec3("1", 0, 0),
            lambda: Matrix3(("1",) * 9),
            lambda: rodrigues_increment(AngularVelocity(0, 0, 1), "1"),
        ],
        ids=["Vec3", "Matrix3", "rodrigues_increment"],
    )
    def test_str_components_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_int_components_give_the_float_results(self):
        # 10**200 fits a float but its square does not fit one
        def results(c):
            q = RodriguesVector(c, 0, 0)
            return (
                Vec3(c, 0, 0).norm(),
                matrix_from_rodrigues(q),
                axis_angle_from_rodrigues(q),
                compose(q, RodriguesVector(0, c, 0)),
                UnitVector.from_vec(Vec3(c, 0, 0)),
                cayley_rotation(q),
                q.angle(),
            )

        # repr round-trips every float, so equal reprs are equal bits
        assert repr(results(10**200)) == repr(results(1e200))

    def test_norm_past_the_square_range(self):
        assert Vec3(1e200, 0, 0).norm() == 1e200
        assert Vec3(1e-200, 0, 0).norm() == 1e-200
        assert Vec3(-1.5e300, 2e300, 0).norm() == 2.5e300
        assert RodriguesVector(3e-160, 4e-160, 0).angle() == pytest.approx(1e-159, rel=1e-15)
        # a normal sum of squares keeps its plain square root
        assert Vec3(0.3, -0.2, 1.1).norm() == math.sqrt(0.3 * 0.3 + 0.2 * 0.2 + 1.1 * 1.1)

    def test_unit_vector_renormalizes_small_drift(self):
        u = UnitVector(1.0 + 1e-8, 0.0, 0.0)
        assert abs(u.vec.norm() - 1.0) <= 1e-12

    def test_unit_vector_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            UnitVector(2.0, 0.0, 0.0)

    def test_unit_from_vec_normalizes(self):
        u = UnitVector.from_vec(Vec3(3.0, 4.0, 0.0))
        assert (u.x, u.y, u.z) == pytest.approx((0.6, 0.8, 0.0))

    def test_axis_angle_folds_into_interval(self):
        aa = AxisAngle(UnitVector(0, 0, 1), 3.0 * math.pi / 2.0)
        assert aa.angle == pytest.approx(-math.pi / 2.0)
        assert AxisAngle(UnitVector(0, 0, 1), -math.pi).angle == math.pi

    def test_vector_types_are_vec3s(self):
        u = UnitVector(0.0, 1.0, 0.0)
        q = RodriguesVector(1.0, 2.0, 3.0)
        assert isinstance(u, Vec3) and isinstance(q, Vec3)
        assert q.cross(u) == Vec3(-3.0, 0.0, 1.0)
        # arithmetic that is not a rotation or a direction gives a plain Vec3
        assert type(q * 2.0) is Vec3 and type(u - q) is Vec3
        assert type(-q) is RodriguesVector and type(q + q) is RodriguesVector
        assert type(-u) is UnitVector
        assert u != Vec3(0.0, 1.0, 0.0)

    def test_unit_from_vec_any_finite_length(self):
        for v, want in [
            (Vec3(1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
            (Vec3(1.7e308, -1.7e308, 0.0), (2**-0.5, -(2**-0.5), 0.0)),
            (Vec3(0.0, 3e-15, -4e-15), (0.0, 0.6, -0.8)),
            (Vec3(1e-16, 0.0, 0.0), (1.0, 0.0, 0.0)),
            (Vec3(-5e-324, 0.0, 5e-324), (-(2**-0.5), 0.0, 2**-0.5)),
        ]:
            u = UnitVector.from_vec(v)
            assert (u.x, u.y, u.z) == pytest.approx(want, abs=1e-15)
        assert UnitVector.from_vec(Vec3(1e-300, 0.0, 0.0)) == UnitVector(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"cannot normalize a \(near-\)zero vector"):
            UnitVector.from_vec(Vec3(0.0, -0.0, 0.0))

    def test_half_turn_axis_canonicalized(self):
        h = HalfTurn(UnitVector(0.0, 0.0, -1.0))
        assert h.axis == UnitVector(0.0, 0.0, 1.0)
        assert HalfTurn(UnitVector(0, 0, 1)) == h


class TestSkew:
    def test_skew_matches_cross_product(self):
        m = skew(Vec3(0, 0, 1))
        assert m.apply(Vec3(1, 0, 0)) == Vec3(0, 1, 0)
        assert (m.matrix @ Vec3(1, 0, 0)) == Vec3(0, 1, 0)

    def test_skew_zero(self):
        assert skew(Vec3(0, 0, 0)).matrix.elements == (0.0,) * 9

    def test_skew_annihilates_generator(self):
        v = Vec3(2, -1, 3)
        assert skew(v).apply(v) == Vec3(0, 0, 0)

    def test_unskew_round_trip(self):
        v = Vec3(1, 2, 3)
        assert unskew(skew(v)) == v
        assert unskew(skew(Vec3(0, 0, 0))) == Vec3(0, 0, 0)
        assert unskew(skew(Vec3(0, 0, 1))) == Vec3(0, 0, 1)

    def test_structural_antisymmetry(self):
        m = skew(Vec3(0.3, -0.7, 1.1))
        assert m.transpose().matrix.elements == tuple(-e for e in m.matrix.elements)


class TestEulerRodrigues:
    def test_zero_angle_is_identity(self):
        r = euler_rodrigues_matrix(UnitVector(0.6, 0.8, 0.0), 0.0)
        assert r.elements == Matrix3.identity().elements

    def test_quarter_turn_about_z(self):
        r = euler_rodrigues_matrix(UnitVector(0, 0, 1), math.pi / 2)
        got = r.apply(Vec3(1, 0, 0))
        assert vec_np(got) == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_pi_gives_reflection_form(self):
        r = euler_rodrigues_matrix(UnitVector(1, 0, 0), math.pi)
        assert to_np(r) == pytest.approx(np.diag([1.0, -1.0, -1.0]), abs=1e-15)

    def test_matches_numpy_oracle(self, rng):
        for _ in range(200):
            axis, theta = rand_axis_angle(rng, math.pi)
            r = euler_rodrigues_matrix(axis, theta)
            expected = np_euler_rodrigues(vec_np(axis), theta)
            assert np.max(np.abs(to_np(r) - expected)) <= 1e-15


class TestRodriguesConversions:
    def test_quarter_turn_tangent(self):
        q = rodrigues_from_axis_angle(AxisAngle(UnitVector(0, 0, 1), math.pi / 2))
        assert vec_np(q) == pytest.approx([0, 0, 1], abs=1e-15)

    def test_zero_angle(self):
        q = rodrigues_from_axis_angle(AxisAngle(UnitVector(1, 0, 0), 0.0))
        assert q == RodriguesVector(0.0, 0.0, 0.0)

    def test_two_thirds_pi(self):
        q = rodrigues_from_axis_angle(AxisAngle(UnitVector(1, 0, 0), 2 * math.pi / 3))
        assert q.x == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_half_turn_raises(self):
        aa = AxisAngle(UnitVector(0, 0, 1), math.pi)
        with pytest.raises(HalfTurnUndefined):
            rodrigues_from_axis_angle(aa)

    def test_axis_angle_from_rodrigues_examples(self):
        aa = axis_angle_from_rodrigues(RodriguesVector(0, 0, 1))
        assert aa.angle == pytest.approx(math.pi / 2)
        assert aa.axis == UnitVector(0, 0, 1)

        zero = axis_angle_from_rodrigues(RodriguesVector(0, 0, 0))
        assert zero.axis == UnitVector(0, 0, 1) and zero.angle == 0.0

        aa = axis_angle_from_rodrigues(RodriguesVector(1, 1, -1))
        assert aa.angle == pytest.approx(2 * math.pi / 3, abs=1e-15)
        s = 1 / math.sqrt(3)
        assert vec_np(aa.axis) == pytest.approx([s, s, -s])

    def test_axis_angle_from_subnormal_rodrigues(self):
        # the norm of (0, 5e-324, 5e-324) is itself subnormal and rounds to
        # 1e-323; dividing by it would give the non-unit (0, 0.5, 0.5)
        aa = axis_angle_from_rodrigues(RodriguesVector(0.0, 5e-324, 5e-324))
        s = 1 / math.sqrt(2)
        assert vec_np(aa.axis) == pytest.approx([0.0, s, s], abs=1e-15)
        assert aa.angle < 1e-322

        aa = axis_angle_from_rodrigues(RodriguesVector(3e-310, 4e-310, 0.0))
        assert vec_np(aa.axis) == pytest.approx([0.6, 0.8, 0.0], abs=1e-15)

    def test_round_trip_recovers_axis_and_angle(self, rng):
        for _ in range(10_000):
            axis, theta = rand_axis_angle(rng, math.pi - 1e-3)
            q = rodrigues_from_axis_angle(AxisAngle(axis, theta))
            back = axis_angle_from_rodrigues(q)
            # extracted angle is in [0, pi): the axis carries the sign
            want_axis, want_angle = (axis, theta) if theta >= 0 else (-axis, -theta)
            assert abs(back.angle - want_angle) <= 1e-9
            if want_angle > 1e-12:
                assert (back.axis.vec - want_axis.vec).norm() <= 1e-9
            assert abs(q.norm() - abs(math.tan(0.5 * theta))) <= 1e-9 * (1.0 + q.norm())


class TestMatrixFromRodrigues:
    def test_zero_is_identity(self):
        assert matrix_from_rodrigues(RodriguesVector(0, 0, 0)).elements == Matrix3.identity().elements

    def test_unit_z_is_quarter_turn(self):
        r = matrix_from_rodrigues(RodriguesVector(0, 0, 1))
        assert vec_np(r.apply(Vec3(1, 0, 0))) == pytest.approx([0, 1, 0], abs=1e-15)

    def test_large_magnitude_approaches_half_turn(self):
        r = matrix_from_rodrigues(RodriguesVector(0, 0, 1e8))
        h = matrix_from_half_turn(HalfTurn(UnitVector(0, 0, 1)))
        assert np.max(np.abs(to_np(r) - to_np(h))) <= 1e-7

    def test_agrees_with_euler_rodrigues(self, rng):
        for _ in range(2000):
            q = rand_rod(rng, math.pi - 1e-3)
            aa = axis_angle_from_rodrigues(q)
            diff = np.abs(to_np(matrix_from_rodrigues(q)) - to_np(euler_rodrigues_matrix(aa.axis, aa.angle)))
            assert np.max(diff) <= 1e-12


class TestKernelOutputChecks:
    """The typed constructors check each kernel result as
    RotationMatrix(Matrix3(...)) does, and build the same value."""

    def corrupt(self, monkeypatch, change):
        real = rodvec._backend.kernels.rot_from_rod9
        monkeypatch.setattr(rodvec._backend.kernels, "rot_from_rod9", lambda q: change(real(q)))

    def test_flipped_sign_raises_not_a_rotation(self, monkeypatch):
        self.corrupt(monkeypatch, lambda m: (m[0], -m[1], *m[2:]))
        with pytest.raises(NotARotation, match=r"\|R\^T R - 1\| = 7\.584e-01, \|det - 1\| = 4\.826e-01"):
            matrix_from_rodrigues(RodriguesVector(0.1, 0.2, 0.3))

    def test_nan_entry_raises_value_error(self, monkeypatch):
        self.corrupt(monkeypatch, lambda m: (*m[:4], math.nan, *m[5:]))
        with pytest.raises(ValueError, match="non-finite component: nan"):
            matrix_from_rodrigues(RodriguesVector(0.1, 0.2, 0.3))

    def test_results_equal_the_checked_construction(self, rng):
        k = rodvec._backend.kernels
        for _ in range(200):
            q = rand_rod(rng, 3.0)
            want = RotationMatrix(Matrix3(k.rot_from_rod9(q.as_tuple())))
            got = matrix_from_rodrigues(q)
            assert got == want and type(got.matrix) is Matrix3 and type(got.elements) is tuple
            aa = axis_angle_from_rodrigues(q)
            want = RotationMatrix(Matrix3(k.euler_rodrigues9(aa.axis.as_tuple(), aa.angle)))
            assert euler_rodrigues_matrix(aa.axis, aa.angle) == want
            h = HalfTurn(aa.axis)
            assert matrix_from_half_turn(h) == RotationMatrix(Matrix3(ref_half_turn9(h.axis.as_tuple())))
        want = RotationMatrix(Matrix3(ref_half_turn9((-1.0, 0.0, 0.0))))
        assert matrix_from_rodrigues(RodriguesVector(-1e200, 0.0, 0.0)) == want


class TestHalfTurnMatrix:
    def test_coordinate_axes(self):
        assert to_np(matrix_from_half_turn(HalfTurn(UnitVector(0, 0, 1)))) == pytest.approx(
            np.diag([-1.0, -1.0, 1.0]), abs=0
        )
        assert to_np(matrix_from_half_turn(HalfTurn(UnitVector(1, 0, 0)))) == pytest.approx(
            np.diag([1.0, -1.0, -1.0]), abs=0
        )

    def test_diagonal_for_symmetric_axis(self):
        s = 1 / math.sqrt(3)
        m = to_np(matrix_from_half_turn(HalfTurn(UnitVector(s, s, s))))
        assert np.diag(m) == pytest.approx([-1 / 3] * 3, abs=1e-15)

    def test_eigenvalues(self):
        m = to_np(matrix_from_half_turn(HalfTurn(UnitVector(0.6, 0.0, 0.8))))
        ev = np.sort(np.linalg.eigvalsh(m))
        assert ev == pytest.approx([-1.0, -1.0, 1.0], abs=1e-12)


class TestApplyInvert:
    def test_identity_fixes_everything(self):
        assert apply_rotation(RotationMatrix.identity(), Vec3(3, 4, 5)) == Vec3(3, 4, 5)

    def test_axis_is_fixed(self):
        r = matrix_from_rodrigues(RodriguesVector(0, 0, 1))
        assert apply_rotation(r, Vec3(0, 0, 7)) == Vec3(0, 0, 7)

    def test_invert_is_negation(self):
        assert invert_rotation(RodriguesVector(0, 0, 1)) == RodriguesVector(0, 0, -1)
        assert invert_rotation(RodriguesVector(0, 0, 0)) == RodriguesVector(0, 0, 0)
        assert invert_rotation(RodriguesVector(1, 1, -1)) == RodriguesVector(-1, -1, 1)

    def test_negation_gives_transpose(self, rng):
        for _ in range(200):
            q = rand_rod(rng, 2.8)
            a = to_np(matrix_from_rodrigues(-q))
            b = to_np(matrix_from_rodrigues(q)).T
            assert np.max(np.abs(a - b)) <= 1e-12


class TestMatrixOperators:
    """The Matrix3 and RotationMatrix operators, against numpy."""

    def test_matrix3_accessors_and_arithmetic(self, rng):
        for _ in range(50):
            a = Matrix3(tuple(rng.uniform(-2.0, 2.0) for _ in range(9)))
            b = Matrix3(tuple(rng.uniform(-2.0, 2.0) for _ in range(9)))
            v = Vec3(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            k = rng.uniform(-3.0, 3.0)
            na, nb = to_np(a), to_np(b)
            assert np.array(a.rows) == pytest.approx(na, abs=0)
            assert [a[i, j] for i in range(3) for j in range(3)] == list(na.ravel())
            assert a.trace() == pytest.approx(np.trace(na), rel=1e-15)
            assert to_np(a.transpose()) == pytest.approx(na.T, abs=0)
            assert type(a @ b) is Matrix3 and to_np(a @ b) == pytest.approx(na @ nb, abs=1e-14)
            assert type(a @ v) is Vec3 and vec_np(a @ v) == pytest.approx(na @ vec_np(v), abs=1e-14)
            assert to_np(a + b) == pytest.approx(na + nb, abs=0)
            assert to_np(a - b) == pytest.approx(na - nb, abs=0)
            assert to_np(a * k) == pytest.approx(na * k, abs=0)
            assert to_np(k * a) == pytest.approx(na * k, abs=0)

    def test_rotation_matrix_transpose_trace_and_product(self, rng):
        for _ in range(50):
            q1, q2 = rand_rod(rng, 3.0), rand_rod(rng, 3.0)
            r1, r2 = matrix_from_rodrigues(q1), matrix_from_rodrigues(q2)
            v = Vec3(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            n1, n2 = to_np(r1), to_np(r2)
            assert type(r1.transpose()) is RotationMatrix
            assert to_np(r1.transpose()) == pytest.approx(n1.T, abs=0)
            assert to_np(r1.transpose()) == pytest.approx(to_np(matrix_from_rodrigues(-q1)), abs=1e-15)
            assert r1.trace() == pytest.approx(np.trace(n1), rel=1e-15)
            assert type(r2 @ r1) is RotationMatrix
            assert to_np(r2 @ r1) == pytest.approx(n2 @ n1, abs=1e-15)
            assert (r1 @ v) == r1.apply(v)
            # the composition law: R(Q2) R(Q1) = R(compose(Q2, Q1))
            q3 = compose(q2, q1)
            r3 = matrix_from_half_turn(q3) if isinstance(q3, HalfTurn) else matrix_from_rodrigues(q3)
            assert np.max(np.abs(to_np(r2 @ r1) - to_np(r3))) <= 1e-12

    @pytest.mark.parametrize("other", [2.0, (1.0, 0.0, 0.0), "x", None])
    def test_other_operands_are_not_implemented(self, other):
        m = Matrix3.identity()
        r = RotationMatrix.identity()
        assert m.__matmul__(other) is NotImplemented
        assert r.__matmul__(other) is NotImplemented
        assert r.__matmul__(m) is NotImplemented
        with pytest.raises(TypeError):
            m @ other
        with pytest.raises(TypeError):
            r @ other


class TestRotationMatrixValidation:
    def test_rejects_scaled_matrix(self):
        with pytest.raises(NotARotation):
            RotationMatrix(Matrix3((1.1, 0, 0, 0, 1.0, 0, 0, 0, 1.0)))

    def test_rejects_reflection(self):
        with pytest.raises(NotARotation):
            RotationMatrix(Matrix3((1, 0, 0, 0, 1, 0, 0, 0, -1)))

    def test_norm_preservation(self, rng):
        for _ in range(200):
            q = rand_rod(rng, 3.0)
            r = matrix_from_rodrigues(q)
            x = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(apply_rotation(r, x).norm() - x.norm()) <= 1e-12 * max(1.0, x.norm())


@given(finite, finite, finite)
def test_skew_cube_identity(x, y, z):
    # (Qx)^3 = -(Q.Q)(Qx)
    q = np.array([x, y, z])
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]], dtype=float)
    lhs = k @ k @ k
    rhs = -(q @ q) * k
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@given(finite, finite, finite)
def test_norm_is_half_angle_tangent(x, y, z):
    q = RodriguesVector(x, y, z)
    theta = axis_angle_from_rodrigues(q).angle
    assert abs(q.norm() - math.tan(theta / 2)) <= 1e-9 * (1.0 + q.norm())


@given(finite, finite, finite)
def test_produced_matrices_are_orthonormal(x, y, z):
    r = to_np(matrix_from_rodrigues(RodriguesVector(x, y, z)))
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-9
    assert abs(np.linalg.det(r) - 1.0) <= 1e-9


@given(finite, finite, finite)
def test_inverse_matrix_product_is_identity(x, y, z):
    q = RodriguesVector(x, y, z)
    prod = to_np(matrix_from_rodrigues(-q)) @ to_np(matrix_from_rodrigues(q))
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-12
