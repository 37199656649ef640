import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rodvec import (
    HalfTurn,
    Matrix3,
    NotARotation,
    RodriguesVector,
    RotationMatrix,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    cayley_inverse_explicit,
    cayley_residuals,
    cayley_rotation,
    euler_rodrigues_matrix,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    rodrigues_from_matrix,
)
from rodvec._backend import kernels as _k
from conftest import np_skew, rand_rod, rand_unit, rand_vec, to_np, vec_np
from reference import exact_matrix

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestCayleyRotation:
    def test_zero_is_identity(self):
        assert to_np(cayley_rotation(RodriguesVector(0, 0, 0))) == pytest.approx(np.eye(3), abs=0)

    def test_unit_z_quarter_turn(self):
        # hand inversion of the 2x2 xy-block of (1 - Qx) gives the same product
        r = to_np(cayley_rotation(RodriguesVector(0, 0, 1)))
        assert r == pytest.approx(np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), abs=1e-15)

    def test_matches_direct_formula(self):
        q = RodriguesVector(1, 1, -1)
        d = np.abs(to_np(cayley_rotation(q)) - to_np(matrix_from_rodrigues(q)))
        assert np.max(d) <= 1e-15

    def test_matches_direct_formula_randomized(self, rng):
        for _ in range(2000):
            q = rand_rod(rng, math.pi - 1e-3)
            d = np.abs(to_np(cayley_rotation(q)) - to_np(matrix_from_rodrigues(q)))
            assert np.max(d) <= 1e-12

    def test_numpy_solve_oracle(self, rng):
        # (1 - Qx)^-1 (1 + Qx) through a generic linear solve must agree
        for _ in range(100):
            q = rand_rod(rng, 2.8)
            k = np_skew(vec_np(q))
            expected = np.linalg.solve(np.eye(3) - k, np.eye(3) + k)
            assert np.max(np.abs(to_np(cayley_rotation(q)) - expected)) <= 1e-12

    def test_twice_the_inverse_less_one(self, rng):
        # 1 + Qx = 2 1 - (1 - Qx), so R = 2 (1 - Qx)^-1 - 1 bit for bit
        for scale in (1.0, 1e8, 2.0**53):
            for _ in range(50):
                q = RodriguesVector(*(rng.uniform(-scale, scale) for _ in range(3)))
                e = [2.0 * v for v in cayley_inverse_explicit(q).elements]
                for i in (0, 4, 8):
                    e[i] -= 1.0
                assert cayley_rotation(q).elements == tuple(e)

    def test_matches_the_exact_matrix_to_2_pow_minus_52(self, rng):
        # every entry is within 2**-52 of 2 (Q Q^T + 1 + Qx)/(1 + Q.Q) - 1 in
        # exact rational arithmetic: on moderate Q, on Q up to 2e15 within
        # 1e-15..1e-3 rad of pi, and on ||Q|| log-uniform in [1e-300, 1e149]
        qs = [rand_rod(rng, math.pi - 1e-3) for _ in range(500)]
        for _ in range(500):
            axis = rand_unit(rng)
            t = math.tan(0.5 * (math.pi - 10.0 ** rng.uniform(-15.0, -3.0)))
            qs.append(RodriguesVector(t * axis.x, t * axis.y, t * axis.z))
        for _ in range(500):
            axis = rand_unit(rng)
            t = 10.0 ** rng.uniform(-300.0, 149.0)
            qs.append(RodriguesVector(t * axis.x, t * axis.y, t * axis.z))
        ulp = Fraction(1, 2**52)
        for q in qs:
            # the Cayley matrix is the rotation matrix of (1, Q)
            exact = exact_matrix((1, *q.as_tuple()))
            got = cayley_rotation(q).elements
            for i in range(9):
                assert abs(Fraction(got[i]) - exact[i]) <= ulp, (q, i)


class TestCayleyInverseExplicit:
    def test_zero_is_identity(self):
        assert to_np(cayley_inverse_explicit(RodriguesVector(0, 0, 0))) == pytest.approx(
            np.eye(3), abs=0
        )

    @pytest.mark.parametrize("q", [(0, 0, 1), (3, -2, 5)])
    def test_defining_product(self, q):
        qv = RodriguesVector(*q)
        m = to_np(cayley_inverse_explicit(qv))
        one_minus_k = np.eye(3) - np_skew(vec_np(qv))
        tol = 1e-15 if q == (0, 0, 1) else 1e-12
        assert np.max(np.abs(one_minus_k @ m - np.eye(3))) <= tol
        assert np.max(np.abs(m @ one_minus_k - np.eye(3))) <= tol

    def test_matches_numpy_inverse(self, rng):
        for _ in range(200):
            q = rand_rod(rng, 2.8)
            m = to_np(cayley_inverse_explicit(q))
            expected = np.linalg.inv(np.eye(3) - np_skew(vec_np(q)))
            assert np.max(np.abs(m - expected)) <= 1e-12

    @pytest.mark.parametrize("q", [(1e154, 5e153, 0.0), (1.7e308, -1e308, 1.0), (0.0, 3e200, 0.0)])
    def test_past_overflow(self, q):
        # 1 + Q.Q overflows; the closed form on Q/max|q_i| stays finite
        qv = RodriguesVector(*q)
        m = to_np(cayley_inverse_explicit(qv))
        v = vec_np(qv) / np.max(np.abs(vec_np(qv)))
        n = v / np.linalg.norm(v)
        assert np.max(np.abs(m - np.outer(n, n))) <= 1e-15

    def test_kernel_bits_where_finite(self, rng):
        for scale in (1.0, 1e8, 1e100, 6e149):
            for _ in range(50):
                q = RodriguesVector(*(rng.uniform(-scale, scale) for _ in range(3)))
                assert cayley_inverse_explicit(q).elements == _k.cayley_inv9(q.as_tuple())


class TestRodriguesFromMatrix:
    def test_identity(self):
        assert rodrigues_from_matrix(RotationMatrix.identity()) == RodriguesVector(0, 0, 0)

    def test_quarter_turn_round_trip(self):
        r = matrix_from_rodrigues(RodriguesVector(0, 0, 1))
        q = rodrigues_from_matrix(r)
        assert vec_np(q) == pytest.approx([0, 0, 1], abs=1e-15)

    def test_half_turn_branch(self):
        r = RotationMatrix(Matrix3((-1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0)))
        h = rodrigues_from_matrix(r)
        assert isinstance(h, HalfTurn)
        assert h.axis == UnitVector(0, 0, 1)

    def test_half_turn_branch_skew_axis(self):
        axis = UnitVector.from_vec(Vec3(1.0, -2.0, 0.5))
        h = rodrigues_from_matrix(matrix_from_half_turn(HalfTurn(axis)))
        assert isinstance(h, HalfTurn)
        assert (h.axis.vec - HalfTurn(axis).axis.vec).norm() <= 1e-12

    def test_half_turn_with_subnormal_skew_part(self):
        # R - R^T = 1e-320: Q would be 4e320, a half-turn to double precision
        h = rodrigues_from_matrix(Matrix3((-1.0, 1e-320, 0, 0, -1.0, 0, 0, 0, 1.0)))
        assert h == HalfTurn(UnitVector(0, 0, 1))

    def test_near_pi_still_regular(self):
        # 1 + trace R is only 4e-6 here, yet the matrix reads back regular
        q = RodriguesVector(0, 0, 1e3)
        back = rodrigues_from_matrix(matrix_from_rodrigues(q))
        assert isinstance(back, RodriguesVector)
        assert abs(back.z - 1e3) <= 1e-9 * (1.0 + q.norm())

    def test_axis_angle_round_trip_near_pi(self):
        # 5e-4 rad short of a half-turn, inside the zone once snapped to pi
        axis, angle = UnitVector(0, 0.6, 0.8), math.pi - 5e-4
        back = axis_angle_from_rodrigues(rodrigues_from_matrix(euler_rodrigues_matrix(axis, angle)))
        assert back.angle == pytest.approx(angle, abs=1e-12)
        assert vec_np(back.axis) == pytest.approx(vec_np(axis), abs=1e-12)

    def test_round_trip_randomized(self, rng):
        for _ in range(2000):
            q = rand_rod(rng, math.pi - 1e-3)
            back = rodrigues_from_matrix(cayley_rotation(q))
            assert isinstance(back, RodriguesVector)
            scale = 1.0 + q.norm()
            assert (back.vec - q.vec).norm() <= 1e-9 * scale

    def test_plain_matrix_accepted_and_validated(self):
        q = rodrigues_from_matrix(Matrix3((0, -1, 0, 1, 0, 0, 0, 0, 1)))
        assert vec_np(q) == pytest.approx([0, 0, 1], abs=1e-15)
        with pytest.raises(NotARotation):
            rodrigues_from_matrix(Matrix3((2, 0, 0, 0, 1, 0, 0, 0, 1)))

    def test_half_turn_axis_matches_numpy_eig(self, rng):
        for _ in range(50):
            axis = rand_rod(rng, 2.0)
            if axis.norm() < 1e-2:
                continue
            n = UnitVector.from_vec(axis.vec)
            r = matrix_from_half_turn(HalfTurn(n))
            h = rodrigues_from_matrix(r)
            w, v = np.linalg.eigh(to_np(r))
            e = v[:, np.argmax(w)]  # eigenvector for +1
            dot = abs(float(e @ vec_np(h.axis)))
            assert dot == pytest.approx(1.0, abs=1e-9)


class TestCayleyResiduals:
    def test_zero_rotation(self):
        assert cayley_residuals(RodriguesVector(0, 0, 0), Vec3(1, 2, 3)) == (0.0, 0.0)

    def test_unit_z_example(self):
        # both sides of the tangent identity equal (1, 1, 0) here
        r1, r2 = cayley_residuals(RodriguesVector(0, 0, 1), Vec3(1, 0, 0))
        assert r1 <= 1e-15 and r2 <= 1e-15

    def test_generic_point(self):
        r1, r2 = cayley_residuals(RodriguesVector(2, -1, 0.5), Vec3(0.3, 0.7, -0.2))
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_randomized_scaled_bound(self, rng):
        for _ in range(2000):
            q = rand_rod(rng, math.pi - 1e-3)
            x = rand_vec(rng)
            r1, r2 = cayley_residuals(q, x)
            bound = 1e-12 * (1.0 + q.norm()) * max(x.norm(), 1e-12)
            assert r1 <= bound and r2 <= bound


@given(finite, finite, finite)
def test_explicit_inverse_commutes(x, y, z):
    q = RodriguesVector(x, y, z)
    m = to_np(cayley_inverse_explicit(q))
    b = np.eye(3) - np_skew(np.array([x, y, z]))
    assert np.max(np.abs(b @ m - m @ b)) <= 1e-12
