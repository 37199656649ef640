import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rodvec import (
    DegenerateComposition,
    HalfTurn,
    NotPerpendicular,
    RodriguesVector,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    compose,
    compose_general,
    composition_diagnostics,
    matrix_from_half_turn,
    matrix_from_rodrigues,
)
from conftest import np_skew, rand_rod, rand_unit, to_np, vec_np
from reference import exact_dot, exact_matrix, exact_product, ref_compose_num_den

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _mat(r):
    if isinstance(r, HalfTurn):
        return to_np(matrix_from_half_turn(r))
    return to_np(matrix_from_rodrigues(r))


class TestCompose:
    def test_identity_element(self):
        q1 = RodriguesVector(0.3, -0.1, 2.0)
        assert compose(RodriguesVector(0, 0, 0), q1) == q1

    def test_worked_perpendicular_quarter_turns(self):
        # oracle: product of the two quarter-turn matrices
        q3 = compose(RodriguesVector(0, 1, 0), RodriguesVector(1, 0, 0))
        assert q3 == RodriguesVector(1.0, 1.0, -1.0)
        oracle = _mat(RodriguesVector(0, 1, 0)) @ _mat(RodriguesVector(1, 0, 0))
        assert np.max(np.abs(_mat(q3) - oracle)) <= 1e-15
        assert axis_angle_from_rodrigues(q3).angle == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_two_quarter_turns_make_half_turn(self):
        r = compose(RodriguesVector(0, 0, 1), RodriguesVector(0, 0, 1))
        assert isinstance(r, HalfTurn)
        assert r.axis == UnitVector(0, 0, 1)

    def test_argument_order_is_matrix_order(self, rng):
        for _ in range(100):
            q1 = rand_rod(rng, 2.0)
            q2 = rand_rod(rng, 2.0)
            r = compose(q2, q1)
            if isinstance(r, HalfTurn):
                continue
            assert np.max(np.abs(_mat(r) - _mat(q2) @ _mat(q1))) <= 1e-12

    def test_inverse_pair_is_exact_zero(self, rng):
        for _ in range(100):
            q = rand_rod(rng, 3.0)
            assert compose(-q, q) == RodriguesVector(0.0, 0.0, 0.0)

    def test_degenerate_boundary_numerator_nonzero(self, rng):
        # wherever 1 - Q2.Q1 = 0 the numerator must not vanish
        for _ in range(200):
            q1 = rand_rod(rng, 2.8)
            n1 = q1.norm()
            if n1 < 0.5:
                continue
            # pick Q2 = a*q1 + b*(perp) with a = 1/||q1||^2 so Q2.Q1 = 1
            perp = q1.vec.cross(Vec3(0.393, -1.19, 0.71))
            if perp.norm() < 1e-6:
                continue
            perp = perp / perp.norm()
            a = 1.0 / (n1 * n1)
            b = rng.uniform(-2.0, 2.0)
            q2 = RodriguesVector(*(a * q1.vec + b * perp).as_tuple())
            num = q1.vec + q2.vec + q2.vec.cross(q1.vec)
            assert num.norm() > 1e-9
            r = compose(q2, q1)
            if isinstance(r, HalfTurn):
                d = abs(float(vec_np(r.axis) @ vec_np(num))) / num.norm()
                assert d == pytest.approx(1.0, abs=1e-9)


class TestComposeGeneral:
    def test_half_times_itself_is_identity(self):
        h = HalfTurn(UnitVector(0, 0, 1))
        assert compose_general(h, h) == RodriguesVector(0.0, 0.0, 0.0)

    def test_perpendicular_half_turns(self):
        hx = HalfTurn(UnitVector(1, 0, 0))
        hy = HalfTurn(UnitVector(0, 1, 0))
        r = compose_general(hx, hy)
        assert isinstance(r, HalfTurn)
        assert r.axis == UnitVector(0, 0, 1)
        # oracle: diag(1,-1,-1) @ diag(-1,1,-1) = diag(-1,-1,1)
        oracle = np.diag([1.0, -1, -1]) @ np.diag([-1.0, 1, -1])
        assert np.max(np.abs(_mat(r) - oracle)) == 0.0

    def test_quarter_after_half_about_common_axis(self):
        r = compose_general(RodriguesVector(0, 0, 1), HalfTurn(UnitVector(0, 0, 1)))
        assert isinstance(r, RodriguesVector)
        assert vec_np(r) == pytest.approx([0, 0, -1], abs=1e-12)

    def test_matches_matrix_product(self, rng):
        for _ in range(100):
            a = rand_rod(rng, 2.0)
            h = HalfTurn(UnitVector.from_vec(rand_rod(rng, 2.0).vec + Vec3(0.1, 0, 0)))
            r = compose_general(h, a)
            oracle = _mat(h) @ _mat(a)
            assert np.max(np.abs(_mat(r) - oracle)) <= 1e-9

    def test_regular_pairs_match_the_law_bit_for_bit(self, rng):
        for _ in range(1000):
            q1 = rand_rod(rng, 3.0)
            q2 = rand_rod(rng, 3.0)
            r = compose_general(q2, q1)
            if isinstance(r, HalfTurn):
                continue
            num, den = ref_compose_num_den(q2.as_tuple(), q1.as_tuple())
            assert r.as_tuple() == (num[0] / den, num[1] / den, num[2] / den)

    @pytest.mark.parametrize(
        "operands, message",
        [
            ("1.0, nan, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0", "non-finite component: nan"),
            ("1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -inf, 0.0", "non-finite component: -inf"),
        ],
        ids=["nan", "inf"],
    )
    def test_lifted_law_rejects_non_finite_operands(self, operands, message):
        # in a subprocess with a timeout, so that a rescale loop that never
        # ends fails the test instead of hanging the run
        code = (
            "from math import inf, nan\n"
            "from rodvec._lifted import _compose_lifted\n"
            "try:\n"
            f"    _compose_lifted({operands})\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
        assert (r.returncode, r.stdout, r.stderr) == (0, message + "\n", "")


class TestNearHalfTurn:
    def test_products_just_short_of_pi_match_the_exact_matrix(self):
        # pairs whose product is 1e-15..1e-6 rad short of pi, every other one
        # about a common axis; the half-turn branch takes only an s that is
        # zero to rounding, so every entry is within a few u = 2**-53 of the
        # exact matrix.  The worst of 32 000 such pairs was 8.0 u; with the
        # branch at |s| <= 1e-9 of the scale it was 1.7e-9.
        rng = random.Random(20261019)
        worst = 0.0
        for i in range(1000):
            short = 10.0 ** rng.uniform(-15.0, -6.0)
            n = rand_unit(rng).as_tuple()
            if i % 2:
                a1 = rng.uniform(0.1, math.pi - 0.1)
                t1, t2 = math.tan(0.5 * a1), math.tan(0.5 * (math.pi - short - a1))
                q1 = RodriguesVector(*(t1 * c for c in n))
                q2 = RodriguesVector(*(t2 * c for c in n))
            else:
                q1 = rand_rod(rng, math.pi - 0.1)
                t3 = math.tan(0.5 * (math.pi - short))
                q2 = compose(RodriguesVector(*(t3 * c for c in n)), -q1)
            got = _mat(compose(q2, q1)).ravel()
            exact = exact_matrix(exact_product((1, *q2.as_tuple()), (1, *q1.as_tuple())))
            worst = max(worst, *(abs(Fraction(g) - e) for g, e in zip(got, exact)))
        assert worst <= 2.0**-49


class TestCompositionDiagnostics:
    def test_identity_second_factor(self):
        d = composition_diagnostics(
            RodriguesVector(0, 0, 0), RodriguesVector(0, 0, 1), UnitVector(1, 0, 0)
        )
        assert d.lam == 1.0
        assert d.residual <= 1e-15

    def test_worked_perpendicular(self):
        d = composition_diagnostics(
            RodriguesVector(0, 1, 0), RodriguesVector(1, 0, 0), UnitVector(0, 0, -1)
        )
        assert d.lam == 1.0
        assert d.residual <= 1e-12

    def test_lambda_of_an_overflowing_dot_product(self):
        # Q2.Q1 = 1.79989e308 - 5.0e306: its first product overflows, the sum
        # does not, and lambda is the correctly rounded 1 - Q2.Q1
        q2, q1 = (1.3416e154, -2.236e153, 0.0), (1.3416e154, 2.236e153, 0.0)
        d = composition_diagnostics(RodriguesVector(*q2), RodriguesVector(*q1), UnitVector(0, 0, 1))
        exact = 1 - exact_dot(q2, q1)
        assert d.lam == float(exact) == -1.7498935999999999e308
        # the right-hand side overflows unscaled; scaled, the residual is
        # 1.1e-16 of lambda
        assert d.residual <= 1e-15 * abs(d.lam)

    def test_same_axis_negative_lambda(self):
        d = composition_diagnostics(
            RodriguesVector(2, 0, 0), RodriguesVector(1, 0, 0), UnitVector(0, 1, 0)
        )
        assert d.lam == -1.0
        assert d.residual <= 1e-12

    def test_rejects_non_perpendicular(self):
        with pytest.raises(NotPerpendicular):
            composition_diagnostics(
                RodriguesVector(0, 1, 0), RodriguesVector(1, 0, 0), UnitVector(1, 0, 0)
            )

    def test_rejects_non_perpendicular_past_norm_overflow(self):
        with pytest.raises(NotPerpendicular):
            composition_diagnostics(
                RodriguesVector(0, 1, 0), RodriguesVector(1e200, 0, 0), UnitVector(1, 0, 0)
            )

    def test_degenerate_composition_raises(self):
        with pytest.raises(DegenerateComposition):
            composition_diagnostics(
                RodriguesVector(0, 0, 1), RodriguesVector(0, 0, 1), UnitVector(1, 0, 0)
            )


class TestAlgebraicProperties:
    def test_angle_invariant_under_swap(self, rng):
        for _ in range(500):
            q1 = rand_rod(rng, 2.4)
            q2 = rand_rod(rng, 2.4)
            den = 1.0 - q2.vec.dot(q1.vec)
            if abs(den) < 0.05:
                continue
            a = compose(q2, q1)
            b = compose(q1, q2)
            assert abs(a.norm() - b.norm()) <= 1e-12 * (1.0 + a.norm())
            if q1.vec.cross(q2.vec).norm() > 1e-9:
                assert (a.vec - b.vec).norm() > 0.0

    def test_cross_term_antisymmetry(self, rng):
        for _ in range(500):
            q1 = rand_rod(rng, 2.4)
            q2 = rand_rod(rng, 2.4)
            den = 1.0 - q2.vec.dot(q1.vec)
            if abs(den) < 0.05:
                continue
            diff = compose(q2, q1).vec - compose(q1, q2).vec
            expected = (2.0 / den) * q2.vec.cross(q1.vec)
            assert (diff - expected).norm() <= 1e-12 * (1.0 + expected.norm())

    def test_skew_product_identity(self, rng):
        # (Q2x)(Q1x) = (Q2xQ1)x + Q2 Q1^T - (Q2.Q1) 1
        for _ in range(300):
            a = vec_np(rand_rod(rng, 2.8))
            b = vec_np(rand_rod(rng, 2.8))
            lhs = np_skew(a) @ np_skew(b)
            rhs = np_skew(np.cross(a, b)) + np.outer(a, b) - (a @ b) * np.eye(3)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(lhs)))

    def test_cross_only_consistency_on_triangle_vertex(self, rng):
        # (1 - Q2.Q1)(Q3 x A) = Q1 x A + Q2 x A + (Q2 x Q1) x A with A from
        # the triangle construction
        from rodvec import donkin_triangle

        count = 0
        while count < 300:
            q1 = rand_rod(rng, 2.6)
            q2 = rand_rod(rng, 2.6)
            if q1.norm() < 1e-2 or q2.norm() < 1e-2:
                continue
            if q1.vec.cross(q2.vec).norm() <= 1e-6 * q1.norm() * q2.norm():
                continue
            q3 = compose(q2, q1)
            if isinstance(q3, HalfTurn):
                continue
            count += 1
            a = donkin_triangle(q1, q2).a.vec
            den = 1.0 - q2.vec.dot(q1.vec)
            lhs = den * q3.vec.cross(a)
            rhs = q1.vec.cross(a) + q2.vec.cross(a) + q2.vec.cross(q1.vec).cross(a)
            assert (lhs - rhs).norm() <= 1e-10

    def test_thread_safety_of_pure_functions(self):
        # immutable values + pure functions: concurrent use matches serial
        from concurrent.futures import ThreadPoolExecutor
        import random as _random

        r = _random.Random(1234)
        pairs = [(rand_rod(r, 2.0), rand_rod(r, 2.0)) for _ in range(400)]
        serial = [compose(b, a) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: compose(p[1], p[0]), pairs))
        assert serial == threaded


@given(finite, finite, finite, finite, finite, finite)
def test_homomorphism_property(x1, y1, z1, x2, y2, z2):
    q1 = RodriguesVector(x1, y1, z1)
    q2 = RodriguesVector(x2, y2, z2)
    if abs(1.0 - q2.vec.dot(q1.vec)) < 1e-3:
        return
    r = compose(q2, q1)
    assert isinstance(r, RodriguesVector)
    assert np.max(np.abs(_mat(r) - _mat(q2) @ _mat(q1))) <= 1e-12
