import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from rodvec import (
    EXACT_STEP,
    FIRST_ORDER,
    AngularVelocity,
    AngularVelocitySample,
    HalfTurn,
    NonMonotonicTime,
    RodriguesVector,
    StepTooLarge,
    UnitVector,
    Vec3,
    bisector_intersection,
    compose,
    compose_general,
    compose_infinitesimal,
    infinitesimal_displacement,
    integrate_attitude,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    rodrigues_increment,
    small_rotation_matrix,
    velocity_field,
)
from rodvec.cli import main
from conftest import np_skew, rand_rod, rand_unit, rand_vec, to_np, vec_np


def _const_samples(w=(0.0, 0.0, 1.0), t1=math.pi / 2):
    return [
        AngularVelocitySample(0.0, AngularVelocity(*w)),
        AngularVelocitySample(t1, AngularVelocity(*w)),
    ]


class TestSmallRotationMatrix:
    def test_zero_is_identity(self):
        assert to_np(small_rotation_matrix(RodriguesVector(0, 0, 0))) == pytest.approx(
            np.eye(3), abs=0
        )

    def test_second_order_remainder(self):
        q = RodriguesVector(0, 0, 1e-6)
        d = np.abs(to_np(small_rotation_matrix(q)) - to_np(matrix_from_rodrigues(q)))
        assert np.max(d) <= 4e-12

    def test_breaks_down_at_finite_angle(self):
        q = RodriguesVector(0, 0, 0.5)
        d = np.abs(to_np(small_rotation_matrix(q)) - to_np(matrix_from_rodrigues(q)))
        assert np.max(d) > 0.1

    def test_error_ratio_under_halving(self, rng):
        # remainder is O(||Q||^2): halving the magnitude divides it by ~4
        for _ in range(20):
            u = vec_np(rand_rod(rng, 2.0))
            n = np.linalg.norm(u)
            if n < 1e-2:
                continue
            u = u / n
            errs = []
            for s in (1e-2, 5e-3, 2.5e-3):
                q = RodriguesVector(*(s * u))
                errs.append(
                    np.max(np.abs(to_np(small_rotation_matrix(q)) - to_np(matrix_from_rodrigues(q))))
                )
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
            assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


class TestInfinitesimalDisplacement:
    def test_direct_value(self):
        assert infinitesimal_displacement(RodriguesVector(0, 0, 1e-8), Vec3(1, 0, 0)) == Vec3(
            0, 2e-8, 0
        )

    def test_zero(self):
        assert infinitesimal_displacement(RodriguesVector(0, 0, 0), Vec3(1, 2, 3)) == Vec3(0, 0, 0)

    def test_second_order_against_exact(self):
        q = RodriguesVector(0, 0, 1e-6)
        x = Vec3(1, 0, 0)
        dx = infinitesimal_displacement(q, x)
        rx = matrix_from_rodrigues(q).apply(x)
        assert (x + dx - rx).norm() <= 4e-12

    def test_half_way_identity_all_magnitudes(self, rng):
        # (1 + Qx)x - x = dx/2 is algebraic, not a small-angle statement
        for _ in range(500):
            q = rand_rod(rng, 3.0)
            x = rand_vec(rng)
            lhs = bisector_intersection(q, x) - x
            rhs = 0.5 * infinitesimal_displacement(q, x)
            tol = 1e-15 * (1.0 + x.norm() + rhs.norm())
            assert (lhs - rhs).norm() <= tol


class TestComposeInfinitesimal:
    def test_vector_addition(self):
        got = compose_infinitesimal(RodriguesVector(1e-8, 0, 0), RodriguesVector(0, 1e-8, 0))
        assert got == RodriguesVector(1e-8, 1e-8, 0)

    def test_zero_identity(self):
        q = RodriguesVector(0.1, -0.2, 0.3)
        assert compose_infinitesimal(RodriguesVector(0, 0, 0), q) == q

    def test_commutes(self):
        a = RodriguesVector(1e-5, 2e-5, -1e-5)
        b = RodriguesVector(-3e-5, 1e-5, 2e-5)
        assert compose_infinitesimal(a, b) == compose_infinitesimal(b, a)

    def test_agrees_with_exact_to_second_order(self):
        a = RodriguesVector(1e-4, 0, 0)
        b = RodriguesVector(0, 1e-4, 0)
        exact = compose(b, a)
        approx = compose_infinitesimal(a, b)
        assert (exact.vec - approx.vec).norm() <= 2e-8

    def test_second_order_constant_stable_under_halving(self, rng):
        # ||compose - sum|| <= C (||Q1|| + ||Q2||)^2 with C stable
        for _ in range(20):
            u1 = rand_rod(rng, 1.0)
            u2 = rand_rod(rng, 1.0)
            if u1.norm() < 0.1 or u2.norm() < 0.1:
                continue
            cs = []
            for s in (1e-3, 5e-4):
                q1 = RodriguesVector(s * u1.x, s * u1.y, s * u1.z)
                q2 = RodriguesVector(s * u2.x, s * u2.y, s * u2.z)
                err = (compose(q2, q1).vec - (q1 + q2).vec).norm()
                cs.append(err / (q1.norm() + q2.norm()) ** 2)
            assert cs[0] == pytest.approx(cs[1], rel=0.01)


class TestVelocityField:
    def test_unit_circular_motion(self):
        assert velocity_field(AngularVelocity(0, 0, 1), Vec3(1, 0, 0)) == Vec3(0, 1, 0)

    def test_point_on_axis(self):
        assert velocity_field(AngularVelocity(0, 0, 3), Vec3(0, 0, 5)) == Vec3(0, 0, 0)

    def test_hand_cross_product(self):
        assert velocity_field(AngularVelocity(0, 0, 2), Vec3(0, 3, 0)) == Vec3(-6, 0, 0)

    def test_orthogonality(self, rng):
        for _ in range(100):
            w = AngularVelocity(*rand_vec(rng).as_tuple())
            x = rand_vec(rng)
            v = velocity_field(w, x)
            scale = max(1.0, v.norm()) * max(1.0, x.norm(), w.vec.norm())
            assert abs(v.dot(x)) <= 1e-12 * scale
            assert abs(v.dot(w.vec)) <= 1e-12 * scale


class TestRodriguesIncrement:
    def test_exact_quarter_turn(self):
        q = rodrigues_increment(AngularVelocity(0, 0, 1), math.pi / 2, EXACT_STEP)
        assert vec_np(q) == pytest.approx([0, 0, 1], abs=1e-15)

    def test_schemes_agree_for_tiny_steps(self):
        w = AngularVelocity(0, 0, 1)
        a = rodrigues_increment(w, 1e-6, FIRST_ORDER)
        b = rodrigues_increment(w, 1e-6, EXACT_STEP)
        assert (a.vec - b.vec).norm() <= 1e-19

    def test_zero_omega(self):
        for scheme in (FIRST_ORDER, EXACT_STEP):
            assert rodrigues_increment(AngularVelocity(0, 0, 0), 1.0, scheme) == RodriguesVector(
                0, 0, 0
            )

    def test_step_too_large(self):
        # only an increment past the float range: an exact-step angle |w| dt
        # that overflows, or a first-order w dt/2 that does
        for scheme in (EXACT_STEP, FIRST_ORDER):
            with pytest.raises(StepTooLarge, match="^the step's increment is past the float range;"):
                rodrigues_increment(AngularVelocity(1e308, 0, 0), 10.0, scheme)
        # a step of pi is finite: no float is pi, the pole of tan(|w| dt/2)
        q = rodrigues_increment(AngularVelocity(0, 0, 1), math.pi, EXACT_STEP)
        assert q == RodriguesVector(0.0, 0.0, math.tan(0.5 * math.pi)) == RodriguesVector(0, 0, 1.633123935319537e16)
        assert rodrigues_increment(AngularVelocity(0, 0, 1), math.pi, FIRST_ORDER) == RodriguesVector(
            0, 0, 0.5 * math.pi
        )

    def test_exact_step_small_rate_near_pi(self):
        # |w| = 1e-307 over a step of pi - 0.05: tan/|w| is past the float
        # range, Q is not
        q = rodrigues_increment(AngularVelocity(0, 1e-307, 0), (math.pi - 0.05) / 1e-307, EXACT_STEP)
        assert q.y == pytest.approx(1.0 / math.tan(0.025), rel=1e-12, abs=0.0)
        assert (q.x, q.z) == (0.0, 0.0)

    def test_exact_step_rate_past_the_float_range(self):
        # |w| = 1.5e308 sqrt(2) is past the largest float; over 1e-308 s the
        # step angle is 1.5 sqrt(2) rad
        q = rodrigues_increment(AngularVelocity(1.5e308, -1.5e308, 0), 1e-308, EXACT_STEP)
        want = math.tan(0.75 * math.sqrt(2.0)) / math.sqrt(2.0)
        assert q.x == pytest.approx(want, rel=1e-14, abs=0.0)
        assert q.y == -q.x and q.z == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rodrigues_increment(AngularVelocity(0, 0, 1), -1.0, EXACT_STEP)
        with pytest.raises(ValueError):
            rodrigues_increment(AngularVelocity(0, 0, 1), 1.0, "midpoint")

    def test_exact_step_rate_past_square_overflow(self):
        # |w| = 1e200 over 1e-300 s is a 1e-100 rad step; |w|^2 overflows
        q = rodrigues_increment(AngularVelocity(1e200, 0, 0), 1e-300, EXACT_STEP)
        assert q.x == pytest.approx(5e-101, rel=1e-15, abs=0.0)
        assert (q.y, q.z) == (0.0, 0.0)

    def test_exact_step_rate_past_square_underflow(self):
        # |w|^2 = 1e-340 is below the smallest normal float
        q = rodrigues_increment(AngularVelocity(1e-170, 0, 0), 1.0, EXACT_STEP)
        assert q.x == pytest.approx(5e-171, rel=1e-15, abs=0.0)
        assert (q.y, q.z) == (0.0, 0.0)


class TestIntegrateAttitude:
    def test_constant_omega_exact_any_step_count(self):
        want = to_np(matrix_from_rodrigues(RodriguesVector(0, 0, 1)))
        for substeps in (1, 2, 10, 1000):
            traj = integrate_attitude(_const_samples(), EXACT_STEP, substeps=substeps)
            got = traj.final
            assert isinstance(got, RodriguesVector)
            assert np.max(np.abs(to_np(matrix_from_rodrigues(got)) - want)) <= 1e-10

    def test_first_order_second_order_convergence(self):
        errs = []
        for substeps in (64, 128, 256):
            traj = integrate_attitude(_const_samples(), FIRST_ORDER, substeps=substeps)
            errs.append(abs(traj.final.angle() - math.pi / 2))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_all_zero_omega_stays_at_initial(self):
        samples = [
            AngularVelocitySample(0.0, AngularVelocity(0, 0, 0)),
            AngularVelocitySample(1.0, AngularVelocity(0, 0, 0)),
            AngularVelocitySample(2.0, AngularVelocity(0, 0, 0)),
        ]
        init = RodriguesVector(0.2, -0.4, 0.8)
        traj = integrate_attitude(samples, EXACT_STEP, initial=init)
        assert len(traj) == 3
        for _, orient in traj:
            assert orient == init

    def test_records_at_sample_times(self):
        samples = [
            AngularVelocitySample(0.0, AngularVelocity(0, 0, 1)),
            AngularVelocitySample(0.5, AngularVelocity(0, 0, 1)),
            AngularVelocitySample(1.5, AngularVelocity(0, 0, 1)),
        ]
        traj = integrate_attitude(samples, EXACT_STEP, substeps=4)
        assert [t for t, _ in traj] == [0.0, 0.5, 1.5]
        assert traj.points[0][1] == RodriguesVector(0, 0, 0)

    @pytest.mark.parametrize("scheme", [FIRST_ORDER, EXACT_STEP])
    def test_steps_underflowing_to_zero_are_the_identity(self, scheme):
        # (5e-324 - 0)/3 rounds to 0; the log still increases strictly
        w = AngularVelocity(0, 0, 1)
        samples = [AngularVelocitySample(t, w) for t in (0.0, 5e-324, 1.0)]
        init = RodriguesVector(0.2, -0.4, 0.8)
        traj = integrate_attitude(samples, scheme, initial=init, substeps=3)
        assert [t for t, _ in traj] == [0.0, 5e-324, 1.0]
        assert traj.points[1][1] == init
        direct = integrate_attitude([samples[0], samples[2]], scheme, initial=init, substeps=3)
        assert traj.final == direct.final

    def test_non_monotonic_time(self):
        samples = [
            AngularVelocitySample(0.0, AngularVelocity(0, 0, 1)),
            AngularVelocitySample(-1.0, AngularVelocity(0, 0, 1)),
        ]
        with pytest.raises(NonMonotonicTime):
            integrate_attitude(samples, EXACT_STEP)

    def test_int_times_equal_as_floats_are_not_increasing(self):
        # sample times are stored as floats, and 2**53 + 1 rounds to 2**53
        samples = [AngularVelocitySample(t, AngularVelocity(0, 0, 1)) for t in (2**53, 2**53 + 1)]
        assert samples[0].t == samples[1].t == 2.0**53
        with pytest.raises(NonMonotonicTime):
            integrate_attitude(samples, EXACT_STEP)

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_sample_time_has_the_shared_finite_check(self, t):
        with pytest.raises(ValueError, match="non-finite component"):
            AngularVelocitySample(t, AngularVelocity(0, 0, 1))

    @pytest.mark.parametrize(
        "samples, options, message",
        [
            (_const_samples()[:1], {}, "need at least two samples"),
            ([], {}, "need at least two samples"),
            (_const_samples(), {"substeps": 0}, "substeps must be >= 1"),
            (_const_samples(), {"scheme": "rk4"}, "unknown scheme 'rk4'; choose from"),
            (
                [AngularVelocitySample(t, AngularVelocity(0, 0, 0)) for t in (-1e308, 1e308)],
                {},
                r"sample times -1e\+308 -> 1e\+308 are farther apart than the largest float",
            ),
        ],
        ids=["one-sample", "no-samples", "no-substeps", "unknown-scheme", "interval-overflows"],
    )
    def test_rejects_bad_arguments(self, samples, options, message):
        with pytest.raises(ValueError, match=message):
            integrate_attitude(samples, **options)

    def test_trajectory_can_pass_through_half_turn(self):
        # a full pi of accumulated angle lands exactly on the half-turn state
        traj = integrate_attitude(_const_samples(t1=math.pi), EXACT_STEP, substeps=2)
        assert isinstance(traj.final, HalfTurn)
        assert traj.final.axis == UnitVector(0, 0, 1)

    @pytest.mark.parametrize("dt", [1e-4, 1e-3])
    def test_trajectory_leaves_half_turn(self, dt):
        n = round(0.01 / dt)
        samples = [AngularVelocitySample(i * dt, AngularVelocity(0, 0, 1)) for i in range(n + 1)]
        traj = integrate_attitude(samples, EXACT_STEP, initial=HalfTurn(UnitVector(0, 0, 1)))
        want = -1.0 / math.tan(0.005)
        assert isinstance(traj.final, RodriguesVector)
        assert traj.final.x == 0.0 and traj.final.y == 0.0
        assert traj.final.z == pytest.approx(want, rel=1e-12)

    def test_half_turn_then_pi_further_is_identity(self):
        traj = integrate_attitude(
            _const_samples(t1=math.pi), EXACT_STEP, initial=HalfTurn(UnitVector(0, 0, 1)), substeps=3142
        )
        assert isinstance(traj.final, RodriguesVector)
        assert traj.final.norm() <= 1e-12

    def test_angular_velocity_addition(self):
        # integrating wa + wb approaches the composition of the separate
        # increments at O(dt^2): the defect ratio under halving is ~4
        wa = Vec3(0.7, 0.0, 0.4)
        wb = Vec3(-0.2, 0.5, 0.1)
        defects = []
        for dt in (2e-2, 1e-2):
            samples = [
                AngularVelocitySample(0.0, AngularVelocity(*(wa + wb).as_tuple())),
                AngularVelocitySample(dt, AngularVelocity(*(wa + wb).as_tuple())),
            ]
            combined = integrate_attitude(samples, EXACT_STEP).final
            qa = rodrigues_increment(AngularVelocity(*wa.as_tuple()), dt, EXACT_STEP)
            qb = rodrigues_increment(AngularVelocity(*wb.as_tuple()), dt, EXACT_STEP)
            separate = compose_general(qb, qa)
            defects.append((combined.vec - separate.vec).norm())
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.25)


#: u = 2**-53, the unit roundoff
_U = 2.0**-53

#: Against the closed form, N exact steps of angle theta err by at most
#: this many u * N * max(1, theta) in a matrix entry; measured at 2.5 for
#: steps from pi - 1e-3 to 100 pi, and at 3.0 for steps from 0.1 to
#: pi - 1e-3.
_EXACT_STEP_ERROR = 4.0


def _turn_matrix(w, dt, steps):
    """The rotation of steps * dt s at the constant rate w: the angle is
    steps |w| dt, rounded to a pair hi + lo, so that its cosine and sine are
    within about u of the exact ones at any number of turns."""
    n = math.hypot(*w)
    angle = Fraction(n) * Fraction(dt) * steps
    hi = float(angle)
    lo = float(angle - Fraction(hi))
    c = math.cos(hi) - math.sin(hi) * lo
    s = math.sin(hi) + math.cos(hi) * lo
    axis = np.array(w) / n
    return c * np.eye(3) + s * np_skew(axis) + (1.0 - c) * np.outer(axis, axis)


def _matrix_of(r) -> np.ndarray:
    return to_np(matrix_from_rodrigues(r) if isinstance(r, RodriguesVector) else matrix_from_half_turn(r))


def _steps_past_pi(count=400):
    """(w, dt, steps) of constant rates: step angles log-uniform from
    pi - 1e-3 to 100 pi, one in ten an odd multiple of pi, 1 to 40 steps of
    a power-of-two dt, so that every sample time k dt is exact."""
    rng = random.Random(30)
    runs = []
    for i in range(count):
        if i % 10 == 9:
            theta = (2 * rng.randint(0, 49) + 1) * math.pi
        else:
            theta = math.exp(rng.uniform(math.log(math.pi - 1e-3), math.log(100.0 * math.pi)))
        dt = 2.0 ** rng.randint(-3, 3)
        axis = vec_np(rand_unit(rng))
        runs.append((tuple(map(float, axis * (theta / dt))), dt, rng.randint(1, 40)))
    return runs


def _assert_exact_steps(m, w, dt, steps):
    err = np.abs(m - _turn_matrix(w, dt, steps)).max()
    assert err <= _EXACT_STEP_ERROR * _U * steps * max(1.0, math.hypot(*w) * dt), (w, dt, steps, err)


class TestExactStepPastPi:
    """A step of constant rate is exact at any angle: its increment
    tan(theta/2) n is finite for every finite theta, so steps past pi, and
    at odd multiples of pi, follow the closed form as steps below pi do."""

    def test_rodrigues_increment(self):
        for w, dt, _ in _steps_past_pi():
            q = rodrigues_increment(AngularVelocity(*w), dt, EXACT_STEP)
            _assert_exact_steps(_matrix_of(q), w, dt, 1)

    def test_integrate_attitude(self):
        for w, dt, steps in _steps_past_pi():
            samples = [AngularVelocitySample(k * dt, AngularVelocity(*w)) for k in range(steps + 1)]
            _assert_exact_steps(_matrix_of(integrate_attitude(samples, EXACT_STEP).final), w, dt, steps)

    def test_rodvec_integrate(self, tmp_path):
        path = tmp_path / "omega.txt"
        # every seventh run, odd multiples of pi among them
        for w, dt, steps in _steps_past_pi()[::7]:
            path.write_text("".join(f"{k * dt!r} {w[0]!r} {w[1]!r} {w[2]!r}\n" for k in range(steps + 1)))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["--precision", "17", "integrate", str(path)]) == 0
            final = out.getvalue().splitlines()[-1].removeprefix("final mat:").split(",")
            _assert_exact_steps(np.array(final, dtype=float).reshape(3, 3), w, dt, steps)

    def test_ten_radian_step(self, tmp_path):
        # one step of 10 rad about z is -(4 pi - 10) rad about z
        path = tmp_path / "omega.txt"
        path.write_text("0 0 0 1\n10 0 0 1\n")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["integrate", str(path)]) == 0
        assert out.getvalue().splitlines()[1] == "final aa:0,0,-1,2.56637061436"


def _spin_samples():
    """The log of test_cli._spin_log: 500 samples of a spin of about 3 rad/s."""
    rng = random.Random(0)
    t = 0.0
    samples = []
    for _ in range(500):
        w = (
            0.4 + 0.2 * rng.uniform(-1, 1),
            -0.3 + 0.2 * rng.uniform(-1, 1),
            2.9 + 0.2 * rng.uniform(-1, 1),
        )
        samples.append(AngularVelocitySample(t, AngularVelocity(*w)))
        t += 0.01 * rng.uniform(0.9, 1.1)
    return samples


def _points_key(traj):
    return repr(
        [
            (t, type(p).__name__, p.axis.as_tuple() if isinstance(p, HalfTurn) else p.as_tuple())
            for t, p in traj
        ]
    )


class TestIntegrateAttitudePoints:
    """The typed points, pinned by the sha256 of their types and exact values."""

    def test_spin_log(self):
        traj = integrate_attitude(_spin_samples())
        assert {type(p) for _, p in traj} == {RodriguesVector}
        digest = hashlib.sha256(_points_key(traj).encode()).hexdigest()
        assert digest == "55055739cd7b14469f77bef2066bd46c646613df527b934bb29575d4d3fb07ee"

    def test_spin_log_from_a_half_turn(self):
        initial = HalfTurn(UnitVector(0.0, -0.6, 0.8))
        traj = integrate_attitude(_spin_samples(), FIRST_ORDER, initial=initial, substeps=3)
        assert type(traj.points[0][1]) is HalfTurn
        assert traj.points[0][1].axis.as_tuple() == (-0.0, 0.6, -0.8)  # canonical: first nonzero > 0
        assert {type(p) for _, p in traj.points[1:]} == {RodriguesVector}
        digest = hashlib.sha256(_points_key(traj).encode()).hexdigest()
        assert digest == "9e530c7e8717d859c602fc61ad97cdafbe27731967ca0119fd41bcb4de35e87e"

    def test_landing_on_a_half_turn_gives_the_canonical_axis(self):
        traj = integrate_attitude(_const_samples(w=(0.0, 0.0, -1.0), t1=math.pi), EXACT_STEP, substeps=2)
        assert _points_key(traj) == repr(
            [(0.0, "RodriguesVector", (0.0, 0.0, 0.0)), (math.pi, "HalfTurn", (-0.0, -0.0, 1.0))]
        )


# --- observed order on coning motion ---------------------------------------

# Classical coning, R(t) = Rz(Wt) Rx(beta) Rz(-Wt): the axis of the tilt
# circles e_z, and the fixed-frame rate is w = W (e_z - R e_z).
_CONE_W, _CONE_BETA, _CONE_T = 2.0, 0.4, 2.0

#: |p - 2| allowed for an observed order; the measured values lie within
#: 0.01 of 2, while the next order a scheme could show is 3 or 4.
_ORDER_TOL = 0.05


def _cone_rotation(t):
    c, s = math.cos(_CONE_W * t), math.sin(_CONE_W * t)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    cb, sb = math.cos(_CONE_BETA), math.sin(_CONE_BETA)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return rz @ rx @ rz.T


def _cone_samples(intervals):
    samples = []
    for k in range(intervals + 1):
        t = _CONE_T * k / intervals
        w = _CONE_W * (np.array([0.0, 0.0, 1.0]) - _cone_rotation(t)[:, 2])
        samples.append(AngularVelocitySample(t, AngularVelocity(*map(float, w))))
    return samples


def _cone_final(intervals, scheme, substeps):
    q = integrate_attitude(_cone_samples(intervals), scheme=scheme, substeps=substeps).final
    return to_np(matrix_from_rodrigues(q))


def _orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("scheme", [FIRST_ORDER, EXACT_STEP])
class TestIntegratorOrder:
    """Both schemes are second order: in the step on a fixed log (the
    midpoint rate), and in the sample rate against the closed form (the
    linear rate model between samples)."""

    def test_halving_the_substep_on_a_fixed_log(self, scheme):
        finals = [_cone_final(8, scheme, n) for n in (1, 2, 4, 8)]
        changes = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        for p in _orders(changes):
            assert abs(p - 2.0) < _ORDER_TOL, (changes, p)

    def test_sample_rate_against_the_closed_form(self, scheme):
        exact = _cone_rotation(_CONE_T) @ _cone_rotation(0.0).T
        errors = [np.abs(_cone_final(n, scheme, 1) - exact).max() for n in (16, 32, 64, 128)]
        assert errors[-1] < 2e-4
        for p in _orders(errors):
            assert abs(p - 2.0) < _ORDER_TOL, (errors, p)
