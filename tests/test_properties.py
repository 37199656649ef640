"""Property tests over the whole finite float range.

Every finite input gets either a result within the documented bound or the
documented error; an overflow or underflow inside the library must not
turn into a wrong rotation, a NaN or an undocumented exception.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rodvec import (
    HalfTurn,
    Matrix3,
    RodriguesVector,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    cayley_inverse_explicit,
    cayley_rotation,
    compose_general,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    rodrigues_from_matrix,
    skew,
)
from rodvec import _kernels_py
from rodvec._lifted import (
    EXACT_STEP,
    FIRST_ORDER,
    ROTATION_MATRIX_TOL,
    SCHEMES,
    _MIN_NORMAL,
    _cayley_residuals,
    _checked9,
    _compose_chain,
    _compose_lifted,
    _composition_diagnostics,
    _direction,
    _donkin_ab,
    _donkin_triangle,
    _double_arc_rotation9,
    _half_angle_point,
    _half_turn_axis,
    _integrate,
    _inverse_scaled,
    _lambda,
    _lift_axis_angle,
    _lift_matrix9,
    _require_triangle,
    _rotation9,
    _unit,
    _unit_components,
)
from rodvec.cli import _SPEC_COUNTS, _parse_lifted, main
from rodvec.core import _from_lifted, _lift
from conftest import anyfloat, euler_parameters, to_np, vectors
from reference import (
    cross,
    exact_so3_residual,
    matrix_of_euler_parameters,
    outcome,
    raised,
    ref_cayley_residuals,
    ref_compose_chain,
    ref_composition_diagnostics,
    ref_direction,
    ref_donkin_ab,
    ref_donkin_triangle,
    ref_double_arc_rotation9,
    ref_euler_rodrigues9,
    ref_half_angle_point,
    ref_integrate,
    ref_matmul_comp,
    ref_require_triangle,
    ref_unit,
)


def scaled_norm(v) -> tuple[float, tuple[float, float, float]]:
    """(||v||, v/||v||) without overflow or underflow; (0, v) for v = 0.

    The norm itself rounds to inf when it is past the largest float."""
    m = max(abs(c) for c in v)
    if m == 0.0:
        return 0.0, tuple(v)
    s = tuple(c / m for c in v)
    h = math.hypot(*s)
    return m * h, tuple(c / h for c in s)


def assert_so3(r: np.ndarray) -> None:
    assert np.all(np.isfinite(r))
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
    assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def rotation_matrix(r) -> np.ndarray:
    if isinstance(r, HalfTurn):
        return to_np(matrix_from_half_turn(r))
    return to_np(matrix_from_rodrigues(r))


@given(vectors)
@example((1e-16, 0.0, 0.0))
@example((5e-324, -5e-324, 0.0))
def test_unit_from_vec(v):
    n, direction = scaled_norm(v)
    if n == 0.0:
        with pytest.raises(ValueError, match="cannot normalize a"):
            UnitVector.from_vec(Vec3(*v))
        return
    u = UnitVector.from_vec(Vec3(*v))
    assert abs(math.hypot(u.x, u.y, u.z) - 1.0) <= 1e-12
    assert u.as_tuple() == pytest.approx(direction, abs=1e-12)


@given(vectors.filter(any))
@example((5e-324, 0.0, 0.0))
@example((1.7e308, -1.7e308, 1.7e308))
def test_unit_is_within_the_unit_vector_tolerance(v):
    # UnitVector keeps _unit's output as it is, so the library may use it
    # as UnitVector components without renormalising again
    u = _unit(*v)
    assert _unit_components(*u) == u
    assert abs(math.hypot(*u) - 1.0) <= 1e-12


@given(vectors)
def test_axis_angle_from_rodrigues(v):
    n, direction = scaled_norm(v)
    aa = axis_angle_from_rodrigues(RodriguesVector(*v))
    assert aa.angle == pytest.approx(2.0 * math.atan(n), rel=1e-15, abs=1e-300)
    assert abs(math.hypot(*aa.axis.as_tuple()) - 1.0) <= 1e-12
    if not any(v):
        assert aa.axis == UnitVector(0.0, 0.0, 1.0)
    else:
        assert aa.axis.as_tuple() == pytest.approx(direction, abs=1e-12)


@given(vectors)
@example((1e150, 5e149, 0.0))  # ||Q||^3 overflows; the inverse kernel does not
@example((1e30, 5e29, 0.0))  # components past 2**53
def test_cayley_rotation(v):
    q = RodriguesVector(*v)
    r = to_np(cayley_rotation(q))
    assert_so3(r)
    assert np.max(np.abs(r - to_np(matrix_from_rodrigues(q)))) <= 1e-12


@given(vectors)
@example((1e154, 5e153, 0.0))  # 1 + Q.Q overflows
def test_cayley_inverse_explicit(v):
    m = cayley_inverse_explicit(RodriguesVector(*v)).elements
    assert all(map(math.isfinite, m))
    if scaled_norm(v)[0] <= 1e3:
        k = skew(Vec3(*v)).matrix.elements
        one_minus_k = tuple((1.0 if i % 4 == 0 else 0.0) - k[i] for i in range(9))
        ident = np.eye(3)
        assert np.max(np.abs(to_np(ref_matmul_comp(one_minus_k, m)) - ident)) <= 1e-12
        assert np.max(np.abs(to_np(ref_matmul_comp(m, one_minus_k)) - ident)) <= 1e-12


rotations = st.one_of(
    vectors.map(lambda v: RodriguesVector(*v)),
    vectors.filter(lambda v: scaled_norm(v)[0] >= 1e-15).map(
        lambda v: HalfTurn(UnitVector.from_vec(Vec3(*v)))
    ),
)


@given(rotations, rotations)
def test_compose_general_gives_a_rotation(b, a):
    r = rotation_matrix(compose_general(b, a))
    assert_so3(r)
    # the half-turn branch takes only an s that is zero to rounding; the
    # worst of 20 000 examples was 1.3e-15 (1.3e-9 with the branch at
    # |s| <= 1e-9 of the scale)
    assert np.max(np.abs(r - rotation_matrix(b) @ rotation_matrix(a))) <= 1e-12


@settings(max_examples=300)
@given(euler_parameters)
@example((0.0, 1.0, 0.0, 0.0))
@example((1e-300, 0.0, 1.0, 1.0))
@example((5e-324, 1.7e308, -1.7e308, 1e-300))
def test_lift_matrix_gives_the_matrix_back(p):
    e = matrix_of_euler_parameters(p)
    s, x, y, z = _lift_matrix9(e)
    back = _rotation9(s, x, y, z)
    assert max(abs(a - b) for a, b in zip(back, e)) <= 1e-12
    # the public route checks the matrix first, and returns the same rotation
    r = rodrigues_from_matrix(Matrix3(e))
    if s:
        assert r == RodriguesVector(x, y, z)
    else:
        assert r == HalfTurn(UnitVector(x, y, z))


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


specs = st.one_of(
    st.tuples(st.sampled_from(["rod", "half"]), vectors),
    st.tuples(st.just("aa"), st.tuples(anyfloat, anyfloat, anyfloat, anyfloat)),
)


@settings(max_examples=300, deadline=None)
@given(specs)
def test_convert_specs(spec_parts):
    kind, numbers = spec_parts
    spec = f"{kind}:" + ",".join(repr(x) for x in numbers)
    code, out = run_cli("--precision", "17", "convert", spec, "--to", "mat")
    if code == 2:
        # only the zero axis is refused
        assert kind != "rod"
        assert not any(numbers[:3])
        return
    assert code == 0
    elements = [float(x) for x in out.strip().removeprefix("mat:").split(",")]
    assert_so3(np.array(elements).reshape(3, 3))


@settings(max_examples=300, deadline=None)
@given(vectors.filter(any))
@example((5e-324, 0.0, 0.0))
@example((-5e-324, 1e-323, -5e-324))
@example((1e-16, 0.0, 0.0))
@example((1.7e308, -1.7e308, 1.7e308))
@example((0.0, -4.192937160936226e-151, 1.3407807929942597e154))
def test_every_nonzero_half_axis_parses(v):
    h = _from_lifted(*_parse_lifted("half:" + ",".join(map(repr, v)), False))
    assert type(h) is HalfTurn
    axis = h.axis.as_tuple()
    assert next(c for c in axis if c) > 0.0
    # n and -n are the same half-turn; which one is canonical can turn on
    # a component far below the others' rounding error
    _, unit = scaled_norm(v)
    if sum(a * u for a, u in zip(axis, unit)) < 0.0:
        unit = tuple(-c for c in unit)
    assert axis == pytest.approx(unit, abs=1e-15)


def assert_canonical(p) -> None:
    """A (0, n) of the float core has the axis a HalfTurn stores, bit for bit."""
    if not p[0]:
        n = p[1:]
        assert outcome(_half_turn_axis, *n) == outcome(tuple, n), p


@settings(max_examples=500)
@given(rotations, rotations)
@example(RodriguesVector(-1.0, 0.0, 0.0), RodriguesVector(-1.0, 0.0, 0.0))
@example(HalfTurn(UnitVector(0.0, 1.0, 0.0)), HalfTurn(UnitVector(1.0, 0.0, 0.0)))
@example(RodriguesVector(0.0, 0.0, 0.0), HalfTurn(UnitVector(0.0, -1.0, 0.0)))
@example(RodriguesVector(1e300, 0.0, 0.0), RodriguesVector(0.0, -1e300, 0.0))
def test_every_half_turn_the_core_makes_is_canonical(b, a):
    assert_canonical(_compose_lifted(*_lift(b), *_lift(a)))


@settings(max_examples=300, deadline=None)
@given(euler_parameters, vectors.filter(any))
@example((0.0, -1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
@example((0.0, -0.0, -0.6, 0.8), (0.0, -0.6, 0.8))
def test_every_half_turn_read_from_input_is_canonical(p, v):
    e = _checked9(matrix_of_euler_parameters(p))
    assert_canonical(_lift_matrix9(e))
    assert_canonical(_parse_lifted("mat:" + ",".join(map(repr, e)), False))
    n = _direction(*v)
    for angle in (math.pi, -math.pi):
        assert_canonical(_lift_axis_angle(*n, angle))
        assert_canonical(_parse_lifted("aa:" + ",".join(map(repr, (*v, angle))), False))
    assert_canonical(_parse_lifted("half:" + ",".join(map(repr, v)), False))


# --- the rotation kernels, and integrate through the CLI --------------------


def backend_kernels(name: str):
    """The kernel module of the backend name, or a skip if it is not built."""
    if name == "python":
        return _kernels_py
    return pytest.importorskip("rodvec._kernels_c")


backends = pytest.mark.parametrize("backend", ["python", "compiled"])

#: Q with Q.Q finite: where _rotation9 calls rot_from_rod9 (past it, the
#: half-turn matrix about Q/||Q||)
moderate = st.floats(min_value=-1e153, max_value=1e153)


@backends
@settings(max_examples=300)
@given(st.tuples(moderate, moderate, moderate))
@example((9.4e153, 9.4e153, 0.0))  # Q.Q = 1.77e308
@example((5e-324, 0.0, -5e-324))
def test_rot_from_rod9_is_a_rotation(backend, q):
    assert_so3(to_np(backend_kernels(backend).rot_from_rod9(q)))


@settings(max_examples=300)
@given(vectors.filter(any))
@example((5e-324, 0.0, 0.0))
@example((1.7e308, -1.7e308, 1.7e308))
def test_half_turn_matrix_is_a_rotation(v):
    n = _unit(*v)
    assert_so3(to_np(_rotation9(0.0, *n)))
    # a Q whose Q.Q overflows gets the half-turn matrix about Q/||Q||
    if max(map(abs, v)) >= 1e155:
        assert_so3(to_np(_rotation9(1.0, *v)))


@backends
@settings(max_examples=300)
@given(vectors.filter(any), anyfloat)
@example((0.0, 0.0, 1.0), math.pi)
@example((1.0, 1.0, 1e-300), 1e300)
def test_euler_rodrigues9_is_a_rotation(backend, v, theta):
    assert_so3(to_np(backend_kernels(backend).euler_rodrigues9(_unit(*v), theta)))


@backends
@settings(max_examples=300)
@given(vectors)
@example((1e154, 5e153, 0.0))  # 1 + Q.Q overflows
@example((1e30, 5e29, 0.0))
def test_twice_the_cayley_inverse_less_one_is_a_rotation(backend, q):
    # the kernel, or, where it is not finite, the scaled inverse that
    # _lifted._cayley_inv9 takes instead
    m = backend_kernels(backend).cayley_inv9(q)
    if not math.isfinite(sum(m)):
        m = _inverse_scaled(*q)
    assert_so3(2.0 * to_np(m) - np.eye(3))


@st.composite
def gyro_logs(draw):
    """'t wx wy wz' lines of 2 to 200 samples with jittered times, at a
    sample interval from 1e-6 to 1 s, of rates up to 1e3 rad/s."""
    n = draw(st.integers(2, 200))
    dt = 10.0 ** draw(st.floats(-6.0, 0.0))
    t = draw(st.floats(-1e3, 1e3))
    rate = st.floats(-1e3, 1e3)
    lines = ["# t wx wy wz"]
    for _ in range(n):
        w = draw(st.tuples(rate, rate, rate))
        lines.append(" ".join(map(repr, (t, *w))))
        t += dt * draw(st.floats(0.5, 1.5))
    return "\n".join(lines) + "\n"


def assert_printed_rotation(columns) -> None:
    """The first two columns of a printed matrix, and their cross product,
    make a rotation."""
    c1, c2 = np.array(columns[:3]), np.array(columns[3:])
    assert_so3(np.column_stack([c1, c2, np.cross(c1, c2)]))


@settings(max_examples=100, deadline=None)
@given(
    gyro_logs(),
    st.sampled_from(SCHEMES),
    st.one_of(st.just([]), st.integers(1, 8).map(lambda k: ["--substeps", str(k)])),
)
def test_integrate_prints_rotations(tmp_path_factory, log, scheme, substeps):
    path = tmp_path_factory.getbasetemp() / "gyro-property.txt"
    path.write_text(log)
    code, out = run_cli(
        "--precision", "17", "integrate", str(path), "--trajectory", "--matrix-cols",
        "--scheme", scheme, *substeps,
    )
    # these rates and times are far from overflow, so no step is past the
    # float range and exit 2 would be a row that failed its SO(3) check;
    # nor 5, as the jitter keeps the times increasing
    assert code == 0
    lines = out.splitlines()
    rows = [list(map(float, line.split())) for line in lines[1:-3]]
    assert len(rows) == log.count("\n") - 1
    for row in rows:
        assert_printed_rotation(row[4:])
    final = list(map(float, lines[-1].removeprefix("final mat:").split(",")))
    assert_so3(np.array(final).reshape(3, 3))


# --- multi-spec compose through the CLI ------------------------------------


def axis_angle_matrix(v, theta) -> tuple[float, ...]:
    """The rotation by theta about the direction of the nonzero v, as nine
    floats: cos(theta) 1 + sin(theta) [n]x + (1 - cos(theta)) n n^T."""
    return ref_euler_rodrigues9(scaled_norm(v)[1], theta)


def near_rotation(t) -> tuple[float, ...]:
    """axis_angle_matrix of (v, theta) with its entry k scaled by 1 + delta."""
    (v, theta), k, delta = t
    e = list(axis_angle_matrix(v, theta))
    e[k] *= 1.0 + delta
    return tuple(e)


#: |delta| log-uniform over 1e-16 to 1e-6, so that the scaled entry leaves
#: the matrix within ROTATION_MATRIX_TOL of SO(3) or puts it past it
deltas = st.tuples(st.floats(-16.0, -6.0), st.booleans()).map(lambda t: (-1.0 if t[1] else 1.0) * 10.0 ** t[0])

compose_specs = st.one_of(
    st.tuples(st.sampled_from(["rod", "half"]), vectors),
    st.tuples(st.just("aa"), st.tuples(anyfloat, anyfloat, anyfloat, anyfloat)),
    st.tuples(st.just("mat"), st.tuples(vectors.filter(any), anyfloat).map(lambda t: axis_angle_matrix(*t))),
    st.tuples(
        st.just("mat"),
        st.tuples(st.tuples(vectors.filter(any), anyfloat), st.integers(0, 8), deltas).map(near_rotation),
    ),
)

#: The kernel's SO(3) residuals are within this of the exact ones: each is
#: a sum of three products of entries of at most about 1.
RESIDUAL_ROUNDING = 1e-14


@settings(max_examples=300, deadline=None)
@given(st.lists(compose_specs, min_size=2, max_size=12))
@example([("rod", (1e300, 0.0, 0.0)), ("rod", (0.0, -1e300, 0.0)), ("half", (0.0, 0.0, -1.0))])
@example([("aa", (0.0, 0.0, 1.0, math.pi)), ("mat", axis_angle_matrix((0.0, 0.0, 1.0), math.pi))])
@example([("aa", (0.0, 0.0, 1.0, 180.0)), ("aa", (1.0, 0.0, 0.0, -90.0))])
@example([("rod", (1.0, 0.0, 0.0)), ("aa", (0.0, 0.0, 0.0, 1.0))])
@example([("rod", (1.0, 0.0, 0.0)), ("mat", near_rotation((((0.0, 0.0, 1.0), 0.5), 0, 1e-10)))])
@example([("rod", (1.0, 0.0, 0.0)), ("mat", near_rotation((((0.0, 0.0, 1.0), 0.5), 4, 1e-8)))])
def test_compose_specs(spec_parts):
    specs = [f"{kind}:" + ",".join(map(repr, numbers)) for kind, numbers in spec_parts]
    # only a zero axis and a mat spec past ROTATION_MATRIX_TOL are refused:
    # every finite rod is a rotation
    zero_axis = any(kind in ("aa", "half") and not any(numbers[:3]) for kind, numbers in spec_parts)
    off = max((exact_so3_residual(numbers) for kind, numbers in spec_parts if kind == "mat"), default=0)
    # --degrees reads the aa angles in degrees; it refuses the same specs
    for options in ([], ["--degrees"]):
        code, out = run_cli(*options, "--precision", "17", "compose", *specs)
        if off > ROTATION_MATRIX_TOL + RESIDUAL_ROUNDING:
            assert code == 2
        if code == 2:
            assert zero_axis or off > ROTATION_MATRIX_TOL - RESIDUAL_ROUNDING
            continue
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("mat:")
        assert_so3(np.array([float(x) for x in last.removeprefix("mat:").split(",")]).reshape(3, 3))


# --- the integrator's inline step --------------------------------------------


#: magnitudes log-uniform over 1e-320 to 1e308, and zero
magnitudes = st.one_of(st.floats(-320.0, 308.0).map(lambda e: 10.0**e), st.just(0.0))
signed = st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


#: a finite matrix whose R^T R and det R overflow to inf and nan
_OVERFLOWING_MAT = (
    -1.3161759444651536e-56, -2.5503048464547117e+289, -1.94202641531858e+235,
    -7.480031877275397e+215, -1.5282506596944187e+301, -8.579700866098322e+164,
    -5.0612729001800275e-275, 1e154, -3.0,
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[signed] * 9))
@example(_OVERFLOWING_MAT)
@example((1e154,) * 9)
def test_finite_mat_specs_get_no_error_naming_inf_or_nan(e):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["convert", "mat:" + ",".join(map(repr, e)), "--to", "rod"])
    # 3: a half-turn matrix, such as diag(-1, -1, 1), has no Rodrigues vector
    assert code in (0, 2, 3)
    if code:
        message = err.getvalue()
        assert message.count("\n") == 1 and message.startswith("error: "), message
        assert not re.search(r"\b(inf|nan)\b", message, re.IGNORECASE), message
    else:
        assert err.getvalue() == ""


@st.composite
def integrator_runs(draw):
    """(times, rates, scheme, start, substeps) of 2 to 6 samples: intervals
    log-uniform down to 5e-324 (an interval that rounds away repeats a
    time), rates of any magnitude, and a start of None, (1, Q) with ||Q||
    up to 1e300 or a canonical (0, n)."""
    n = draw(st.integers(2, 6))
    # times near zero on the scale of their intervals, so that most stay apart
    e = draw(st.floats(-323.0, 2.0))
    t = draw(st.floats(-1e3, 1e3)) * 10.0**e
    times = [t]
    for _ in range(n - 1):
        # one interval in eight is the smallest float
        t += 5e-324 if draw(st.integers(0, 7)) == 0 else 10.0 ** draw(st.floats(e, e + 1.0))
        times.append(t)
    rates = draw(st.lists(st.tuples(signed, signed, signed), min_size=n, max_size=n))
    q = st.tuples(*[st.floats(-1e300, 1e300)] * 3)
    start = draw(
        st.one_of(
            st.none(),
            q.map(lambda v: (1.0, *v)),
            q.filter(any).map(lambda v: (0.0, *_half_turn_axis(*_direction(*v)))),
        )
    )
    return times, rates, draw(st.sampled_from(SCHEMES)), start, draw(st.integers(1, 5))


@settings(max_examples=1000, deadline=None)
@given(integrator_runs())
# a zero |w| (exact-step leaves the inline step; first-order keeps it)
@example(([0.0, 1.0], [(0.0, -0.0, 0.0)] * 2, EXACT_STEP, None, 1))
@example(([0.0, 1.0], [(0.0, -0.0, 0.0)] * 2, FIRST_ORDER, (1.0, 0.5, -0.0, 2.0), 1))
# |w|^2 subnormal, and |w|^2 overflowing at a small step
@example(([0.0, 1.0], [(1e-160, 0.0, -1e-161)] * 2, EXACT_STEP, None, 2))
@example(([0.0, 1e-170], [(1e160, -1e159, 0.0)] * 2, EXACT_STEP, (1.0, 0.1, 0.2, 0.3), 1))
# a step at pi - 1e-3, where an earlier guard rejected the step, and one
# just under it
@example(([0.0, 1.0], [(math.pi - 1e-3, 0.0, 0.0)] * 2, EXACT_STEP, None, 1))
@example(([0.0, 1.0], [(math.nextafter(math.pi - 1e-3, 0.0), 0.0, 0.0)] * 2, EXACT_STEP, None, 1))
# a first-order q that overflows, and one whose sum does
@example(([0.0, 1e10], [(1e308, 0.0, 0.0)] * 2, FIRST_ORDER, None, 1))
@example(([0.0, 2.0], [(1e308, 1e308, 0.0)] * 2, FIRST_ORDER, None, 1))
# opposite rates whose midpoint interpolation overflows: recomputed as
# (1 - u) a + u b
@example(([0.0, 1.0], [(-1e308, 0.0, 0.0), (1e308, 0.0, 0.0)], FIRST_ORDER, None, 1))
# a product that overflows: rescaled by _compose_lifted
@example(([0.0, 1.0], [(1e300, 0.0, 0.0)] * 2, FIRST_ORDER, (1.0, 0.0, 1e300, 0.0), 1))
# q.Q overflows while the scale 1 + ||Q|| ||q|| does not
@example(
    (
        [0.0, 2.0],
        [(8.784696155330325e164, 4.4719927119624514e164, 0.0)] * 2,
        FIRST_ORDER,
        (1.0, 1.6252189058724973e143, 8.273441646579187e142, 0.0),
        1,
    )
)
# v/d overflows although d is not zero to rounding: the half-turn
@example(([0.0, 2.0], [(9.999999999e-301, 0.0, 0.0)] * 2, FIRST_ORDER, (1.0, 1e300, 0.0, 0.0), 1))
# a state landing on a half-turn, then stepping off it
@example(([0.0, math.pi], [(0.0, 0.0, -1.0)] * 2, EXACT_STEP, None, 2))
@example(([0.0, math.pi, 4.0], [(0.0, 0.0, -1.0)] * 3, EXACT_STEP, None, 2))
# a half-turn start
@example(([0.0, 0.5, 1.0], [(0.3, -0.2, 1.0)] * 3, EXACT_STEP, (0.0, 0.0, 0.0, 1.0), 3))
# repeated times, and an interval of steps that round to zero
@example(([0.0, 0.0], [(1.0, 0.0, 0.0)] * 2, EXACT_STEP, None, 1))
@example(([0.0, 5e-324], [(1.0, 0.0, 0.0)] * 2, FIRST_ORDER, None, 3))
def test_integrate_matches_the_step_by_step_reference(run):
    assert outcome(_integrate, *run) == outcome(ref_integrate, *run)


# --- compose's fold ---------------------------------------------------------


def _partner(kind, p):
    """The operand that puts the step after the product p where kind says:
    'zero', Q2.Q1 = 1 to rounding; 'short', the product 1e-10 rad short of
    pi; 'quotient', lambda about 3e-9, so that v/lambda overflows when
    ||p|| is past about 5e299.  None where p is a half-turn, or where no
    finite operand does it."""
    if not p[0]:
        return None
    n, u = scaled_norm(p[1:])
    if kind == "short":
        c = math.tan(0.5 * (math.pi - 1e-10) - math.atan(n))
    else:
        c = (1.0 if kind == "zero" else 1.0 - 3e-9) / n if n else math.inf
    q = tuple(c * v for v in u)
    return (1.0, *q) if math.isfinite(sum(q)) else None


#: (1, Q) of components log-uniform over 1e-320 to 1e308, signed zeros included
regular = st.tuples(signed, signed, signed).map(lambda q: (1.0, *q))
#: canonical (0, n)
half_turns = vectors.filter(any).map(lambda v: (0.0, *_half_turn_axis(*_direction(*v))))
#: Q2.Q1 overflows in one of its terms
dot_overflow = st.tuples(st.sampled_from([1e200, -1e200]), st.sampled_from([1e200, -1e200])).map(
    lambda t: (1.0, *t, 0.0)
)


#: ||Q|| = 1e300, so that a 'quotient' partner of it overflows
huge = vectors.filter(any).map(lambda v: (1.0, *(1e300 * c for c in scaled_norm(v)[1])))


@st.composite
def chains(draw):
    """2 to 8 Euler parameters: (1, Q) of any magnitude, canonical (0, n),
    (1, Q) whose dot products overflow, and operands drawn against the
    product so far (_partner) whose step is zero to rounding, short of pi
    or has an overflowing quotient."""
    rotations = [draw(st.one_of(regular, half_turns, dot_overflow, huge))]
    product = rotations[0]
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["regular", "half", "dot", "zero", "short", "quotient"]))
        r = _partner(kind, product) if kind in ("zero", "short", "quotient") else None
        if r is None:
            r = draw({"half": half_turns, "dot": dot_overflow}.get(kind, regular))
        rotations.append(r)
        product = _compose_lifted(*r, *product)
    return rotations


_QUARTER = math.tan(math.pi / 4)  # 0.9999999999999999


@settings(max_examples=1000, deadline=None)
@given(chains())
# two float quarter turns: lambda = 2.2e-16 is zero to rounding, the half-turn branch
@example([(1.0, 0.0, 0.0, _QUARTER), (1.0, 0.0, 0.0, _QUARTER)])
# a product 1e-10 rad short of pi stays inline
@example([(1.0, 0.0, 0.0, math.tan(0.25 * (math.pi - 1e-10)))] * 2)
# Q2.Q1 = 1e400 - 1e400 overflows: lambda = 1 from _lambda's rescale
@example([(1.0, 1e200, 1e200, 0.0), (1.0, 1e200, -1e200, 0.0)])
# lambda past the float range, -inf
@example([(1.0, 1e200, 0.0, 0.0), (1.0, 1e200, 0.0, 0.0)])
# the scale overflows while lambda does not
@example([(1.0, 1e200, 0.0, 0.0), (1.0, 0.0, 1e200, 0.0)])
# v/lambda overflows although lambda = 3e-9 is not zero to rounding
@example([(1.0, 1e300, 0.0, 0.0), (1.0, 0.999999997e-300, 0.0, 0.0)])
# the product's sum overflows: lambda = 1 from _lambda
@example([(1.0, 1e308, 1e308, 0.0), (1.0, 0.0, 0.0, 0.0)])
# v/lambda = (1e308, 1e308, 0) has finite components but an overflowing sum
@example([(1.0, 5e307, 5e307, 0.0), (1.0, 5e-309, 5e-309, 0.0)])
# half-turn operands, first, inside and last
@example([(0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)])
# signed zeros
@example([(1.0, -0.0, 0.0, -0.0), (1.0, 0.0, -0.0, -0.0)])
def test_compose_chain_matches_the_step_by_step_fold(rotations):
    assert outcome(_compose_chain, rotations) == outcome(ref_compose_chain, rotations)


@pytest.mark.parametrize(
    "operands, message",
    [
        # max(0.0, nan, 0.0) is 0.0: the rescale divided by zero
        ((0.0, math.nan, 0.0, 1.0, 1.0, 1.0), "non-finite component: nan"),
        # inf / inf: the rescale gave nan
        ((math.inf, 0.0, 0.0, 1.0, 1.0, 1.0), "non-finite component: inf"),
    ],
)
def test_lambda_rejects_a_non_finite_operand(operands, message):
    with pytest.raises(ValueError, match=message):
        _lambda(*operands)


def test_lambda_past_the_float_range_is_infinite():
    assert _lambda(1e200, 0.0, 0.0, 1e200, 0.0, 0.0) == -math.inf
    assert _lambda(1e200, 0.0, 0.0, -1e200, 0.0, 0.0) == math.inf


# --- check's sample path ------------------------------------------------------
#
# The references, in reference.py, are the float-core routines as they were
# before their 3-vector arithmetic was written out.  The routines must match
# them bit for bit, exception class and message included.


#: components log-uniform over 1e-320 to 1e308, signed zeros included, or
#: moderate, where the terms of a sum are alike in size and so its order
#: shows in the last bits
component = st.one_of(signed, st.floats(-4.0, 4.0))
wide = st.tuples(component, component, component)


@st.composite
def along(draw, u):
    """A multiple of u, of either sign and any size: parallel and antipodal
    pairs."""
    c = draw(signed)
    return c * u[0], c * u[1], c * u[2]


@st.composite
def perpendicular_to(draw, q):
    """A unit vector perpendicular to q (to rounding), or a wide vector."""
    r = draw(wide.filter(any))
    if not any(q) or not draw(st.booleans()):
        return r
    c = cross(ref_unit(*q), ref_unit(*r))
    return ref_unit(*c) if any(c) else r


S = math.sqrt(0.5)
_SUBNORMAL_SS = 1e-160  # its square is below the smallest normal float


@settings(max_examples=500, deadline=None)
@given(wide)
@example((1e200, 0.0, -1e200))  # the sum of squares overflows
@example((_SUBNORMAL_SS, -0.0, 0.0))  # the sum of squares is subnormal
@example((math.sqrt(_MIN_NORMAL), 0.0, 0.0))
@example((0.0, -0.0, 0.0))
@example((math.nan, 1.0, 0.0))
@example((math.inf, 0.0, 0.0))
def test_unit_matches_the_reference(v):
    assert outcome(_unit, *v) == outcome(ref_unit, *v)


#: any float: nan, infinities, signed zeros and subnormals among them
full_range = st.one_of(component, st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))


@settings(max_examples=1000, deadline=None)
@given(st.tuples(full_range, full_range, full_range))
@example((math.nan, 1.0, 0.0))
@example((1.0, -math.inf, 0.0))
@example((0.0, -0.0, 0.0))
@example((5e-324, 0.0, -5e-324))  # the sum of squares is zero
@example((_SUBNORMAL_SS, -0.0, 0.0))  # the sum of squares is subnormal
@example((math.sqrt(_MIN_NORMAL), 0.0, 0.0))  # the smallest normal sum of squares
@example((1e200, 0.0, -1e200))  # the sum of squares overflows
@example((1.7e308, 1.7e308, 0.0))  # so does the sum
def test_direction_matches_its_checks_first_form(v):
    assert outcome(_direction, *v) == outcome(ref_direction, *v)


@st.composite
def rotation_and_point(draw):
    q = draw(wide)
    return q, draw(perpendicular_to(q))


@settings(max_examples=500, deadline=None)
@given(rotation_and_point())
@example(((0.0, -0.0, 0.0), (1.0, 0.0, 0.0)))  # Q = 0
@example(((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)))  # a is not perpendicular
@example(((_SUBNORMAL_SS, 0.0, 0.0), (0.0, 1.0, 0.0)))  # Q.Q is subnormal
@example(((1e200, 0.0, 0.0), (0.0, 1.0, 0.0)))  # Q.Q overflows
@example(((0.0, 0.0, 1e300), (1.0, 0.0, 0.0)))  # so does the bisector's
@example(((0.0, 1.7e308, -1.7e308), (0.0, S, S)))  # the bisector is not finite
@example(((1.0, 0.0, 0.0), (0.0, 1e-16, 0.0)))  # the bisector is shorter than 1e-15
def test_half_angle_point_matches_the_reference(case):
    assert outcome(_half_angle_point, *case) == outcome(ref_half_angle_point, *case)


@st.composite
def rotation_pairs(draw):
    q1 = draw(wide)
    return q1, draw(st.one_of(wide, along(q1)))


def donkin_pairs(test):
    """test over rotation_pairs, with the pairs where Donkin's construction
    takes each of its branches or raises."""
    examples = [
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # Q1 = 0
        ((1.0, 0.0, 0.0), (-2.0, 0.0, 0.0)),  # antiparallel axes
        ((1e200, 0.0, 0.0), (0.0, 1e200, 0.0)),  # Q2 x Q1 overflows
        ((1e-200, 0.0, 0.0), (0.0, 1e-200, 0.0)),  # Q2 x Q1 underflows to 0
        ((1e-80, 0.0, 0.0), (0.0, 1e-80, 0.0)),  # its square is subnormal
        ((_SUBNORMAL_SS, 0.0, 0.0), (0.0, 1.0, 0.0)),  # Q1.Q1 is subnormal
        ((1e-6, 0.0, 0.0), (0.0, 1e-6, 0.0)),  # collinear vertices
        ((0.3, -0.2, 1.1), (-0.7, 0.4, 0.25)),
        # axes 3.4e-9 rad apart: B is 5.3e-9 off the Q2 circle to rounding
        (
            (-0.9737716208221956, -0.5665403990723037, -0.44103526797777937),
            (-1.8782759933291822, -1.0927811167031554, -0.8506983946786105),
        ),
    ]
    for pair in reversed(examples):
        test = example(pair)(test)
    return settings(max_examples=500, deadline=None)(given(rotation_pairs())(test))


@donkin_pairs
def test_donkin_ab_matches_the_reference(pair):
    assert outcome(_donkin_ab, *pair) == outcome(ref_donkin_ab, *pair)


def test_donkin_ab_returns_where_only_c_is_degenerate():
    # the vertices of Q1 = (1e-6, 0, 0), Q2 = (0, 1e-6, 0) are collinear:
    # the check that guards C raises, and A and B are still formed
    pair = ((1e-6, 0.0, 0.0), (0.0, 1e-6, 0.0))
    with pytest.raises(ValueError, match="collinear"):
        _donkin_triangle(*pair)
    got = outcome(_donkin_ab, *pair)
    assert raised(got) is None and got == outcome(ref_donkin_ab, *pair)


@donkin_pairs
def test_donkin_triangle_matches_the_reference(pair):
    assert outcome(_donkin_triangle, *pair) == outcome(ref_donkin_triangle, *pair)


def _unit_of_angles(polar, azimuth):
    return (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))


@st.composite
def donkin_pairs(draw):
    """Q1, Q2 with lengths log-uniform in 1e-300 to 1e300 and axes log-uniform
    in 1e-10 to pi rad apart."""
    angle = st.floats(0.0, 2.0 * math.pi)
    polar, azimuth, towards = draw(angle), draw(angle), draw(angle)
    n1 = _unit_of_angles(polar, azimuth)
    # e is perpendicular to n1, at the angle towards in its tangent plane
    e1 = _unit_of_angles(polar + 0.5 * math.pi, azimuth)
    e2 = cross(n1, e1)
    e = tuple(math.cos(towards) * u + math.sin(towards) * v for u, v in zip(e1, e2))
    d = 10.0 ** draw(st.floats(-10.0, math.log10(math.pi)))
    n2 = tuple(math.cos(d) * u + math.sin(d) * v for u, v in zip(n1, e))
    s1, s2 = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    return tuple(s1 * u for u in n1), tuple(s2 * u for u in n2)


@settings(max_examples=500, deadline=None)
@given(donkin_pairs())
@example(
    (
        (-0.9737716208221956, -0.5665403990723037, -0.44103526797777937),
        (-1.8782759933291822, -1.0927811167031554, -0.8506983946786105),
    )
)
@example(((3e-5, 0.0, 0.0), (0.0, 3e-5, 0.0)))  # collinear vertices
@example(((1.0, 0.0, 0.0), (2.0, 1e-10, 0.0)))  # parallel axes
def test_donkin_command_exits_with_a_documented_code(pair):
    # a result, a ValueError (exit 2) or ParallelAxes (exit 4), each error
    # on one stderr line; an exception out of main fails the test
    specs = ["rod:" + ",".join(map(repr, q)) for q in pair]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["donkin", *specs])
    assert code in (0, 2, 4)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


def _readme_exit_codes() -> set[int]:
    """The codes of the README's "Exit codes:" paragraph."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    return {int(entry.split()[0]) for entry in paragraph.split(",")}


README_EXIT_CODES = _readme_exit_codes()


@st.composite
def grammar_specs(draw):
    """A rotation spec with its kind: prefix, of drawn components, or now and
    then the matrix of a drawn axis and angle."""
    kind = draw(st.sampled_from(sorted(_SPEC_COUNTS)))
    if kind == "mat" and draw(st.booleans()):
        numbers = axis_angle_matrix(draw(wide.filter(any)), draw(component))
    else:
        numbers = draw(st.tuples(*[component] * _SPEC_COUNTS[kind]))
    return f"{kind}:" + ",".join(map(repr, numbers))


def assert_error_contract(argv) -> None:
    """main(argv), on specs of finite numbers, exits with a code of the
    README's table: 0 with no stderr and, where it prints one, a mat: or
    final mat: that passes SO(3) at 1e-12; or an error with no stdout and
    one error: line that names neither nan nor inf."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # an exception out of main fails the test
    assert code in README_EXIT_CODES, code
    message = err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert message.count("\n") == 1 and message.startswith("error: "), message
        assert "Traceback" not in message
        assert not re.search(r"\b(inf|nan)\b", message, re.IGNORECASE), message
        return
    assert message == ""
    for line in out.getvalue().splitlines():
        line = line.removeprefix("final ")
        if line.startswith("mat:"):
            assert_so3(np.array([float(x) for x in line.removeprefix("mat:").split(",")]).reshape(3, 3))


@settings(max_examples=1000, deadline=None)
@given(grammar_specs(), st.sampled_from(sorted(_SPEC_COUNTS)), st.booleans())
@example("rod:1e308,1e308,0.0", "mat", False)  # the sum overflows
@example("aa:1e308,1e308,0.0,1e308", "aa", True)
@example("half:5e-324,-0.0,0.0", "mat", False)
@example("mat:1e154,1e154,1e154,1e154,1e154,1e154,1e154,1e154,1e154", "rod", False)
def test_convert_command_keeps_the_error_contract(spec, to, degrees):
    degrees = ["--degrees"] if degrees else []
    assert_error_contract([*degrees, "--precision", "17", "convert", spec, "--to", to])


@settings(max_examples=500, deadline=None)
@given(st.lists(grammar_specs(), min_size=2, max_size=8), st.booleans())
@example(["rod:1e200,0.0,0.0", "rod:1e200,0.0,0.0"], False)  # lambda is -inf
@example(["rod:1e308,1e308,0.0", "half:0.0,-0.0,5e-324", "aa:0.0,0.0,1.0,180.0"], True)
def test_compose_command_keeps_the_error_contract(specs, degrees):
    degrees = ["--degrees"] if degrees else []
    assert_error_contract([*degrees, "--precision", "17", "compose", *specs])


@st.composite
def omega_logs(draw):
    """The lines of an omega log of 2 to 5 samples, of full-range and
    moderate components, whose times increase or, half the time, are drawn
    in any order."""
    n = draw(st.integers(2, 5))
    times = draw(st.lists(component, min_size=n, max_size=n))
    if draw(st.booleans()):
        times.sort()
    rates = draw(st.lists(wide, min_size=n, max_size=n))
    return "".join(" ".join(map(repr, (t, *w))) + "\n" for t, w in zip(times, rates))


@settings(max_examples=500, deadline=None)
@given(
    omega_logs(),
    st.sampled_from(SCHEMES),
    st.integers(1, 3),
    st.booleans(),
    st.one_of(st.none(), grammar_specs()),
)
# b - a overflows in the midpoint rate, which is 0
@example("0 -1e308 0 0\n1 1e308 0 0\n", FIRST_ORDER, 1, False, None)
@example("0 -1e308 0 0\n1 1e308 0 0\n", EXACT_STEP, 2, True, "rod:1e308,1e308,0.0")
def test_integrate_command_keeps_the_error_contract(tmp_path_factory, log, scheme, substeps, rows, initial):
    path = tmp_path_factory.getbasetemp() / "omega-contract.txt"
    path.write_text(log)
    argv = ["--precision", "17", "integrate", str(path), "--scheme", scheme, "--substeps", str(substeps)]
    argv += ["--trajectory", "--matrix-cols"] if rows else []
    argv += [] if initial is None else [f"--initial={initial}"]
    assert_error_contract(argv)


#: integer option values that the command line rejects: digit-group
#: underscores, digits of other scripts, floats and the empty string
malformed_integers = st.one_of(
    st.integers(10, 10**6).map(lambda n: f"{str(n)[0]}_{str(n)[1:]}"),
    st.text(st.characters(categories=("Nd",)).filter(lambda c: not c.isascii()), min_size=1, max_size=3),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.just(""),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 3).map(str), malformed_integers),
    st.one_of(st.integers(-(2**80), 2**80).map(str), malformed_integers),
    st.booleans(),
)
@example("1_0", "3", False)
@example("2", "\u0663", True)
@example("1", "-1208925819614629174706176", False)
@example("3", "", True)
def test_check_command_keeps_the_error_contract(n, seed, joined):
    # --seed=-... and --seed -... both reach argparse; a well-formed
    # command prints its five diagnostics, each passing, and anything else
    # gets a usage error: exit 2 and one error: line
    seed_args = [f"--seed={seed}"] if joined else ["--seed", seed]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--n", n, *seed_args])  # an exception out of main fails the test
    assert code in README_EXIT_CODES, code
    message = err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in message.splitlines()) == 1, message
        assert "Traceback" not in message
        return
    assert message == ""
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("backend: ") and len(lines) == 6, lines
    assert all(f": n={n} " in line and line.endswith(" PASS") for line in lines[1:]), lines


@settings(max_examples=500, deadline=None)
@given(rotation_pairs())
@example(((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))  # parallel: the identity
@example(((0.0, 0.6, 0.8), (-0.0, -0.6, -0.8)))  # antipodal: the identity
@example(((1e200, 0.0, 0.0), (0.0, 1e200, 0.0)))  # u x v is not finite
@example(((1e160, 0.0, 0.0), (0.0, 1.0, 0.0)))  # its square overflows
@example(((1e200, 0.0, 0.0), (1e200, 1.0, 0.0)))  # u.v overflows
@example(((0.6, 0.8, 0.0), (0.0, 0.0, 1.0)))
def test_double_arc_rotation9_matches_the_reference(pair):
    assert outcome(_double_arc_rotation9, *pair) == outcome(ref_double_arc_rotation9, *pair)


@settings(max_examples=500, deadline=None)
@given(wide, wide, wide)
@example((1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), (0.0, 1.0, 0.0))  # b - a overflows
@example((1e200, 0.0, 0.0), (0.0, 1e200, 0.0), (0.0, 0.0, 1e200))  # the cross product does
@example((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))  # collinear
def test_require_triangle_matches_the_reference(a, b, c):
    assert outcome(_require_triangle, a, b, c) == outcome(ref_require_triangle, a, b, c)


@st.composite
def composition_cases(draw):
    """(Q2, Q1, a): wide operands, a Q2 with Q2.Q1 = 1 to rounding, or
    parallel to Q1, and a perpendicular to Q1 or wide."""
    q1 = draw(wide)
    kind = draw(st.sampled_from(["wide", "along", "unit-dot"]))
    if kind == "unit-dot" and any(q1):
        n, u = scaled_norm(q1)
        q2 = tuple(v / n for v in u)
        if not math.isfinite(sum(q2)):
            q2 = draw(wide)
    else:
        q2 = draw(along(q1) if kind == "along" else wide)
    return q2, q1, draw(perpendicular_to(q1))


@settings(max_examples=1000, deadline=None)
@given(composition_cases())
@example(((0.2, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.6, 0.8)))  # a is not perpendicular
@example(((1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))  # lambda = 0: a half-turn
@example(((0.0, 0.0, 1.0), (0.0, 0.0, 0.9999999999999999), (1.0, 0.0, 0.0)))  # lambda zero to rounding
@example(((1e200, 0.0, 0.0), (1e200, 0.0, 0.0), (0.0, 1.0, 0.0)))  # lambda overflows
@example(((1e200, 1e200, 0.0), (1e200, -1e200, 0.0), (0.0, 0.0, 1.0)))  # Q2.Q1 = inf - inf
@example(((-1e160, 1e160, 0.0), (1e160, 0.0, 0.0), (0.0, 0.0, 1.0)))  # the numerator overflows
@example(((1e200, 0.0, 0.0), (0.0, 1e200, 0.0), (0.0, 0.0, 1.0)))  # so does the scale
@example(((0.999999997e-300, 0.0, 0.0), (1e300, 0.0, 0.0), (0.0, 1.0, 0.0)))  # v/lambda overflows
@example(((5e-309, 5e-309, 0.0), (5e307, 5e307, 0.0), (0.0, 0.0, 1.0)))  # so does the sum of v/lambda
# the numerator's sum overflows, its terms do not: _compose_lifted rescales
@example(
    (
        (-2.0203867366256895e-42, 0.0, -2.7086923990646716e-12),
        (-8.872611392592891e307, -2.0940945985493452e306, -9.606036068687369e307),
        (0.11305947740813943, 0.9855777705874473, -0.1259127185477122),
    )
)
# one product of Q2.Q1 overflows, and the residual is taken scaled
@example(((1.3416e154, 2.236e153, 0.0), (1.3416e154, -2.236e153, 0.0), (0.0, 0.0, 1.0)))
@example(((_SUBNORMAL_SS, 0.0, 0.0), (_SUBNORMAL_SS, 0.0, 0.0), (0.0, 1.0, 0.0)))  # Q1.Q1 is subnormal
@example(((0.3, -0.0, 0.1), (0.0, 0.0, 0.0), (-0.0, 1.0, 0.0)))  # Q1 = 0
def test_composition_diagnostics_match_the_reference(case):
    assert outcome(_composition_diagnostics, *case) == outcome(ref_composition_diagnostics, *case)


@settings(max_examples=500, deadline=None)
@given(wide, wide)
@example((0.0, 0.0, 1.0), (1.0, -0.0, 0.0))
@example((1e200, 0.0, 0.0), (0.0, 1.0, 0.0))  # 1 + Q.Q overflows
@example((1.0, 2.0, 3.0), (1e308, 1e308, 0.0))  # R x + x overflows
def test_cayley_residuals_match_the_reference(q, x):
    assert outcome(_cayley_residuals, q, x) == outcome(ref_cayley_residuals, q, x)
