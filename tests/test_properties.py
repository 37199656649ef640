"""Property tests over the whole finite float range.

Every finite input gets either a result within the documented bound or the
documented error; an overflow or underflow inside the library must not
turn into a wrong rotation, a NaN or an undocumented exception.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rodvec import (
    HalfTurn,
    RodriguesVector,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    cayley_inverse_explicit,
    cayley_rotation,
    compose_general,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    skew,
)
from rodvec._backend import kernels as _k
from rodvec._lifted import _unit, _unit_components
from rodvec.cli import main, parse_rotation_spec
from conftest import to_np

anyfloat = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.tuples(anyfloat, anyfloat, anyfloat)


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
def test_unit_from_vec(v):
    n, direction = scaled_norm(v)
    try:
        u = UnitVector.from_vec(Vec3(*v))
    except ValueError:
        assert n < 1e-15 * (1.0 + 1e-12)
        return
    assert n >= 1e-15 * (1.0 - 1e-12)
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
@example((1e150, 5e149, 0.0))  # the product route overflows to NaN
@example((1e30, 5e29, 0.0))  # the product route is finite but off by 1e-2
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
        assert np.max(np.abs(to_np(_k.matmul_comp(one_minus_k, m)) - ident)) <= 1e-12
        assert np.max(np.abs(to_np(_k.matmul_comp(m, one_minus_k)) - ident)) <= 1e-12


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
    # the half-turn branch (|s| <= 1e-9 of the scale) moves a product by at
    # most about 2e-9 rad, hence 4e-9 in a matrix element
    assert np.max(np.abs(r - rotation_matrix(b) @ rotation_matrix(a))) <= 1e-8


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
    h = parse_rotation_spec("half:" + ",".join(map(repr, v)))
    assert type(h) is HalfTurn
    axis = h.axis.as_tuple()
    assert next(c for c in axis if c) > 0.0
    # n and -n are the same half-turn; which one is canonical can turn on
    # a component far below the others' rounding error
    _, unit = scaled_norm(v)
    if sum(a * u for a, u in zip(axis, unit)) < 0.0:
        unit = tuple(-c for c in unit)
    assert axis == pytest.approx(unit, abs=1e-15)
