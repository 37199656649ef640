"""Shared helpers: seeded samplers, Hypothesis strategies and numpy-side
oracles.

The library computes everything with its own closed forms; tests rebuild
the same quantities independently through numpy (matrix products, eig,
inv) so each check has two routes.  The formulas the tests hold the
library to, and the exact rational oracle, are in ``reference.py``.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rodvec import RodriguesVector, UnitVector, Vec3

# ``python -m rodvec`` subprocesses import the package from src/ as well,
# also in a checkout where it is not installed
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def to_np(m) -> np.ndarray:
    """3x3 ndarray from anything with .elements or a 9-tuple."""
    e = getattr(m, "elements", m)
    return np.array(e, dtype=float).reshape(3, 3)


def vec_np(v) -> np.ndarray:
    return np.array([v.x, v.y, v.z], dtype=float)


def np_skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]], dtype=float
    )


def np_euler_rodrigues(axis: np.ndarray, theta: float) -> np.ndarray:
    """Independent rotation-matrix oracle."""
    c, s = math.cos(theta), math.sin(theta)
    return c * np.eye(3) + s * np_skew(axis) + (1.0 - c) * np.outer(axis, axis)


def rand_unit(rng: random.Random) -> UnitVector:
    while True:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if v.norm() > 1e-3:
            return UnitVector.from_vec(v)


def rand_axis_angle(rng: random.Random, max_angle: float) -> tuple[UnitVector, float]:
    return rand_unit(rng), rng.uniform(-max_angle, max_angle)


def rand_rod(rng: random.Random, max_angle: float) -> RodriguesVector:
    axis, theta = rand_axis_angle(rng, max_angle)
    t = math.tan(0.5 * theta)
    return RodriguesVector(t * axis.x, t * axis.y, t * axis.z)


def rand_vec(rng: random.Random, scale: float = 2.0) -> Vec3:
    return Vec3(
        rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale)
    )


def rand_unit_t(rng):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def rand_axis_angle_t(rng, max_angle=math.pi - 1e-3, near_pole_every=100, i=0):
    axis = rand_unit_t(rng)
    if near_pole_every and i % near_pole_every == near_pole_every - 1:
        # force the heavy tail so large ||Q|| is always exercised
        theta = math.copysign(math.pi - rng.uniform(1e-3, 6e-3), rng.uniform(-1, 1))
    else:
        theta = rng.uniform(-max_angle, max_angle)
    return axis, theta


def q_of(axis, theta):
    t = math.tan(0.5 * theta)
    return RodriguesVector(t * axis[0], t * axis[1], t * axis[2])


anyfloat = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.tuples(anyfloat, anyfloat, anyfloat)

euler_parameters = st.one_of(
    st.tuples(anyfloat, anyfloat, anyfloat, anyfloat),
    # exact half-turns
    st.tuples(st.just(0.0), anyfloat, anyfloat, anyfloat),
    # within about 2e-6 rad of a half-turn
    st.tuples(st.floats(min_value=-1e-6, max_value=1e-6), vectors).map(
        lambda t: (t[0] * max(map(abs, t[1])), *t[1])
    ),
).filter(any)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
