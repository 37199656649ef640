"""Seeded residual diagnostics behind the ``check`` CLI command.

Every identity the package implements twice (direct formula vs product
route, algebraic law vs matrix product, triangle construction vs theorem)
is exercised on pseudo-random inputs and the worst residual reported.
All randomness comes from ``random.Random`` seeded per diagnostic, so a
given (n, seed) pair always produces identical output.

The diagnostics run the float routines of ``rodvec._lifted`` on plain
triples and tuples of nine floats, the routines behind the typed API, so
that this module loads none of the typed modules.
"""

import math
import operator
import random
from dataclasses import dataclass

from rodvec._backend import kernels as _k
from rodvec._lifted import (
    _IDENTITY9,
    _cayley_inv9,
    _cayley_residuals,
    _cayley_rot9,
    _compose_lifted,
    _composition_diagnostics,
    _direction,
    _donkin_residual,
    _donkin_triangle,
    _euler_rodrigues9,
    _half_angle_point,
    _require_finite,
    _rotation9,
)

__all__ = ["DiagnosticResult", "run_diagnostics"]


@dataclass(frozen=True)
class DiagnosticResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def _vec3(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) after the finite check of Vec3(x, y, z)."""
    if not math.isfinite(x + y + z):  # the sum may also overflow
        _require_finite(x, y, z)
    return x, y, z


def _rand_unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = _vec3(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if _k.norm3(v) > 1e-3:
            return _direction(*v)


def _rand_axis_angle(rng: random.Random, max_angle: float):
    return _rand_unit(rng), rng.uniform(-max_angle, max_angle)


def _rodrigues(axis, theta: float) -> tuple[float, float, float]:
    """The components of the Rodrigues vector tan(theta/2) axis."""
    t = math.tan(0.5 * theta)
    return _vec3(t * axis[0], t * axis[1], t * axis[2])


def _rand_rodrigues(rng: random.Random, max_angle: float) -> tuple[float, float, float]:
    return _rodrigues(*_rand_axis_angle(rng, max_angle))


def _max_diff9(a, b) -> float:
    return max(map(abs, map(operator.sub, a, b)))


def _dist(u, v) -> float:
    """||u - v|| as Vec3.norm computes it."""
    return _k.norm3((u[0] - v[0], u[1] - v[1], u[2] - v[2]))


def _check_formula_agreement(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 1)
    worst = 0.0
    for _ in range(n):
        axis, theta = _rand_axis_angle(rng, math.pi - 1e-3)
        q = _rodrigues(axis, theta)
        r1 = _euler_rodrigues9(axis, theta)
        r2 = _rotation9(1.0, *q)
        r3 = _cayley_rot9(*q)
        worst = max(worst, _max_diff9(r1, r2), _max_diff9(r2, r3), _max_diff9(r1, r3))
    return DiagnosticResult("formula-agreement", n, worst, 1e-12)


def _check_explicit_inverse(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 2)
    worst = 0.0
    for _ in range(n):
        q = _rand_rodrigues(rng, math.pi - 1e-3)
        m = _cayley_inv9(*q)
        x, y, z = q
        # 1 - (Qx), each off-diagonal entry formed as 0.0 minus that of (Qx),
        # so that a zero component of Q gives +0.0
        one_minus_k = (
            1.0, 0.0 - -z, 0.0 - y,
            0.0 - z, 1.0, 0.0 - -x,
            0.0 - -y, 0.0 - x, 1.0,
        )
        worst = max(
            worst,
            _max_diff9(_k.matmul_comp(one_minus_k, m), _IDENTITY9),
            _max_diff9(_k.matmul_comp(m, one_minus_k), _IDENTITY9),
        )
    return DiagnosticResult("explicit-inverse", n, worst, 1e-12)


def _check_bridge_residuals(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 3)
    worst = 0.0
    for _ in range(n):
        q = _rand_rodrigues(rng, math.pi - 1e-3)
        x = _vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        r1, r2 = _cayley_residuals(q, x)
        scale = (1.0 + _k.norm3(q)) * max(_k.norm3(x), 1e-300)
        worst = max(worst, r1 / scale, r2 / scale)
    return DiagnosticResult("bridge-residuals", n, worst, 1e-12)


def _rand_nondegenerate_pair(rng: random.Random):
    """Q1, Q2 and the Rodrigues vector Q3 of their composition, for
    Q1 and Q2 of norm at least 1e-2, not parallel and composing to no
    half-turn."""
    while True:
        q1 = _rand_rodrigues(rng, 2.7)
        q2 = _rand_rodrigues(rng, 2.7)
        n1 = _k.norm3(q1)
        n2 = _k.norm3(q2)
        if n1 < 1e-2 or n2 < 1e-2:
            continue
        if _k.norm3(_k.cross3(q1, q2)) <= 1e-6 * n1 * n2:
            continue
        s, x, y, z = _compose_lifted(1.0, *q2, 1.0, *q1)
        if s == 0:
            continue
        return q1, q2, (x, y, z)


def _check_lambda_residual(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 4)
    worst = 0.0
    for _ in range(n):
        q1, q2, _ = _rand_nondegenerate_pair(rng)
        a = _donkin_triangle(q1, q2)[0]
        worst = max(worst, _composition_diagnostics(q2, q1, a)[2])
    return DiagnosticResult("lambda-residual", n, worst, 1e-10)


def _check_donkin(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 5)
    worst = 0.0
    for _ in range(n):
        q1, q2, q3 = _rand_nondegenerate_pair(rng)
        a, b, c = _donkin_triangle(q1, q2)
        worst = max(worst, _donkin_residual(a, b, c))
        b_hat = _half_angle_point(q1, a)
        c_hat = _half_angle_point(q2, b)
        # (1 + Q3x) A is proportional to C with the sign of 1 - Q2.Q1: the
        # exact relation is (1 - Q2.Q1)(1 + Q3x) A = mu C with mu > 0
        lam = 1.0 - _k.dot3(q2, q1)
        c_expected = c if lam > 0.0 else (-c[0], -c[1], -c[2])
        c_via_q3 = _half_angle_point(q3, a)
        worst = max(
            worst,
            _dist(b_hat, b),
            _dist(c_hat, c),
            _dist(c_via_q3, c_expected),
        )
    return DiagnosticResult("donkin-closure", n, worst, 1e-10)


def run_diagnostics(n: int, seed: int) -> list[DiagnosticResult]:
    """Run all residual diagnostics on n samples each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        _check_formula_agreement(n, seed),
        _check_explicit_inverse(n, seed),
        _check_bridge_residuals(n, seed),
        _check_lambda_residual(n, seed),
        _check_donkin(n, seed),
    ]
