"""Seeded residual diagnostics behind the ``check`` CLI command.

Every identity the package implements twice (direct formula vs product
route, algebraic law vs matrix product, triangle construction vs theorem)
is exercised on pseudo-random inputs and the worst residual reported.
All randomness comes from ``random.Random`` seeded per diagnostic, so a
given (n, seed) pair always produces identical output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rodvec import cayley, composition, core, geometry
from rodvec._backend import kernels as _k

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


def _rand_unit(rng: random.Random) -> core.UnitVector:
    while True:
        v = core.Vec3(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if v.norm() > 1e-3:
            return core.UnitVector.from_vec(v)


def _rand_axis_angle(rng: random.Random, max_angle: float) -> tuple[core.UnitVector, float]:
    return _rand_unit(rng), rng.uniform(-max_angle, max_angle)


def _rand_rodrigues(rng: random.Random, max_angle: float) -> core.RodriguesVector:
    n, theta = _rand_axis_angle(rng, max_angle)
    t = math.tan(0.5 * theta)
    return core.RodriguesVector(t * n.x, t * n.y, t * n.z)


def _max_diff9(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _check_formula_agreement(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 1)
    worst = 0.0
    for _ in range(n):
        axis, theta = _rand_axis_angle(rng, math.pi - 1e-3)
        t = math.tan(0.5 * theta)
        q = core.RodriguesVector(t * axis.x, t * axis.y, t * axis.z)
        r1 = core.euler_rodrigues_matrix(axis, theta).elements
        r2 = core.matrix_from_rodrigues(q).elements
        r3 = cayley.cayley_rotation(q).elements
        worst = max(worst, _max_diff9(r1, r2), _max_diff9(r2, r3), _max_diff9(r1, r3))
    return DiagnosticResult("formula-agreement", n, worst, 1e-12)


def _check_explicit_inverse(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 2)
    ident = core.Matrix3.identity().elements
    worst = 0.0
    for _ in range(n):
        q = _rand_rodrigues(rng, math.pi - 1e-3)
        m = cayley.cayley_inverse_explicit(q).elements
        k = _k.skew9(q.as_tuple())
        one_minus_k = tuple(
            (1.0 if i % 4 == 0 else 0.0) - k[i] for i in range(9)
        )
        worst = max(
            worst,
            _max_diff9(_k.matmul_comp(one_minus_k, m), ident),
            _max_diff9(_k.matmul_comp(m, one_minus_k), ident),
        )
    return DiagnosticResult("explicit-inverse", n, worst, 1e-12)


def _check_bridge_residuals(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 3)
    worst = 0.0
    for _ in range(n):
        q = _rand_rodrigues(rng, math.pi - 1e-3)
        x = core.Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        r1, r2 = cayley.cayley_residuals(q, x)
        scale = (1.0 + q.norm()) * max(x.norm(), 1e-300)
        worst = max(worst, r1 / scale, r2 / scale)
    return DiagnosticResult("bridge-residuals", n, worst, 1e-12)


def _rand_nondegenerate_pair(
    rng: random.Random,
) -> tuple[core.RodriguesVector, core.RodriguesVector]:
    while True:
        q1 = _rand_rodrigues(rng, 2.7)
        q2 = _rand_rodrigues(rng, 2.7)
        n1 = q1.norm()
        n2 = q2.norm()
        if n1 < 1e-2 or n2 < 1e-2:
            continue
        if _k.norm3(_k.cross3(q1.as_tuple(), q2.as_tuple())) <= 1e-6 * n1 * n2:
            continue
        if isinstance(composition.compose(q2, q1), core.HalfTurn):
            continue
        return q1, q2


def _check_lambda_residual(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 4)
    worst = 0.0
    for _ in range(n):
        q1, q2 = _rand_nondegenerate_pair(rng)
        tri = geometry.donkin_triangle(q1, q2)
        diag = composition.composition_diagnostics(q2, q1, tri.a)
        worst = max(worst, diag.residual)
    return DiagnosticResult("lambda-residual", n, worst, 1e-10)


def _check_donkin(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 5)
    worst = 0.0
    for _ in range(n):
        q1, q2 = _rand_nondegenerate_pair(rng)
        tri = geometry.donkin_triangle(q1, q2)
        worst = max(worst, geometry.donkin_verify(tri))
        b_hat = geometry.half_angle_point(q1, tri.a)
        c_hat = geometry.half_angle_point(q2, tri.b)
        # (1 + Q3x) A is proportional to C with the sign of 1 - Q2.Q1: the
        # exact relation is (1 - Q2.Q1)(1 + Q3x) A = mu C with mu > 0
        q3 = composition.compose(q2, q1)
        lam = 1.0 - _k.dot3(q2.as_tuple(), q1.as_tuple())
        c_expected = tri.c.vec if lam > 0.0 else -tri.c.vec
        c_via_q3 = geometry.half_angle_point(q3, tri.a)
        worst = max(
            worst,
            (b_hat - tri.b).norm(),
            (c_hat - tri.c).norm(),
            (c_via_q3 - c_expected).norm(),
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
