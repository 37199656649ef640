"""Seeded residual diagnostics behind the ``check`` CLI command.

Every identity the package implements twice (direct formula vs product
route, algebraic law vs matrix product, triangle construction vs theorem)
is exercised on pseudo-random inputs and the worst residual reported.
All randomness comes from the ``random()`` of a ``random.Random`` seeded
per diagnostic, so a given (n, seed) pair always produces identical
output.  Normal and uniform samples are formed from it with the formulas of
``gauss`` and ``uniform``, in their operation order, and keep their bits;
Python fixes the sequence of ``random()`` across releases, but not the
algorithms of ``gauss`` or ``uniform``.

The diagnostics run the float routines of ``rodvec._lifted`` on plain
triples and tuples of nine floats, the routines behind the typed API, so
that this module loads none of the typed modules.

A sample's 3-vector arithmetic is written out, here and in those
routines, each dot, cross, norm and matrix-vector product in one operation
order (no backend has a kernel for them), and none is formed twice.  The
five matrix kernels (Euler-Rodrigues, the Rodrigues matrix, the Cayley
inverse and its compensated residuals, the SO(3) residuals) are called,
and each routine calls its general fallback, _unit or _direction among
them, where a sum of squares leaves the normal float range or a
composition overflows or is a half-turn.  A nan residual stays nan in its
diagnostic's worst residual, which then fails.

Each drawn pair Q1, Q2 is composed once: ``lambda-residual`` composes it
only inside ``_composition_diagnostics``, and ``donkin-closure`` takes Q3
and the sign of lambda = 1 - Q2.Q1 from one ``_compose_chain``, whose
lambda is the scalar part of the product that gives Q3.  A pair that
composes to a half-turn is drawn again.  ``lambda-residual`` uses the
vertex A of Donkin's triangle alone, from ``_donkin_ab``, which forms
neither C nor the collinearity check that guards only C.
``donkin-closure`` makes two comparisons besides Donkin's residual: B
with the half-angle point of A under Q1, and (1 + Q3x) A with C, up to
the sign of lambda.
"""

import math
import random
from collections import namedtuple

from rodvec._backend import kernels as _k
from rodvec._lifted import (
    _cayley_inv9,
    _cayley_residuals,
    _cayley_rot9,
    _compose_chain,
    _composition_diagnostics,
    _donkin_ab,
    _donkin_residual,
    _donkin_triangle,
    _euler_rodrigues9,
    _half_angle_point,
    _max_diff9,
    _nan_max,
    _rotation9,
)
from rodvec.errors import DegenerateComposition

__all__ = ["DiagnosticResult", "run_diagnostics"]


class DiagnosticResult(namedtuple("DiagnosticResult", "name samples max_residual tolerance")):
    """The worst residual of one diagnostic over its samples.  A named
    tuple, so that ``rodvec check`` does not load ``dataclasses``."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


_TWOPI = 2.0 * math.pi


def _rand_unit(rng: random.Random) -> tuple[float, float, float]:
    """Three normals divided by their norm n, drawn again while n <= 1e-3.

    Each normal is the bits of rng.gauss(0.0, 1.0), formed from random()
    alone with gauss's formulas in its operation order: Box-Muller pairs,
    whose second value waits in rng.gauss_next (the slot where
    random.Random keeps it, cleared by seed()) for the next draw, each
    returned as 0.0 + z, which folds -0.0 as gauss does.
    """
    random = rng.random
    spare = rng.gauss_next
    while True:
        if spare is None:
            t = random() * _TWOPI
            g = math.sqrt(-2.0 * math.log(1.0 - random()))
            x, y = math.cos(t) * g, math.sin(t) * g
            t = random() * _TWOPI
            g = math.sqrt(-2.0 * math.log(1.0 - random()))
            z, spare = math.cos(t) * g, math.sin(t) * g
        else:
            t = random() * _TWOPI
            g = math.sqrt(-2.0 * math.log(1.0 - random()))
            x, y, z, spare = spare, math.cos(t) * g, math.sin(t) * g, None
        x, y, z = 0.0 + x, 0.0 + y, 0.0 + z
        n = math.sqrt(x * x + y * y + z * z)
        # a normal is finite, and n > 1e-3 makes n*n a normal float: the
        # quotient of _unit
        if n > 1e-3:
            rng.gauss_next = spare
            return x / n, y / n, z / n


def _uniform(rng: random.Random, a: float, b: float) -> float:
    """The bits of rng.uniform(a, b), formed from random() alone."""
    return a + (b - a) * rng.random()


def _rand_axis_angle(rng: random.Random, max_angle: float):
    return _rand_unit(rng), _uniform(rng, -max_angle, max_angle)


def _rodrigues(axis, theta: float) -> tuple[float, float, float]:
    """The components of the Rodrigues vector tan(theta/2) axis."""
    t = math.tan(0.5 * theta)
    return t * axis[0], t * axis[1], t * axis[2]


def _rand_rodrigues(rng: random.Random, max_angle: float) -> tuple[float, float, float]:
    return _rodrigues(_rand_unit(rng), _uniform(rng, -max_angle, max_angle))


def _dist(u, v) -> float:
    """||u - v|| as Vec3.norm computes it."""
    x, y, z = u[0] - v[0], u[1] - v[1], u[2] - v[2]
    return math.sqrt(x * x + y * y + z * z)


def _check_formula_agreement(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 1)
    worst = 0.0
    for _ in range(n):
        axis, theta = _rand_axis_angle(rng, math.pi - 1e-3)
        q = _rodrigues(axis, theta)
        r1 = _euler_rodrigues9(axis, theta)
        r2 = _rotation9(1.0, *q)
        r3 = _cayley_rot9(*q)
        worst = _nan_max((worst, _max_diff9(r1, r2), _max_diff9(r2, r3), _max_diff9(r1, r3)))
    return DiagnosticResult("formula-agreement", n, worst, 1e-12)


def _check_explicit_inverse(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 2)
    worst = 0.0
    for _ in range(n):
        q = _rand_rodrigues(rng, math.pi - 1e-3)
        worst = _nan_max((worst, *_k.inverse_residuals9(q, _cayley_inv9(*q))))
    return DiagnosticResult("explicit-inverse", n, worst, 1e-12)


def _check_bridge_residuals(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 3)
    worst = 0.0
    for _ in range(n):
        q = qx, qy, qz = _rand_rodrigues(rng, math.pi - 1e-3)
        x = x0, x1, x2 = _uniform(rng, -2, 2), _uniform(rng, -2, 2), _uniform(rng, -2, 2)
        r1, r2 = _cayley_residuals(q, x)
        scale = (1.0 + math.sqrt(qx * qx + qy * qy + qz * qz)) * max(
            math.sqrt(x0 * x0 + x1 * x1 + x2 * x2), 1e-300
        )
        worst = _nan_max((worst, r1 / scale, r2 / scale))
    return DiagnosticResult("bridge-residuals", n, worst, 1e-12)


def _rand_pair(rng: random.Random):
    """Q1 and Q2 of norm at least 1e-2 and not parallel."""
    while True:
        q1 = x1, y1, z1 = _rand_rodrigues(rng, 2.7)
        q2 = x2, y2, z2 = _rand_rodrigues(rng, 2.7)
        n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        n2 = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        if n1 < 1e-2 or n2 < 1e-2:
            continue
        # ||Q1 x Q2||
        cx, cy, cz = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        if math.sqrt(cx * cx + cy * cy + cz * cz) <= 1e-6 * n1 * n2:
            continue
        return q1, q2


def _check_lambda_residual(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 4)
    worst = 0.0
    for _ in range(n):
        while True:
            q1, q2 = _rand_pair(rng)
            try:
                residual = _composition_diagnostics(q2, q1, _donkin_ab(q1, q2)[0])[2]
            except DegenerateComposition:  # a half-turn product is drawn again
                continue
            break
        worst = _nan_max((worst, residual))
    return DiagnosticResult("lambda-residual", n, worst, 1e-10)


def _check_donkin(n: int, seed: int) -> DiagnosticResult:
    rng = random.Random(seed * 7 + 5)
    worst = 0.0
    for _ in range(n):
        while True:
            q1, q2 = _rand_pair(rng)
            (lam,), (s, x3, y3, z3) = _compose_chain(((1.0, *q1), (1.0, *q2)))
            if s:  # a half-turn product is drawn again
                break
        a, b, c = _donkin_triangle(q1, q2)
        worst = _nan_max((worst, _donkin_residual(a, b, c)))
        # C is not compared with the half-angle point of B under Q2:
        # _donkin_triangle builds C with the same operations
        # (_direction(*_bisector(q2, b))), so their distance is 0.0
        b_hat = _half_angle_point(q1, a)
        # (1 + Q3x) A is proportional to C with the sign of lambda = 1 - Q2.Q1:
        # the exact relation is lambda (1 + Q3x) A = mu C with mu > 0
        c_expected = c if lam > 0.0 else (-c[0], -c[1], -c[2])
        c_via_q3 = _half_angle_point((x3, y3, z3), a)
        worst = _nan_max(
            (
                worst,
                _dist(b_hat, b),
                _dist(c_via_q3, c_expected),
            )
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
