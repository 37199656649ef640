"""The float core: every rotation routine of the package, on plain floats.

A rotation is carried as the Euler parameters of the composition law,
(1, Q) for the Rodrigues vector Q or (0, n) for the half-turn about the
unit axis n, with n as :class:`rodvec.core.HalfTurn` stores it; vectors
are float triples and matrices tuples of nine floats, row-major.  Each
routine runs the checks of the typed path it stands for, in the same
order, and raises the same errors.

Here live the conversions, the Cayley pair, the composition law and its
diagnostics, Donkin's triangle and the attitude integrator.  The typed
modules (``core``, ``cayley``, ``composition``, ``kinematics``,
``geometry``) import their arithmetic from here and never the reverse,
and so do the command line and ``checks``.  This module imports nothing
but ``math``, ``sys``, the kernels and the error types, so that
``rodvec.cli`` and ``rodvec.checks`` load no typed class.
"""

import math
import sys

from rodvec._backend import kernels as _k
from rodvec.errors import (
    DegenerateComposition,
    NonMonotonicTime,
    NotARotation,
    NotPerpendicular,
    ParallelAxes,
    StepTooLarge,
)

_TWO_PI = 2.0 * math.pi
_MIN_NORMAL = 2.2250738585072014e-308  # sys.float_info.min
_SCALE_UP = 2.0**600
_SCALE_DOWN = 2.0**-600

_IDENTITY9 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

#: Largest |component| of Q for which 1 + Q.Q fits in double-double, the
#: precision of the product route in ``cayley_rot9``
_DD_LIMIT = 2.0**53

#: |angle - pi| at or below this raises HalfTurnUndefined in Q = tan(angle/2)*n.
HALF_TURN_ANGLE_TOL = 1e-12

#: RotationMatrix construction tolerance for R^T R = 1 and det R = 1.
ROTATION_MATRIX_TOL = 1e-9

#: Unit vectors are renormalized when within this of unit norm, rejected beyond.
UNIT_RENORM_TOL = 1e-6

#: |1 - Q2.Q1| <= this, scaled by (1 + ||Q1|| ||Q2||), routes to the
#: half-turn branch; near the pole the regular formula amplifies round-off
#: by 1/denominator.  With half-turn operands the scale is
#: |s1 s2| + ||v1|| ||v2||, the size of the terms that cancel in s.
DEGENERACY_REL_TOL = 1e-9

FIRST_ORDER = "first-order"
EXACT_STEP = "exact-step"
SCHEMES = (FIRST_ORDER, EXACT_STEP)

#: exact-step pole guard: |w|*dt must stay below pi - this
STEP_ANGLE_MARGIN = 1e-3

#: The constructions geometry.figure_scene draws, by name.
FIGURE_KINDS = ("fig1a", "fig1b", "fig1c", "fig2", "fig4", "fig5")


# --- checks and directions ------------------------------------------------


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite component: {v!r}")


def _require_so3(e) -> None:
    """Raise NotARotation unless the row-major 3x3 matrix e has
    R^T R = 1 and det R = 1 to ROTATION_MATRIX_TOL."""
    ortho, det = _k.rot_residuals9(e)
    if ortho > ROTATION_MATRIX_TOL or det > ROTATION_MATRIX_TOL:
        raise NotARotation(
            f"matrix fails SO(3) checks: |R^T R - 1| = {ortho:.3e}, |det - 1| = {det:.3e}"
        )


def _checked9(e):
    """e, a kernel's tuple of nine floats, after the checks that
    RotationMatrix(Matrix3(e)) runs, in the same order: finite, then SO(3)."""
    if not math.isfinite(sum(e)):  # the sum may also overflow
        _require_finite(*e)
    _require_so3(e)
    return e


def _scaled_norm(x: float, y: float, z: float) -> tuple[float, float]:
    """(n, f): n is the norm of (f x, f y, f z), for any finite vector.

    f is 1 unless the sum of squares overflows, or falls below the smallest
    normal float and so keeps too few bits; then f is the power of two
    2**-600 or 2**600, so that scaling by it is exact.
    """
    ss = x * x + y * y + z * z
    if ss == math.inf or ss < _MIN_NORMAL:
        f = _SCALE_DOWN if ss == math.inf else _SCALE_UP
        x, y, z = x * f, y * f, z * f
        return math.sqrt(x * x + y * y + z * z), f
    return math.sqrt(ss), 1.0


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) divided by its norm, for any finite nonzero vector."""
    n, f = _scaled_norm(x, y, z)
    return x * f / n, y * f / n, z * f / n


def _unit_components(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components that UnitVector(x, y, z) stores: (x, y, z) itself at
    unit norm to 1e-12, renormalized within UNIT_RENORM_TOL, else rejected."""
    n = math.sqrt(x * x + y * y + z * z)
    if abs(n - 1.0) <= 1e-12:
        return x, y, z
    _require_finite(x, y, z)
    if abs(n - 1.0) > UNIT_RENORM_TOL:
        raise ValueError(f"not a unit vector (norm {n!r}); use UnitVector.from_vec")
    return _unit(x, y, z)


def _direction(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components of UnitVector(v/||v||) for any finite nonzero v."""
    if not math.isfinite(x + y + z):  # the sum may also overflow
        _require_finite(x, y, z)
    if not (x or y or z):
        raise ValueError("cannot normalize a (near-)zero vector")
    return _unit(x, y, z)


def _from_vec(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components of UnitVector.from_vec(Vec3(x, y, z)): _direction
    with from_vec's floor of 1e-15 on the norm."""
    # nan and inf fail the floor test, and _direction's finite check next
    if math.sqrt(x * x + y * y + z * z) < 1e-15:
        raise ValueError("cannot normalize a (near-)zero vector")
    return _direction(x, y, z)


def _cross(u, v) -> tuple[float, float, float]:
    """u x v with the finite check of Vec3.cross."""
    w = _k.cross3(u, v)
    if not math.isfinite(w[0] + w[1] + w[2]):  # the sum may also overflow
        _require_finite(*w)
    return w


# --- rotations as Euler parameters ----------------------------------------


def _fold_angle(angle: float) -> float:
    # into (-pi, pi]; remainder returns [-pi, pi] with ties to even
    a = math.remainder(angle, _TWO_PI)
    return math.pi if a == -math.pi else a


def _flip_half_axis(x: float, y: float, z: float) -> bool:
    """Whether a half-turn axis must be negated to be canonical: its first
    nonzero component is negative."""
    return (x or y or z) < 0.0


def _half_turn_axis(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components of HalfTurn(UnitVector(x, y, z)).axis."""
    x, y, z = _unit_components(x, y, z)
    if _flip_half_axis(x, y, z):
        return -x, -y, -z
    return x, y, z


def _lift_axis_angle(
    nx: float, ny: float, nz: float, angle: float
) -> tuple[float, float, float, float]:
    """Euler parameters of the rotation by the folded angle about the unit
    axis n: (1, tan(angle/2) n), or (0, n) as a HalfTurn stores it when the
    angle is pi to within HALF_TURN_ANGLE_TOL."""
    if abs(abs(angle) - math.pi) <= HALF_TURN_ANGLE_TOL:
        return (0.0, *_half_turn_axis(nx, ny, nz))
    t = math.tan(0.5 * angle)
    return 1.0, t * nx, t * ny, t * nz


def _axis_angle(x: float, y: float, z: float) -> tuple[tuple[float, float, float], float]:
    """The axis components and the angle in [0, pi] that
    axis_angle_from_rodrigues gives for the finite Q = (x, y, z)."""
    n = math.hypot(x, y, z)
    if n == 0.0:
        return (0.0, 0.0, 1.0), 0.0
    return _unit_components(*_unit(x, y, z)), 2.0 * math.atan(n)


def _rotation9(s: float, x: float, y: float, z: float):
    """The checked matrix of the Euler parameters (1, Q) or (0, n) that the
    composition law carries, from the kernels of matrix_from_rodrigues and
    matrix_from_half_turn."""
    if not s:
        return _checked9(_k.half_turn9(_half_turn_axis(x, y, z)))
    if x * x + y * y + z * z == math.inf:
        return _checked9(_k.half_turn9(_unit(x, y, z)))
    return _checked9(_k.rot_from_rod9((x, y, z)))


def _euler_rodrigues9(n, theta: float):
    """euler_rodrigues_matrix on the unit triple n: its checked nine floats."""
    _require_finite(theta)
    return _checked9(_k.euler_rodrigues9(n, theta))


def _compose_lifted(
    s2: float, x2: float, y2: float, z2: float, s1: float, x1: float, y1: float, z1: float
) -> tuple[float, float, float, float]:
    """compose_general on Euler parameters: (1, Q) for the Rodrigues vector
    Q = v/s of the product, or (0, n) for the half-turn about the unit n."""
    while True:
        # the operation order of _composition_diagnostics, so that
        # s1 = s2 = 1 gives its numerator and denominator bit for bit
        vx = s2 * x1 + s1 * x2 + (y2 * z1 - z2 * y1)
        vy = s2 * y1 + s1 * y2 + (z2 * x1 - x2 * z1)
        vz = s2 * z1 + s1 * z2 + (x2 * y1 - y2 * x1)
        s = s2 * s1 - (x2 * x1 + y2 * y1 + z2 * z1)
        scale = abs(s1 * s2) + math.hypot(x1, y1, z1) * math.hypot(x2, y2, z2)
        if math.isfinite(s + vx + vy + vz + scale):
            break
        # components of at most 1 cannot overflow again
        m2 = max(abs(s2), abs(x2), abs(y2), abs(z2))
        m1 = max(abs(s1), abs(x1), abs(y1), abs(z1))
        s2, x2, y2, z2 = s2 / m2, x2 / m2, y2 / m2, z2 / m2
        s1, x1, y1, z1 = s1 / m1, x1 / m1, y1 / m1, z1 / m1
    if abs(s) > DEGENERACY_REL_TOL * scale:
        qx, qy, qz = vx / s, vy / s, vz / s
        if math.isfinite(qx) and math.isfinite(qy) and math.isfinite(qz):
            return 1.0, qx, qy, qz
        # v/s overflows: the rotation is pi to within 2/||v/s||
    return (0.0, *_unit(vx, vy, vz))


def _lift_matrix9(e) -> tuple[float, float, float, float]:
    """rodrigues_from_matrix on the nine floats of a checked rotation
    matrix, as Euler parameters: (1, Q), or (0, n) as a HalfTurn stores it."""
    t = e[0] + e[4] + e[8]
    k = 0  # the first index of the largest diagonal entry
    if e[4] > e[0]:
        k = 1
    if e[8] > e[4 * k]:
        k = 2
    wk = 1.0 + 2.0 * e[4 * k] - t
    if 1.0 + t >= wk:
        x, y, z = _k.rod_from_rot9(e)
    else:
        w = [0.0, 0.0, 0.0]
        w[k] = wk
        j, l = (k + 1) % 3, (k + 2) % 3
        w[j] = e[3 * j + k] + e[3 * k + j]
        w[l] = e[3 * l + k] + e[3 * k + l]
        d = e[3 * l + j] - e[3 * j + l]
        if abs(d) * sys.float_info.max < wk:  # d = 0, or w/d overflows
            return (0.0, *_half_turn_axis(*_direction(*w)))
        x, y, z = w[0] / d, w[1] / d, w[2] / d
    if not math.isfinite(x + y + z):  # the sum may also overflow
        _require_finite(x, y, z)
    return 1.0, x, y, z


# --- the Cayley transform -------------------------------------------------


def _cayley_rot9(x: float, y: float, z: float):
    """cayley_rotation on the components of Q: its checked nine floats."""
    if max(abs(x), abs(y), abs(z)) > _DD_LIMIT:
        m = [2.0 * v for v in _inverse_scaled(x, y, z)]
        for i in (0, 4, 8):
            m[i] -= 1.0
        return _checked9(tuple(m))
    return _checked9(_k.cayley_rot9((x, y, z)))


def _cayley_inv9(x: float, y: float, z: float):
    """cayley_inverse_explicit on the components of Q: its nine finite floats."""
    m = _k.cayley_inv9((x, y, z))
    if not math.isfinite(sum(m)):  # entries are at most 1: the sum is finite iff they are
        m = _inverse_scaled(x, y, z)
        _require_finite(*m)
    return m


def _inverse_scaled(x: float, y: float, z: float) -> tuple[float, ...]:
    """(1 - Qx)^-1 for a nonzero Q, from P = Q/c with c its largest |component|.

    Numerator and denominator of the explicit inverse divided by c^2 give
    (e^2 1 + e (Px) + P P^T)/(e^2 + P.P) with e = 1/c: no term overflows,
    and P.P >= 1 keeps the denominator away from 0.
    """
    c = max(abs(x), abs(y), abs(z))
    e = 1.0 / c
    x, y, z = x / c, y / c, z / c
    e2 = e * e
    d = e2 + (x * x + y * y + z * z)
    return (
        (e2 + x * x) / d,
        (x * y - e * z) / d,
        (x * z + e * y) / d,
        (x * y + e * z) / d,
        (e2 + y * y) / d,
        (y * z - e * x) / d,
        (x * z - e * y) / d,
        (y * z + e * x) / d,
        (e2 + z * z) / d,
    )


def _cayley_residuals(qt, xt) -> tuple[float, float]:
    """cayley_residuals on the triples of Q and x."""
    rm = _k.rot_from_rod9(qt)
    rx = _k.matvec(rm, xt)
    qxx = _k.cross3(qt, xt)
    qxrx = _k.cross3(qt, rx)
    r1 = _k.norm3(
        (
            xt[0] + qxx[0] - (rx[0] - qxrx[0]),
            xt[1] + qxx[1] - (rx[1] - qxrx[1]),
            xt[2] + qxx[2] - (rx[2] - qxrx[2]),
        )
    )
    # (Qx)(R+1)x vs (R-1)x
    rx_plus_x = (rx[0] + xt[0], rx[1] + xt[1], rx[2] + xt[2])
    lhs = _k.cross3(qt, rx_plus_x)
    r2 = _k.norm3((lhs[0] - (rx[0] - xt[0]), lhs[1] - (rx[1] - xt[1]), lhs[2] - (rx[2] - xt[2])))
    return r1, r2


# --- the composition law's proportionality constant -----------------------


def _composition_diagnostics(q2t, q1t, at):
    """composition_diagnostics on the triples of Q2, Q1 and a: the
    numerator, the denominator lambda and the residual."""
    if any(q1t) and abs(_k.dot3(at, _unit(*q1t))) > 1e-9:
        raise NotPerpendicular("a must be perpendicular to Q1")
    # a regular Q3 from _compose_lifted is finite, a half-turn axis unit
    s, x, y, z = _compose_lifted(1.0, *q2t, 1.0, *q1t)
    if not s:
        raise DegenerateComposition("composition is a half-turn; lambda residual undefined")
    # numerator Q1 + Q2 + Q2 x Q1 and denominator 1 - Q2.Q1 of the law
    num = _k.cross3(q2t, q1t)
    num = (q1t[0] + q2t[0] + num[0], q1t[1] + q2t[1] + num[1], q1t[2] + q2t[2] + num[2])
    lam = 1.0 - _k.dot3(q2t, q1t)

    lhs = _k.cross3((x, y, z), at)
    lhs = (lam * (at[0] + lhs[0]), lam * (at[1] + lhs[1]), lam * (at[2] + lhs[2]))

    c1 = _k.cross3(q1t, at)
    c2 = _k.cross3(q2t, at)
    c21 = _k.cross3(q2t, c1)
    rhs = (
        at[0] + c1[0] + c2[0] + c21[0],
        at[1] + c1[1] + c2[1] + c21[1],
        at[2] + c1[2] + c2[2] + c21[2],
    )
    residual = _k.norm3((lhs[0] - rhs[0], lhs[1] - rhs[1], lhs[2] - rhs[2]))
    if not math.isfinite(num[0] + num[1] + num[2]):  # the sum may also overflow
        _require_finite(*num)  # the check of Vec3(*num)
    return num, lam, residual


# --- Donkin's spherical triangle ------------------------------------------


def _require_triangle(a, b, c) -> None:
    """Raise ValueError when the points a, b, c are collinear, with the
    finite checks of the Vec3 values b - a, c - a and their cross product."""
    ab = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    ac = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    if not math.isfinite(ab[0] + ab[1] + ab[2] + ac[0] + ac[1] + ac[2]):
        _require_finite(*ab, *ac)  # the sum may also overflow
    if _k.norm3(_cross(ab, ac)) <= 1e-9:
        raise ValueError("degenerate spherical triangle: vertices are collinear")


def _arc_angle(u, v) -> float:
    """arc_angle on the triples of u and v."""
    return math.atan2(_k.norm3(_cross(u, v)), u[0] * v[0] + u[1] * v[1] + u[2] * v[2])


def _bisector(q, x) -> tuple[float, float, float]:
    """bisector_intersection on the triples of Q and x."""
    t = _k.cross3(q, x)
    return x[0] + t[0], x[1] + t[1], x[2] + t[2]


def _half_angle_point(q, a) -> tuple[float, float, float]:
    """half_angle_point on the triples of Q and a."""
    if not any(q):
        raise ValueError("half_angle_point needs a nonzero rotation")
    if abs(_k.dot3(a, _unit(*q))) > 1e-9:
        raise NotPerpendicular("a must lie in the plane perpendicular to Q")
    # from_vec's checks include the finite check of Vec3((1 + Qx) a)
    return _from_vec(*_bisector(q, a))


def _donkin_triangle(q1, q2):
    """donkin_triangle on the triples of Q1 and Q2: the vertices A, B, C."""
    if not any(q1) or not any(q2):
        raise ParallelAxes("both rotations must be nonzero")
    axis1 = _unit(*q1)
    axes_cross = _k.cross3(_unit(*q2), axis1)
    if _k.norm3(axes_cross) <= 1e-9:
        raise ParallelAxes("rotation axes are parallel; no spherical triangle exists")
    c = _k.cross3(q2, q1)
    if not 0.0 < _k.dot3(c, c) < math.inf:
        c = axes_cross  # Q2 x Q1 over- or underflows; n2 x n1 has its direction
    b = _unit(*c)
    half1 = math.atan(_k.norm3(q1))  # theta1/2
    r = _euler_rodrigues9(axis1, -half1)
    # from_vec's checks include the finite check of Vec3(R b)
    a = _from_vec(*_k.matvec(r, b))
    cpt = _half_angle_point(q2, b)
    _require_triangle(a, b, cpt)
    return a, b, cpt


def _double_arc_rotation9(u, v):
    # rotation by twice the arc angle about u x v; collapsed (parallel or
    # antipodal) pairs give arc 0 or pi, hence angle 0 or 2*pi: identity.
    c = _cross(u, v)
    if _k.norm3(c) <= 1e-12:
        return _IDENTITY9
    return _euler_rodrigues9(_unit(*c), 2.0 * _arc_angle(u, v))


def _donkin_residual(a, b, c) -> float:
    """donkin_residual on the triples of the vertices."""
    r_ab = _double_arc_rotation9(a, b)
    r_bc = _double_arc_rotation9(b, c)
    r_ac = _double_arc_rotation9(a, c)
    # maps, not a generator, whose frame would raise a check's peak memory;
    # float.__sub__ spares the import of operator
    return max(map(abs, map(float.__sub__, _k.matmul(r_bc, r_ab), r_ac)))


# --- attitude integration -------------------------------------------------


def _increment(wx: float, wy: float, wz: float, dt: float, exact: bool) -> tuple[float, float, float]:
    """rodrigues_increment on floats; a non-finite Q raises ValueError.

    |w| is the plain square root of the sum of squares wherever that sum
    is a finite normal float, and is taken from a power-of-two scaled
    copy of w elsewhere, so that no |w| overflows or underflows.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if exact:
        n, f = _scaled_norm(wx, wy, wz)
        w = n / f
        if w == 0.0:
            return 0.0, 0.0, 0.0
        angle = w * dt
        if angle >= math.pi - STEP_ANGLE_MARGIN:
            raise StepTooLarge(
                f"step spans {angle:.6g} rad, at/over the half-angle tangent pole; "
                "reduce dt or add substeps"
            )
        c = math.tan(0.5 * angle) / w
    else:
        c = 0.5 * dt
    q = (wx * c, wy * c, wz * c)
    if not math.isfinite(q[0] + q[1] + q[2]):  # the sum may also overflow
        _require_finite(*q)
    return q


def _pairs(seq):
    """Each item of seq with the next one, as itertools.pairwise pairs them."""
    later = iter(seq)
    next(later, None)
    return zip(seq, later)


def _integrate(
    times: list[float],
    rates: list[tuple[float, float, float]],
    scheme: str,
    start: tuple[float, float, float, float] | None,
    substeps: int,
) -> list[tuple[float, float, float, float, float]]:
    """integrate_attitude on finite sample times and (wx, wy, wz) rates.

    The orientation is carried as the Euler parameters of the composition
    law, (1, Q) or (0, n), from ``start`` (the identity when None), and is
    returned as such: one (t, s, x, y, z) row per sample time, in a list.
    """
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    for t0, t1 in _pairs(times):
        if not t1 > t0:
            raise NonMonotonicTime(f"sample times must increase: {t0} -> {t1}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    exact = scheme == EXACT_STEP

    s, x, y, z = (1.0, 0.0, 0.0, 0.0) if start is None else start
    rows = [(times[0], s, x, y, z)]
    for (t0, t1), ((ax, ay, az), (bx, by, bz)) in zip(_pairs(times), _pairs(rates)):
        dt = (t1 - t0) / substeps
        # an interval shorter than substeps * 5e-324 has steps of dt = 0,
        # which are the identity
        for i in range(substeps if dt > 0.0 else 0):
            # omega at the step midpoint, linear between the samples
            u = (t0 + (i + 0.5) * dt - t0) / (t1 - t0)
            wx, wy, wz = ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)
            if not math.isfinite(wx + wy + wz):  # the sum may also overflow
                _require_finite(wx, wy, wz)
            qx, qy, qz = _increment(wx, wy, wz, dt, exact)
            s, x, y, z = _compose_lifted(1.0, qx, qy, qz, s, x, y, z)
        rows.append((t1, s, x, y, z))
    return rows
