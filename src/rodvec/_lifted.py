"""The float core: every rotation routine of the package, on plain floats.

A rotation is carried as the Euler parameters of the composition law,
(1, Q) for the Rodrigues vector Q or (0, n) for the half-turn about the
unit axis n, with n as :class:`rodvec.core.HalfTurn` stores it: each
routine that makes a (0, n) makes it canonical, so routines that read one
take n as it is.  Vectors are float triples and matrices tuples of nine floats,
row-major.  The typed values store floats, converted once by ``_floats``, so
their numbers come here as they are.  Each routine runs the checks of the
typed path it stands for, in the same order, and raises the same errors.

Here live the conversions, the Cayley pair, the composition law and its
diagnostics, Donkin's triangle and the attitude integrator.  The typed
modules (``core``, ``cayley``, ``composition``, ``kinematics``,
``geometry``) import their arithmetic from here and never the reverse,
and so do the command line and ``checks``.  This module imports nothing
but ``math``, ``sys``, ``itertools.pairwise``, the kernels and the error
types, so that ``rodvec.cli`` and ``rodvec.checks`` load no typed class.
"""

import math
import sys
from itertools import pairwise

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

#: |angle - pi| at or below this raises HalfTurnUndefined in Q = tan(angle/2)*n.
HALF_TURN_ANGLE_TOL = 1e-12

#: RotationMatrix construction tolerance for R^T R = 1 and det R = 1.
ROTATION_MATRIX_TOL = 1e-9

#: Unit vectors are renormalized when within this of unit norm, rejected beyond.
UNIT_RENORM_TOL = 1e-6

#: |s| <= this times the scale |s1 s2| + ||v1|| ||v2|| means that s, the
#: scalar part of an Euler parameter product (1 - Q2.Q1 for regular
#: operands), is zero to rounding: a sum of four products errs by up to
#: about 4u = 2**-51 times the sum of their sizes (u = 2**-53), which the
#: scale bounds; for regular operands the scale is 1 + ||Q1|| ||Q2||.
#: Such a product is the half-turn about v.  Elsewhere v/s is kept: its
#: error grows with 1/|s|, but so does ||v/s||, so the rotation stays
#: accurate to a few u.
DEGENERACY_REL_TOL = 2.0**-51

#: The inline steps of ``_compose_chain`` and ``_integrate`` keep a product
#: of regular operands exactly when s^2 > this * (s^2 + ||v||^2).  By the
#: norm identity of the Euler parameter product, s^2 + ||v||^2 =
#: (1 + ||Q1||^2)(1 + ||Q2||^2) >= (1 + ||Q1|| ||Q2||)^2, the square of the
#: scale above, so a step that passes has |s| > 2 * DEGENERACY_REL_TOL *
#: scale, twice the margin of the test above, and ||v/s|| < 2**50, a finite
#: quotient.  An overflowing or nan sum fails it (this * inf is inf), and
#: every step that fails goes to ``_compose_lifted``, whose test above is
#: the one definition of the half-turn branch.
_INLINE_TOL2 = (2.0 * DEGENERACY_REL_TOL) ** 2

FIRST_ORDER = "first-order"
EXACT_STEP = "exact-step"
SCHEMES = (FIRST_ORDER, EXACT_STEP)

#: StepTooLarge's message, in either scheme
_PAST_THE_FLOAT_RANGE = "the step's increment is past the float range; reduce dt or add substeps"

#: The constructions geometry.figure_scene draws, by name.
FIGURE_KINDS = ("fig1a", "fig1b", "fig1c", "fig2", "fig4", "fig5")


# --- checks and directions ------------------------------------------------


def _require_finite(*values: float) -> None:
    """Raise ValueError unless every value is a finite real number; a value
    that is not a real number, such as a str, raises TypeError."""
    try:
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite component: {v!r}")
    except OverflowError:  # an int past the float range, too long to print
        raise ValueError("component too large for a float") from None


def _floats(*values) -> tuple[float, ...]:
    """values as Python floats, after the checks of _require_finite: the
    one conversion of the typed values, which store floats."""
    _require_finite(*values)
    return tuple(map(float, values))


def _checked9(e):
    """e, a row-major tuple of nine floats, after the checks of
    RotationMatrix: finite, then R^T R = 1 and det R = 1 to
    ROTATION_MATRIX_TOL, else NotARotation.

    One residual call checks both: a non-finite entry makes |det - 1| nan
    or inf, so it fails, and only a failing matrix goes to _reject9.
    """
    ortho, det = _k.rot_residuals9(e)
    if not (ortho <= ROTATION_MATRIX_TOL and det <= ROTATION_MATRIX_TOL):
        _reject9(e, ortho, det)
    return e


def _reject9(e, ortho: float, det: float):
    """Raise the error of _checked9 for the matrix e whose residuals
    (ortho, det) fail: the ValueError that names its first non-finite
    entry, else NotARotation, with a message that prints neither residual
    where one of them overflows."""
    _require_finite(*e)
    if not (math.isfinite(ortho) and math.isfinite(det)):
        raise NotARotation(
            "matrix fails SO(3) checks: its entries are too large for R^T R or det R to be formed"
        )
    raise NotARotation(
        f"matrix fails SO(3) checks: |R^T R - 1| = {ortho:.3e}, |det - 1| = {det:.3e}"
    )


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
    """(x, y, z) divided by its norm, for any finite nonzero vector.

    Where the sum of squares is a finite normal float the norm is its plain
    square root, as _scaled_norm takes it with f = 1; only other sums (and
    nan) call _scaled_norm.
    """
    ss = x * x + y * y + z * z
    if _MIN_NORMAL <= ss < math.inf:
        n = math.sqrt(ss)
        return x / n, y / n, z / n
    n, f = _scaled_norm(x, y, z)
    return x * f / n, y * f / n, z * f / n


def _unit_components(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components that UnitVector stores for the floats x, y, z: (x, y, z)
    itself at unit norm to 1e-12, renormalized within UNIT_RENORM_TOL, else
    rejected."""
    n = math.sqrt(x * x + y * y + z * z)
    if -1e-12 <= n - 1.0 <= 1e-12:
        return x, y, z
    _require_finite(x, y, z)
    if abs(n - 1.0) > UNIT_RENORM_TOL:
        raise ValueError(f"not a unit vector (norm {n!r}); use UnitVector.from_vec")
    return _unit(x, y, z)


def _direction(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components of UnitVector(v/||v||) for any finite nonzero v: the
    one routine that normalizes a direction, for the spec parser,
    UnitVector.from_vec and the half-angle and Donkin constructions.

    Only a finite nonzero v has a sum of squares that is a finite normal
    float, and such a v divides by its plain square root at once, as _unit
    would divide it; any other v is checked, finite and then nonzero, before
    _unit.
    """
    ss = x * x + y * y + z * z
    if _MIN_NORMAL <= ss < math.inf:
        n = math.sqrt(ss)
        return x / n, y / n, z / n
    if not math.isfinite(x + y + z):  # the sum may also overflow
        _require_finite(x, y, z)
    if not (x or y or z):
        raise ValueError("cannot normalize a (near-)zero vector")
    return _unit(x, y, z)


def _cross_plain(u, v) -> tuple[float, float, float]:
    """u x v, unchecked: a product that overflows stays inf or nan."""
    ux, uy, uz = u
    vx, vy, vz = v
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _cross(u, v) -> tuple[float, float, float]:
    """u x v with the finite check of Vec3.cross."""
    w = _cross_plain(u, v)
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
    """The components of HalfTurn(UnitVector(x, y, z)).axis, for the
    components of a UnitVector, such as _unit and _direction give."""
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
    return _unit(x, y, z), 2.0 * math.atan(n)


def _rotation9(s: float, x: float, y: float, z: float):
    """The checked matrix of the Euler parameters (1, Q) or (0, n) that the
    composition law carries: the kernel of matrix_from_rodrigues, or the
    half-turn matrix 2 n n^T - 1, also about Q/||Q|| when Q.Q overflows."""
    if s:
        if x * x + y * y + z * z != math.inf:
            return _checked9(_k.rot_from_rod9((x, y, z)))
        x, y, z = _unit(x, y, z)
    return _checked9(
        (
            2.0 * x * x - 1.0, 2.0 * x * y, 2.0 * x * z,
            2.0 * x * y, 2.0 * y * y - 1.0, 2.0 * y * z,
            2.0 * x * z, 2.0 * y * z, 2.0 * z * z - 1.0,
        )
    )


def _euler_rodrigues9(n, theta: float):
    """euler_rodrigues_matrix on the unit triple n: its checked nine floats."""
    if not math.isfinite(theta):
        _require_finite(theta)
    return _checked9(_k.euler_rodrigues9(n, theta))


def _compose_lifted(
    s2: float, x2: float, y2: float, z2: float, s1: float, x1: float, y1: float, z1: float
) -> tuple[float, float, float, float]:
    """compose_general on Euler parameters: (1, Q) for the Rodrigues vector
    Q = v/s of the product, or (0, n) for the half-turn about the unit n,
    canonical.  Negating a half-turn operand's n negates (s, v), which
    changes neither v/s, |s|, the test on it nor the canonical axis."""
    while True:
        # the operation order of _compose_chain's inline step, so that
        # s1 = s2 = 1 gives its numerator and lambda bit for bit
        vx = s2 * x1 + s1 * x2 + (y2 * z1 - z2 * y1)
        vy = s2 * y1 + s1 * y2 + (z2 * x1 - x2 * z1)
        vz = s2 * z1 + s1 * z2 + (x2 * y1 - y2 * x1)
        s = s2 * s1 - (x2 * x1 + y2 * y1 + z2 * z1)
        scale = abs(s1 * s2) + math.hypot(x1, y1, z1) * math.hypot(x2, y2, z2)
        if math.isfinite(s + vx + vy + vz + scale):
            break
        # a non-finite operand would rescale forever
        _require_finite(s2, x2, y2, z2, s1, x1, y1, z1)
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
    return (0.0, *_half_turn_axis(*_unit(vx, vy, vz)))


def _lift_matrix9(e) -> tuple[float, float, float, float]:
    """rodrigues_from_matrix on the nine floats of a checked rotation
    matrix, as Euler parameters: (1, Q), or (0, n) as a HalfTurn stores it.

    Both branches of Shepperd's rule give Q as a quotient w/d: w is
    unskew(R - R^T) and d = 1 + trace R, or w and d are read from column
    and row k of the largest diagonal entry: w_k = 1 + 2 r_kk - trace R,
    w_j = r_jk + r_kj for each other index j, and d = r_lj - r_jl with
    (k, j, l) in cyclic order.  The nine entries are unpacked once, and each
    k's w and d are read from them by name.
    """
    r11, r12, r13, r21, r22, r23, r31, r32, r33 = e
    t = r11 + r22 + r33
    k, rkk = 0, r11  # the first index of the largest diagonal entry
    if r22 > rkk:
        k, rkk = 1, r22
    if r33 > rkk:
        k, rkk = 2, r33
    wk = 1.0 + 2.0 * rkk - t
    if 1.0 + t >= wk:
        # skew(Q) = (R - R^T)/(1 + trace R); here 1 + trace R is at least about 1
        wx, wy, wz = r32 - r23, r13 - r31, r21 - r12
        d = 1.0 + r11 + r22 + r33
    else:
        if k == 0:
            wx, wy, wz, d = wk, r21 + r12, r31 + r13, r32 - r23
        elif k == 1:
            wx, wy, wz, d = r12 + r21, wk, r32 + r23, r13 - r31
        else:
            wx, wy, wz, d = r13 + r31, r23 + r32, wk, r21 - r12
        if abs(d) * sys.float_info.max < wk:  # d = 0, or w/d overflows
            return (0.0, *_half_turn_axis(*_direction(wx, wy, wz)))
    x, y, z = wx / d, wy / d, wz / d
    if not math.isfinite(x + y + z):  # the sum may also overflow
        _require_finite(x, y, z)
    return 1.0, x, y, z


# --- the Cayley transform -------------------------------------------------


def _cayley_rot9(x: float, y: float, z: float):
    """cayley_rotation on the components of Q: its checked nine floats,
    2 (1 - Qx)^-1 - 1, since 1 + Qx = 2 1 - (1 - Qx)."""
    a, b, c, d, e, f, g, h, i = _cayley_inv9(x, y, z)
    return _checked9(
        (
            2.0 * a - 1.0, 2.0 * b, 2.0 * c,
            2.0 * d, 2.0 * e - 1.0, 2.0 * f,
            2.0 * g, 2.0 * h, 2.0 * i - 1.0,
        )
    )


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
    """cayley_residuals on the triples of Q and x.

    R x, the cross products and the norms are written out, each product
    in the order of ``_cross_plain``; R is the kernel matrix of
    matrix_from_rodrigues.
    """
    qx, qy, qz = qt
    x, y, z = xt
    m = _k.rot_from_rod9(qt)
    rx = m[0] * x + m[1] * y + m[2] * z
    ry = m[3] * x + m[4] * y + m[5] * z
    rz = m[6] * x + m[7] * y + m[8] * z
    # (1 + Qx) x vs (1 - Qx) R x
    ex = x + (qy * z - qz * y) - (rx - (qy * rz - qz * ry))
    ey = y + (qz * x - qx * z) - (ry - (qz * rx - qx * rz))
    ez = z + (qx * y - qy * x) - (rz - (qx * ry - qy * rx))
    # (Qx)(R+1)x vs (R-1)x
    sx, sy, sz = rx + x, ry + y, rz + z
    fx = (qy * sz - qz * sy) - (rx - x)
    fy = (qz * sx - qx * sz) - (ry - y)
    fz = (qx * sy - qy * sx) - (rz - z)
    return math.sqrt(ex * ex + ey * ey + ez * ez), math.sqrt(fx * fx + fy * fy + fz * fz)


# --- the composition law's proportionality constant -----------------------


def _lambda(x2: float, y2: float, z2: float, x1: float, y1: float, z1: float) -> float:
    """The conditioning number 1 - Q2.Q1 of the composition law.

    When the dot product overflows it is taken again from the operands
    divided by their largest components, so that lambda is +-inf past the
    float range, never nan; a non-finite operand raises ValueError.
    ``_compose_chain``, its one caller, calls it only for a step whose
    product's scalar part is not finite: elsewhere lambda is that scalar
    part, which has the same bits wherever 1 - Q2.Q1 is finite.
    """
    d = x2 * x1 + y2 * y1 + z2 * z1
    if not math.isfinite(d):
        # a non-finite operand would divide by a nan or inf largest component
        _require_finite(x2, y2, z2, x1, y1, z1)
        m2 = max(abs(x2), abs(y2), abs(z2))
        m1 = max(abs(x1), abs(y1), abs(z1))
        x2, y2, z2 = x2 / m2, y2 / m2, z2 / m2
        x1, y1, z1 = x1 / m1, y1 / m1, z1 / m1
        d = m2 * (m1 * (x2 * x1 + y2 * y1 + z2 * z1))
    return 1.0 - d


def _compose_chain(rotations):
    """Fold the Euler parameters of a chain, any iterable of them with at
    least one, the first applied first, with the composition law:
    (lambdas, (s, x, y, z)).  Each is taken as the fold reaches it.

    lambdas[i - 1] is the conditioning number 1 - Q2.Q1 of step i, as
    ``_lambda`` gives it, or None where an operand is a half-turn.  A step
    between regular operands is composed inline, with the operations of
    ``_compose_lifted(1, Q2, 1, Q1)`` in their order, so that it gives the
    same bits.  It stays inline exactly when its scalar part lambda and
    vector v have lambda^2 > _INLINE_TOL2 * (lambda^2 + ||v||^2), a test
    that needs no norm of an operand (see _INLINE_TOL2).  Every other step
    (a half-turn operand, an overflowing product, one near or on the
    half-turn branch) calls ``_compose_lifted``, which forms the same
    lambda and v and decides the branch.  The lambda of a regular step is
    the product's scalar part where that is finite, and ``_lambda``'s
    rescaled value where it is not.
    """
    rotations = iter(rotations)
    s1, x1, y1, z1 = next(rotations)
    lams = []
    tol2 = _INLINE_TOL2
    for s2, x2, y2, z2 in rotations:
        if s1 and s2:
            lam = 1.0 - (x2 * x1 + y2 * y1 + z2 * z1)
            vx = x1 + x2 + (y2 * z1 - z2 * y1)
            vy = y1 + y2 + (z2 * x1 - x2 * z1)
            vz = z1 + z2 + (x2 * y1 - y2 * x1)
            ll = lam * lam
            if ll > tol2 * (ll + vx * vx + vy * vy + vz * vz):
                lams.append(lam)
                x1, y1, z1 = vx / lam, vy / lam, vz / lam
                continue
            lams.append(lam if math.isfinite(lam) else _lambda(x2, y2, z2, x1, y1, z1))
        else:
            lams.append(None)
        s1, x1, y1, z1 = _compose_lifted(s2, x2, y2, z2, s1, x1, y1, z1)
    return lams, (s1, x1, y1, z1)


def _composition_diagnostics(q2t, q1t, at):
    """composition_diagnostics on the triples of Q2, Q1 and a: the
    numerator, the denominator lambda and the residual.

    lambda and Q3 come from one ``_compose_chain(((1, Q1), (1, Q2)))``,
    whose lambda = 1 - Q2.Q1 is the scalar part of the product that gives
    Q3; the numerator Q1 + Q2 + Q2 x Q1 is formed only to be returned, with
    that product's operations in their order, so with its bits.  A product
    on the half-turn branch raises DegenerateComposition.  Every cross
    product and norm is written out, in the order of ``_cross_plain``.
    """
    x1, y1, z1 = q1t
    x2, y2, z2 = q2t
    ax, ay, az = at
    if x1 or y1 or z1:
        ux, uy, uz = _unit(x1, y1, z1)
        if abs(ax * ux + ay * uy + az * uz) > 1e-9:
            raise NotPerpendicular("a must be perpendicular to Q1")
    (lam,), (s, x, y, z) = _compose_chain(((1.0, x1, y1, z1), (1.0, x2, y2, z2)))
    if not s:
        raise DegenerateComposition("composition is a half-turn; lambda residual undefined")

    # lambda (a + Q3 x a) against a + Q1 x a + Q2 x a + Q2 x (Q1 x a)
    c1x, c1y, c1z = y1 * az - z1 * ay, z1 * ax - x1 * az, x1 * ay - y1 * ax
    dx = lam * (ax + (y * az - z * ay)) - (ax + c1x + (y2 * az - z2 * ay) + (y2 * c1z - z2 * c1y))
    dy = lam * (ay + (z * ax - x * az)) - (ay + c1y + (z2 * ax - x2 * az) + (z2 * c1x - x2 * c1z))
    dz = lam * (az + (x * ay - y * ax)) - (az + c1z + (x2 * ay - y2 * ax) + (x2 * c1y - y2 * c1x))
    residual = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not math.isfinite(residual) and math.isfinite(lam):
        residual = _scaled_law_residual((x, y, z), q2t, q1t, at, lam)
    num = (x1 + x2 + (y2 * z1 - z2 * y1), y1 + y2 + (z2 * x1 - x2 * z1), z1 + z2 + (x2 * y1 - y2 * x1))
    if not math.isfinite(num[0] + num[1] + num[2]):  # the sum may also overflow
        _require_finite(*num)  # the check of Vec3(*num)
    return num, lam, residual


def _scaled_law_residual(q3, q2t, q1t, at, lam):
    """The residual of _composition_diagnostics where a product on either
    side overflows although lambda does not.

    Both sides are taken divided by f1 f2, the powers of two at or below
    the largest components of Q1 and Q2: Q1 / f1 and Q2 / f2 are exact, so
    each term rounds as it would with an unbounded exponent.  The residual
    is then multiplied back, and is inf only if it is past the float range.
    """
    f1 = math.ldexp(0.5, math.frexp(max(map(abs, q1t)))[1])
    f2 = math.ldexp(0.5, math.frexp(max(map(abs, q2t)))[1])
    q1 = (q1t[0] / f1, q1t[1] / f1, q1t[2] / f1)
    q2 = (q2t[0] / f2, q2t[1] / f2, q2t[2] / f2)
    lam = lam / f1 / f2
    lhs = _cross_plain(q3, at)
    lhs = (lam * (at[0] + lhs[0]), lam * (at[1] + lhs[1]), lam * (at[2] + lhs[2]))
    # a / (f1 f2) + Q1 x a / (f1 f2) + Q2 x a / (f1 f2) + Q2 x (Q1 x a) / (f1 f2)
    c1 = _cross_plain(q1, at)
    c2 = _cross_plain(q2, at)
    c21 = _cross_plain(q2, c1)
    dx = lhs[0] - (at[0] / f1 / f2 + c1[0] / f2 + c2[0] / f1 + c21[0])
    dy = lhs[1] - (at[1] / f1 / f2 + c1[1] / f2 + c2[1] / f1 + c21[1])
    dz = lhs[2] - (at[2] / f1 / f2 + c1[2] / f2 + c2[2] / f1 + c21[2])
    return math.sqrt(dx * dx + dy * dy + dz * dz) * f1 * f2


# --- Donkin's spherical triangle ------------------------------------------


def _require_triangle(a, b, c) -> None:
    """Raise ValueError when the points a, b, c are collinear, with the
    finite checks of the Vec3 values b - a, c - a and their cross product.
    The cross product, in the order of ``_cross_plain``, and its norm are
    written out."""
    ax, ay, az = a
    bx, by, bz = b[0] - ax, b[1] - ay, b[2] - az
    cx, cy, cz = c[0] - ax, c[1] - ay, c[2] - az
    if not math.isfinite(bx + by + bz + cx + cy + cz):
        _require_finite(bx, by, bz, cx, cy, cz)  # the sum may also overflow
    wx, wy, wz = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    if not math.isfinite(wx + wy + wz):  # the sum may also overflow
        _require_finite(wx, wy, wz)
    if math.sqrt(wx * wx + wy * wy + wz * wz) <= 1e-9:
        raise ValueError("degenerate spherical triangle: vertices are collinear")


def _arc_angle(u, v) -> float:
    """arc_angle on the triples of u and v."""
    wx, wy, wz = _cross(u, v)
    return math.atan2(math.sqrt(wx * wx + wy * wy + wz * wz), u[0] * v[0] + u[1] * v[1] + u[2] * v[2])


def _bisector(q, x) -> tuple[float, float, float]:
    """bisector_intersection on the triples of Q and x."""
    t = _cross_plain(q, x)
    return x[0] + t[0], x[1] + t[1], x[2] + t[2]


def _half_angle_point(q, a) -> tuple[float, float, float]:
    """half_angle_point on the triples of Q and a.

    The perpendicularity test is written out; the unit axis is _unit's,
    the point (1 + Qx) a _bisector's, and its normalization _direction's,
    which raises.
    """
    qx, qy, qz = q
    ax, ay, az = a
    if not (qx or qy or qz):
        raise ValueError("half_angle_point needs a nonzero rotation")
    ux, uy, uz = _unit(qx, qy, qz)
    if abs(ax * ux + ay * uy + az * uz) > 1e-9:
        raise NotPerpendicular("a must lie in the plane perpendicular to Q")
    # _direction's checks include the finite check of Vec3((1 + Qx) a)
    return _direction(*_bisector(q, a))


def _donkin_ab(q1, q2):
    """The vertices A and B of donkin_triangle on the triples of Q1 and Q2,
    with every check up to A.

    The unit axis of Q1, the cross product of the axes, Q2 x Q1 and R B
    are written out, and ||Q1|| is the norm that unit axis divides by,
    where its sum of squares is a normal float; elsewhere it is _unit's,
    as are the unit axis of Q2 and B.  A is normalized by _direction, which
    raises.
    """
    x1, y1, z1 = q1
    x2, y2, z2 = q2
    if not (x1 or y1 or z1) or not (x2 or y2 or z2):
        raise ParallelAxes("both rotations must be nonzero")
    ss = x1 * x1 + y1 * y1 + z1 * z1
    n1 = math.sqrt(ss)  # ||Q1||
    if _MIN_NORMAL <= ss < math.inf:
        axis1 = u1x, u1y, u1z = x1 / n1, y1 / n1, z1 / n1
    else:
        axis1 = u1x, u1y, u1z = _unit(x1, y1, z1)
    u2x, u2y, u2z = _unit(x2, y2, z2)
    # n2 x n1
    px, py, pz = u2y * u1z - u2z * u1y, u2z * u1x - u2x * u1z, u2x * u1y - u2y * u1x
    if math.sqrt(px * px + py * py + pz * pz) <= 1e-9:
        raise ParallelAxes("rotation axes are parallel; no spherical triangle exists")
    cx, cy, cz = y2 * z1 - z2 * y1, z2 * x1 - x2 * z1, x2 * y1 - y2 * x1
    if not 0.0 < cx * cx + cy * cy + cz * cz < math.inf:
        cx, cy, cz = px, py, pz  # Q2 x Q1 over- or underflows; n2 x n1 has its direction
    b = bx, by, bz = _unit(cx, cy, cz)
    r = _euler_rodrigues9(axis1, -math.atan(n1))  # theta1/2
    # A = R B, with _direction's checks, which include the finite check of Vec3(R B)
    a = _direction(
        r[0] * bx + r[1] * by + r[2] * bz,
        r[3] * bx + r[4] * by + r[5] * bz,
        r[6] * bx + r[7] * by + r[8] * bz,
    )
    return a, b


def _donkin_triangle(q1, q2):
    """donkin_triangle on the triples of Q1 and Q2: the vertices A, B, C.

    A and B are _donkin_ab's.  C = (1 + Q2x) B is normalized by _direction,
    which raises, and only then are the three vertices checked by
    _require_triangle; the lambda-residual diagnostic uses A alone, and
    calls _donkin_ab, which skips both.  B is perpendicular to Q2 by
    construction, so C skips half_angle_point's test, which rounding in
    Q2 x Q1 fails when the axes are nearly parallel.
    """
    a, b = _donkin_ab(q1, q2)
    cpt = _direction(*_bisector(q2, b))
    _require_triangle(a, b, cpt)
    return a, b, cpt


def _double_arc_rotation9(u, v):
    """The rotation by twice the arc angle from u to v, about u x v.

    u x v is formed once, with the finite check of Vec3.cross, for the
    collapse test, the axis and the arc angle atan2(||u x v||, u.v).
    Collapsed (parallel or antipodal) pairs give arc 0 or pi, hence angle
    0 or 2*pi: the identity.
    """
    ux, uy, uz = u
    vx, vy, vz = v
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    if not math.isfinite(cx + cy + cz):  # the sum may also overflow
        _require_finite(cx, cy, cz)
    ss = cx * cx + cy * cy + cz * cz
    n = math.sqrt(ss)
    if n <= 1e-12:
        return _IDENTITY9
    # n > 1e-12 makes ss a normal float
    axis = (cx / n, cy / n, cz / n) if ss < math.inf else _unit(cx, cy, cz)
    return _euler_rodrigues9(axis, 2.0 * math.atan2(n, ux * vx + uy * vy + uz * vz))


def _nan_max(values) -> float:
    """The largest of a tuple of floats none of which is negative, or nan
    where one of them is nan: max keeps a nan only as its first item."""
    s = sum(values)  # nan exactly when a value is, since none is negative
    return max(values) if s == s else s


def _max_diff9(a, b) -> float:
    """The largest |a_i - b_i| of two tuples of nine floats, or nan where
    one of them is nan: _nan_max of the nine differences, written out in
    one pass.  Past the nan test the differences are +0.0 or larger, so
    the if-chain takes the bits max() would."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    d0 = abs(a0 - b0)
    d1 = abs(a1 - b1)
    d2 = abs(a2 - b2)
    d3 = abs(a3 - b3)
    d4 = abs(a4 - b4)
    d5 = abs(a5 - b5)
    d6 = abs(a6 - b6)
    d7 = abs(a7 - b7)
    d8 = abs(a8 - b8)
    s = d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8  # nan exactly when a d_i is
    if s != s:
        return s
    r = d0
    if d1 > r:
        r = d1
    if d2 > r:
        r = d2
    if d3 > r:
        r = d3
    if d4 > r:
        r = d4
    if d5 > r:
        r = d5
    if d6 > r:
        r = d6
    if d7 > r:
        r = d7
    if d8 > r:
        r = d8
    return r


def _matmul9(a, b):
    """The product of two row-major 3x3 matrices, as nine floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _donkin_residual(a, b, c) -> float:
    """donkin_residual on the triples of the vertices."""
    r_ab = _double_arc_rotation9(a, b)
    r_bc = _double_arc_rotation9(b, c)
    r_ac = _double_arc_rotation9(a, c)
    return _max_diff9(_matmul9(r_bc, r_ab), r_ac)


# --- attitude integration -------------------------------------------------


def _increment(wx: float, wy: float, wz: float, dt: float, exact: bool) -> tuple[float, float, float]:
    """rodrigues_increment on floats.

    The exact-step increment tan(|w|dt/2) w/|w| is finite for every finite
    step angle |w|dt: its pole is at an odd multiple of pi exactly, which
    no float reaches, so a step of any number of turns is exact for a
    constant w.  |w| is the plain square root of the sum of squares
    wherever that sum is a finite normal float, and is taken from a
    power-of-two scaled copy of w elsewhere, so that no |w| overflows or
    underflows.

    Raises StepTooLarge where the increment is past the float range: an
    exact step whose angle |w|dt overflows, or a first-order Q = w dt/2
    with an overflowing component.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if exact:
        n, f = _scaled_norm(wx, wy, wz)
        w = n / f
        if w == 0.0:
            return 0.0, 0.0, 0.0
        # a |w| past the float range still gives a finite angle over a short dt
        angle = w * dt if w < math.inf else n * (dt / f)
        if angle == math.inf:
            raise StepTooLarge(_PAST_THE_FLOAT_RANGE)
        # (f w) (tan/n) is at most tan in size; with f = 1 it is the w c of
        # _integrate's inline step, bit for bit
        c = math.tan(0.5 * angle) / n
    else:
        f, c = 1.0, 0.5 * dt
    q = (wx * f * c, wy * f * c, wz * f * c)
    if not math.isfinite(q[0] + q[1] + q[2]):  # the sum may also overflow
        for v in q:
            if not math.isfinite(v):
                raise StepTooLarge(_PAST_THE_FLOAT_RANGE)
    return q


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

    A step from a (1, Q) state is composed inline, with the operations of
    ``_increment`` and ``_compose_lifted(1, q, 1, Q)`` in their order, so
    that it gives the same bits.  It stays inline while, for exact-step,
    |w|^2 is a finite normal float and the step angle is finite, of any
    number of turns; while the increment q = c w has c > 0; and while the
    product's scalar part d and vector v have d^2 > _INLINE_TOL2 * (d^2 +
    ||v||^2), compose's inline test.  Every other step (from a half-turn,
    of a zero, subnormal or overflowing |w|, of an overflowing angle,
    underflowing to c = 0, overflowing, or ending near or on the half-turn
    branch) calls ``_increment`` and then ``_compose_lifted``, which check,
    raise and decide the branch.

    Two sample times farther apart than the largest float (t1 - t0 is inf)
    have no step size: they raise ValueError, naming both times, before any
    step is taken.
    """
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    for t0, t1 in pairwise(times):
        if not t1 > t0:
            raise NonMonotonicTime(f"sample times must increase: {t0} -> {t1}")
    # the span overflows whenever an interval does, so one test covers the
    # regular log and the intervals are scanned only when it fires
    if times[-1] - times[0] == math.inf:
        for t0, t1 in pairwise(times):
            if t1 - t0 == math.inf:
                raise ValueError(f"sample times {t0!r} -> {t1!r} are farther apart than the largest float")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    exact = scheme == EXACT_STEP
    inf = math.inf
    tol2 = _INLINE_TOL2

    s, x, y, z = (1.0, 0.0, 0.0, 0.0) if start is None else start
    rows = [(times[0], s, x, y, z)]
    for (t0, t1), ((ax, ay, az), (bx, by, bz)) in zip(pairwise(times), pairwise(rates)):
        dt = (t1 - t0) / substeps
        # an interval shorter than substeps * 5e-324 has steps of dt = 0,
        # which are the identity
        for i in range(substeps if dt > 0.0 else 0):
            # omega at the step midpoint, linear between the samples
            u = (t0 + (i + 0.5) * dt - t0) / (t1 - t0)
            wx, wy, wz = ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)
            if not math.isfinite(wx + wy + wz):  # the sum may also overflow
                # b - a overflows only where a and b have opposite signs, and
                # then the terms of (1 - u) a + u b do, so it is finite
                if not math.isfinite(wx):
                    wx = (1.0 - u) * ax + u * bx
                if not math.isfinite(wy):
                    wy = (1.0 - u) * ay + u * by
                if not math.isfinite(wz):
                    wz = (1.0 - u) * az + u * bz
                _require_finite(wx, wy, wz)
            if s == 1.0:
                # q = c w; c stays 0 where _increment takes its other
                # branches, and where it underflows
                if exact:
                    c = 0.0
                    ss = wx * wx + wy * wy + wz * wz
                    # an overflowing ss gives an infinite angle
                    if ss >= _MIN_NORMAL:
                        w = math.sqrt(ss)
                        angle = w * dt
                        if angle < inf:
                            c = math.tan(0.5 * angle) / w
                else:
                    c = 0.5 * dt
                if c:
                    qx, qy, qz = wx * c, wy * c, wz * c
                    vx = x + qx + (qy * z - qz * y)
                    vy = y + qy + (qz * x - qx * z)
                    vz = z + qz + (qx * y - qy * x)
                    d = 1.0 - (qx * x + qy * y + qz * z)
                    dd = d * d
                    if dd > tol2 * (dd + vx * vx + vy * vy + vz * vz):
                        x, y, z = vx / d, vy / d, vz / d
                        continue
            qx, qy, qz = _increment(wx, wy, wz, dt, exact)
            s, x, y, z = _compose_lifted(1.0, qx, qy, qz, s, x, y, z)
        rows.append((t1, s, x, y, z))
    return rows
