"""The references the tests compare the program against, one copy of each.

Each change that rewrote a formula for speed keeps the formula it replaced
here, as a ``ref_*`` function, and a test holds the new code to it bit for
bit, exception class (and often message) included.  The helpers the
references are built from (the 3-vector products, the double-double steps)
live here too.

The last section is the exact oracle.  The paper's algebra is rational in
Q: the Euler-Rodrigues matrix of (1, Q), the Cayley pair and the
composition law need no trigonometry, so ``fractions.Fraction`` arithmetic
gives each of them exactly.  A routine that goes through ``tan`` or
``atan`` has no exact rational value, and is not tested here.
"""

import io
import math
import sys
from fractions import Fraction

import pytest

from rodvec import _lifted, checks
from rodvec._backend import kernels as _k
from rodvec._lifted import (
    DEGENERACY_REL_TOL,
    EXACT_STEP,
    SCHEMES,
    _compose_lifted,
    _euler_rodrigues9,
    _increment,
    _lambda,
    _require_finite,
    _rotation9,
    _scaled_norm,
)
from rodvec.errors import (
    DegenerateComposition,
    NonMonotonicTime,
    NotPerpendicular,
    ParallelAxes,
    SpecFormatError,
)

# ------------------------------------------------------- comparing results


def _hexed(value):
    """value with every float as float.hex, at any depth of tuples and
    lists, so that NaNs and signed zeros count; None and any other value
    as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_hexed, value))
    return value


def outcome(f, *args):
    """What f(*args) gives: its result, _hexed, or the class and the message
    of what it raises.  Two Python routines agree where their outcomes are
    equal, message included."""
    try:
        result = f(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return _hexed(result)


def raised(o):
    """The class of the error that the outcome o records, or None where o
    is a result: no result holds a class."""
    return o[0] if isinstance(o, tuple) and o and isinstance(o[0], type) else None


def same_bits(a, b) -> bool:
    """Whether two outcomes agree where only an error's class counts, as
    between the C and Python kernels, which word argument errors
    differently: the same class raised, or the same result bits."""
    if raised(a) or raised(b):
        return raised(a) is raised(b)
    return a == b


# ------------------------------------------------------- 3-vector products
#
# The dot, cross, norm and matrix-vector products of 3-vectors were kernels
# once, in both backends; every caller writes them out now.  These are the
# deleted kernels' formulas.


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def mat_vec(m, v):
    x, y, z = v
    return (
        m[0] * x + m[1] * y + m[2] * z,
        m[3] * x + m[4] * y + m[5] * z,
        m[6] * x + m[7] * y + m[8] * z,
    )


def matrix_of_euler_parameters(p) -> tuple[float, ...]:
    """The rotation matrix of the Euler parameters p = (s, x, y, z) of any
    finite nonzero scale, as nine floats: p is scaled to a largest
    component of 1 first, so that no square overflows."""
    m = max(map(abs, p))
    s, x, y, z = (c / m for c in p)
    n = s * s + x * x + y * y + z * z
    return tuple(
        c / n
        for c in (
            s * s + x * x - y * y - z * z, 2.0 * (x * y - s * z), 2.0 * (x * z + s * y),
            2.0 * (x * y + s * z), s * s - x * x + y * y - z * z, 2.0 * (y * z - s * x),
            2.0 * (x * z - s * y), 2.0 * (y * z + s * x), s * s - x * x - y * y + z * z,
        )
    )


# ------------------------------------------------------ double-double steps
#
# The compensated kernels as a pipeline of one helper per step (two_sum,
# two_prod, dd_add, dd_div, ...).  The pure-Python kernels write the same
# steps out inline, and must give the same bits.

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def quick_two_sum(a, b):
    # requires |a| >= |b| or a == 0
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_add_d(x, a):
    s, e = two_sum(x[0], a)
    e += x[1]
    return quick_two_sum(s, e)


def dd_mul_d(x, a):
    p, e = two_prod(x[0], a)
    e += x[1] * a
    return quick_two_sum(p, e)


def dd_div_terms(x, y):
    """The three terms q1, q2, q3 of the quotient x/y, each q removing q*y
    from the remainder."""
    q1 = x[0] / y[0]
    r = dd_add(x, dd_mul_d(y, -q1))
    q2 = r[0] / y[0]
    r = dd_add(r, dd_mul_d(y, -q2))
    return q1, q2, r[0] / y[0]


def dd_div(x, y):
    q1, q2, q3 = dd_div_terms(x, y)
    q, e = quick_two_sum(q1, q2)
    return dd_add_d((q, e), q3)


def den_dd(x, y, z):
    s = dd_add(dd_add(two_prod(x, x), two_prod(y, y)), two_prod(z, z))
    return dd_add_d(s, 1.0)


# ------------------------------------------------------------ the kernels
#
# ``matmul``, ``transpose9``, ``skew9``, ``compose_num_den``, ``half_turn9``
# and ``rod_from_rot9`` were kernels once; their callers now write the
# tuples out.  The other kernels are here as they were written before each
# formed its repeated products once.


def ref_transpose9(m):
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


def ref_skew9(v):
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def ref_matmul9(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )


def ref_half_turn9(n):
    """2 n n^T - 1 for a unit axis n."""
    x, y, z = n
    return (
        2.0 * x * x - 1.0,
        2.0 * x * y,
        2.0 * x * z,
        2.0 * x * y,
        2.0 * y * y - 1.0,
        2.0 * y * z,
        2.0 * x * z,
        2.0 * y * z,
        2.0 * z * z - 1.0,
    )


def ref_rod_from_rot9(m):
    """Q from skew(Q) = (R - R^T)/(1 + trace R)."""
    t = 1.0 + m[0] + m[4] + m[8]
    return ((m[7] - m[5]) / t, (m[2] - m[6]) / t, (m[3] - m[1]) / t)


def ref_lift_matrix9(e):
    """_lifted._lift_matrix9 with its trace branch read from ref_rod_from_rot9."""
    t = e[0] + e[4] + e[8]
    k = 0
    if e[4] > e[0]:
        k = 1
    if e[8] > e[4 * k]:
        k = 2
    wk = 1.0 + 2.0 * e[4 * k] - t
    if 1.0 + t >= wk:
        x, y, z = ref_rod_from_rot9(e)
    else:
        w = [0.0, 0.0, 0.0]
        w[k] = wk
        j, l = (k + 1) % 3, (k + 2) % 3
        w[j] = e[3 * j + k] + e[3 * k + j]
        w[l] = e[3 * l + k] + e[3 * k + l]
        d = e[3 * l + j] - e[3 * j + l]
        if abs(d) * sys.float_info.max < wk:
            return (0.0, *_lifted._half_turn_axis(*_lifted._direction(*w)))
        x, y, z = w[0] / d, w[1] / d, w[2] / d
    if not math.isfinite(x + y + z):
        _lifted._require_finite(x, y, z)
    return 1.0, x, y, z


def ref_matmul_comp(a, b):
    out = []
    for i in (0, 3, 6):
        for j in (0, 1, 2):
            parts = []
            for k in (0, 1, 2):
                p, e = two_prod(a[i + k], b[3 * k + j])
                parts.append(p)
                parts.append(e)
            out.append(math.fsum(parts))
    return tuple(out)


def ref_inverse_residuals9(q, m):
    """The explicit-inverse check as two general compensated products, as
    it was formed before its kernel: the largest |entry - delta| of
    (1 - Qx) M and of M (1 - Qx), nan where an entry is nan."""
    x, y, z = q
    # 1 - (Qx), each off-diagonal entry formed as 0.0 minus that of (Qx)
    one_minus_k = (1.0, 0.0 - -z, 0.0 - y, 0.0 - z, 1.0, 0.0 - -x, 0.0 - -y, 0.0 - x, 1.0)
    products = ref_matmul_comp(one_minus_k, m), ref_matmul_comp(m, one_minus_k)
    out = []
    for product in products:
        d = [abs(v - (1.0 if i % 4 == 0 else 0.0)) for i, v in enumerate(product)]
        out.append(math.nan if any(map(math.isnan, d)) else max(d))
    return tuple(out)


def ref_cayley_inv9(q):
    x, y, z = q
    den = den_dd(x, y, z)
    qv = (x, y, z)
    k = ref_skew9(qv)
    out = []
    for i in range(3):
        for j in range(3):
            num = two_prod(qv[i], qv[j])
            if i == j:
                num = dd_add_d(num, 1.0)
            else:
                num = dd_add_d(num, k[3 * i + j])
            r = dd_div(num, den)
            out.append(r[0] + r[1])
    return tuple(out)


def ref_rot_from_rod9(q):
    """The Rodrigues-matrix kernel as written before it formed each repeated
    product once."""
    x, y, z = q
    c = 2.0 / (1.0 + (x * x + y * y + z * z))
    return (
        1.0 - c * (y * y + z * z),
        c * (x * y - z),
        c * (x * z + y),
        c * (x * y + z),
        1.0 - c * (x * x + z * z),
        c * (y * z - x),
        c * (x * z - y),
        c * (y * z + x),
        1.0 - c * (x * x + y * y),
    )


def ref_euler_rodrigues9(n, theta):
    """The Euler-Rodrigues kernel as written before it formed each repeated
    product once."""
    x, y, z = n
    c = math.cos(theta)
    s = math.sin(theta)
    cc = 1.0 - c
    return (
        c + cc * x * x,
        cc * x * y - s * z,
        cc * x * z + s * y,
        cc * x * y + s * z,
        c + cc * y * y,
        cc * y * z - s * x,
        cc * x * z - s * y,
        cc * y * z + s * x,
        c + cc * z * z,
    )


def ref_rot_residuals9(m):
    g = ref_matmul9(ref_transpose9(m), m)
    r = max(
        abs(g[0] - 1.0),
        abs(g[4] - 1.0),
        abs(g[8] - 1.0),
        abs(g[1]),
        abs(g[2]),
        abs(g[3]),
        abs(g[5]),
        abs(g[6]),
        abs(g[7]),
    )
    det = (
        m[0] * (m[4] * m[8] - m[5] * m[7])
        - m[1] * (m[3] * m[8] - m[5] * m[6])
        + m[2] * (m[3] * m[7] - m[4] * m[6])
    )
    return r, abs(det - 1.0)


# ------------------------------------------------------- the composition law


def ref_compose_num_den(q2, q1):
    """Numerator Q1 + Q2 + Q2 x Q1 and denominator 1 - Q2.Q1 of the composition law."""
    cx, cy, cz = cross(q2, q1)
    num = (q1[0] + q2[0] + cx, q1[1] + q2[1] + cy, q1[2] + q2[2] + cz)
    return num, 1.0 - dot(q2, q1)


def ref_lambda(q2, q1):
    """1 - Q2.Q1, with the dot product taken again from Q2 and Q1 divided by
    their largest components where it overflows, and multiplied back."""
    d = dot(q2, q1)
    if not math.isfinite(d):
        m2, m1 = max(map(abs, q2)), max(map(abs, q1))
        d = m2 * (m1 * dot([c / m2 for c in q2], [c / m1 for c in q1]))
    return 1.0 - d


def ref_law_residual(q3, q2, q1, a, lam, f1, f2):
    """|lam (a + Q3 x a) - (a + Q1 x a + Q2 x a + Q2 x (Q1 x a))|, each side
    taken divided by f1 f2 from Q1 / f1 and Q2 / f2, and multiplied back."""
    q1 = [c / f1 for c in q1]
    q2 = [c / f2 for c in q2]
    lam = lam / f1 / f2
    lhs = cross(q3, a)
    lhs = [lam * (a[i] + lhs[i]) for i in range(3)]
    c1 = cross(q1, a)
    c2 = cross(q2, a)
    c21 = cross(q2, c1)
    rhs = [a[i] / f1 / f2 + c1[i] / f2 + c2[i] / f1 + c21[i] for i in range(3)]
    return norm([lhs[i] - rhs[i] for i in range(3)]) * f1 * f2


def ref_composition_diagnostics(q2t, q1t, at):
    """_lifted._composition_diagnostics with the numerator of
    ref_compose_num_den, lambda of ref_lambda, and the residual of
    ref_law_residual: unscaled, or, where that is not finite but lambda
    is, scaled by the powers of two at or below the largest components."""
    if any(q1t) and abs(dot(at, _lifted._unit(*q1t))) > 1e-9:
        raise NotPerpendicular("a must be perpendicular to Q1")
    s, x, y, z = _lifted._compose_lifted(1.0, *q2t, 1.0, *q1t)
    if not s:
        raise DegenerateComposition("composition is a half-turn; lambda residual undefined")
    num = ref_compose_num_den(q2t, q1t)[0]
    lam = ref_lambda(q2t, q1t)
    residual = ref_law_residual((x, y, z), q2t, q1t, at, lam, 1.0, 1.0)
    if not math.isfinite(residual) and math.isfinite(lam):
        f1, f2 = (2.0 ** (math.frexp(max(map(abs, q)))[1] - 1) for q in (q1t, q2t))
        residual = ref_law_residual((x, y, z), q2t, q1t, at, lam, f1, f2)
    if not math.isfinite(num[0] + num[1] + num[2]):
        _lifted._require_finite(*num)
    return num, lam, residual


def ref_compose_chain(rotations):
    """The fold as the command line ran it before its regular step was
    written out in _compose_chain: per step, _lambda where both operands are
    regular, else None, then _compose_lifted; the reference that
    _compose_chain must match."""
    s1, x1, y1, z1 = rotations[0]
    lams = []
    for s2, x2, y2, z2 in rotations[1:]:
        lams.append(_lambda(x2, y2, z2, x1, y1, z1) if s1 and s2 else None)
        s1, x1, y1, z1 = _compose_lifted(s2, x2, y2, z2, s1, x1, y1, z1)
    return lams, (s1, x1, y1, z1)


def ref_inline_step_accepts(q2, q1):
    """Whether the inline step of _compose_chain and _integrate kept the
    product of the regular (1, Q2) and (1, Q1) before it tested the norm
    identity: a finite sum of lambda, v and the scale 1 + ||Q1|| ||Q2||,
    then |lambda| > DEGENERACY_REL_TOL * scale, then a finite sum of
    v/lambda."""
    x2, y2, z2 = q2
    x1, y1, z1 = q1
    lam = 1.0 - (x2 * x1 + y2 * y1 + z2 * z1)
    vx = x1 + x2 + (y2 * z1 - z2 * y1)
    vy = y1 + y2 + (z2 * x1 - x2 * z1)
    vz = z1 + z2 + (x2 * y1 - y2 * x1)
    scale = 1.0 + math.hypot(x1, y1, z1) * math.hypot(x2, y2, z2)
    return (
        math.isfinite(lam + vx + vy + vz + scale)
        and abs(lam) > DEGENERACY_REL_TOL * scale
        and math.isfinite(vx / lam + vy / lam + vz / lam)
    )


def ref_integrate(times, rates, scheme, start, substeps):
    """The integrator as it was before the step from a (1, Q) state was
    written out in its loop: _increment then _compose_lifted on every step,
    the reference that _integrate must match."""
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    for t0, t1 in zip(times, times[1:]):
        if not t1 > t0:
            raise NonMonotonicTime(f"sample times must increase: {t0} -> {t1}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    exact = scheme == EXACT_STEP
    s, x, y, z = (1.0, 0.0, 0.0, 0.0) if start is None else start
    rows = [(times[0], s, x, y, z)]
    for (t0, t1), ((ax, ay, az), (bx, by, bz)) in zip(zip(times, times[1:]), zip(rates, rates[1:])):
        dt = (t1 - t0) / substeps
        for i in range(substeps if dt > 0.0 else 0):
            u = (t0 + (i + 0.5) * dt - t0) / (t1 - t0)
            w = [ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)]
            for k, (a, b) in enumerate(zip((ax, ay, az), (bx, by, bz))):
                if not math.isfinite(w[k]):  # b - a overflowed
                    w[k] = (1.0 - u) * a + u * b
            _require_finite(*w)
            wx, wy, wz = w
            qx, qy, qz = _increment(wx, wy, wz, dt, exact)
            s, x, y, z = _compose_lifted(1.0, qx, qy, qz, s, x, y, z)
        rows.append((t1, s, x, y, z))
    return rows


# ---------------------------------------------------- check's sample path
#
# The float-core routines as they were before their 3-vector arithmetic was
# written out: built on the 3-vector products above, with _unit always
# through _scaled_norm.  The routines must match them bit for bit,
# exception class and message included.


def ref_unit(x, y, z):
    n, f = _scaled_norm(x, y, z)
    return x * f / n, y * f / n, z * f / n


def ref_direction(x, y, z):
    """_direction as its checks came first: finite, then nonzero, then _unit."""
    if not math.isfinite(x + y + z):
        _require_finite(x, y, z)
    if not (x or y or z):
        raise ValueError("cannot normalize a (near-)zero vector")
    return ref_unit(x, y, z)


def ref_cross(u, v):
    w = cross(u, v)
    if not math.isfinite(w[0] + w[1] + w[2]):
        _require_finite(*w)
    return w


def ref_half_angle_point(q, a):
    if not any(q):
        raise ValueError("half_angle_point needs a nonzero rotation")
    if abs(dot(a, ref_unit(*q))) > 1e-9:
        raise NotPerpendicular("a must lie in the plane perpendicular to Q")
    t = cross(q, a)
    return ref_direction(a[0] + t[0], a[1] + t[1], a[2] + t[2])


def ref_require_triangle(a, b, c):
    ab = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    ac = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    if not math.isfinite(ab[0] + ab[1] + ab[2] + ac[0] + ac[1] + ac[2]):
        _require_finite(*ab, *ac)
    if norm(ref_cross(ab, ac)) <= 1e-9:
        raise ValueError("degenerate spherical triangle: vertices are collinear")


def ref_donkin_ab(q1, q2):
    if not any(q1) or not any(q2):
        raise ParallelAxes("both rotations must be nonzero")
    axis1 = ref_unit(*q1)
    axes_cross = cross(ref_unit(*q2), axis1)
    if norm(axes_cross) <= 1e-9:
        raise ParallelAxes("rotation axes are parallel; no spherical triangle exists")
    c = cross(q2, q1)
    if not 0.0 < dot(c, c) < math.inf:
        c = axes_cross
    b = ref_unit(*c)
    half1 = math.atan(norm(q1))
    r = _euler_rodrigues9(axis1, -half1)
    return ref_direction(*mat_vec(r, b)), b


def ref_donkin_triangle(q1, q2):
    a, b = ref_donkin_ab(q1, q2)
    # B is perpendicular to Q2 by construction: C is not tested for it
    t = cross(q2, b)
    cpt = ref_direction(b[0] + t[0], b[1] + t[1], b[2] + t[2])
    ref_require_triangle(a, b, cpt)
    return a, b, cpt


def ref_double_arc_rotation9(u, v):
    c = ref_cross(u, v)
    if norm(c) <= 1e-12:
        return (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    arc = math.atan2(norm(ref_cross(u, v)), u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    return _euler_rodrigues9(ref_unit(*c), 2.0 * arc)


def ref_cayley_residuals(qt, xt):
    rm = _k.rot_from_rod9(qt)
    rx = mat_vec(rm, xt)
    qxx = cross(qt, xt)
    qxrx = cross(qt, rx)
    r1 = norm(
        (
            xt[0] + qxx[0] - (rx[0] - qxrx[0]),
            xt[1] + qxx[1] - (rx[1] - qxrx[1]),
            xt[2] + qxx[2] - (rx[2] - qxrx[2]),
        )
    )
    rx_plus_x = (rx[0] + xt[0], rx[1] + xt[1], rx[2] + xt[2])
    lhs = cross(qt, rx_plus_x)
    r2 = norm((lhs[0] - (rx[0] - xt[0]), lhs[1] - (rx[1] - xt[1]), lhs[2] - (rx[2] - xt[2])))
    return r1, r2


# ------------------------------------------------------------ check's draws


def ref_rand_unit(rng):
    """The unit-vector draw that checks._rand_unit replaced, kept as its
    reference: three calls to gauss(0.0, 1.0), then normalize."""
    while True:
        x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-3:
            return x / n, y / n, z / n


def ref_rand_rodrigues(rng, max_angle):
    return checks._rodrigues(ref_rand_unit(rng), rng.uniform(-max_angle, max_angle))


def ref_rand_pair(rng):
    """checks._rand_pair with the reference draws."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_rand_rodrigues", ref_rand_rodrigues)
        return checks._rand_pair(rng)


# ------------------------------------------------------- the command line


def ref_float(text):
    """float(text) for the number syntax of specs and omega files: float()'s
    own, less the digit-group underscores and non-ASCII characters (digits
    of other scripts, Unicode spaces) that float() also accepts."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def ref_parse_omega_file(path):
    """The omega file reader as it was before blocks of plain lines were
    converted in one pass: every line read on its own, the reference that
    _parse_omega_file must match.  A file that is not UTF-8 is decoded
    whole to place its first bad byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFormatError(f"cannot read omega file: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # with a character after it, the text before the bad byte has
            # as many lines as the bad byte's line number
            line = len(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline=None).readlines())
            raise SpecFormatError(f"{path}:{line}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    times, rates = [], []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise SpecFormatError(f"{path}:{lineno}: expected 't wx wy wz', got {len(parts)} fields")
        try:
            t, wx, wy, wz = map(ref_float, parts)
        except ValueError as exc:
            raise SpecFormatError(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(t + wx + wy + wz):
            _require_finite(wx, wy, wz)
            if not math.isfinite(t):
                raise ValueError("non-finite sample time")
        times.append(t)
        rates.append((wx, wy, wz))
    if len(times) < 2:
        raise SpecFormatError(f"{path}: need at least 2 samples, got {len(times)}")
    return times, rates


def ref_trajectory_lines(rows, digits, matrix_cols):
    """The trajectory table rendered one row at a time, one string per row:
    the renderer the block renderer must match byte for byte."""
    header = "# t qx qy qz" + (" r11 r21 r31 r12 r22 r32\n" if matrix_cols else "\n")
    row = " ".join(["%%.%dg" % digits] * (10 if matrix_cols else 4)) + "\n"
    nan = math.nan
    out = [header]
    for t, s, x, y, z in rows:
        # + 0.0 folds -0.0 as _fmt does
        cols = (t + 0.0, x + 0.0, y + 0.0, z + 0.0) if s else (t + 0.0, nan, nan, nan)
        if matrix_cols:
            e = _rotation9(s, x, y, z)
            cols += (e[0] + 0.0, e[3] + 0.0, e[6] + 0.0, e[1] + 0.0, e[4] + 0.0, e[7] + 0.0)
        out.append(row % cols)
    return out


# ------------------------------------------------ the exact rational oracle
#
# Each function takes floats (or Fractions) and returns Fractions, with no
# rounding anywhere: the values a routine of the paper's algebra would give
# with an unbounded mantissa and exponent.


def exact_dot(a, b) -> Fraction:
    """The exact dot product of two vectors of any equal length."""
    return sum((Fraction(u) * Fraction(v) for u, v in zip(a, b)), Fraction(0))


def exact_product(p2, p1) -> tuple[Fraction, ...]:
    """The exact Euler-parameter product of p2 = (s2, v2) and p1 = (s1, v1),
    the rotation p1 then p2: (s2 s1 - v2.v1, s2 v1 + s1 v2 + v2 x v1).

    For (1, Q2) and (1, Q1) it is (1 - Q2.Q1, Q1 + Q2 + Q2 x Q1), the
    denominator and numerator of the composition law."""
    s2, x2, y2, z2 = map(Fraction, p2)
    s1, x1, y1, z1 = map(Fraction, p1)
    return (
        s2 * s1 - (x2 * x1 + y2 * y1 + z2 * z1),
        s2 * x1 + s1 * x2 + (y2 * z1 - z2 * y1),
        s2 * y1 + s1 * y2 + (z2 * x1 - x2 * z1),
        s2 * z1 + s1 * z2 + (x2 * y1 - y2 * x1),
    )


def exact_matrix(p) -> list[Fraction]:
    """The nine entries, row-major, of the rotation matrix of the nonzero
    Euler parameters p = (s, x, y, z), exactly.

    At s = 1 it is the Euler-Rodrigues matrix of Q = (x, y, z), equal to the
    Cayley rotation 2 (Q Q^T + 1 + Qx)/(1 + Q.Q) - 1; at s = 0, the
    half-turn 2 n n^T - 1 about the unit n."""
    s, x, y, z = map(Fraction, p)
    n = s * s + x * x + y * y + z * z
    return [
        e / n
        for e in (
            s * s + x * x - y * y - z * z, 2 * (x * y - s * z), 2 * (x * z + s * y),
            2 * (x * y + s * z), s * s - x * x + y * y - z * z, 2 * (y * z - s * x),
            2 * (x * z - s * y), 2 * (y * z + s * x), s * s - x * x - y * y + z * z,
        )
    ]


def exact_so3_residual(e) -> Fraction:
    """The exact larger of the two residuals _lifted._checked9 tests, the
    largest |R^T R - 1| entry and |det R - 1|, of the nine floats e."""
    m = [[Fraction(c) for c in e[i : i + 3]] for i in (0, 3, 6)]
    ortho = max(
        abs(sum(m[k][i] * m[k][j] for k in range(3)) - (i == j)) for i in range(3) for j in range(3)
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return max(ortho, abs(det - 1))
