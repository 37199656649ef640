"""The three-dimensional Cayley transform and its explicit inverse.

R = (1 - Qx)^-1 (1 + Qx) parametrizes every rotation without eigenvalue -1
by the skew-symmetric operator (Qx) of a Rodrigues vector Q, and the
reciprocal map recovers (Qx) = (R - 1)(R + 1)^-1.  The inverse of (1 - Qx)
always exists and is written in closed form, so no linear solve appears
anywhere here.  Matrix-to-Rodrigues extraction runs on the nine floats
of a checked matrix in ``rodvec._lifted._lift_matrix9``.
"""

import math

from rodvec._backend import kernels as _k
from rodvec._lifted import _checked9, _lift_matrix9, _require_finite
from rodvec.composition import _from_lifted
from rodvec.core import (
    HalfTurn,
    Matrix3,
    RodriguesVector,
    RotationMatrix,
    Vec3,
    _matrix3,
    _rotation_matrix,
)

__all__ = [
    "cayley_rotation",
    "cayley_inverse_explicit",
    "rodrigues_from_matrix",
    "cayley_residuals",
]

#: Largest |component| of Q for which 1 + Q.Q fits in double-double, the
#: precision of the product route in ``cayley_rot9``
_DD_LIMIT = 2.0**53


def cayley_rotation(q: RodriguesVector) -> RotationMatrix:
    """R = (1 - Qx)^-1 (1 + Qx), the inverse taken from its explicit form.

    This is a route to the rotation matrix independent of
    :func:`rodvec.core.matrix_from_rodrigues`; the two agree to ~1e-15
    elementwise, which is itself one of the package's standing checks.

    The product cancels terms of size ||Q||^3 down to ||Q||^2, so it loses
    accuracy once 1 + Q.Q no longer fits in double-double, and overflows
    from ||Q|| ~ 6e102.  When a component of Q exceeds 2**53 (rotations
    within 2e-16 rad of pi), R is taken as 2 (1 - Qx)^-1 - 1, the same
    product rearranged, with the inverse evaluated on Q scaled by its
    largest component.
    """
    return _rotation_matrix(_cayley_rot9(*q.as_tuple()))


def _cayley_rot9(x: float, y: float, z: float):
    """cayley_rotation on the components of Q: its checked nine floats."""
    if max(abs(x), abs(y), abs(z)) > _DD_LIMIT:
        m = [2.0 * v for v in _inverse_scaled(x, y, z)]
        for i in (0, 4, 8):
            m[i] -= 1.0
        return _checked9(tuple(m))
    return _checked9(_k.cayley_rot9((x, y, z)))


def cayley_inverse_explicit(q: RodriguesVector) -> Matrix3:
    """(1 - Qx)^-1 = 1 + ((Qx) + (Qx)^2)/(1 + Q.Q).

    Returned as a plain matrix (it is not a rotation).  Multiplying by
    (1 - Qx) on either side reproduces the identity to ~1e-15.  Where the
    double-double evaluation overflows (||Q|| beyond about 1e150), the
    same closed form is evaluated on Q scaled by its largest component.
    """
    return _matrix3(_cayley_inv9(*q.as_tuple()))


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


def rodrigues_from_matrix(r: RotationMatrix | Matrix3) -> RodriguesVector | HalfTurn:
    """Rodrigues vector of R, or the half-turn when R has eigenvalue -1.

    Shepperd's rule (Shepperd 1978) picks the largest of 1 + trace R and
    1 + 2 R_kk - trace R, four times the squares of the Euler parameters,
    so no threshold is needed.  When 1 + trace R is the largest, Q is read
    off as unskew(R - R^T)/(1 + trace R).  Otherwise, for the k of largest
    R_kk and (j, l) the next two indices in cyclic order, Q = w/d with
    w_k = 1 + 2 R_kk - trace R, w_j = R_jk + R_kj, w_l = R_lk + R_kl and
    d = R_lj - R_jl; when d is 0, or so small that w/d overflows, R is
    the :class:`HalfTurn` about w.

    Raises:
        NotARotation: if a plain matrix is passed and fails the SO(3) checks.
    """
    if isinstance(r, Matrix3):
        r = RotationMatrix(r)
    return _from_lifted(*_lift_matrix9(r.elements))


def cayley_residuals(q: RodriguesVector, x: Vec3) -> tuple[float, float]:
    """Residual norms of the two bridge identities between Q and R.

    r1 = ||(1 + Qx) x - (1 - Qx) R x||   (tangents from x and Rx meet)
    r2 = ||((Qx)(R + 1) - (R - 1)) x||   (reciprocal-map identity)

    Both vanish identically; the returned values are floating-point noise,
    bounded by ~1e-15 * (1 + ||Q||) * ||x|| in practice.
    """
    return _cayley_residuals(q.as_tuple(), x.as_tuple())


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
