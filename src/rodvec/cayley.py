"""The three-dimensional Cayley transform and its explicit inverse.

R = (1 - Qx)^-1 (1 + Qx) parametrizes every rotation without eigenvalue -1
by the skew-symmetric operator (Qx) of a Rodrigues vector Q, and the
reciprocal map recovers (Qx) = (R - 1)(R + 1)^-1.  The inverse of (1 - Qx)
always exists and is written in closed form, so no linear solve appears
anywhere here.
"""

from __future__ import annotations

import sys

from rodvec._backend import kernels as _k
from rodvec.core import (
    HalfTurn,
    Matrix3,
    RodriguesVector,
    RotationMatrix,
    UnitVector,
    Vec3,
)

__all__ = [
    "cayley_rotation",
    "cayley_inverse_explicit",
    "rodrigues_from_matrix",
    "cayley_residuals",
]


def cayley_rotation(q: RodriguesVector) -> RotationMatrix:
    """R = (1 - Qx)^-1 (1 + Qx), the inverse taken from its explicit form.

    This is a route to the rotation matrix independent of
    :func:`rodvec.core.matrix_from_rodrigues`; the two agree to ~1e-15
    elementwise, which is itself one of the package's standing checks.
    """
    return RotationMatrix(Matrix3(_k.cayley_rot9(q.as_tuple())))


def cayley_inverse_explicit(q: RodriguesVector) -> Matrix3:
    """(1 - Qx)^-1 = 1 + ((Qx) + (Qx)^2)/(1 + Q.Q).

    Returned as a plain matrix (it is not a rotation).  Multiplying by
    (1 - Qx) on either side reproduces the identity to ~1e-15.
    """
    return Matrix3(_k.cayley_inv9(q.as_tuple()))


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
    e = r.elements
    t = e[0] + e[4] + e[8]
    k = max((0, 1, 2), key=lambda i: e[4 * i])
    w = [0.0, 0.0, 0.0]
    w[k] = 1.0 + 2.0 * e[4 * k] - t
    if 1.0 + t >= w[k]:
        return RodriguesVector(*_k.rod_from_rot9(e))
    j, l = (k + 1) % 3, (k + 2) % 3
    w[j] = e[3 * j + k] + e[3 * k + j]
    w[l] = e[3 * l + k] + e[3 * k + l]
    d = e[3 * l + j] - e[3 * j + l]
    if abs(d) * sys.float_info.max < w[k]:  # d = 0, or w/d overflows
        return HalfTurn(UnitVector.from_vec(Vec3(*w)))
    return RodriguesVector(w[0] / d, w[1] / d, w[2] / d)


def cayley_residuals(q: RodriguesVector, x: Vec3) -> tuple[float, float]:
    """Residual norms of the two bridge identities between Q and R.

    r1 = ||(1 + Qx) x - (1 - Qx) R x||   (tangents from x and Rx meet)
    r2 = ||((Qx)(R + 1) - (R - 1)) x||   (reciprocal-map identity)

    Both vanish identically; the returned values are floating-point noise,
    bounded by ~1e-15 * (1 + ||Q||) * ||x|| in practice.
    """
    qt = q.as_tuple()
    xt = x.as_tuple()
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
