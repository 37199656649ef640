"""The three-dimensional Cayley transform and its explicit inverse.

R = (1 - Qx)^-1 (1 + Qx) parametrizes every rotation without eigenvalue -1
by the skew-symmetric operator (Qx) of a Rodrigues vector Q, and the
reciprocal map recovers (Qx) = (R - 1)(R + 1)^-1.  The inverse of (1 - Qx)
always exists and is written in closed form, so no linear solve appears
anywhere here; since 1 + Qx = 2 1 - (1 - Qx), R is 2 (1 - Qx)^-1 - 1, and
no matrix product is formed either.  The functions here wrap the float
routines of ``rodvec._lifted`` (``_cayley_rot9``, ``_cayley_inv9``,
``_cayley_residuals`` and the matrix-to-Rodrigues extraction
``_lift_matrix9``), which run on the components of Q and the nine floats
of a matrix.
"""

from rodvec._lifted import _cayley_inv9, _cayley_residuals, _cayley_rot9, _lift_matrix9
from rodvec.core import (
    HalfTurn,
    Matrix3,
    RodriguesVector,
    RotationMatrix,
    Vec3,
    _from_lifted,
    _matrix3,
    _rotation_matrix,
)

__all__ = [
    "cayley_rotation",
    "cayley_inverse_explicit",
    "rodrigues_from_matrix",
    "cayley_residuals",
]


def cayley_rotation(q: RodriguesVector) -> RotationMatrix:
    """R = (1 - Qx)^-1 (1 + Qx), evaluated as 2 (1 - Qx)^-1 - 1.

    1 + Qx = 2 1 - (1 - Qx), so R is twice the explicit inverse of
    :func:`cayley_inverse_explicit` less the identity, for every Q.  Each
    entry is within 2**-52 of the exact Cayley matrix.  This is a route to
    the rotation matrix independent of
    :func:`rodvec.core.matrix_from_rodrigues`; the two agree to ~1e-15
    elementwise, which is itself one of the package's standing checks.
    """
    return _rotation_matrix(_cayley_rot9(*q.as_tuple()))


def cayley_inverse_explicit(q: RodriguesVector) -> Matrix3:
    """(1 - Qx)^-1 = 1 + ((Qx) + (Qx)^2)/(1 + Q.Q).

    Returned as a plain matrix (it is not a rotation).  Multiplying by
    (1 - Qx) on either side reproduces the identity to ~1e-15.  Where the
    double-double evaluation overflows (||Q|| beyond about 1e150), the
    same closed form is evaluated on Q scaled by its largest component.
    """
    return _matrix3(_cayley_inv9(*q.as_tuple()))


def rodrigues_from_matrix(r: RotationMatrix | Matrix3) -> RodriguesVector | HalfTurn:
    """Rodrigues vector of R, or the half-turn when R has eigenvalue -1.

    Shepperd's rule (Shepperd 1978) picks the largest of 1 + trace R and
    1 + 2 R_kk - trace R, four times the squares of the Euler parameters,
    so no threshold is needed.  Either way Q is one quotient w/d.  When
    1 + trace R is the largest, w = unskew(R - R^T) and d = 1 + trace R.
    Otherwise, for the k of largest R_kk and (j, l) the next two indices
    in cyclic order, w_k = 1 + 2 R_kk - trace R, w_j = R_jk + R_kj,
    w_l = R_lk + R_kl and d = R_lj - R_jl; when d is 0, or so small that
    w/d overflows, R is the :class:`HalfTurn` about w.

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
