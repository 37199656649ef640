"""Pure-Python scalar kernels.

Vectors are 3-tuples of floats, matrices 9-tuples in row-major order.
This module is the reference and the fallback backend.  ``_kernels_c.c``
implements the same functions in C, each performing the same IEEE
operations in the same order, with no contraction into fused multiply-adds,
so that both backends give the same bits; a change here is made there too.

The Cayley-route kernels (``cayley_rot9``, ``cayley_inv9``) and
``matmul_comp`` use compensated (double-double) arithmetic: the explicit
inverse times ``(1 + Qx)`` cancels terms of size ~||Q|| down to entries of
size 1, so naive evaluation loses about ||Q||*eps of absolute accuracy.
Compensation keeps the product route meaningful as a cross-check of the
direct rotation formula at large ||Q||.

The double-double steps are written out inline rather than composed from
helper calls, since in CPython the calls, not the flops, would dominate.
Each operand is Dekker-split once per call: a = ah + al with ah holding
at most 26 significant bits, so p = a*b and its exact error
((ah*bh - p) + ah*bl + al*bh) + al*bl come from plain float products.
"""

import math

BACKEND = "python"

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm3(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def matvec(m, v):
    x, y, z = v
    return (
        m[0] * x + m[1] * y + m[2] * z,
        m[3] * x + m[4] * y + m[5] * z,
        m[6] * x + m[7] * y + m[8] * z,
    )


def matmul(a, b):
    return (
        a[0] * b[0] + a[1] * b[3] + a[2] * b[6],
        a[0] * b[1] + a[1] * b[4] + a[2] * b[7],
        a[0] * b[2] + a[1] * b[5] + a[2] * b[8],
        a[3] * b[0] + a[4] * b[3] + a[5] * b[6],
        a[3] * b[1] + a[4] * b[4] + a[5] * b[7],
        a[3] * b[2] + a[4] * b[5] + a[5] * b[8],
        a[6] * b[0] + a[7] * b[3] + a[8] * b[6],
        a[6] * b[1] + a[7] * b[4] + a[8] * b[7],
        a[6] * b[2] + a[7] * b[5] + a[8] * b[8],
    )


def matmul_comp(a, b):
    """Matrix product with exact per-entry accumulation (for residual checks).

    Each entry is the correctly rounded fsum of the three exact products
    p + e, with e the error of p = u*c from the Dekker splits of u and c.
    """
    split = []
    for u, v, w in (a[0:3], a[3:6], a[6:9], b[0::3], b[1::3], b[2::3]):
        t = _SPLIT * u
        uh = t - (t - u)
        t = _SPLIT * v
        vh = t - (t - v)
        t = _SPLIT * w
        wh = t - (t - w)
        split.append((u, uh, u - uh, v, vh, v - vh, w, wh, w - wh))
    out = []
    for u, uh, ul, v, vh, vl, w, wh, wl in split[:3]:  # rows of a
        for c, ch, cl, d, dh, dl, e, eh, el in split[3:]:  # columns of b
            p = u * c
            q = v * d
            r = w * e
            out.append(
                math.fsum(
                    (
                        p,
                        ((uh * ch - p) + uh * cl + ul * ch) + ul * cl,
                        q,
                        ((vh * dh - q) + vh * dl + vl * dh) + vl * dl,
                        r,
                        ((wh * eh - r) + wh * el + wl * eh) + wl * el,
                    )
                )
            )
    return tuple(out)


def euler_rodrigues9(n, theta):
    """cos(t)*1 + sin(t)*(n x) + (1 - cos(t))*n n^T for a unit axis n."""
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


def rot_from_rod9(q):
    """1 + 2*((Qx) + (Qx)^2)/(1 + Q.Q), diagonal in cancellation-free form."""
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


def half_turn9(n):
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


def cayley_inv9(q):
    """Explicit inverse of (1 - Qx): 1 + ((Qx) + (Qx)^2)/(1 + Q.Q).

    Entry (i, j) is (q_i q_j + c)/(1 + Q.Q) in double-double, with c = 1 on
    the diagonal and the (i, j) entry of (Qx) off it.
    """
    x, y, z = q
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    t = _SPLIT * z
    zh = t - (t - z)
    zl = z - zh
    # s = x*x + y*y + z*z: three exact products, summed in double-double
    p = x * x
    e = ((xh * xh - p) + xh * xl + xl * xh) + xl * xl
    c = y * y
    f = ((yh * yh - c) + yh * yl + yl * yh) + yl * yl
    s = p + c
    t = s - p
    g = (p - (s - t)) + (c - t)
    g += e + f
    p = s + g
    e = g - (p - s)
    c = z * z
    f = ((zh * zh - c) + zh * zl + zl * zh) + zl * zl
    s = p + c
    t = s - p
    g = (p - (s - t)) + (c - t)
    g += e + f
    p = s + g
    e = g - (p - s)
    # den = (d0, d1) = s + 1, and the split of d0
    s = p + 1.0
    t = s - p
    g = (p - (s - t)) + (1.0 - t)
    g += e
    d0 = s + g
    d1 = g - (d0 - s)
    t = _SPLIT * d0
    dh = t - (t - d0)
    dl = d0 - dh

    qs = ((x, xh, xl), (y, yh, yl), (z, zh, zl))
    k = (1.0, -z, y, z, 1.0, -x, -y, x, 1.0)
    out = []
    for a, ah, al in qs:
        for b, bh, bl in qs:
            # numerator (n0, n1) = a*b + c
            c = k[len(out)]
            p = a * b
            e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
            s = p + c
            t = s - p
            g = (p - (s - t)) + (c - t)
            g += e
            n0 = s + g
            n1 = g - (n0 - s)
            # quotient q1 + q2 + q3 of (n0, n1)/den; each q removes
            # q*den from the remainder
            q1 = n0 / d0
            c = -q1
            t = _SPLIT * c
            ch = t - (t - c)
            cl = c - ch
            p = d0 * c
            e = ((dh * ch - p) + dh * cl + dl * ch) + dl * cl
            e += d1 * c
            s = p + e
            e = e - (s - p)
            p = s
            s = n0 + p
            t = s - n0
            g = (n0 - (s - t)) + (p - t)
            g += n1 + e
            n0 = s + g
            n1 = g - (n0 - s)
            q2 = n0 / d0
            c = -q2
            t = _SPLIT * c
            ch = t - (t - c)
            cl = c - ch
            p = d0 * c
            e = ((dh * ch - p) + dh * cl + dl * ch) + dl * cl
            e += d1 * c
            s = p + e
            e = e - (s - p)
            p = s
            s = n0 + p
            t = s - n0
            g = (n0 - (s - t)) + (p - t)
            g += n1 + e
            n0 = s + g
            q3 = n0 / d0
            s = q1 + q2
            e = q2 - (s - q1)
            n0 = s + q3
            t = n0 - s
            g = (s - (n0 - t)) + (q3 - t)
            g += e
            s = n0 + g
            out.append(s + (g - (s - n0)))
    return tuple(out)


def cayley_rot9(q):
    """(1 - Qx)^-1 (1 + Qx) with the inverse taken from its explicit form.

    Evaluated as (N @ B)/(1 + Q.Q) with N = (1+Q.Q)*1 + (Qx) + (Qx)^2 and
    B = 1 + (Qx), all in double-double arithmetic.  Row i of N is formed
    just before row i of the product, each N entry split once.
    """
    x, y, z = q
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    t = _SPLIT * z
    zh = t - (t - z)
    zl = z - zh
    # s = x*x + y*y + z*z: three exact products, summed in double-double
    p = x * x
    e = ((xh * xh - p) + xh * xl + xl * xh) + xl * xl
    c = y * y
    f = ((yh * yh - c) + yh * yl + yl * yh) + yl * yl
    s = p + c
    t = s - p
    g = (p - (s - t)) + (c - t)
    g += e + f
    p = s + g
    e = g - (p - s)
    c = z * z
    f = ((zh * zh - c) + zh * zl + zl * zh) + zl * zl
    s = p + c
    t = s - p
    g = (p - (s - t)) + (c - t)
    g += e + f
    p = s + g
    e = g - (p - s)
    # -s, then den = (d0, d1) = s + 1 and the split of d0
    m0 = -p
    m1 = -e
    s = p + 1.0
    t = s - p
    g = (p - (s - t)) + (1.0 - t)
    g += e
    d0 = s + g
    d1 = g - (d0 - s)
    t = _SPLIT * d0
    dh = t - (t - d0)
    dl = d0 - dh

    # B = 1 + (Qx) by columns, each entry with its split
    mx = -x
    my = -y
    mz = -z
    t = _SPLIT * mx
    mxh = t - (t - mx)
    t = _SPLIT * my
    myh = t - (t - my)
    t = _SPLIT * mz
    mzh = t - (t - mz)
    one = (1.0, 1.0, 0.0)  # 1.0 splits exactly into 1.0 + 0.0
    cols = (
        (one, (z, zh, zl), (my, myh, my - myh)),
        ((mz, mzh, mz - mzh), one, (x, xh, xl)),
        ((y, yh, yl), (mx, mxh, mx - mxh), one),
    )
    qs = ((x, xh, xl), (y, yh, yl), (z, zh, zl))
    k = (0.0, mz, y, z, 0.0, mx, my, x, 0.0)
    out = []
    for i, (a, ah, al) in enumerate(qs):
        row = []
        for j, (b, bh, bl) in enumerate(qs):
            # N_ij = a*b - s + den on the diagonal, a*b + (Qx)_ij off it
            p = a * b
            e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
            if i == j:
                s = p + m0
                t = s - p
                g = (p - (s - t)) + (m0 - t)
                g += e + m1
                p = s + g
                e = g - (p - s)
                s = p + d0
                t = s - p
                g = (p - (s - t)) + (d0 - t)
                g += e + d1
            else:
                c = k[3 * i + j]
                s = p + c
                t = s - p
                g = (p - (s - t)) + (c - t)
                g += e
            n0 = s + g
            t = _SPLIT * n0
            nh = t - (t - n0)
            row.append((n0, g - (n0 - s), nh, n0 - nh))
        for col in cols:
            # (n0, n1) = sum of N_ik * B_kj over the nonzero B_kj
            n0 = 0.0
            n1 = 0.0
            for (u, u1, uh, ul), (b, bh, bl) in zip(row, col):
                if b != 0.0:
                    p = u * b
                    e = ((uh * bh - p) + uh * bl + ul * bh) + ul * bl
                    e += u1 * b
                    s = p + e
                    e = e - (s - p)
                    p = s
                    s = n0 + p
                    t = s - n0
                    g = (n0 - (s - t)) + (p - t)
                    g += n1 + e
                    n0 = s + g
                    n1 = g - (n0 - s)
            # quotient q1 + q2 + q3 of (n0, n1)/den, as in cayley_inv9
            q1 = n0 / d0
            c = -q1
            t = _SPLIT * c
            ch = t - (t - c)
            cl = c - ch
            p = d0 * c
            e = ((dh * ch - p) + dh * cl + dl * ch) + dl * cl
            e += d1 * c
            s = p + e
            e = e - (s - p)
            p = s
            s = n0 + p
            t = s - n0
            g = (n0 - (s - t)) + (p - t)
            g += n1 + e
            n0 = s + g
            n1 = g - (n0 - s)
            q2 = n0 / d0
            c = -q2
            t = _SPLIT * c
            ch = t - (t - c)
            cl = c - ch
            p = d0 * c
            e = ((dh * ch - p) + dh * cl + dl * ch) + dl * cl
            e += d1 * c
            s = p + e
            e = e - (s - p)
            p = s
            s = n0 + p
            t = s - n0
            g = (n0 - (s - t)) + (p - t)
            g += n1 + e
            n0 = s + g
            q3 = n0 / d0
            s = q1 + q2
            e = q2 - (s - q1)
            n0 = s + q3
            t = n0 - s
            g = (s - (n0 - t)) + (q3 - t)
            g += e
            s = n0 + g
            out.append(s + (g - (s - n0)))
    return tuple(out)


def rod_from_rot9(m):
    """Rodrigues vector of a rotation matrix away from the angle-pi pole.

    Uses skew(Q) = (R - R^T)/(1 + trace R); the caller is responsible for
    routing trace(R) <= -1 + eps to the half-turn branch.
    """
    t = 1.0 + m[0] + m[4] + m[8]
    return ((m[7] - m[5]) / t, (m[2] - m[6]) / t, (m[3] - m[1]) / t)


def rot_residuals9(m):
    """(max |R^T R - 1| entry, |det R - 1|) for validity checks.

    R^T R is symmetric, and its (i, j) and (j, i) entries are the same
    products summed in the same order, so only six entries are formed.
    """
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    r = max(
        abs(m0 * m0 + m3 * m3 + m6 * m6 - 1.0),
        abs(m1 * m1 + m4 * m4 + m7 * m7 - 1.0),
        abs(m2 * m2 + m5 * m5 + m8 * m8 - 1.0),
        abs(m0 * m1 + m3 * m4 + m6 * m7),
        abs(m0 * m2 + m3 * m5 + m6 * m8),
        abs(m1 * m2 + m4 * m5 + m7 * m8),
    )
    det = m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6) + m2 * (m3 * m7 - m4 * m6)
    return r, abs(det - 1.0)
