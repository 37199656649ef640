"""Pure-Python scalar kernels.

Vectors are 3-tuples of floats, matrices 9-tuples in row-major order, and
each argument must have exactly that many items: every kernel unpacks its
arguments, so any other length raises ValueError.  This module is the
reference and the fallback backend.  ``_kernels_c.c`` implements the same
five matrix kernels in C, each performing the same IEEE operations in the
same order, with no contraction into fused multiply-adds, so that both
backends give the same bits; a change here is made there too.  A formula
is a kernel only where its compiled twin pays for itself; the callers
write out the rest, such as every 3-vector dot, cross, norm and
matrix-vector product, the plain 3x3 matrix product, the half-turn
matrix 2 n n^T - 1 and the quotient of Shepperd's rule.

The explicit Cayley inverse ``cayley_inv9`` and ``matmul_comp`` use
compensated (double-double) arithmetic.  Each entry of (1 - Qx)^-1 is
(q_i q_j + c)/(1 + Q.Q) with numerator and denominator in double-double,
so it is accurate to about an ulp; the Cayley rotation 2 (1 - Qx)^-1 - 1 is
formed from it, and so stays a cross-check of the direct rotation formula
at large ||Q||.  An entry's quotient stops after two terms where the
third cannot change the rounded entry, with the bits of the three-term
quotient (``cayley_inv9`` gives the argument).  ``matmul_comp`` gives the
residual products of the explicit-inverse check their exact sums.

The double-double steps are written out inline rather than composed from
helper calls, since in CPython the calls, not the flops, would dominate.
Each operand is Dekker-split once per call: a = ah + al with ah holding
at most 26 significant bits, so p = a*b and its exact error
((ah*bh - p) + ah*bl + al*bh) + al*bl come from plain float products.

Each distinct product is formed once per call, by the expression each of
its uses would evaluate, so sharing it changes no bit: ``cayley_inv9``'s
six exact products q_i q_j serve both entries (i, j) and (j, i), and its
squares both 1 + Q.Q and the diagonal; ``matmul_comp`` splits each of its
18 operands once and writes its nine entries out; ``rot_from_rod9`` and
``euler_rodrigues9`` form each repeated product once.

``rot_residuals9`` takes the largest of its six entries with the C
kernel's if-chain, each later entry replacing the running one only if it
compares greater: that is what ``max()`` does, NaN included, so the bits
are the same without ``max()``'s argument tuple.
"""

import math

BACKEND = "python"

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

#: cayley_inv9 returns an entry after two quotient terms when hi +- m round
#: to hi, with m = |lo| + _Q3_BOUND |q2| and |hi| >= _EXIT_FLOOR
_Q3_BOUND = 2.0**-45
_EXIT_FLOOR = 1e-290


def matmul_comp(a, b):
    """Matrix product with exact per-entry accumulation (for residual checks).

    Each entry is the correctly rounded fsum of the three exact products
    p + e, with e the error of p = u*c from the Dekker splits of u and c.
    Each of the 18 operands is split once, and each entry written out.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    fsum = math.fsum
    a0h = (t := _SPLIT * a0) - (t - a0)
    a1h = (t := _SPLIT * a1) - (t - a1)
    a2h = (t := _SPLIT * a2) - (t - a2)
    a0l, a1l, a2l = a0 - a0h, a1 - a1h, a2 - a2h
    a3h = (t := _SPLIT * a3) - (t - a3)
    a4h = (t := _SPLIT * a4) - (t - a4)
    a5h = (t := _SPLIT * a5) - (t - a5)
    a3l, a4l, a5l = a3 - a3h, a4 - a4h, a5 - a5h
    a6h = (t := _SPLIT * a6) - (t - a6)
    a7h = (t := _SPLIT * a7) - (t - a7)
    a8h = (t := _SPLIT * a8) - (t - a8)
    a6l, a7l, a8l = a6 - a6h, a7 - a7h, a8 - a8h
    b0h = (t := _SPLIT * b0) - (t - b0)
    b3h = (t := _SPLIT * b3) - (t - b3)
    b6h = (t := _SPLIT * b6) - (t - b6)
    b0l, b3l, b6l = b0 - b0h, b3 - b3h, b6 - b6h
    b1h = (t := _SPLIT * b1) - (t - b1)
    b4h = (t := _SPLIT * b4) - (t - b4)
    b7h = (t := _SPLIT * b7) - (t - b7)
    b1l, b4l, b7l = b1 - b1h, b4 - b4h, b7 - b7h
    b2h = (t := _SPLIT * b2) - (t - b2)
    b5h = (t := _SPLIT * b5) - (t - b5)
    b8h = (t := _SPLIT * b8) - (t - b8)
    b2l, b5l, b8l = b2 - b2h, b5 - b5h, b8 - b8h
    p, q, r = a0 * b0, a1 * b3, a2 * b6
    m0 = fsum((p, ((a0h * b0h - p) + a0h * b0l + a0l * b0h) + a0l * b0l,
               q, ((a1h * b3h - q) + a1h * b3l + a1l * b3h) + a1l * b3l,
               r, ((a2h * b6h - r) + a2h * b6l + a2l * b6h) + a2l * b6l))
    p, q, r = a0 * b1, a1 * b4, a2 * b7
    m1 = fsum((p, ((a0h * b1h - p) + a0h * b1l + a0l * b1h) + a0l * b1l,
               q, ((a1h * b4h - q) + a1h * b4l + a1l * b4h) + a1l * b4l,
               r, ((a2h * b7h - r) + a2h * b7l + a2l * b7h) + a2l * b7l))
    p, q, r = a0 * b2, a1 * b5, a2 * b8
    m2 = fsum((p, ((a0h * b2h - p) + a0h * b2l + a0l * b2h) + a0l * b2l,
               q, ((a1h * b5h - q) + a1h * b5l + a1l * b5h) + a1l * b5l,
               r, ((a2h * b8h - r) + a2h * b8l + a2l * b8h) + a2l * b8l))
    p, q, r = a3 * b0, a4 * b3, a5 * b6
    m3 = fsum((p, ((a3h * b0h - p) + a3h * b0l + a3l * b0h) + a3l * b0l,
               q, ((a4h * b3h - q) + a4h * b3l + a4l * b3h) + a4l * b3l,
               r, ((a5h * b6h - r) + a5h * b6l + a5l * b6h) + a5l * b6l))
    p, q, r = a3 * b1, a4 * b4, a5 * b7
    m4 = fsum((p, ((a3h * b1h - p) + a3h * b1l + a3l * b1h) + a3l * b1l,
               q, ((a4h * b4h - q) + a4h * b4l + a4l * b4h) + a4l * b4l,
               r, ((a5h * b7h - r) + a5h * b7l + a5l * b7h) + a5l * b7l))
    p, q, r = a3 * b2, a4 * b5, a5 * b8
    m5 = fsum((p, ((a3h * b2h - p) + a3h * b2l + a3l * b2h) + a3l * b2l,
               q, ((a4h * b5h - q) + a4h * b5l + a4l * b5h) + a4l * b5l,
               r, ((a5h * b8h - r) + a5h * b8l + a5l * b8h) + a5l * b8l))
    p, q, r = a6 * b0, a7 * b3, a8 * b6
    m6 = fsum((p, ((a6h * b0h - p) + a6h * b0l + a6l * b0h) + a6l * b0l,
               q, ((a7h * b3h - q) + a7h * b3l + a7l * b3h) + a7l * b3l,
               r, ((a8h * b6h - r) + a8h * b6l + a8l * b6h) + a8l * b6l))
    p, q, r = a6 * b1, a7 * b4, a8 * b7
    m7 = fsum((p, ((a6h * b1h - p) + a6h * b1l + a6l * b1h) + a6l * b1l,
               q, ((a7h * b4h - q) + a7h * b4l + a7l * b4h) + a7l * b4l,
               r, ((a8h * b7h - r) + a8h * b7l + a8l * b7h) + a8l * b7l))
    p, q, r = a6 * b2, a7 * b5, a8 * b8
    m8 = fsum((p, ((a6h * b2h - p) + a6h * b2l + a6l * b2h) + a6l * b2l,
               q, ((a7h * b5h - q) + a7h * b5l + a7l * b5h) + a7l * b5l,
               r, ((a8h * b8h - r) + a8h * b8l + a8l * b8h) + a8l * b8l))
    return m0, m1, m2, m3, m4, m5, m6, m7, m8


def euler_rodrigues9(n, theta):
    """cos(t)*1 + sin(t)*(n x) + (1 - cos(t))*n n^T for a unit axis n."""
    x, y, z = n
    c = math.cos(theta)
    s = math.sin(theta)
    cc = 1.0 - c
    ccx = cc * x
    ccy = cc * y
    xy, xz, yz = ccx * y, ccx * z, ccy * z
    sx, sy, sz = s * x, s * y, s * z
    return (
        c + ccx * x,
        xy - sz,
        xz + sy,
        xy + sz,
        c + ccy * y,
        yz - sx,
        xz - sy,
        yz + sx,
        c + cc * z * z,
    )


def rot_from_rod9(q):
    """1 + 2*((Qx) + (Qx)^2)/(1 + Q.Q), diagonal in cancellation-free form."""
    x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    c = 2.0 / (1.0 + (xx + yy + zz))
    xy, xz, yz = x * y, x * z, y * z
    return (
        1.0 - c * (yy + zz),
        c * (xy - z),
        c * (xz + y),
        c * (xy + z),
        1.0 - c * (xx + zz),
        c * (yz - x),
        c * (xz - y),
        c * (yz + x),
        1.0 - c * (xx + yy),
    )


def cayley_inv9(q):
    """Explicit inverse of (1 - Qx): 1 + ((Qx) + (Qx)^2)/(1 + Q.Q).

    Entry (i, j) is (q_i q_j + c)/(1 + Q.Q) in double-double, with c = 1 on
    the diagonal and the (i, j) entry of (Qx) off it.  Its quotient is
    q1 + q2 + q3, each q removing q*den from the remainder, rounded to one
    double by hi = q1 + q2, lo = q2 - (hi - q1), then hi + lo + q3.

    An entry returns hi once q1 and q2 fix that rounding, as they do for
    almost every entry, and the result has the bits of the three-term
    quotient for every input.  With u = 2**-53:

    - The second remainder step leaves |q3| <= (3 + eps) u |q2|: the
      rounding of q2 = n0/d0 leaves u d0 |q2| of the remainder, the low part
      n1 at most u |n0|, the term q2 d1 at most u d0 |q2|, and the step's
      own roundings are of order u**2 d0 |q2|.  Its products are about u
      times those of the first step, so they are finite where q2 is.  Each
      of its nine products and quotients that lands below the normal range
      errs by at most 2**-1075 absolutely instead, which adds at most
      2**-1071 to |q3|.
    - Let m = |lo| + 2**-45 |q2| (``_Q3_BOUND``).  When hi + m and hi - m
      both round to hi, so does hi + x for every |x| <= m, as rounding is
      monotone.  If also |q3| <= m, the remaining steps return hi: hi + q3
      rounds to hi, so its TwoSum error g is q3 exactly; |fl(q3 + lo)| <=
      fl(|q3| + |lo|) <= m, so hi + fl(q3 + lo) rounds to hi as well, and
      the last correction adds the same g to hi again.
    - |q3| <= fl(2**-45 |q2|), about 80 times the bound above, wherever
      |q2| >= 2**-1025, the underflow terms included.  Below that, |lo| <=
      |q2| and |q3| < 2**-1070 are each under a quarter of the spacing of
      the floats at hi once |hi| >= ``_EXIT_FLOOR`` (1e-290, above
      2**-964), so both sums with hi round to hi directly.
    - FastTwoSum makes lo the exact error of q1 + q2 when |q1| >= |q2|,
      which holds above the floor, where q2 is about u q1 or less.  The
      argument uses lo only as the float that the remaining steps add, so
      it does not depend on that.
    - A zero hi takes the full path, which settles the sign of a zero
      entry; so does a NaN hi, as every comparison fails, and an infinite
      one, as hi - m is then NaN.
    """
    bound, floor = _Q3_BOUND, _EXIT_FLOOR
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
    # the six distinct exact products q_i q_j = p + e
    xx = x * x
    exx = ((xh * xh - xx) + xh * xl + xl * xh) + xl * xl
    yy = y * y
    eyy = ((yh * yh - yy) + yh * yl + yl * yh) + yl * yl
    zz = z * z
    ezz = ((zh * zh - zz) + zh * zl + zl * zh) + zl * zl
    xy = x * y
    exy = ((xh * yh - xy) + xh * yl + xl * yh) + xl * yl
    xz = x * z
    exz = ((xh * zh - xz) + xh * zl + xl * zh) + xl * zl
    yz = y * z
    eyz = ((yh * zh - yz) + yh * zl + yl * zh) + yl * zl
    # s = x*x + y*y + z*z, summed in double-double
    s = xx + yy
    t = s - xx
    g = (xx - (s - t)) + (yy - t)
    g += exx + eyy
    p = s + g
    e = g - (p - s)
    s = p + zz
    t = s - p
    g = (p - (s - t)) + (zz - t)
    g += e + ezz
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

    out = []
    # entry (i, j) has numerator q_i q_j + c; (j, i) takes the p + e of
    # (i, j), which has its bits: p is the same product, and e adds the
    # terms ah*bl and al*bh in the other order, whose partial sums are
    # exact (tests/test_kernels.py holds this over the float range)
    for p, e, c in (
        (xx, exx, 1.0), (xy, exy, -z), (xz, exz, y),
        (xy, exy, z), (yy, eyy, 1.0), (yz, eyz, -x),
        (xz, exz, -y), (yz, eyz, x), (zz, ezz, 1.0),
    ):
        # numerator (n0, n1) = p + e + c
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
        q2 = n0 / d0
        # hi + lo = q1 + q2, as the final renormalisation forms it; the
        # entry is hi where q3 cannot move it (see the docstring)
        hi = q1 + q2
        lo = q2 - (hi - q1)
        m = abs(lo) + bound * abs(q2)
        if abs(hi) >= floor and hi + m == hi and hi - m == hi:
            out.append(hi)
            continue
        n1 = g - (n0 - s)
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
        n0 = hi + q3
        t = n0 - hi
        g = (hi - (n0 - t)) + (q3 - t)
        g += lo
        s = n0 + g
        out.append(s + (g - (s - n0)))
    return tuple(out)


def rot_residuals9(m):
    """(max |R^T R - 1| entry, |det R - 1|) for validity checks.

    R^T R is symmetric, and its (i, j) and (j, i) entries are the same
    products summed in the same order, so only six entries are formed.
    """
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    # as max() and the C kernel take it: a NaN in first place wins, a later one never does
    r = abs(m0 * m0 + m3 * m3 + m6 * m6 - 1.0)
    g = abs(m1 * m1 + m4 * m4 + m7 * m7 - 1.0)
    if g > r:
        r = g
    g = abs(m2 * m2 + m5 * m5 + m8 * m8 - 1.0)
    if g > r:
        r = g
    g = abs(m0 * m1 + m3 * m4 + m6 * m7)
    if g > r:
        r = g
    g = abs(m0 * m2 + m3 * m5 + m6 * m8)
    if g > r:
        r = g
    g = abs(m1 * m2 + m4 * m5 + m7 * m8)
    if g > r:
        r = g
    det = m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6) + m2 * (m3 * m7 - m4 * m6)
    return r, abs(det - 1.0)
