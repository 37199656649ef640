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

The explicit Cayley inverse ``cayley_inv9`` and its check
``inverse_residuals9`` use compensated (double-double) arithmetic.  Each
entry of (1 - Qx)^-1 is (q_i q_j + c)/(1 + Q.Q) with numerator and
denominator in double-double, so it is accurate to about an ulp; the
Cayley rotation 2 (1 - Qx)^-1 - 1 is formed from it, and so stays a
cross-check of the direct rotation formula at large ||Q||.  An entry's
quotient stops after two terms where the third cannot change the rounded
entry, with the bits of the three-term quotient (``cayley_inv9`` gives
the argument).  ``inverse_residuals9`` gives the products (1 - Qx) M and
M (1 - Qx) of the explicit-inverse check their exact sums, from the
structure of 1 - Qx: a unit diagonal and the components of Q off it.

The double-double steps are written out inline rather than composed from
helper calls, since in CPython the calls, not the flops, would dominate.
Each operand is Dekker-split once per call: a = ah + al with ah holding
at most 26 significant bits, so p = a*b and its exact error
((ah*bh - p) + ah*bl + al*bh) + al*bl come from plain float products.

Each distinct product is formed once per call, by the expression each of
its uses would evaluate, so sharing it changes no bit: ``cayley_inv9``'s
six exact products q_i q_j serve both entries (i, j) and (j, i), and its
squares both 1 + Q.Q and the diagonal; ``inverse_residuals9``'s 24
products of a component of Q and an entry of M serve each of the one or
two entries that use them; ``rot_from_rod9`` and ``euler_rodrigues9``
form each repeated product once.

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


def inverse_residuals9(q, m):
    """(max |(1 - Qx) M - 1|, max |M (1 - Qx) - 1|) for the explicit-inverse
    check, each nan where one of its nine entries is.

    1 - Qx has a unit diagonal and the components of Q, of either sign, off
    it.  An entry of either product is the correctly rounded fsum of the
    terms the general compensated product sums, in its order: the exact
    products c*m = p + e of the two off-diagonal terms, with e from the
    Dekker splits of c and m, and M's own entry with the error term of its
    unit product.  That term is +0.0 where the entry splits and nan where
    it does not (an infinite or nan entry, or one beyond about 2**996,
    where the split overflows); 0.0 * m_l takes those values, up to a
    zero's sign, which fsum ignores.

    Each product is formed from the splits of the component c and of m,
    and a use that takes -c adds -p and -e, the bits (-c)*m would give.
    The general product formed the products of M (1 - Qx) as m*c, whose
    error adds ah*bl and al*bh in the other order; their partial sums are
    exact, as in ``cayley_inv9``'s entry (j, i), so the bits are the same.
    The 12 products that both residuals use are formed once, up front, and
    the other 12 just before their entry, so that few floats are alive at
    once and the float free list serves them: forming all 24 up front
    raised the traced peak memory of ``check --n 100`` by 45 %.  A residual is nan where the sum of its nine |entry - delta| is,
    since ``max()`` keeps a nan only in first place; past that test they
    are +0.0 or larger, so the C kernel's if-chain takes the bits of
    ``max()``.
    """
    x, y, z = q
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    fsum = math.fsum
    xh = (t := _SPLIT * x) - (t - x)
    yh = (t := _SPLIT * y) - (t - y)
    zh = (t := _SPLIT * z) - (t - z)
    xl, yl, zl = x - xh, y - yh, z - zh
    m0h = (t := _SPLIT * m0) - (t - m0)
    m1h = (t := _SPLIT * m1) - (t - m1)
    m2h = (t := _SPLIT * m2) - (t - m2)
    m0l, m1l, m2l = m0 - m0h, m1 - m1h, m2 - m2h
    m3h = (t := _SPLIT * m3) - (t - m3)
    m4h = (t := _SPLIT * m4) - (t - m4)
    m5h = (t := _SPLIT * m5) - (t - m5)
    m3l, m4l, m5l = m3 - m3h, m4 - m4h, m5 - m5h
    m6h = (t := _SPLIT * m6) - (t - m6)
    m7h = (t := _SPLIT * m7) - (t - m7)
    m8h = (t := _SPLIT * m8) - (t - m8)
    m6l, m7l, m8l = m6 - m6h, m7 - m7h, m8 - m8h
    # the 12 products that both residuals use
    xm4 = x * m4
    exm4 = ((xh * m4h - xm4) + xh * m4l + xl * m4h) + xl * m4l
    xm5 = x * m5
    exm5 = ((xh * m5h - xm5) + xh * m5l + xl * m5h) + xl * m5l
    xm7 = x * m7
    exm7 = ((xh * m7h - xm7) + xh * m7l + xl * m7h) + xl * m7l
    xm8 = x * m8
    exm8 = ((xh * m8h - xm8) + xh * m8l + xl * m8h) + xl * m8l
    ym0 = y * m0
    eym0 = ((yh * m0h - ym0) + yh * m0l + yl * m0h) + yl * m0l
    ym2 = y * m2
    eym2 = ((yh * m2h - ym2) + yh * m2l + yl * m2h) + yl * m2l
    ym6 = y * m6
    eym6 = ((yh * m6h - ym6) + yh * m6l + yl * m6h) + yl * m6l
    ym8 = y * m8
    eym8 = ((yh * m8h - ym8) + yh * m8l + yl * m8h) + yl * m8l
    zm0 = z * m0
    ezm0 = ((zh * m0h - zm0) + zh * m0l + zl * m0h) + zl * m0l
    zm1 = z * m1
    ezm1 = ((zh * m1h - zm1) + zh * m1l + zl * m1h) + zl * m1l
    zm3 = z * m3
    ezm3 = ((zh * m3h - zm3) + zh * m3l + zl * m3h) + zl * m3l
    zm4 = z * m4
    ezm4 = ((zh * m4h - zm4) + zh * m4l + zl * m4h) + zl * m4l
    # (1 - Qx) M, row by row: the rows of 1 - Qx are (1, z, -y),
    # (-z, 1, x) and (y, -x, 1)
    d0 = abs(fsum((m0, 0.0 * m0l, zm3, ezm3, -ym6, -eym6)) - 1.0)
    p = y * m7
    e = ((yh * m7h - p) + yh * m7l + yl * m7h) + yl * m7l
    d1 = abs(fsum((m1, 0.0 * m1l, zm4, ezm4, -p, -e)))
    p = z * m5
    e = ((zh * m5h - p) + zh * m5l + zl * m5h) + zl * m5l
    d2 = abs(fsum((m2, 0.0 * m2l, p, e, -ym8, -eym8)))
    p = x * m6
    e = ((xh * m6h - p) + xh * m6l + xl * m6h) + xl * m6l
    d3 = abs(fsum((-zm0, -ezm0, m3, 0.0 * m3l, p, e)))
    d4 = abs(fsum((-zm1, -ezm1, m4, 0.0 * m4l, xm7, exm7)) - 1.0)
    p = z * m2
    e = ((zh * m2h - p) + zh * m2l + zl * m2h) + zl * m2l
    d5 = abs(fsum((-p, -e, m5, 0.0 * m5l, xm8, exm8)))
    p = x * m3
    e = ((xh * m3h - p) + xh * m3l + xl * m3h) + xl * m3l
    d6 = abs(fsum((ym0, eym0, -p, -e, m6, 0.0 * m6l)))
    p = y * m1
    e = ((yh * m1h - p) + yh * m1l + yl * m1h) + yl * m1l
    d7 = abs(fsum((p, e, -xm4, -exm4, m7, 0.0 * m7l)))
    d8 = abs(fsum((ym2, eym2, -xm5, -exm5, m8, 0.0 * m8l)) - 1.0)
    s = d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8  # nan exactly when a d_i is
    r1 = max(d0, d1, d2, d3, d4, d5, d6, d7, d8) if s == s else s
    # M (1 - Qx), row by row: the columns of 1 - Qx are (1, -z, y),
    # (z, 1, -x) and (-y, x, 1)
    d0 = abs(fsum((m0, 0.0 * m0l, -zm1, -ezm1, ym2, eym2)) - 1.0)
    p = x * m2
    e = ((xh * m2h - p) + xh * m2l + xl * m2h) + xl * m2l
    d1 = abs(fsum((zm0, ezm0, m1, 0.0 * m1l, -p, -e)))
    p = x * m1
    e = ((xh * m1h - p) + xh * m1l + xl * m1h) + xl * m1l
    d2 = abs(fsum((-ym0, -eym0, p, e, m2, 0.0 * m2l)))
    p = y * m5
    e = ((yh * m5h - p) + yh * m5l + yl * m5h) + yl * m5l
    d3 = abs(fsum((m3, 0.0 * m3l, -zm4, -ezm4, p, e)))
    d4 = abs(fsum((zm3, ezm3, m4, 0.0 * m4l, -xm5, -exm5)) - 1.0)
    p = y * m3
    e = ((yh * m3h - p) + yh * m3l + yl * m3h) + yl * m3l
    d5 = abs(fsum((-p, -e, xm4, exm4, m5, 0.0 * m5l)))
    p = z * m7
    e = ((zh * m7h - p) + zh * m7l + zl * m7h) + zl * m7l
    d6 = abs(fsum((m6, 0.0 * m6l, -p, -e, ym8, eym8)))
    p = z * m6
    e = ((zh * m6h - p) + zh * m6l + zl * m6h) + zl * m6l
    d7 = abs(fsum((p, e, m7, 0.0 * m7l, -xm8, -exm8)))
    d8 = abs(fsum((-ym6, -eym6, xm7, exm7, m8, 0.0 * m8l)) - 1.0)
    s = d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7 + d8
    return r1, max(d0, d1, d2, d3, d4, d5, d6, d7, d8) if s == s else s


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
