"""Exact-arithmetic, reference and backend-parity checks for the scalar kernels.

The reference below is the double-double pipeline composed from one helper
per step (two_sum, two_prod, dd_add, dd_div, ...).  The pure-Python kernels
write the same steps out inline, and must give the same bits.

``matmul``, ``transpose9``, ``skew9``, ``compose_num_den``, ``half_turn9``
and ``rod_from_rot9`` were kernels once; their callers now write the
tuples out.  Their formulas are kept here as the reference those callers
must match bit for bit.  So were the 3-vector dot, cross, norm and
matrix-vector products, whose formulas ``test_properties`` keeps.
"""

import hashlib
import inspect
import math
import os
import random
import re
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from rodvec import _kernels_py as kp
from rodvec import _lifted, checks
from rodvec.composition import composition_diagnostics
from rodvec.core import (
    Matrix3,
    RodriguesVector,
    SkewMatrix,
    UnitVector,
    Vec3,
    _rotation_matrix,
    matrix_from_rodrigues,
)
from rodvec.errors import DegenerateComposition, NotARotation, NotPerpendicular, RodvecError
from rodvec.geometry import donkin_triangle, tangent_to_bisector
from test_acceptance import _q_of, _rand_axis_angle
from test_properties import (
    cross,
    dot,
    euler_parameters,
    mat_vec,
    matrix_of_euler_parameters,
    norm,
    ref_cross,
)

# ------------------------------------------------------------ the reference

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _quick_two_sum(a, b):
    # requires |a| >= |b| or a == 0
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    return _quick_two_sum(s, e)


def _dd_add_d(x, a):
    s, e = _two_sum(x[0], a)
    e += x[1]
    return _quick_two_sum(s, e)


def _dd_mul_d(x, a):
    p, e = _two_prod(x[0], a)
    e += x[1] * a
    return _quick_two_sum(p, e)


def _dd_div(x, y):
    q1 = x[0] / y[0]
    r = _dd_add(x, _dd_mul_d(y, -q1))
    q2 = r[0] / y[0]
    r = _dd_add(r, _dd_mul_d(y, -q2))
    q3 = r[0] / y[0]
    q, e = _quick_two_sum(q1, q2)
    return _dd_add_d((q, e), q3)


def _den_dd(x, y, z):
    s = _dd_add(_dd_add(_two_prod(x, x), _two_prod(y, y)), _two_prod(z, z))
    return _dd_add_d(s, 1.0)


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


def ref_matmul_comp(a, b):
    out = []
    for i in (0, 3, 6):
        for j in (0, 1, 2):
            parts = []
            for k in (0, 1, 2):
                p, e = _two_prod(a[i + k], b[3 * k + j])
                parts.append(p)
                parts.append(e)
            out.append(math.fsum(parts))
    return tuple(out)


def ref_cayley_inv9(q):
    x, y, z = q
    den = _den_dd(x, y, z)
    qv = (x, y, z)
    k = ref_skew9(qv)
    out = []
    for i in range(3):
        for j in range(3):
            num = _two_prod(qv[i], qv[j])
            if i == j:
                num = _dd_add_d(num, 1.0)
            else:
                num = _dd_add_d(num, k[3 * i + j])
            r = _dd_div(num, den)
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


# ------------------------------------------------------------------ inputs


def _wide_q(rng):
    """Q of random direction and ||Q|| log-uniform in [1e-300, 1e300], with
    components set to +0.0 or -0.0 one time in ten each."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    scale = 10.0 ** rng.uniform(-300.0, 300.0) / math.sqrt(sum(c * c for c in v))
    v = [c * scale for c in v]
    for i in range(3):
        if rng.random() < 0.1:
            v[i] = rng.choice((0.0, -0.0))
    return tuple(v)


def _near_pi_q(rng, i):
    # the draws of the explicit-inverse acceptance test: every tenth angle
    # is within 6e-3 rad of pi
    q = _q_of(*_rand_axis_angle(rng, i=i, near_pole_every=10))
    return q.as_tuple()


def _qs(seed, n):
    rng = random.Random(seed)
    qs = [_wide_q(rng) for _ in range(n)]
    qs += [_near_pi_q(rng, i) for i in range(n)]
    qs += [
        (0.0, 0.0, 0.0),
        (-0.0, 0.0, -0.0),
        (1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, 5e-324),
        (1e300, 0.0, -1e300),
        (1e150, 5e149, 0.0),
        (1.7e308, 0.0, 0.0),
    ]
    return qs


def _mixed_scale(rng):
    """A float of random sign from one of the scales where a product
    underflows, loses bits or overflows: +-0.0, the least subnormal,
    1e-170 to 1e-150, 1 to 10, 1e150 to 1e160 or 1.7e308."""
    k = rng.randrange(6)
    if k == 0:
        return rng.choice((0.0, -0.0))
    if k == 1:
        v = 5e-324
    elif k == 2:
        v = 10.0 ** rng.uniform(-170.0, -150.0)
    elif k == 3:
        v = rng.uniform(1.0, 10.0)
    elif k == 4:
        v = 10.0 ** rng.uniform(150.0, 160.0)
    else:
        v = 1.7e308
    return rng.choice((-1.0, 1.0)) * v


def _mixed_qs(seed, n):
    """n triples whose components are drawn each on its own by _mixed_scale."""
    rng = random.Random(seed)
    return [tuple(_mixed_scale(rng) for _ in range(3)) for _ in range(n)]


def _mixed_operands(seed, n):
    """n pairs of 9-tuples whose entries are 1.0 or a _mixed_scale draw."""
    rng = random.Random(seed)

    def entry():
        return 1.0 if rng.random() < 0.5 else _mixed_scale(rng)

    return [(tuple(entry() for _ in range(9)), tuple(entry() for _ in range(9))) for _ in range(n)]


def _special_matrices():
    """Matrices with nan, +-inf, +-0.0 at each of the nine positions of a
    rotation, of the identity and of a matrix of wide entries, and with nan
    and inf at two different positions of the rotation."""
    rotation = kp.rot_from_rod9((0.3, -0.2, 1.1))
    identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    wide = (1e200, -3.0, 5e-324, 1.7e308, 1e-160, -1.0, 2.5, -1e155, 0.5)
    out = []
    for base in (rotation, identity, wide):
        for i in range(9):
            for v in (math.nan, math.inf, -math.inf, 0.0, -0.0):
                out.append(base[:i] + (v,) + base[i + 1 :])
    for i in range(9):
        for j in range(9):
            if i != j:
                m = list(rotation)
                m[i], m[j] = math.nan, math.inf
                out.append(tuple(m))
    return out


def _axes_and_angles(qs, seed):
    """(n, theta) for each q of qs: n is q, and also q's unit vector where q
    is nonzero, each with an angle drawn in [-2 pi, 2 pi] and with 0.0, -0.0
    and pi in turn."""
    rng = random.Random(seed)
    specials = (0.0, -0.0, math.pi)
    out = []
    for i, q in enumerate(qs):
        for n in (q, _lifted._unit(*q)) if any(q) else (q,):
            out.append((n, rng.uniform(-2.0 * math.pi, 2.0 * math.pi)))
            out.append((n, specials[i % 3]))
    return out


def _same_bits(a, b):
    """Equal tuples of floats: NaN in the same places, and the same sign of zero elsewhere."""
    assert len(a) == len(b)
    for u, v in zip(a, b):
        if math.isnan(u) or math.isnan(v):
            if not (math.isnan(u) and math.isnan(v)):
                return False
        elif u != v or math.copysign(1.0, u) != math.copysign(1.0, v):
            return False
    return True


# ---------------------------------------------------- exactness, bit identity


def test_two_prod_is_exact():
    rng = random.Random(99)
    for _ in range(500):
        a = rng.uniform(-1e3, 1e3)
        b = rng.uniform(-1e3, 1e3)
        p, e = _two_prod(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_two_sum_is_exact():
    rng = random.Random(98)
    for _ in range(500):
        a = rng.uniform(-1e6, 1e6)
        b = rng.uniform(-1e-6, 1e-6)
        s, e = _two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_cayley_kernels_match_reference_bitwise():
    for q in _qs(11, 1500):
        assert _same_bits(kp.cayley_inv9(q), ref_cayley_inv9(q)), q


def test_matmul_comp_matches_reference_bitwise():
    rng = random.Random(12)
    for q in _qs(13, 500):
        m = ref_cayley_inv9(q)
        k = ref_skew9(q)
        one_minus_k = tuple((1.0 if i % 4 == 0 else 0.0) - k[i] for i in range(9))
        wide = tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-200.0, 200.0) for _ in range(9))
        for a, b in ((one_minus_k, m), (m, one_minus_k), (kp.rot_from_rod9(q), wide), (wide, m)):
            assert _same_bits(kp.matmul_comp(a, b), ref_matmul_comp(a, b)), (a, b)


def test_rot_residuals9_matches_reference_bitwise():
    rng = random.Random(14)
    for q in _qs(15, 500):
        wide = tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-200.0, 200.0) for _ in range(9))
        inv = ref_cayley_inv9(q)
        # the Cayley rotation 2 (1 - Qx)^-1 - 1
        rot = tuple(2.0 * v - 1.0 if i in (0, 4, 8) else 2.0 * v for i, v in enumerate(inv))
        for m in (kp.rot_from_rod9(q), rot, inv, wide):
            assert _same_bits(kp.rot_residuals9(m), ref_rot_residuals9(m)), m
    # entries that underflow, overflow or are nan, inf or a signed zero:
    # the largest residual keeps a nan only in first place, as max() does
    for m in [m for pair in _mixed_operands(27, 1500) for m in pair] + _special_matrices():
        assert _same_bits(kp.rot_residuals9(m), ref_rot_residuals9(m)), m


def test_rot_from_rod9_matches_the_deleted_formula_bitwise():
    for q in _qs(17, 1000) + _mixed_qs(18, 3000):
        assert _same_bits(kp.rot_from_rod9(q), ref_rot_from_rod9(q)), q


def test_euler_rodrigues9_matches_the_deleted_formula_bitwise():
    for n, theta in _axes_and_angles(_qs(19, 1000) + _mixed_qs(20, 3000), 21):
        assert _same_bits(kp.euler_rodrigues9(n, theta), ref_euler_rodrigues9(n, theta)), (n, theta)


def test_compensated_kernels_match_reference_bitwise_on_mixed_scales():
    # products that underflow to subnormals or zero, lose bits in the split
    # or overflow, side by side in one call; a matmul_comp whose fsum
    # overflows or meets inf - inf raises as the reference does
    for q in _mixed_qs(22, 3000):
        assert _same_bits(kp.cayley_inv9(q), ref_cayley_inv9(q)), q
    for a, b in _mixed_operands(23, 3000):
        assert _same_result(_outcome(kp.matmul_comp, a, b), _outcome(ref_matmul_comp, a, b)), (a, b)


def test_matmul_comp_entries_are_correctly_rounded():
    # each entry is the fsum of three exact products, so it is the exact dot
    # product rounded once; exponents are kept where no product underflows
    rng = random.Random(16)
    for _ in range(300):
        a = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-60.0, 60.0) for _ in range(9))
        b = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-60.0, 60.0) for _ in range(9))
        got = kp.matmul_comp(a, b)
        for i in range(3):
            for j in range(3):
                exact = sum(Fraction(a[3 * i + k]) * Fraction(b[3 * k + j]) for k in range(3))
                assert got[3 * i + j] == float(exact)


# ---------------------------------------------------------------- lock-step


def test_backends_define_the_same_kernels():
    # read from the C source's method table, so that it also runs unbuilt
    c = Path(kp.__file__).with_name("_kernels_c.c").read_text()
    table = re.search(r"PyMethodDef kernel_methods\[\] = \{(.*?)\n\};", c, re.DOTALL)
    compiled = re.findall(r"KERNEL\((\w+)\)", table.group(1))
    python = {
        name
        for name, f in inspect.getmembers(kp, inspect.isfunction)
        if f.__module__ == kp.__name__ and not name.startswith("_")
    }
    assert len(compiled) == len(set(compiled))
    assert set(compiled) == python == {
        "matmul_comp", "euler_rodrigues9", "rot_from_rod9", "cayley_inv9", "rot_residuals9"
    }


# ---------------------------------------- parity with the compiled backend


@pytest.fixture(scope="module")
def kc():
    return pytest.importorskip("rodvec._kernels_c")


def test_backends_report_names(kc):
    assert kp.BACKEND == "python"
    assert kc.BACKEND == "compiled"


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (ArithmeticError, LookupError, ValueError, RodvecError) as e:
        return type(e)


def _same_result(a, b):
    """The same exception type, or results of the same bits."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return _same_bits(_flat(a), _flat(b))


def _same_outcome(kc, name, *args):
    """Both backends raise the same exception type, or return the same bits."""
    return _same_result(_outcome(getattr(kp, name), *args), _outcome(getattr(kc, name), *args))


def _flat(result):
    """A kernel result as one tuple of floats."""
    if isinstance(result, float):
        return (result,)
    return tuple(x for r in result for x in _flat(r))


def test_compensated_kernel_parity(kc):
    # the compiled kernels perform the operations of the Python ones in the
    # same order, so they agree bit for bit over the whole float range: Q of
    # random sign and ||Q|| log-uniform in [1e-300, 1e300], Q near pi, and
    # the edge cases of _qs
    for q in _qs(5, 1000):
        assert _same_outcome(kc, "cayley_inv9", q), q
        assert _same_outcome(kc, "matmul_comp", kp.rot_from_rod9(q), kp.cayley_inv9(q)), q


def test_kernel_parity_on_mixed_scales(kc):
    qs = _mixed_qs(24, 2000)
    for q in qs:
        assert _same_outcome(kc, "cayley_inv9", q), q
        assert _same_outcome(kc, "rot_from_rod9", q), q
    for n, theta in _axes_and_angles(qs, 25):
        assert _same_outcome(kc, "euler_rodrigues9", n, theta), (n, theta)
    for a, b in _mixed_operands(26, 2000):
        assert _same_outcome(kc, "matmul_comp", a, b), (a, b)
        assert _same_outcome(kc, "rot_residuals9", a), a
        assert _same_outcome(kc, "rot_residuals9", b), b
    for m in _special_matrices():
        assert _same_outcome(kc, "rot_residuals9", m), m


def test_matmul_comp_parity_on_explicit_inverse_products(kc):
    # the (1 - Qx)·M products of check's explicit-inverse diagnostic, drawn
    # as it draws them
    rng = random.Random(6)
    for _ in range(2000):
        q = checks._rand_rodrigues(rng, math.pi - 1e-3)
        m = _lifted._cayley_inv9(*q)
        k = ref_skew9(q)
        one_minus_k = tuple((1.0 if i % 4 == 0 else 0.0) - k[i] for i in range(9))
        assert _same_outcome(kc, "matmul_comp", one_minus_k, m), q
        assert _same_outcome(kc, "matmul_comp", m, one_minus_k), q


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)

#: the length of each kernel argument, 0 for a scalar
_ARGS = {
    "matmul_comp": (9, 9),
    "euler_rodrigues9": (3, 0),
    "rot_from_rod9": (3,),
    "cayley_inv9": (3,),
    "rot_residuals9": (9,),
}


def _any_float(rng, wide):
    r = rng.random()
    if not wide or r < 0.35:
        return rng.uniform(-3.0, 3.0)
    if r < 0.5:
        return rng.choice(_SPECIAL)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)


@pytest.mark.parametrize("name", sorted(_ARGS))
def test_kernel_parity_over_the_float_range(kc, name):
    # draws of moderate components alternate with draws that mix moderate,
    # special and log-uniform components from subnormal to near overflow
    rng = random.Random(zlib.crc32(name.encode()))
    for i in range(1000):
        wide = i % 2 == 1
        args = [
            tuple(_any_float(rng, wide) for _ in range(n)) if n else _any_float(rng, wide)
            for n in _ARGS[name]
        ]
        assert _same_outcome(kc, name, *args), args


@pytest.mark.parametrize(
    "name,args,error",
    [
        ("euler_rodrigues9", ((0.0, 0.0, 1.0), math.inf), ValueError),
        ("matmul_comp", ((1e300,) * 9, (1e8,) * 9), OverflowError),
        ("matmul_comp", ((math.inf, -math.inf, 0.0) * 3, (1.0,) * 9), ValueError),
        # every argument must have exactly its length
        ("matmul_comp", ((1.0,) * 10, (1.0,) * 9), ValueError),
        ("rot_from_rod9", ((1.0, 2.0),), ValueError),
        ("rot_residuals9", ((1.0,) * 10,), ValueError),
    ],
)
def test_backends_raise_alike(kc, name, args, error):
    assert _outcome(getattr(kp, name), *args) is error
    assert _outcome(getattr(kc, name), *args) is error


# ------------------------------------------- kernels folded into their callers


def _finite_float(rng, wide):
    """A draw of _any_float that is finite."""
    while True:
        v = _any_float(rng, wide)
        if math.isfinite(v):
            return v


def _unit_perpendicular(rng, q):
    """A unit vector perpendicular to q, or any unit vector when q = 0."""
    r = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    c = cross(_lifted._unit(*q), r) if any(q) else r
    return _lifted._unit(*c)


def test_transpose_and_skew_match_the_deleted_kernels():
    rng = random.Random(zlib.crc32(b"transpose9 skew9"))
    for i in range(1000):
        wide = i % 2 == 1
        m = tuple(_finite_float(rng, wide) for _ in range(9))
        v = tuple(_finite_float(rng, wide) for _ in range(3))
        assert _same_bits(Matrix3(m).transpose().elements, ref_transpose9(m)), m
        assert _same_bits(SkewMatrix(Vec3(*v)).matrix.elements, ref_skew9(v)), v
    for zeros in ((0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)):
        assert _same_bits(SkewMatrix(Vec3(*zeros)).matrix.elements, ref_skew9(zeros))
        assert _same_bits(Matrix3(zeros * 3).transpose().elements, ref_transpose9(zeros * 3))


def test_matmul9_matches_the_deleted_kernel():
    # _lifted._matmul9, behind donkin-closure's product and the typed
    # Matrix3 @ and RotationMatrix @, is the deleted matmul kernel's
    # formula: the same bits over the float range, special values included
    rng = random.Random(zlib.crc32(b"matmul"))
    for i in range(1000):
        wide = i % 2 == 1
        a, b = (tuple(_any_float(rng, wide) for _ in range(9)) for _ in range(2))
        got = tuple(map(float.hex, _lifted._matmul9(a, b)))
        assert got == tuple(map(float.hex, ref_matmul9(a, b))), (a, b)
        a, b = (tuple(_finite_float(rng, wide) for _ in range(9)) for _ in range(2))
        typed = _outcome(lambda: (Matrix3(a) @ Matrix3(b)).elements)
        assert _same_result(typed, _outcome(lambda: Matrix3(ref_matmul9(a, b)).elements)), (a, b)


def _vec_outcome(f, *args):
    """_outcome of f(*args), with a Vec3 result as its tuple."""
    got = _outcome(f, *args)
    return got.as_tuple() if isinstance(got, Vec3) else got


def test_vector_products_match_the_deleted_kernels():
    # the typed products and the float core's write out the formulas of the
    # deleted 3-vector kernels: bits where they return, the exception type
    # where they raise (a typed product that overflows fails Vec3's check)
    rng = random.Random(zlib.crc32(b"3-vector products"))
    outcomes = set()
    for i in range(1000):
        wide = i % 2 == 1
        a, b, c, d = (tuple(_finite_float(rng, wide) for _ in range(3)) for _ in range(4))
        m = tuple(_finite_float(rng, wide) for _ in range(9))
        lam = _finite_float(rng, wide)
        r = matrix_from_rodrigues(RodriguesVector(*a)).elements
        want = _vec_outcome(Vec3, *cross(a, b))
        outcomes.add(want if isinstance(want, type) else tuple)
        pairs = [
            (_vec_outcome(Vec3(*a).cross, Vec3(*b)), want),
            (_vec_outcome(tangent_to_bisector, RodriguesVector(*a), Vec3(*b)), want),
            (_vec_outcome(Matrix3(m).__matmul__, Vec3(*b)), _vec_outcome(Vec3, *mat_vec(m, b))),
            (_vec_outcome(_rotation_matrix(m).apply, Vec3(*b)), _vec_outcome(Vec3, *mat_vec(m, b))),
            (_vec_outcome(_rotation_matrix(r).__matmul__, Vec3(*b)), _vec_outcome(Vec3, *mat_vec(r, b))),
            (_outcome(_lifted._cross, a, b), _outcome(ref_cross, a, b)),
            (_outcome(_lifted._bisector, a, b), tuple(b[k] + cross(a, b)[k] for k in range(3))),
            (
                _outcome(_lifted._arc_angle, a, b),
                _outcome(lambda: math.atan2(norm(ref_cross(a, b)), dot(a, b))),
            ),
        ]
        f1, f2 = (2.0 ** (math.frexp(max(map(abs, q)))[1] - 1) for q in (c, b))
        pairs.append(
            (
                _outcome(_lifted._scaled_law_residual, a, b, c, d, lam),
                _outcome(ref_law_residual, a, b, c, d, lam, f1, f2),
            )
        )
        for got, expected in pairs:
            assert _same_result(got, expected), (a, b, c, d, m, lam)
    assert outcomes == {tuple, ValueError}


@settings(max_examples=1000)
@given(euler_parameters)
@example((1.0, 0.0, 0.0, 0.0))
@example((-0.0, 0.0, 0.0, 1.0))
@example((1.0, 1e-300, -0.0, 0.0))
@example((5e-324, 1.7e308, -1.7e308, 1e-300))
def test_lift_matrix9_matches_the_deleted_kernel(p):
    # both branches of Shepperd's rule are one quotient w/d now; the trace
    # branch divides as rod_from_rot9 did, bit for bit
    e = _lifted._checked9(matrix_of_euler_parameters(p))
    assert _same_result(_outcome(_lifted._lift_matrix9, e), _outcome(ref_lift_matrix9, e)), e


def test_half_turn_matrix_matches_the_deleted_kernel():
    # _rotation9 writes out 2 n n^T - 1 for (0, n), and for Q whose Q.Q
    # overflows about Q/||Q||
    rng = random.Random(zlib.crc32(b"half_turn9"))
    axes = [
        (1.0, 0.0, 0.0), (1.0, -0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0),
        (0.6, -0.0, 0.8), (0.0, 0.6, -0.8),
    ]
    for _ in range(1000):
        axes.append(_lifted._half_turn_axis(*_lifted._unit(*_wide_q(rng))))
    for n in axes:
        assert _same_bits(_lifted._rotation9(0.0, *n), ref_half_turn9(n)), n
        q = tuple(c * 1e300 for c in n)
        assert _same_bits(_lifted._rotation9(1.0, *q), ref_half_turn9(_lifted._unit(*q))), q


def test_composition_diagnostics_match_the_deleted_kernel():
    # the numerator and lambda come from compose_num_den's formula, and the
    # residual from that lambda, over the whole finite float range: bits
    # where it returns, the exception type where it raises
    rng = random.Random(zlib.crc32(b"compose_num_den"))
    cases = [
        ((1e200, 0.0, 0.0), (1e200, 0.0, 0.0), (0.0, 1.0, 0.0)),  # lambda overflows
        ((1e308, 0.0, 0.0), (1e308, 0.0, 0.0), (0.0, 0.0, 1.0)),  # the numerator overflows
        ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # a half-turn
        ((0.3, 0.2, 0.1), (0.0, 0.0, 1.0), (0.0, 0.6, 0.8)),  # a not perpendicular to Q1
        ((0.3, -0.0, 0.1), (0.0, 0.0, 0.0), (-0.0, 1.0, 0.0)),
        # one product of Q2.Q1 overflows, lambda does not, and the right-hand
        # side overflows unless it is scaled
        ((1.3416e154, 2.236e153, 0.0), (1.3416e154, -2.236e153, 0.0), (0.0, 0.0, 1.0)),
    ]
    for i in range(2000):
        wide = i % 2 == 1
        q2 = tuple(_finite_float(rng, wide) for _ in range(3))
        q1 = tuple(_finite_float(rng, wide) for _ in range(3))
        if i % 4 == 3:
            a = tuple(_finite_float(rng, wide) for _ in range(3))
        else:
            a = _unit_perpendicular(rng, q1)
        cases.append((q2, q1, a))
    outcomes = set()
    for q2, q1, a in cases:
        want = _outcome(ref_composition_diagnostics, q2, q1, a)
        assert _same_result(_outcome(_lifted._composition_diagnostics, q2, q1, a), want), (q2, q1, a)
        outcomes.add(want if isinstance(want, type) else tuple)
        if abs(norm(a) - 1.0) > 1e-12:
            continue
        got = _outcome(composition_diagnostics, RodriguesVector(*q2), RodriguesVector(*q1), UnitVector(*a))
        if not isinstance(got, type):
            got = (got.numerator.as_tuple(), got.lam, got.residual)
        assert _same_result(got, want), (q2, q1, a)
    assert outcomes == {tuple, NotPerpendicular, DegenerateComposition, ValueError}


def test_donkin_triangle_vertices_are_the_float_core_bits():
    rng = random.Random(zlib.crc32(b"donkin_triangle"))
    seen = set()
    for i in range(1000):
        wide = i % 2 == 1
        q1 = tuple(_finite_float(rng, wide) for _ in range(3))
        q2 = tuple(_finite_float(rng, wide) for _ in range(3))
        want = _outcome(_lifted._donkin_triangle, q1, q2)
        got = _outcome(donkin_triangle, RodriguesVector(*q1), RodriguesVector(*q2))
        if not isinstance(got, type):
            got = (got.a.as_tuple(), got.b.as_tuple(), got.c.as_tuple())
        assert _same_result(got, want), (q1, q2)
        seen.add(want if isinstance(want, type) else tuple)
    assert tuple in seen


def _check_stdout(*prelude):
    code = [*prelude, "import sys", "from rodvec.cli import main"]
    code.append("sys.exit(main(['check', '--n', '2000', '--seed', '42']))")
    env = {**os.environ, "PYTHONPATH": str(Path(kp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(code)], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


def test_check_output_is_the_same_on_both_backends(kc):
    # a None entry in sys.modules makes the import of the extension fail, so
    # rodvec falls back to the Python kernels
    compiled = _check_stdout()
    pure = _check_stdout("import sys", "sys.modules['rodvec._kernels_c'] = None")
    assert compiled.startswith("backend: compiled\n")
    assert pure.startswith("backend: python\n")
    assert compiled.split("\n", 1)[1] == pure.split("\n", 1)[1]


#: sha256 of the stdout of ``rodvec check --n 2000 --seed 42`` after its
#: ``backend:`` line, the same on both backends
CHECK_2000_42_SHA256 = "4dd48a02dc54602fe38de5edeb20fb009131f750ff6c9aae972eb7ab5e6b82f8"


def _check_digest(stdout):
    return hashlib.sha256(stdout.split("\n", 1)[1].encode()).hexdigest()


def test_check_output_is_pinned_on_the_python_backend():
    pure = _check_stdout("import sys", "sys.modules['rodvec._kernels_c'] = None")
    assert pure.startswith("backend: python\n")
    assert _check_digest(pure) == CHECK_2000_42_SHA256


def test_check_output_is_pinned_on_the_compiled_backend(kc):
    compiled = _check_stdout()
    assert compiled.startswith("backend: compiled\n")
    assert _check_digest(compiled) == CHECK_2000_42_SHA256


def _checked9_outcomes():
    """The class and text of what _lifted._checked9 raises on a matrix with
    each non-finite value at each entry, on one whose residuals overflow,
    and on a finite non-rotation."""
    out = []
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(9):
            e = list(_lifted._IDENTITY9)
            e[i] = bad
            out.append(tuple(e))
    out += [(1e308,) * 9, (1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)]
    for e in out:
        with pytest.raises(Exception) as info:
            _lifted._checked9(e)
        yield type(info.value), str(info.value)


CHECKED9_ERRORS = [
    *[(ValueError, f"non-finite component: {bad}") for bad in ("nan", "inf", "-inf") for _ in range(9)],
    # finite entries whose residuals overflow: neither inf nor nan is printed
    (NotARotation, "matrix fails SO(3) checks: its entries are too large for R^T R or det R to be formed"),
    (NotARotation, "matrix fails SO(3) checks: |R^T R - 1| = 5.000e-01, |det - 1| = 0.000e+00"),
]


def test_checked9_errors_on_the_python_kernels(monkeypatch):
    monkeypatch.setattr(_lifted, "_k", kp)
    assert list(_checked9_outcomes()) == CHECKED9_ERRORS


def test_checked9_errors_on_the_compiled_kernels(monkeypatch, kc):
    monkeypatch.setattr(_lifted, "_k", kc)
    assert list(_checked9_outcomes()) == CHECKED9_ERRORS


def test_default_prefers_compiled(kc):
    out = subprocess.run(
        [sys.executable, "-c", "import rodvec; print(rodvec.backend_name())"],
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "compiled"
