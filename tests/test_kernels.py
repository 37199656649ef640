"""Exact-arithmetic, reference and backend-parity checks for the scalar kernels.

The reference below is the double-double pipeline composed from one helper
per step (two_sum, two_prod, dd_add, dd_div, ...).  The pure-Python kernels
write the same steps out inline, and must give the same bits.

``transpose9``, ``skew9`` and ``compose_num_den`` were kernels once; their
callers now write the tuples out.  Their formulas are kept here as the
reference those callers must match bit for bit.
"""

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

from rodvec import _kernels_py as kp
from rodvec import _lifted, checks
from rodvec.composition import composition_diagnostics
from rodvec.core import Matrix3, RodriguesVector, SkewMatrix, UnitVector, Vec3
from rodvec.errors import DegenerateComposition, NotPerpendicular, RodvecError
from rodvec.geometry import donkin_triangle
from test_acceptance import _q_of, _rand_axis_angle

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
    return s, _dd_add_d(s, 1.0)


def ref_transpose9(m):
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


def ref_skew9(v):
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def ref_compose_num_den(q2, q1):
    """Numerator Q1 + Q2 + Q2 x Q1 and denominator 1 - Q2.Q1 of the composition law."""
    cx, cy, cz = kp.cross3(q2, q1)
    num = (q1[0] + q2[0] + cx, q1[1] + q2[1] + cy, q1[2] + q2[2] + cz)
    return num, 1.0 - kp.dot3(q2, q1)


def ref_composition_diagnostics(q2t, q1t, at):
    """_lifted._composition_diagnostics with the numerator and denominator
    of ref_compose_num_den."""
    if any(q1t) and abs(kp.dot3(at, _lifted._unit(*q1t))) > 1e-9:
        raise NotPerpendicular("a must be perpendicular to Q1")
    s, x, y, z = _lifted._compose_lifted(1.0, *q2t, 1.0, *q1t)
    if not s:
        raise DegenerateComposition("composition is a half-turn; lambda residual undefined")
    num, lam = ref_compose_num_den(q2t, q1t)
    lhs = kp.cross3((x, y, z), at)
    lhs = (lam * (at[0] + lhs[0]), lam * (at[1] + lhs[1]), lam * (at[2] + lhs[2]))
    c1 = kp.cross3(q1t, at)
    c2 = kp.cross3(q2t, at)
    c21 = kp.cross3(q2t, c1)
    rhs = (
        at[0] + c1[0] + c2[0] + c21[0],
        at[1] + c1[1] + c2[1] + c21[1],
        at[2] + c1[2] + c2[2] + c21[2],
    )
    residual = kp.norm3((lhs[0] - rhs[0], lhs[1] - rhs[1], lhs[2] - rhs[2]))
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
    _, den = _den_dd(x, y, z)
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


def ref_cayley_rot9(q):
    x, y, z = q
    qv = (x, y, z)
    s, den = _den_dd(x, y, z)
    neg_s = (-s[0], -s[1])
    k = ref_skew9(qv)
    b = (1.0, k[1], k[2], k[3], 1.0, k[5], k[6], k[7], 1.0)
    n = []
    for i in range(3):
        for j in range(3):
            acc = _two_prod(qv[i], qv[j])
            if i == j:
                acc = _dd_add(acc, neg_s)
                acc = _dd_add(acc, den)
            else:
                acc = _dd_add_d(acc, k[3 * i + j])
            n.append(acc)
    out = []
    for i in range(3):
        for j in range(3):
            acc = (0.0, 0.0)
            for kk in range(3):
                bkj = b[3 * kk + j]
                if bkj != 0.0:
                    acc = _dd_add(acc, _dd_mul_d(n[3 * i + kk], bkj))
            r = _dd_div(acc, den)
            out.append(r[0] + r[1])
    return tuple(out)


def ref_rot_residuals9(m):
    g = kp.matmul(ref_transpose9(m), m)
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
        assert _same_bits(kp.cayley_rot9(q), ref_cayley_rot9(q)), q
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
        for m in (kp.rot_from_rod9(q), ref_cayley_rot9(q), ref_cayley_inv9(q), wide):
            assert _same_bits(kp.rot_residuals9(m), ref_rot_residuals9(m)), m


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
    assert set(compiled) == python


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
        assert _same_outcome(kc, "cayley_rot9", q), q
        assert _same_outcome(kc, "cayley_inv9", q), q
        assert _same_outcome(kc, "matmul_comp", kp.rot_from_rod9(q), kp.cayley_inv9(q)), q


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
    "dot3": (3, 3),
    "cross3": (3, 3),
    "norm3": (3,),
    "matvec": (9, 3),
    "matmul": (9, 9),
    "matmul_comp": (9, 9),
    "euler_rodrigues9": (3, 0),
    "rot_from_rod9": (3,),
    "half_turn9": (3,),
    "cayley_inv9": (3,),
    "cayley_rot9": (3,),
    "rod_from_rot9": (9,),
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
        ("rod_from_rot9", ((-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),), ZeroDivisionError),
        ("euler_rodrigues9", ((0.0, 0.0, 1.0), math.inf), ValueError),
        ("matmul_comp", ((1e300,) * 9, (1e8,) * 9), OverflowError),
        ("matmul_comp", ((math.inf, -math.inf, 0.0) * 3, (1.0,) * 9), ValueError),
        ("dot3", ((1.0, 2.0), (1.0, 2.0, 3.0)), IndexError),
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
    c = kp.cross3(_lifted._unit(*q), r) if any(q) else r
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
        if abs(kp.norm3(a) - 1.0) > 1e-12:
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


def test_default_prefers_compiled(kc):
    out = subprocess.run(
        [sys.executable, "-c", "import rodvec; print(rodvec.backend_name())"],
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "compiled"
