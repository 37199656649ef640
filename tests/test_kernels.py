"""Exact-arithmetic, reference and backend-parity checks for the scalar kernels.

The references are in ``reference.py``: the double-double pipeline composed
from one helper per step (two_sum, two_prod, dd_add, dd_div, ...), which
the pure-Python kernels write out inline and must match bit for bit, and
the formulas of the deleted kernels (``matmul``, ``transpose9``, ``skew9``,
``compose_num_den``, ``half_turn9``, ``rod_from_rot9`` and the 3-vector
products), which their callers now write out.
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
from hypothesis import example, given, settings, strategies as st

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
from rodvec.errors import DegenerateComposition, NotARotation, NotPerpendicular
from rodvec.geometry import donkin_triangle, tangent_to_bisector
from conftest import anyfloat, euler_parameters, q_of, rand_axis_angle_t, rand_unit_t
from reference import (
    cross,
    dd_add_d,
    dd_div_terms,
    den_dd,
    dot,
    exact_dot,
    exact_matrix,
    mat_vec,
    matrix_of_euler_parameters,
    norm,
    outcome,
    ref_cayley_inv9,
    ref_composition_diagnostics,
    ref_cross,
    ref_euler_rodrigues9,
    ref_half_turn9,
    ref_inverse_residuals9,
    ref_law_residual,
    ref_lift_matrix9,
    ref_matmul9,
    ref_rot_from_rod9,
    ref_rot_residuals9,
    ref_skew9,
    ref_transpose9,
    raised,
    same_bits,
    two_prod,
    two_sum,
)

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
    q = q_of(*rand_axis_angle_t(rng, i=i, near_pole_every=10))
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


# ---------------------------------------------------- exactness, bit identity


def test_two_prod_is_exact():
    rng = random.Random(99)
    for _ in range(500):
        a = rng.uniform(-1e3, 1e3)
        b = rng.uniform(-1e3, 1e3)
        p, e = two_prod(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_two_sum_is_exact():
    rng = random.Random(98)
    for _ in range(500):
        a = rng.uniform(-1e6, 1e6)
        b = rng.uniform(-1e-6, 1e-6)
        s, e = two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_cayley_kernels_match_reference_bitwise():
    for q in _qs(11, 1500):
        assert outcome(kp.cayley_inv9, q) == outcome(ref_cayley_inv9, q), q


def test_inverse_residuals9_matches_reference_bitwise():
    # M the explicit inverse of Q, a rotation, entries log-uniform over
    # 1e-200..1e200, and subnormal entries, for the Q of _qs and _mixed_qs
    rng = random.Random(12)
    for q in _qs(13, 500) + _mixed_qs(28, 500):
        wide = tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-200.0, 200.0) for _ in range(9))
        tiny = tuple(rng.uniform(-1.0, 1.0) * 2.0**-1022 for _ in range(9))
        for m in (ref_cayley_inv9(q), kp.rot_from_rod9(q), wide, tiny):
            assert outcome(kp.inverse_residuals9, q, m) == outcome(ref_inverse_residuals9, q, m), (q, m)


def test_inverse_residuals9_keeps_signed_zeros_and_nans():
    # every sign of zero in Q and in M, and a nan in each component of Q and
    # each entry of M, which makes both residuals nan
    m = kp.cayley_inv9((0.3, -0.2, 1.1))
    for signs in range(8):
        q = tuple(-0.0 if signs >> i & 1 else 0.0 for i in range(3))
        for mm in (m, tuple(-0.0 if v == 0.0 else v for v in _lifted._IDENTITY9), _lifted._IDENTITY9):
            assert outcome(kp.inverse_residuals9, q, mm) == outcome(ref_inverse_residuals9, q, mm), (q, mm)
        assert kp.inverse_residuals9(q, _lifted._IDENTITY9) == (0.0, 0.0)
    for i in range(3):
        q = [0.3, -0.2, 1.1]
        q[i] = math.nan
        assert all(map(math.isnan, kp.inverse_residuals9(q, m))), q
    for i in range(9):
        mm = m[:i] + (math.nan,) + m[i + 1 :]
        assert all(map(math.isnan, kp.inverse_residuals9((0.3, -0.2, 1.1), mm))), i


def test_rot_residuals9_matches_reference_bitwise():
    rng = random.Random(14)
    for q in _qs(15, 500):
        wide = tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-200.0, 200.0) for _ in range(9))
        inv = ref_cayley_inv9(q)
        # the Cayley rotation 2 (1 - Qx)^-1 - 1
        rot = tuple(2.0 * v - 1.0 if i in (0, 4, 8) else 2.0 * v for i, v in enumerate(inv))
        for m in (kp.rot_from_rod9(q), rot, inv, wide):
            assert outcome(kp.rot_residuals9, m) == outcome(ref_rot_residuals9, m), m
    # entries that underflow, overflow or are nan, inf or a signed zero:
    # the largest residual keeps a nan only in first place, as max() does
    for m in [m for pair in _mixed_operands(27, 1500) for m in pair] + _special_matrices():
        assert outcome(kp.rot_residuals9, m) == outcome(ref_rot_residuals9, m), m


def test_rot_from_rod9_matches_the_deleted_formula_bitwise():
    for q in _qs(17, 1000) + _mixed_qs(18, 3000):
        assert outcome(kp.rot_from_rod9, q) == outcome(ref_rot_from_rod9, q), q


def test_euler_rodrigues9_matches_the_deleted_formula_bitwise():
    for n, theta in _axes_and_angles(_qs(19, 1000) + _mixed_qs(20, 3000), 21):
        assert outcome(kp.euler_rodrigues9, n, theta) == outcome(ref_euler_rodrigues9, n, theta), (n, theta)


def test_compensated_kernels_match_reference_bitwise_on_mixed_scales():
    # products that underflow to subnormals or zero, lose bits in the split
    # or overflow, side by side in one call; an inverse_residuals9 whose
    # fsum overflows or meets inf - inf raises as the reference does
    for q in _mixed_qs(22, 3000):
        assert outcome(kp.cayley_inv9, q) == outcome(ref_cayley_inv9, q), q
    for a, b in _mixed_operands(23, 3000):
        assert outcome(kp.inverse_residuals9, a[:3], b) == outcome(ref_inverse_residuals9, a[:3], b), (a, b)
        assert outcome(kp.inverse_residuals9, b[6:], a) == outcome(ref_inverse_residuals9, b[6:], a), (a, b)
    for m in _special_matrices():
        for q in ((0.3, -1e200, 5e-324), (0.0, -0.0, 2.0), (math.inf, 1.0, -0.0), (1.0, math.nan, 1e300)):
            assert outcome(kp.inverse_residuals9, q, m) == outcome(ref_inverse_residuals9, q, m), (q, m)


def test_inverse_residuals_are_those_of_the_correctly_rounded_products():
    # each entry is the fsum of exact products, so it is the exact dot
    # product rounded once; exponents are kept where no product underflows
    rng = random.Random(16)
    for _ in range(300):
        q = x, y, z = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-60.0, 60.0) for _ in range(3))
        m = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-60.0, 60.0) for _ in range(9))
        a = (1.0, z, -y, -z, 1.0, x, y, -x, 1.0)  # 1 - Qx
        want = tuple(
            max(
                abs(float(exact_dot(u[3 * i : 3 * i + 3], v[j::3])) - (1.0 if i == j else 0.0))
                for i in range(3)
                for j in range(3)
            )
            for u, v in ((a, m), (m, a))
        )
        assert kp.inverse_residuals9(q, m) == want, (q, m)


#: The largest error of an entry of rot_from_rod9(Q) against the exact
#: matrix of (1, Q), in units of u = 2**-53.  The worst of 300 000 draws of
#: each family of the test below was 7.07 u, near pi; the README gives it.
ROT_FROM_ROD9_BOUND = 8


def test_rot_from_rod9_is_within_its_bound_of_the_exact_matrix():
    # moderate Q, Q within 1e-15..1e-3 rad of pi, and ||Q|| log-uniform in
    # [1e-300, 1e149], where Q.Q is still finite
    rng = random.Random(zlib.crc32(b"rot_from_rod9 bound"))
    u = Fraction(1, 2**53)
    for family in ("moderate", "near pi", "wide"):
        worst = Fraction(0)
        for _ in range(1000):
            axis = rand_unit_t(rng)
            if family == "moderate":
                t = math.tan(0.5 * rng.uniform(-(math.pi - 1e-3), math.pi - 1e-3))
            elif family == "near pi":
                t = math.tan(0.5 * (math.pi - 10.0 ** rng.uniform(-15.0, -3.0)))
            else:
                t = 10.0 ** rng.uniform(-300.0, 149.0)
            q = tuple(t * c for c in axis)
            got = kp.rot_from_rod9(q)
            worst = max(worst, *(abs(Fraction(g) - e) for g, e in zip(got, exact_matrix((1, *q)))))
        assert worst <= ROT_FROM_ROD9_BOUND * u, (family, float(worst / u))


# ------------------------------------------------ cayley_inv9's two-term exit

#: a component of either sign from the least subnormal to the largest
#: float: log-uniform magnitudes, the edges of the range, signed zeros, and
#: any finite float
_component = st.one_of(
    st.tuples(st.floats(-324.0, 308.0), st.booleans()).map(lambda t: -(10.0 ** t[0]) if t[1] else 10.0 ** t[0]),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e154)),
    anyfloat,
)


@st.composite
def _rotation_q(draw):
    """Q = tan(theta/2) n of a random axis, with theta moderate or within
    1e-16 to 0.1 rad of pi."""
    v = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: dot(v, v) > 1e-6))
    n = norm(v)
    if draw(st.booleans()):
        theta = draw(st.floats(-math.pi, math.pi))
    else:
        theta = math.pi - 10.0 ** draw(st.floats(-16.0, -1.0))
    t = math.tan(0.5 * theta)
    return tuple(t * c / n for c in v)


#: the draws of the explicit inverse: full-range components, and moderate
#: and near-pi rotations
cayley_qs = st.one_of(st.tuples(_component, _component, _component), _rotation_q())


@settings(max_examples=1000, deadline=None)
@given(cayley_qs)
@example((0.0, -0.0, 0.0))
@example((5e-324, -0.0, 1e300))
@example((1e154, 1e-300, -2.2250738585072014e-308))
@example((1.7976931348623157e308, 1.0, -0.0))
def test_cayley_inv9_matches_the_three_term_reference(q):
    # ref_cayley_inv9 forms every entry's three quotient terms; the kernel
    # returns after two where the third cannot move the rounding
    assert outcome(kp.cayley_inv9, q) == outcome(ref_cayley_inv9, q), q


def test_cayley_inv9_without_its_exit_matches_the_reference(monkeypatch):
    # with the bound infinite, m is infinite (NaN where q2 = 0) and no entry
    # returns after two terms: the remaining steps alone give the bits
    monkeypatch.setattr(kp, "_Q3_BOUND", math.inf)
    for q in _qs(33, 300) + _mixed_qs(34, 600):
        assert outcome(kp.cayley_inv9, q) == outcome(ref_cayley_inv9, q), q


@settings(max_examples=1000, deadline=None)
@given(cayley_qs)
@example((389.6252420524236, 320.13651784197816, -129.54051752651836))  # |q3| = 2.81 u |q2|
def test_third_quotient_term_is_within_its_bound(q):
    # the bound the two-term exit rests on: |q3| <= (3 + eps) u |q2|, plus
    # at most 2**-1071 from the terms of the step that underflow; and q3 is
    # finite wherever q1 + q2 is
    u = 2.0**-53
    den = den_dd(*q)
    k = ref_skew9(q)
    for i in range(3):
        for j in range(3):
            num = dd_add_d(two_prod(q[i], q[j]), 1.0 if i == j else k[3 * i + j])
            q1, q2, q3 = dd_div_terms(num, den)
            if math.isfinite(q1 + q2):
                assert abs(q3) <= 3.01 * u * abs(q2) + 2.0**-1071, (q, i, j)


# --------------------------------------- inverse_residuals9 on any finite input


@settings(max_examples=1000, deadline=None)
@given(cayley_qs, st.tuples(*[st.one_of(_component, st.floats(-1.0, 1.0))] * 9))
@example((1.0, 1.0, 1.0), (1.7e308, 1.0, 0.0, 1.0, -1.7e308, 1.0, -1.7e308, 1.0, -1.7e308))
@example((1e300, -1e300, 1e300), (1e8,) * 9)
@example((-0.0, 0.0, -0.0), (5e-324, -0.0, 0.0, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1.0, -1.0))
def test_inverse_residuals9_matches_reference_on_any_finite_input(q, m):
    # Q and M over the whole finite range: an entry of M beyond about
    # 2**996 does not split, its unit product's error term is nan, and the
    # kernel must give the general product's nan or fsum error there too
    assert outcome(kp.inverse_residuals9, q, m) == outcome(ref_inverse_residuals9, q, m), (q, m)


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
        "inverse_residuals9", "euler_rodrigues9", "rot_from_rod9", "cayley_inv9", "rot_residuals9"
    }


# ---------------------------------------- parity with the compiled backend


@pytest.fixture(scope="module")
def kc():
    return pytest.importorskip("rodvec._kernels_c")


def test_backends_report_names(kc):
    assert kp.BACKEND == "python"
    assert kc.BACKEND == "compiled"


def _backends_agree(kc, name, *args):
    """Both backends raise the same exception type, or return the same bits."""
    return same_bits(outcome(getattr(kp, name), *args), outcome(getattr(kc, name), *args))


def test_compensated_kernel_parity(kc):
    # the compiled kernels perform the operations of the Python ones in the
    # same order, so they agree bit for bit over the whole float range: Q of
    # random sign and ||Q|| log-uniform in [1e-300, 1e300], Q near pi, and
    # the edge cases of _qs
    for q in _qs(5, 1000):
        assert _backends_agree(kc, "cayley_inv9", q), q
        assert _backends_agree(kc, "inverse_residuals9", q, kp.cayley_inv9(q)), q
        assert _backends_agree(kc, "inverse_residuals9", q, kp.rot_from_rod9(q)), q


def test_kernel_parity_on_mixed_scales(kc):
    qs = _mixed_qs(24, 2000)
    for q in qs:
        assert _backends_agree(kc, "cayley_inv9", q), q
        assert _backends_agree(kc, "rot_from_rod9", q), q
    for n, theta in _axes_and_angles(qs, 25):
        assert _backends_agree(kc, "euler_rodrigues9", n, theta), (n, theta)
    for a, b in _mixed_operands(26, 2000):
        assert _backends_agree(kc, "inverse_residuals9", a[:3], b), (a, b)
        assert _backends_agree(kc, "rot_residuals9", a), a
        assert _backends_agree(kc, "rot_residuals9", b), b
    for m in _special_matrices():
        assert _backends_agree(kc, "rot_residuals9", m), m
        for q in ((0.3, -1e200, 5e-324), (math.inf, 1.0, -0.0), (1.0, math.nan, 1e300)):
            assert _backends_agree(kc, "inverse_residuals9", q, m), (q, m)


@settings(max_examples=1000, deadline=None)
@given(q=cayley_qs)
def test_cayley_inv9_parity_over_the_full_range(kc, q):
    assert _backends_agree(kc, "cayley_inv9", q), q


def test_inverse_residuals9_parity_on_explicit_inverse_draws(kc):
    # the samples of check's explicit-inverse diagnostic, drawn as it draws
    # them
    rng = random.Random(6)
    for _ in range(2000):
        q = checks._rand_rodrigues(rng, math.pi - 1e-3)
        assert _backends_agree(kc, "inverse_residuals9", q, _lifted._cayley_inv9(*q)), q


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)

#: the length of each kernel argument, 0 for a scalar
_ARGS = {
    "inverse_residuals9": (3, 9),
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
        assert _backends_agree(kc, name, *args), args


@pytest.mark.parametrize(
    "name,args,error",
    [
        ("euler_rodrigues9", ((0.0, 0.0, 1.0), math.inf), ValueError),
        # z m_1j and -y m_2j of (1 - Qx) M overflow together; inf - inf
        ("inverse_residuals9", ((1e300, -1e300, 1e300), (1e8,) * 9), OverflowError),
        ("inverse_residuals9", ((math.inf, math.inf, 0.0), (1.0,) * 9), ValueError),
        # every argument must have exactly its length
        ("inverse_residuals9", ((1.0,) * 4, (1.0,) * 9), ValueError),
        ("inverse_residuals9", ((1.0,) * 3, (1.0,) * 8), ValueError),
        ("inverse_residuals9", ((1.0,) * 2, (1.0,) * 10), ValueError),
        ("rot_from_rod9", ((1.0, 2.0),), ValueError),
        ("rot_residuals9", ((1.0,) * 10,), ValueError),
    ],
)
def test_backends_raise_alike(kc, name, args, error):
    assert raised(outcome(getattr(kp, name), *args)) is error
    assert raised(outcome(getattr(kc, name), *args)) is error


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
        assert outcome(lambda: Matrix3(m).transpose().elements) == outcome(ref_transpose9, m), m
        assert outcome(lambda: SkewMatrix(Vec3(*v)).matrix.elements) == outcome(ref_skew9, v), v
    for zeros in ((0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)):
        assert outcome(lambda: SkewMatrix(Vec3(*zeros)).matrix.elements) == outcome(ref_skew9, zeros)
        assert outcome(lambda: Matrix3(zeros * 3).transpose().elements) == outcome(ref_transpose9, zeros * 3)


def test_matmul9_matches_the_deleted_kernel():
    # _lifted._matmul9, behind donkin-closure's product and the typed
    # Matrix3 @ and RotationMatrix @, is the deleted matmul kernel's
    # formula: the same bits over the float range, special values included
    rng = random.Random(zlib.crc32(b"matmul"))
    for i in range(1000):
        wide = i % 2 == 1
        a, b = (tuple(_any_float(rng, wide) for _ in range(9)) for _ in range(2))
        assert outcome(_lifted._matmul9, a, b) == outcome(ref_matmul9, a, b), (a, b)
        a, b = (tuple(_finite_float(rng, wide) for _ in range(9)) for _ in range(2))
        typed = outcome(lambda: (Matrix3(a) @ Matrix3(b)).elements)
        assert typed == outcome(lambda: Matrix3(ref_matmul9(a, b)).elements), (a, b)


def _tupled(f):
    """f with its Vec3 result as a tuple."""
    return lambda *args: f(*args).as_tuple()


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
        vec = _tupled(Vec3)
        want = outcome(vec, *cross(a, b))
        outcomes.add(raised(want) or tuple)
        pairs = [
            (outcome(_tupled(Vec3(*a).cross), Vec3(*b)), want),
            (outcome(_tupled(tangent_to_bisector), RodriguesVector(*a), Vec3(*b)), want),
            (outcome(_tupled(Matrix3(m).__matmul__), Vec3(*b)), outcome(vec, *mat_vec(m, b))),
            (outcome(_tupled(_rotation_matrix(m).apply), Vec3(*b)), outcome(vec, *mat_vec(m, b))),
            (outcome(_tupled(_rotation_matrix(r).__matmul__), Vec3(*b)), outcome(vec, *mat_vec(r, b))),
            (outcome(_lifted._cross, a, b), outcome(ref_cross, a, b)),
            (outcome(_lifted._bisector, a, b), outcome(lambda: tuple(b[k] + cross(a, b)[k] for k in range(3)))),
            (
                outcome(_lifted._arc_angle, a, b),
                outcome(lambda: math.atan2(norm(ref_cross(a, b)), dot(a, b))),
            ),
        ]
        f1, f2 = (2.0 ** (math.frexp(max(map(abs, q)))[1] - 1) for q in (c, b))
        pairs.append(
            (
                outcome(_lifted._scaled_law_residual, a, b, c, d, lam),
                outcome(ref_law_residual, a, b, c, d, lam, f1, f2),
            )
        )
        for got, expected in pairs:
            assert got == expected, (a, b, c, d, m, lam)
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
    assert outcome(_lifted._lift_matrix9, e) == outcome(ref_lift_matrix9, e), e


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
        assert outcome(_lifted._rotation9, 0.0, *n) == outcome(ref_half_turn9, n), n
        q = tuple(c * 1e300 for c in n)
        assert outcome(_lifted._rotation9, 1.0, *q) == outcome(ref_half_turn9, _lifted._unit(*q)), q


def _typed_diagnostics(q2, q1, a):
    """composition_diagnostics on the typed values, as the float core's tuple."""
    d = composition_diagnostics(RodriguesVector(*q2), RodriguesVector(*q1), UnitVector(*a))
    return d.numerator.as_tuple(), d.lam, d.residual


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
        want = outcome(ref_composition_diagnostics, q2, q1, a)
        assert outcome(_lifted._composition_diagnostics, q2, q1, a) == want, (q2, q1, a)
        outcomes.add(raised(want) or tuple)
        if abs(norm(a) - 1.0) > 1e-12:
            continue
        assert outcome(_typed_diagnostics, q2, q1, a) == want, (q2, q1, a)
    assert outcomes == {tuple, NotPerpendicular, DegenerateComposition, ValueError}


def _typed_triangle(q1, q2):
    """donkin_triangle on the typed values, as the float core's tuple."""
    t = donkin_triangle(RodriguesVector(*q1), RodriguesVector(*q2))
    return t.a.as_tuple(), t.b.as_tuple(), t.c.as_tuple()


def test_donkin_triangle_vertices_are_the_float_core_bits():
    rng = random.Random(zlib.crc32(b"donkin_triangle"))
    seen = set()
    for i in range(1000):
        wide = i % 2 == 1
        q1 = tuple(_finite_float(rng, wide) for _ in range(3))
        q2 = tuple(_finite_float(rng, wide) for _ in range(3))
        want = outcome(_lifted._donkin_triangle, q1, q2)
        assert outcome(_typed_triangle, q1, q2) == want, (q1, q2)
        seen.add(raised(want) or tuple)
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
