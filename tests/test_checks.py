"""Pins of ``rodvec check`` and of the public routines it drives.

The residuals of ``checks.run_diagnostics``, the values returned by the
public Donkin, half-angle, composition, Cayley and Euler-Rodrigues
functions, and the class and text of each of their errors are pinned
exactly, so that a change to how they are computed cannot move a bit
unnoticed.
"""

import collections
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_axis_angle, rand_rod, rand_unit, rand_vec
from reference import outcome, ref_rand_pair, ref_rand_rodrigues, ref_rand_unit
from rodvec import _lifted, checks
from rodvec._backend import backend_name, kernels as _k
from rodvec._lifted import _IDENTITY9, _max_diff9
from rodvec.cayley import cayley_inverse_explicit, cayley_rotation
from rodvec.cli import main
from rodvec.composition import CompositionDiagnostics, composition_diagnostics
from rodvec.core import (
    Matrix3,
    RodriguesVector,
    RotationMatrix,
    UnitVector,
    Vec3,
    euler_rodrigues_matrix,
    matrix_from_rodrigues,
)
from rodvec.errors import DegenerateComposition, NotPerpendicular, ParallelAxes
from rodvec.geometry import (
    SphericalTriangle,
    arc_angle,
    bisector_intersection,
    donkin_residual,
    donkin_triangle,
    donkin_verify,
    half_angle_point,
    tangent_to_bisector,
)
from rodvec.kinematics import AngularVelocity, infinitesimal_displacement, velocity_field

RESIDUALS = Path(__file__).resolve().parent / "data" / "check_residuals.txt"

def _pinned_residuals():
    rows = {}
    for line in RESIDUALS.read_text().splitlines():
        if line and not line.startswith("#"):
            n, seed, *hexes = line.split()
            rows[int(n), int(seed)] = hexes
    return rows


@pytest.mark.parametrize("n", [1, 7, 100])
def test_residuals_are_pinned(n):
    runs = [(seed, hexes) for (m, seed), hexes in _pinned_residuals().items() if m == n]
    assert len(runs) == 50
    for seed, hexes in runs:
        results = checks.run_diagnostics(n, seed)
        assert [r.max_residual.hex() for r in results] == hexes, f"n={n} seed={seed}"
        assert [(r.name, r.samples, r.tolerance) for r in results] == [
            ("formula-agreement", n, 1e-12),
            ("explicit-inverse", n, 1e-12),
            ("bridge-residuals", n, 1e-12),
            ("lambda-residual", n, 1e-10),
            ("donkin-closure", n, 1e-10),
        ]


def test_each_drawn_pair_is_composed_once(monkeypatch):
    """On the pinned seeds lambda-residual composes each sample only inside
    _composition_diagnostics, and donkin-closure each pair with one
    _compose_chain, which gives both Q3 and lambda; no pair reaches _lambda
    or _compose_lifted, the overflow and half-turn fallbacks."""
    counts = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_lambda", "_compose_lifted"):
        assert not hasattr(checks, name)
        count(_lifted, name)
    count(checks, "_compose_chain")
    count(checks, "_composition_diagnostics")
    for n, seed in _pinned_residuals():
        counts.clear()
        checks.run_diagnostics(n, seed)
        assert counts == {"_compose_chain": n, "_composition_diagnostics": n}, (n, seed)


#: float.hex of the five max_residual values of run_diagnostics(1000, 42),
#: the size of the README's example
README_RESIDUALS = [
    "0x1.8000000000000p-51",
    "0x1.108011ae62130p-47",
    "0x1.ee8f5a0df6907p-52",
    "0x1.01fe03f61bad0p-48",
    "0x1.0000000000000p-50",
]


def test_readme_size_residuals_are_pinned():
    assert [r.max_residual.hex() for r in checks.run_diagnostics(1000, 42)] == README_RESIDUALS


# --- the draws -------------------------------------------------------------


#: each interleaving of draws the diagnostics use, as (checks' draws,
#: reference draws); "gauss" enters the next draw with a pair half-used
_DRAWS = {
    "axis-angle": (
        lambda rng: checks._rand_axis_angle(rng, math.pi - 1e-3),
        lambda rng: (ref_rand_unit(rng), rng.uniform(-(math.pi - 1e-3), math.pi - 1e-3)),
    ),
    "rodrigues": (
        lambda rng: checks._rand_rodrigues(rng, math.pi - 1e-3),
        lambda rng: ref_rand_rodrigues(rng, math.pi - 1e-3),
    ),
    "pair": (checks._rand_pair, ref_rand_pair),
    "bridge-uniforms": (
        lambda rng: tuple(checks._uniform(rng, -2, 2) for _ in range(3)),
        lambda rng: tuple(rng.uniform(-2, 2) for _ in range(3)),
    ),
    "gauss": (lambda rng: rng.gauss(0.0, 1.0), lambda rng: rng.gauss(0.0, 1.0)),
}


@pytest.mark.parametrize("seed", [0, 1, 42, 20261020])
def test_draws_are_the_stdlibs(seed):
    """The draws formed from random() alone keep the bits of gauss and
    uniform, over 10 000 draws in a seeded random order of interleavings."""
    order = random.Random(seed + 1)
    new, ref = random.Random(seed), random.Random(seed)
    kinds = list(_DRAWS)
    seen = collections.Counter()
    for i in range(10_000):
        kind = order.choice(kinds)
        half_used = new.gauss_next is not None
        seen[kind, half_used] += 1
        draw, ref_draw = _DRAWS[kind]
        assert outcome(draw, new) == outcome(ref_draw, ref), (seed, i, kind)
    assert set(seen) == {(kind, half_used) for kind in kinds for half_used in (False, True)}


class _Scripted(random.Random):
    """random() returns the values of a script, in a loop."""

    def __init__(self, script):
        super().__init__(0)
        self.values = itertools.cycle(script)

    def random(self):
        return next(self.values)


#: 0.0 gives Box-Muller radii of -0.0, so normals of -0.0 that gauss folds
#: to 0.0, and unit draws with n <= 1e-3 that are drawn again
_SCRIPT = [0.1, 0.0, 0.2, 0.0, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, 0.0, 0.9, 0.6, 0.0, 0.0, 0.25]


@pytest.mark.parametrize("kind", list(_DRAWS))
def test_draws_keep_the_stdlibs_signed_zeros(kind):
    new, ref = _Scripted(_SCRIPT), _Scripted(_SCRIPT)
    draw, ref_draw = _DRAWS[kind]
    for i in range(len(_SCRIPT) * 4):
        assert outcome(draw, new) == outcome(ref_draw, ref), (kind, i)


def test_diagnostics_call_neither_gauss_nor_uniform(monkeypatch):
    def banned(*args):
        raise AssertionError("drawn with gauss or uniform")

    monkeypatch.setattr(random.Random, "gauss", banned)
    monkeypatch.setattr(random.Random, "uniform", banned)
    for (n, seed), hexes in _pinned_residuals().items():
        if n == 7:
            assert [r.max_residual.hex() for r in checks.run_diagnostics(n, seed)] == hexes, seed


# --- the public wrappers -------------------------------------------------


def _outcome(fn, *args):
    """repr of fn(*args), or the class and text of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error is the pinned value
        return f"{type(exc).__name__}: {exc}"


#: rotations with components past 2**53, past the overflow of cayley_inv9
#: and of Q2 x Q1, and below the underflow of Q.Q
EDGE_ROTATIONS = [
    RodriguesVector(0.0, 0.0, 0.0),
    RodriguesVector(1e17, 2e16, -3e16),
    RodriguesVector(-4e160, 1e150, 2e160),
    RodriguesVector(1e300, -1e300, 1e299),
    RodriguesVector(1e-170, 0.0, 0.0),
    RodriguesVector(0.0, 1e-170, 3e-171),
    RodriguesVector(1e200, 0.0, 0.0),
    RodriguesVector(0.0, 1e200, -1e199),
    RodriguesVector(5e-324, 0.0, 0.0),
]


def _wrapper_outcomes():
    """The outcome of every public wrapper on 60 seeded samples and on the
    edge rotations, one line each."""
    rng = random.Random(20261018)
    lines = []
    pairs = [(rand_rod(rng, 2.7), rand_rod(rng, 2.7)) for _ in range(60)]
    pairs += [(a, b) for a in EDGE_ROTATIONS for b in EDGE_ROTATIONS]
    for q1, q2 in pairs:
        axis, theta = rand_axis_angle(rng, math.pi - 1e-3)
        lines.append(_outcome(euler_rodrigues_matrix, axis, theta))
        lines.append(_outcome(cayley_rotation, q1))
        lines.append(_outcome(cayley_inverse_explicit, q1))
        lines.append(_outcome(donkin_triangle, q1, q2))
        try:
            tri = donkin_triangle(q1, q2)
        except Exception:  # pinned above
            continue
        lines.append(_outcome(donkin_verify, tri))
        lines.append(_outcome(donkin_residual, tri.c, tri.a, tri.b))
        lines.append(_outcome(half_angle_point, q1, tri.a))
        lines.append(_outcome(half_angle_point, q2, tri.b))
        lines.append(_outcome(composition_diagnostics, q2, q1, tri.a))
    for theta in (0.0, math.pi, -math.pi, 7.0, 1e300, 5e-324):
        lines.append(_outcome(euler_rodrigues_matrix, UnitVector(0.6, 0.0, -0.8), theta))
    return lines


WRAPPER_DIGEST = "2a6cbc455f66159e2e36fed61cf5c4af800573aed2cbb25181e022e62772bd52"


def test_wrapper_outcomes_are_pinned():
    lines = _wrapper_outcomes()
    assert len(lines) == 970
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WRAPPER_DIGEST


#: points with components past the overflow of a product with the edge
#: rotations, below the underflow of one, and signed zeros
EDGE_VECTORS = [
    Vec3(0.0, 0.0, 0.0),
    Vec3(-0.0, 0.0, -0.0),
    Vec3(1e200, 0.0, 0.0),
    Vec3(0.0, 1e200, -1e199),
    Vec3(1.7e308, -1.7e308, 0.0),
    Vec3(1e-170, 0.0, 3e-171),
    Vec3(5e-324, 0.0, 0.0),
]


def _vector_outcomes():
    """The outcome of every typed 3-vector product (cross products,
    matrix-vector products and the arc angle) on 40 seeded samples and on
    the edge rotations and points, one line each."""
    rng = random.Random(20261019)
    pairs = [(rand_rod(rng, 2.7), rand_vec(rng)) for _ in range(40)]
    pairs += [(q, x) for q in EDGE_ROTATIONS for x in EDGE_VECTORS]
    lines = []
    for q, x in pairs:
        wide = Matrix3(tuple(rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-200.0, 200.0) for _ in range(9)))
        r = matrix_from_rodrigues(q)
        lines.append(_outcome(q.cross, x))
        lines.append(_outcome(x.cross, q))
        lines.append(_outcome(r.matrix.__matmul__, x))
        lines.append(_outcome(wide.__matmul__, x))
        lines.append(_outcome(r.apply, x))
        lines.append(_outcome(r.__matmul__, x))
        lines.append(_outcome(tangent_to_bisector, q, x))
        lines.append(_outcome(bisector_intersection, q, x))
        lines.append(_outcome(infinitesimal_displacement, q, x))
        lines.append(_outcome(velocity_field, AngularVelocity(*q.as_tuple()), x))
    units = [rand_unit(rng) for _ in range(40)]
    units += [UnitVector(1.0, 0.0, 0.0), UnitVector(-1.0, 0.0, 0.0), UnitVector(0.0, -0.0, 1.0)]
    for u, v in zip(units, units[1:] + units[:1]):
        lines.append(_outcome(arc_angle, u, v))
        lines.append(_outcome(arc_angle, u, u))
        lines.append(_outcome(arc_angle, u, -u))
    return lines


VECTOR_DIGEST = "2b975ca7b9f7ed0d4ea80893a3b90cbde4f4aae6661000ec4b17eec315295034"


def test_vector_product_outcomes_are_pinned():
    lines = _vector_outcomes()
    assert len(lines) == 1159
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VECTOR_DIGEST


def test_diagnostic_result_is_an_immutable_record():
    r = checks.DiagnosticResult("formula-agreement", 3, 2e-16, 1e-12)
    fields = (r.name, r.samples, r.max_residual, r.tolerance)
    assert fields == ("formula-agreement", 3, 2e-16, 1e-12)
    assert r.ok and not checks.DiagnosticResult("donkin-closure", 1, 1e-9, 1e-10).ok
    assert repr(r) == (
        "DiagnosticResult(name='formula-agreement', samples=3, max_residual=2e-16, tolerance=1e-12)"
    )
    assert hash(r) == hash(checks.DiagnosticResult("formula-agreement", 3, 2e-16, 1e-12))
    with pytest.raises(AttributeError):
        r.max_residual = 0.0
    with pytest.raises(AttributeError):
        r.extra = 1


def test_wrapper_result_types():
    q1, q2 = RodriguesVector(0.3, -0.2, 1.1), RodriguesVector(-0.7, 0.4, 0.25)
    tri = donkin_triangle(q1, q2)
    assert type(tri) is SphericalTriangle
    assert all(type(v) is UnitVector for v in (tri.a, tri.b, tri.c))
    assert type(half_angle_point(q1, tri.a)) is UnitVector
    assert type(donkin_verify(tri)) is float
    diag = composition_diagnostics(q2, q1, tri.a)
    assert type(diag) is CompositionDiagnostics
    assert type(diag.numerator) is Vec3
    assert all(type(v) is float for v in (diag.lam, diag.residual))
    for r in (
        cayley_rotation(q1),
        cayley_rotation(RodriguesVector(1e17, 0.0, 0.0)),
        euler_rodrigues_matrix(tri.b, 2.0),
    ):
        assert type(r) is RotationMatrix and type(r.matrix) is Matrix3
        assert type(r.elements) is tuple and all(type(v) is float for v in r.elements)
    for m in (cayley_inverse_explicit(q1), cayley_inverse_explicit(RodriguesVector(1e200, 0.0, 0.0))):
        assert type(m) is Matrix3
        assert type(m.elements) is tuple and all(type(v) is float for v in m.elements)


def test_worked_triangle_and_diagnostics():
    q1, q2 = RodriguesVector(1.0, 0.0, 0.0), RodriguesVector(0.0, 1.0, 0.0)
    tri = donkin_triangle(q1, q2)
    assert repr(tri) == (
        "SphericalTriangle(a=UnitVector(x=0.0, y=-0.7071067811865475, z=-0.7071067811865476), "
        "b=UnitVector(x=0.0, y=0.0, z=-1.0), "
        "c=UnitVector(x=-0.7071067811865475, y=0.0, z=-0.7071067811865475))"
    )
    assert repr(composition_diagnostics(q2, q1, tri.a)) == (
        "CompositionDiagnostics(lam=1.0, numerator=Vec3(x=1.0, y=1.0, z=-1.0), residual=0.0)"
    )
    assert donkin_verify(tri).hex() == "0x1.72cece675d1fcp-53"


# --- the error paths -----------------------------------------------------

S = math.sqrt(0.5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: half_angle_point(RodriguesVector(0.0, 0.0, 0.0), UnitVector(1.0, 0.0, 0.0)),
            ValueError,
            "half_angle_point needs a nonzero rotation",
        ),
        (
            lambda: half_angle_point(RodriguesVector(0.0, 0.0, 1.0), UnitVector(0.6, 0.0, 0.8)),
            NotPerpendicular,
            "a must lie in the plane perpendicular to Q",
        ),
        (
            lambda: half_angle_point(RodriguesVector(0.0, 1.7e308, -1.7e308), UnitVector(0.0, S, S)),
            ValueError,
            "non-finite component: inf",
        ),
        (
            lambda: composition_diagnostics(
                RodriguesVector(0.2, 0.0, 0.0), RodriguesVector(0.0, 0.0, 1.0), UnitVector(0.0, 0.6, 0.8)
            ),
            NotPerpendicular,
            "a must be perpendicular to Q1",
        ),
        (
            # not perpendicular and degenerate: the perpendicularity test comes first
            lambda: composition_diagnostics(
                RodriguesVector(1.0, 1.0, 0.0), RodriguesVector(1.0, 0.0, 0.0), UnitVector(0.6, 0.8, 0.0)
            ),
            NotPerpendicular,
            "a must be perpendicular to Q1",
        ),
        (
            lambda: composition_diagnostics(
                RodriguesVector(1.0, 1.0, 0.0), RodriguesVector(1.0, 0.0, 0.0), UnitVector(0.0, 0.0, 1.0)
            ),
            DegenerateComposition,
            "composition is a half-turn; lambda residual undefined",
        ),
        (
            # a regular composition whose unscaled numerator overflows
            lambda: composition_diagnostics(
                RodriguesVector(-1e160, 1e160, 0.0), RodriguesVector(1e160, 0.0, 0.0), UnitVector(0.0, 0.0, 1.0)
            ),
            ValueError,
            "non-finite component: -inf",
        ),
        (
            lambda: donkin_triangle(RodriguesVector(0.0, 0.0, 0.0), RodriguesVector(0.0, 1.0, 0.0)),
            ParallelAxes,
            "both rotations must be nonzero",
        ),
        (
            lambda: donkin_triangle(RodriguesVector(0.0, 1.0, 0.0), RodriguesVector(0.0, 0.0, 0.0)),
            ParallelAxes,
            "both rotations must be nonzero",
        ),
        (
            lambda: donkin_triangle(RodriguesVector(1.0, 0.0, 0.0), RodriguesVector(-2.0, 0.0, 0.0)),
            ParallelAxes,
            "rotation axes are parallel; no spherical triangle exists",
        ),
        (
            lambda: donkin_triangle(RodriguesVector(1e-6, 0.0, 0.0), RodriguesVector(0.0, 1e-6, 0.0)),
            ValueError,
            "degenerate spherical triangle: vertices are collinear",
        ),
        (
            lambda: SphericalTriangle(
                UnitVector(1.0, 0.0, 0.0), UnitVector(0.0, 1.0, 0.0), UnitVector(1.0, 0.0, 0.0)
            ),
            ValueError,
            "degenerate spherical triangle: vertices are collinear",
        ),
        (
            lambda: SphericalTriangle(Vec3(1e308, 0.0, 0.0), Vec3(-1e308, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),
            ValueError,
            "non-finite component: -inf",
        ),
        (
            # the sides are finite, their cross product is not
            lambda: SphericalTriangle(Vec3(1e200, 0.0, 0.0), Vec3(0.0, 1e200, 0.0), Vec3(0.0, 0.0, 1e200)),
            ValueError,
            "non-finite component: inf",
        ),
        (
            lambda: euler_rodrigues_matrix(UnitVector(0.0, 0.0, 1.0), math.nan),
            ValueError,
            "non-finite component: nan",
        ),
        (
            lambda: euler_rodrigues_matrix(UnitVector(0.0, 0.0, 1.0), -math.inf),
            ValueError,
            "non-finite component: -inf",
        ),
    ],
)
def test_error_class_and_message(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# --- the kernel output checks on the check path ---------------------------


class TestKernelOutputChecks:
    """``rodvec check`` finite-checks and SO(3)-checks the matrices of the
    Euler-Rodrigues and Cayley kernels: a kernel that returns a bad matrix
    fails the run at that matrix, with exit code 2 and the message of
    RotationMatrix(Matrix3(...))."""

    def run_corrupted(self, capsys, monkeypatch, kernel, change):
        real = getattr(_k, kernel)
        calls = []

        def corrupted(*args):
            calls.append(args)
            return change(real(*args))

        monkeypatch.setattr(_k, kernel, corrupted)
        code = main(["check", "--n", "3"])
        out = capsys.readouterr()
        assert out.out == f"backend: {backend_name()}\n"
        assert len(calls) == 1
        return code, out.err

    @pytest.mark.parametrize("kernel", ["euler_rodrigues9", "cayley_inv9"])
    def test_flipped_sign_fails_the_so3_check(self, capsys, monkeypatch, kernel):
        # the Cayley rotation is 2 (1 - Qx)^-1 - 1: an entry of the inverse
        # with its sign flipped flips that entry of the rotation
        result = self.run_corrupted(capsys, monkeypatch, kernel, lambda m: (m[0], -m[1], *m[2:]))
        assert result == (
            2,
            "error: matrix fails SO(3) checks: |R^T R - 1| = 9.703e-01, |det - 1| = 1.103e+00\n",
        )

    # not cayley_inv9: _cayley_inv9 replaces a non-finite kernel result with
    # the scaled closed form, so no NaN reaches the Cayley rotation's check
    @pytest.mark.parametrize("kernel", ["euler_rodrigues9"])
    def test_nan_entry_fails_the_finite_check(self, capsys, monkeypatch, kernel):
        result = self.run_corrupted(capsys, monkeypatch, kernel, lambda m: (*m[:4], math.nan, *m[5:]))
        assert result == (2, "error: non-finite component: nan\n")


# --- a nan residual fails its diagnostic ----------------------------------


def _nan_on_call(monkeypatch, owner, name, k, change):
    """Make call k (from 0) of owner.name return change of its result."""
    real = getattr(owner, name)
    calls = itertools.count()

    def corrupted(*args):
        out = real(*args)
        return change(out) if next(calls) == k else out

    monkeypatch.setattr(owner, name, corrupted)


def _nan_entry(m):
    """m with a nan for its fifth entry: not the first, which max would keep."""
    return (*m[:4], math.nan, *m[5:])


class TestNanResiduals:
    """A nan residual fails its diagnostic wherever it falls among the
    samples: max(worst, nan) is worst, so the worst residual must carry the
    nan itself, and ``rodvec check`` then prints it and exits 1."""

    def run_check(self, capsys):
        code = main(["check", "--n", "5", "--seed", "7"])
        return code, capsys.readouterr().out.splitlines()[1:]

    def assert_only_failure(self, lines, name):
        for line in lines:
            if line.startswith(name + ":"):
                assert " max_residual=nan " in line and line.endswith(" FAIL"), line
            else:
                assert line.endswith(" PASS"), line

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_bridge_residuals(self, monkeypatch, k):
        # not through the command: formula-agreement checks the matrix of
        # rot_from_rod9 first and raises
        _nan_on_call(monkeypatch, _k, "rot_from_rod9", k, lambda m: (math.nan,) * 9)
        result = checks._check_bridge_residuals(10, 1)
        assert math.isnan(result.max_residual) and not result.ok

    @pytest.mark.parametrize("k", [0, 5, 9])
    def test_explicit_inverse(self, capsys, monkeypatch, k):
        # residual k of the ten, two per sample: the first, one of a middle
        # sample and the last
        i = k % 2
        _nan_on_call(monkeypatch, _k, "inverse_residuals9", k // 2, lambda r: (*r[:i], math.nan, *r[i + 1 :]))
        code, lines = self.run_check(capsys)
        assert code == 1
        self.assert_only_failure(lines, "explicit-inverse")

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_lambda_residual(self, capsys, monkeypatch, k):
        _nan_on_call(monkeypatch, checks, "_composition_diagnostics", k, lambda d: (d[0], d[1], math.nan))
        code, lines = self.run_check(capsys)
        assert code == 1
        self.assert_only_failure(lines, "lambda-residual")

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_donkin_closure(self, capsys, monkeypatch, k):
        _nan_on_call(monkeypatch, _lifted, "_matmul9", k, _nan_entry)
        code, lines = self.run_check(capsys)
        assert code == 1
        self.assert_only_failure(lines, "donkin-closure")

    @pytest.mark.parametrize("i", range(9))
    def test_max_diff9_keeps_a_nan_anywhere(self, i):
        a = list(_IDENTITY9)
        a[i] = math.nan
        assert math.isnan(_max_diff9(tuple(a), _IDENTITY9))
        assert math.isnan(_max_diff9(_IDENTITY9, tuple(a)))
        assert _max_diff9(_IDENTITY9, _IDENTITY9) == 0.0


def _max_diff9_two_maps(a, b):
    """The two-map form that _max_diff9 replaced, kept as its reference."""
    m = max(map(abs, map(float.__sub__, a, b)))
    if math.isfinite(sum(a) + sum(b)):
        return m
    return _lifted._nan_max(tuple(map(abs, map(float.__sub__, a, b))))


_entries = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)


@settings(max_examples=1000)
@given(st.tuples(*[_entries] * 9), st.tuples(*[_entries] * 9))
def test_max_diff9_matches_the_two_map_form(a, b):
    assert outcome(_max_diff9, a, b) == outcome(_max_diff9_two_maps, a, b)
