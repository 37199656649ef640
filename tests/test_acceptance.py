"""Acceptance suite: one test per criterion, full sample counts, stated
tolerances.  Each test prints a PASS/FAIL line (run with -s to see them all).

Sampling is seeded and deterministic.  Rotation magnitudes: angles are drawn
from |theta| <= pi - 1e-3 where a criterion says so (||Q|| reaches ~2e3);
criterion 6 compares Rodrigues vectors with an ABSOLUTE 1e-12 tolerance, so
its pairs are drawn at moderate magnitude (|theta| <= 2.4, |1 - Q2.Q1| >=
0.05) where that tolerance is meaningful in float64 (one ulp of ||Q3||~1e4
already exceeds 1e-12).
"""

import math
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rodvec import (
    HalfTurn,
    RodriguesVector,
    UnitVector,
    Vec3,
    axis_angle_from_rodrigues,
    bisector_intersection,
    cayley_inverse_explicit,
    cayley_residuals,
    cayley_rotation,
    compose,
    composition_diagnostics,
    donkin_triangle,
    donkin_verify,
    euler_rodrigues_matrix,
    half_angle_point,
    infinitesimal_displacement,
    integrate_attitude,
    matrix_from_half_turn,
    matrix_from_rodrigues,
    skew,
    small_rotation_matrix,
    tangent_to_bisector,
)
from rodvec.cli import main as cli_main
from rodvec.kinematics import EXACT_STEP, FIRST_ORDER, AngularVelocity, AngularVelocitySample
from conftest import np_euler_rodrigues, q_of, rand_axis_angle_t, rand_unit_t, to_np, vec_np
from reference import ref_matmul_comp

N = 10_000


def _report(num: int, name: str, detail: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _rand_moderate_q(rng, max_angle=2.4):
    axis = rand_unit_t(rng)
    return q_of(axis, rng.uniform(-max_angle, max_angle))


def test_c01_formula_cross_agreement():
    rng = random.Random(101)
    worst = 0.0
    for i in range(N):
        axis, theta = rand_axis_angle_t(rng, i=i)
        q = q_of(axis, theta)
        u = UnitVector(*axis)
        e1 = euler_rodrigues_matrix(u, theta).elements
        e2 = matrix_from_rodrigues(q).elements
        e5 = cayley_rotation(q).elements
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(e1, e2)),
            max(abs(a - b) for a, b in zip(e2, e5)),
            max(abs(a - b) for a, b in zip(e1, e5)),
        )
    _report(1, "formula cross-agreement", f"max elementwise diff {worst:.3e} (tol 1e-12)", worst <= 1e-12)


def test_c02_explicit_inverse():
    rng = random.Random(102)
    ident = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    worst = 0.0
    seen_large = 0.0
    for i in range(N):
        axis, theta = rand_axis_angle_t(rng, i=i, near_pole_every=10)
        q = q_of(axis, theta)
        seen_large = max(seen_large, q.norm())
        m = cayley_inverse_explicit(q).elements
        k = skew(q).matrix.elements
        b = tuple((1.0 if j in (0, 4, 8) else 0.0) - k[j] for j in range(9))
        worst = max(
            worst,
            max(abs(a - e) for a, e in zip(ref_matmul_comp(b, m), ident)),
            max(abs(a - e) for a, e in zip(ref_matmul_comp(m, b), ident)),
        )
    ok = worst <= 1e-12 and seen_large >= 1e3
    _report(2, "explicit inverse", f"max |product - 1| {worst:.3e}, max ||Q|| {seen_large:.3g} (tol 1e-12)", ok)


def test_c03_bridge_residuals():
    rng = random.Random(103)
    worst = 0.0
    for i in range(N):
        axis, theta = rand_axis_angle_t(rng, i=i)
        q = q_of(axis, theta)
        x = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        r1, r2 = cayley_residuals(q, x)
        bound = 1e-12 * (1.0 + q.norm()) * max(x.norm(), 1e-300)
        worst = max(worst, r1 / bound, r2 / bound)
    _report(3, "tangent/reciprocal residuals", f"max residual/bound {worst:.3e} (<= 1)", worst <= 1.0)


def test_c04_composition_homomorphism():
    rng = random.Random(104)
    worst = 0.0
    produced = 0
    while produced < N:
        a1, t1 = rand_axis_angle_t(rng, i=produced)
        a2, t2 = rand_axis_angle_t(rng, i=produced + 7)
        q1 = q_of(a1, t1)
        q2 = q_of(a2, t2)
        den = 1.0 - q2.vec.dot(q1.vec)
        if abs(den) < 1e-3:
            continue
        q3 = compose(q2, q1)
        if isinstance(q3, HalfTurn):  # scale-aware routing can fire above 1e-3
            continue
        produced += 1
        d = np.abs(to_np(matrix_from_rodrigues(q3)) - to_np(matrix_from_rodrigues(q2)) @ to_np(matrix_from_rodrigues(q1)))
        worst = max(worst, float(np.max(d)))
    _report(4, "composition homomorphism", f"max ||R(Q3) - R2 R1|| {worst:.3e} (tol 1e-12)", worst <= 1e-12)


def test_c05_worked_composition():
    q3 = compose(RodriguesVector(0, 1, 0), RodriguesVector(1, 0, 0))
    diff = max(abs(q3.x - 1.0), abs(q3.y - 1.0), abs(q3.z + 1.0))
    angle_err = abs(axis_angle_from_rodrigues(q3).angle - 2 * math.pi / 3)
    ok = diff <= 1e-15 and angle_err <= 1e-12
    _report(5, "worked composition", f"|Q3 - (1,1,-1)| {diff:.3e}, angle err {angle_err:.3e}", ok)


def test_c06_order_swap():
    rng = random.Random(106)
    worst_norm = 0.0
    worst_diff = 0.0
    produced = 0
    while produced < N:
        q1 = _rand_moderate_q(rng)
        q2 = _rand_moderate_q(rng)
        den = 1.0 - q2.vec.dot(q1.vec)
        if abs(den) < 0.05:
            continue
        produced += 1
        a = compose(q2, q1)
        b = compose(q1, q2)
        worst_norm = max(worst_norm, abs(a.norm() - b.norm()))
        expected = (2.0 / den) * q2.vec.cross(q1.vec)
        worst_diff = max(worst_diff, ((a.vec - b.vec) - expected).norm())
        if q1.vec.cross(q2.vec).norm() > 1e-9:
            assert (a.vec - b.vec).norm() > 0.0
    ok = worst_norm <= 1e-12 and worst_diff <= 1e-12
    _report(6, "order-swap invariance", f"max norm diff {worst_norm:.3e}, max cross-term defect {worst_diff:.3e} (tol 1e-12)", ok)


def test_c07_half_turn_branch():
    r = compose(RodriguesVector(0, 0, 1), RodriguesVector(0, 0, 1))
    ok = isinstance(r, HalfTurn) and r.axis == UnitVector(0, 0, 1)
    m = matrix_from_half_turn(HalfTurn(UnitVector(0, 0, 1))).elements
    ok = ok and m == (-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0)
    _report(7, "half-turn branch", "compose((0,0,1),(0,0,1)) -> Half(z), matrix exact diag(-1,-1,1)", ok)


def test_c08_propositions():
    rng = random.Random(108)
    worst_a = worst_b = worst_c = 0.0
    produced = 0
    while produced < N:
        q = _rand_moderate_q(rng, max_angle=2.8)
        if q.norm() < 1e-3:
            continue
        x = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        n = UnitVector.from_vec(q.vec)
        perp = x - n.vec * n.dot(x)
        if perp.norm() < 1e-3 or x.norm() < 1e-3:
            continue
        produced += 1
        # (a) tangent perpendicular to both x and the axis
        t = tangent_to_bisector(q, x)
        worst_a = max(worst_a, abs(t.dot(x)), abs(t.dot(q.vec)))
        # (b) planar half-angle and preserved axis component
        p = bisector_intersection(q, x)
        perp2 = p - n.vec * n.dot(p)
        ang = math.atan2(perp.cross(perp2).dot(n.vec), perp.dot(perp2))
        worst_b = max(worst_b, abs(ang - q.angle() / 2.0), abs(n.dot(p) - n.dot(x)))
        # (c) half-angle point equals the half-angle rotation (numpy oracle)
        a = UnitVector.from_vec(perp)
        got = vec_np(half_angle_point(q, a))
        oracle = np_euler_rodrigues(vec_np(n), q.angle() / 2.0) @ vec_np(a)
        worst_c = max(worst_c, float(np.max(np.abs(got - oracle))))
    ok = worst_a <= 1e-12 and worst_b <= 1e-12 and worst_c <= 1e-12
    _report(8, "propositions a-c", f"residuals a {worst_a:.3e}, b {worst_b:.3e}, c {worst_c:.3e} (tol 1e-12)", ok)


def test_c09_donkin_suite():
    rng = random.Random(109)
    worst_dir = 0.0
    worst_closure = 0.0
    worst_lambda = 0.0
    produced = 0
    while produced < N:
        q1 = _rand_moderate_q(rng, max_angle=2.7)
        q2 = _rand_moderate_q(rng, max_angle=2.7)
        if q1.norm() < 1e-2 or q2.norm() < 1e-2:
            continue
        if q1.vec.cross(q2.vec).norm() <= 1e-6 * q1.norm() * q2.norm():
            continue
        q3 = compose(q2, q1)
        if isinstance(q3, HalfTurn):
            continue
        produced += 1
        tri = donkin_triangle(q1, q2)
        b_hat = half_angle_point(q1, tri.a)
        c_hat = half_angle_point(q2, tri.b)
        lam = 1.0 - q2.vec.dot(q1.vec)
        c_expected = tri.c.vec if lam > 0 else -tri.c.vec
        c_via_q3 = half_angle_point(q3, tri.a)
        worst_dir = max(
            worst_dir,
            (b_hat.vec - tri.b.vec).norm(),
            (c_hat.vec - tri.c.vec).norm(),
            (c_via_q3.vec - c_expected).norm(),
        )
        worst_closure = max(worst_closure, donkin_verify(tri))
        worst_lambda = max(worst_lambda, composition_diagnostics(q2, q1, tri.a).residual)
    ok = worst_dir <= 1e-10 and worst_closure <= 1e-10 and worst_lambda <= 1e-10
    _report(
        9,
        "donkin suite",
        f"direction {worst_dir:.3e}, closure {worst_closure:.3e}, lambda {worst_lambda:.3e} (tol 1e-10)",
        ok,
    )


def test_c10_infinitesimal_order():
    rng = random.Random(110)
    ratios = []
    for _ in range(50):
        u = rand_unit_t(rng)
        errs = []
        for s in (1e-2, 5e-3, 2.5e-3):
            q = RodriguesVector(s * u[0], s * u[1], s * u[2])
            errs.append(
                float(np.max(np.abs(to_np(small_rotation_matrix(q)) - to_np(matrix_from_rodrigues(q)))))
            )
        ratios.append(errs[0] / errs[1])
        ratios.append(errs[1] / errs[2])
    ratio_ok = all(abs(r - 4.0) <= 0.4 for r in ratios)

    worst_half = 0.0
    for _ in range(N):
        q = q_of(rand_unit_t(rng), rng.uniform(-3.1, 3.1))
        x = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = bisector_intersection(q, x) - x
        rhs = 0.5 * infinitesimal_displacement(q, x)
        bound = 1e-15 * (1.0 + x.norm() + rhs.norm())
        worst_half = max(worst_half, (lhs - rhs).norm() / bound)
    ok = ratio_ok and worst_half <= 1.0
    _report(
        10,
        "infinitesimal order",
        f"remainder ratios 4 +/- 10% {ratio_ok}, half-way residual/bound {worst_half:.3e}",
        ok,
    )


def test_c11_integrator():
    samples = [
        AngularVelocitySample(0.0, AngularVelocity(0, 0, 1)),
        AngularVelocitySample(math.pi / 2, AngularVelocity(0, 0, 1)),
    ]
    want = to_np(matrix_from_rodrigues(RodriguesVector(0, 0, 1)))
    worst = 0.0
    for substeps in (2, 10, 1000):
        final = integrate_attitude(samples, EXACT_STEP, substeps=substeps).final
        worst = max(worst, float(np.max(np.abs(to_np(matrix_from_rodrigues(final)) - want))))
    exact_ok = worst <= 1e-10

    errs = []
    for substeps in (50, 100, 200):
        final = integrate_attitude(samples, FIRST_ORDER, substeps=substeps).final
        errs.append(abs(final.angle() - math.pi / 2))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ratio_ok = abs(r1 - 4.0) <= 0.8 and abs(r2 - 4.0) <= 0.8
    ok = exact_ok and ratio_ok
    _report(
        11,
        "integrator",
        f"exact-step max defect {worst:.3e} (tol 1e-10), first-order ratios {r1:.2f}, {r2:.2f}",
        ok,
    )


def test_c12_cli(tmp_path, capsys):
    # seeded self-check through the real entry point, twice for byte identity
    cmd = [sys.executable, "-m", "rodvec", "check", "--n", "1000", "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    check_ok = r1.returncode == 0 and r1.stdout == r2.stdout and b"FAIL" not in r1.stdout

    # conversion round-trips at 1e-9
    trips_ok = True
    for spec, fmt in [("rod:0.25,-0.75,1.5", "rod"), ("rod:0,0,1", "rod")]:
        assert cli_main(["convert", spec, "--to", "mat"]) == 0
        mat_line = capsys.readouterr().out.strip()
        assert cli_main(["convert", mat_line, "--to", fmt]) == 0
        back = capsys.readouterr().out.strip()
        orig = [float(v) for v in spec.split(":")[1].split(",")]
        got = [float(v) for v in back.split(":")[1].split(",")]
        trips_ok = trips_ok and all(abs(a - b) <= 1e-9 for a, b in zip(orig, got))

    # figure: well-formed SVG, census per the scene contract, byte-identical
    f1 = tmp_path / "a.svg"
    f2 = tmp_path / "b.svg"
    for f in (f1, f2):
        assert (
            cli_main(["figure", "--kind", "fig1a", "--q", "0,0,1", "--x", "1,0,0", "--out", str(f)])
            == 0
        )
    capsys.readouterr()
    root = ET.parse(str(f1)).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f".//{ns}line")
    census_ok = (
        len(root.findall(f".//{ns}path")) == 1
        and sorted(el.get("class") for el in lines)
        == ["ray bisector", "segment radius", "segment tangent"]
    )
    bytes_ok = f1.read_bytes() == f2.read_bytes()

    ok = check_ok and trips_ok and census_ok and bytes_ok
    _report(
        12,
        "cli",
        f"check exit {r1.returncode}, round-trips {trips_ok}, census {census_ok}, byte-identical {bytes_ok}",
        ok,
    )
