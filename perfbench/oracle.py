"""Independent reference computations and the output checks built on them.

Nothing here imports rodvec.  The integrator reference works on unit
quaternions, the chain reference multiplies axis-angle matrices in numpy,
so a check never compares the program against a second copy of its own
Rodrigues-vector formulas.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest element error accepted in a printed rotation matrix.  The CLI
#: prints 12 significant digits (rounding of at most 5e-13 per element) and
#: the references agree with correct output to below 1e-12; the half-turn
#: snap this benchmark keeps visible leaves errors of 1e-4 and more.
MATRIX_TOL = 1e-9

#: Relative tolerance on a printed sample time (12 significant digits).
TIME_RTOL = 1e-11


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """R = cos(a) 1 + sin(a) (n x) + (1 - cos(a)) n n^T for a unit axis n."""
    n = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(n, n)


def chain_matrix(generators) -> np.ndarray:
    """R_k ... R_2 R_1 for (axis, angle) generators listed in application order."""
    r = np.eye(3)
    for axis, angle in generators:
        r = axis_angle_matrix(axis, angle) @ r
    return r


def quaternion_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices, shape (n, 3, 3), of quaternions (w, x, y, z), shape (n, 4)."""
    q = q / np.linalg.norm(q, axis=1)[:, None]
    w, x, y, z = q.T
    r = np.empty((len(q), 3, 3))
    r[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    r[:, 0, 1] = 2.0 * (x * y - w * z)
    r[:, 0, 2] = 2.0 * (x * z + w * y)
    r[:, 1, 0] = 2.0 * (x * y + w * z)
    r[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    r[:, 1, 2] = 2.0 * (y * z - w * x)
    r[:, 2, 0] = 2.0 * (x * z - w * y)
    r[:, 2, 1] = 2.0 * (y * z + w * x)
    r[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return r


def step_quaternions(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact-step rotation of every sample interval, omega taken at its midpoint.

    Mirrors the integrator's scheme (one substep, omega linearly
    interpolated to the midpoint, held constant over the step) but writes
    the step as a quaternion (cos(|w|dt/2), sin(|w|dt/2) w/|w|).
    """
    t0, t1 = t[:-1], t[1:]
    dt = t1 - t0
    mid = t0 + 0.5 * dt
    u = ((mid - t0) / (t1 - t0))[:, None]
    wm = w[:-1] + u * (w[1:] - w[:-1])
    rate = np.sqrt((wm * wm).sum(axis=1))
    half = 0.5 * rate * dt
    safe = np.where(rate > 0.0, rate, 1.0)
    out = np.empty((len(dt), 4))
    out[:, 0] = np.cos(half)
    out[:, 1:] = wm * (np.sin(half) / safe)[:, None]
    return out


def integrate_quaternions(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orientation quaternion at every sample time, starting at the identity."""
    steps = step_quaternions(t, w).tolist()
    qs = [(1.0, 0.0, 0.0, 0.0)]
    a0, a1, a2, a3 = qs[0]
    for b0, b1, b2, b3 in steps:
        # Hamilton product step * acc: the step is applied after acc
        a0, a1, a2, a3 = (
            b0 * a0 - b1 * a1 - b2 * a2 - b3 * a3,
            b0 * a1 + b1 * a0 + b2 * a3 - b3 * a2,
            b0 * a2 - b1 * a3 + b2 * a0 + b3 * a1,
            b0 * a3 + b1 * a2 - b2 * a1 + b3 * a0,
        )
        qs.append((a0, a1, a2, a3))
    return np.array(qs)


def half_turn_branch_margin(t: np.ndarray, w: np.ndarray) -> float:
    """Smallest |1 - Q2.Q1| / (1 + |Q1||Q2|) over the integration steps.

    Q1 is the orientation before a step and Q2 the step, both as Rodrigues
    vectors.  The composition law leaves its regular branch when this
    falls to 1e-9, so a log whose margin is far above that never reaches
    the half-turn branch.
    """
    steps = step_quaternions(t, w)
    acc = integrate_quaternions(t, w)[:-1]
    s1, v1 = acc[:, 0], acc[:, 1:]
    s2, v2 = steps[:, 0], steps[:, 1:]
    s3 = s1 * s2 - (v1 * v2).sum(axis=1)
    # 1 - Q2.Q1 = s3 / (s1 s2) and |Q1||Q2| = |v1||v2| / |s1 s2|; multiply through
    scale = np.abs(s1 * s2) + np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
    return float(np.min(np.abs(s3) / scale))


def _numbers(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def check_trajectory(
    stdout: str, t: np.ndarray, expected: np.ndarray, tol: float = MATRIX_TOL
) -> str | None:
    """None when an ``integrate --trajectory --matrix-cols`` output is right.

    ``expected`` holds the reference rotation matrices, shape (n, 3, 3),
    one per sample time ``t``.  Every row's time and first two matrix
    columns are compared, and so is the final ``mat:`` line.  The return
    value otherwise says what is wrong.
    """
    lines = stdout.splitlines()
    n = len(t)
    if len(lines) != n + 4 or not lines[0].startswith("# t"):
        return f"expected {n + 4} lines with a header, got {len(lines)}"
    try:
        rows = np.array([line.split() for line in lines[1 : n + 1]], dtype=float)
    except ValueError as exc:
        return f"unparsable trajectory row: {exc}"
    if rows.shape != (n, 10):
        return f"trajectory rows have shape {rows.shape}, expected {(n, 10)}"
    if not np.all(np.abs(rows[:, 0] - t) <= TIME_RTOL * np.maximum(np.abs(t), 1.0)):
        bad = int(np.argmax(np.abs(rows[:, 0] - t)))
        return f"row {bad}: time {rows[bad, 0]!r}, expected {t[bad]!r}"
    cols = np.concatenate([expected[:, :, 0], expected[:, :, 1]], axis=1)
    err = np.abs(rows[:, 4:] - cols)
    err[np.isnan(err)] = np.inf
    if not np.all(err <= tol):
        bad = int(np.argmax(err.max(axis=1)))
        return f"row {bad}: matrix columns off by {err[bad].max():.3e}"
    final = lines[-1]
    if not final.startswith("final mat:"):
        return f"last line is not the final matrix: {final[:40]!r}"
    return _matrix_error(final[len("final mat:") :], expected[-1], tol)


def check_chain(stdout: str, n_specs: int, expected: np.ndarray, tol: float = MATRIX_TOL) -> str | None:
    """None when a ``compose`` output is right: one lambda line per
    composition and a final ``mat:`` line matching ``expected`` (3x3)."""
    lines = stdout.splitlines()
    if len(lines) != n_specs - 1 + 3:
        return f"expected {n_specs + 2} lines, got {len(lines)}"
    for i, line in enumerate(lines[: n_specs - 1], start=1):
        if not line.startswith(f"lambda[{i}] = "):
            return f"line {i} is not lambda[{i}]: {line[:40]!r}"
    if not lines[-1].startswith("mat:"):
        return f"last line is not a matrix: {lines[-1][:40]!r}"
    return _matrix_error(lines[-1][len("mat:") :], expected, tol)


def _matrix_error(payload: str, expected: np.ndarray, tol: float) -> str | None:
    try:
        got = np.array(_numbers(payload)).reshape(3, 3)
    except ValueError as exc:
        return f"unparsable matrix: {exc}"
    err = float(np.max(np.abs(got - expected)))
    if not err <= tol:
        return f"matrix off by {err:.3e} (tolerance {tol:.0e})"
    return None


#: Diagnostics ``rodvec check`` runs, in the order it prints them.
DIAGNOSTICS = (
    "formula-agreement",
    "explicit-inverse",
    "bridge-residuals",
    "lambda-residual",
    "donkin-closure",
)


def check_selftest(code: int, stdout: str, n: int) -> str | None:
    """None when ``check --n n`` exited 0 and printed every diagnostic as PASS."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if len(lines) != 1 + len(DIAGNOSTICS) or not lines[0].startswith("backend: "):
        return f"expected a backend line and {len(DIAGNOSTICS)} diagnostics, got {len(lines)} lines"
    for name, line in zip(DIAGNOSTICS, lines[1:]):
        if not line.startswith(f"{name}: n={n} "):
            return f"unexpected diagnostic line {line[:60]!r}"
        if not line.endswith(" PASS"):
            return f"diagnostic failed: {line!r}"
    return None
