"""Command-line frontend.

Subcommands: convert, compose, donkin, integrate, figure, check.
Angles are radians unless --degrees is given; numbers print with 12
significant digits unless --precision overrides.  Exit codes: 0 ok,
1 check failure, 2 parse/bad args, 3 half-turn has no Rodrigues vector,
4 parallel axes, 5 non-monotonic time, 6 step too large, 7 io failure.

``convert``, ``compose`` and ``integrate`` run on the float core
``rodvec._lifted`` alone; ``donkin``, ``figure`` and ``check`` import the
typed modules they use when they run, so importing this module loads no
typed class.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Sequence

from rodvec._backend import backend_name
from rodvec._lifted import (
    EXACT_STEP,
    FIGURE_KINDS,
    SCHEMES,
    _axis_angle,
    _checked9,
    _compose_lifted,
    _direction,
    _fold_angle,
    _half_turn_axis,
    _integrate,
    _lift_axis_angle,
    _lift_matrix9,
    _require_finite,
    _rotation9,
)
from rodvec.errors import (
    HalfTurnUndefined,
    MissingInput,
    NonMonotonicTime,
    NotARotation,
    ParallelAxes,
    SpecFormatError,
    StepTooLarge,
)

__all__ = ["main"]


def _fmt(v: float, digits: int) -> str:
    if v == 0.0:
        v = 0.0  # fold -0.0
    return f"{v:.{digits}g}"


def _fmt_list(values, digits: int) -> str:
    return ",".join(_fmt(v, digits) for v in values)


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise SpecFormatError(f"{what} needs {count} comma-separated numbers, got {len(parts)}")
    try:
        return tuple(map(float, parts))
    except ValueError as exc:
        raise SpecFormatError(f"bad number in {what}: {exc}") from None


def parse_rotation_spec(text: str, degrees: bool = False):
    """Parse ``aa:...``, ``rod:...``, ``mat:...`` or ``half:...`` to a rotation,
    a ``RodriguesVector`` or a ``HalfTurn`` (``composition.RotationResult``)."""
    from rodvec.composition import _from_lifted

    return _from_lifted(*_parse_lifted(text, degrees))


def _parse_lifted(text: str, degrees: bool) -> tuple[float, float, float, float]:
    """parse_rotation_spec as the Euler parameters of the composition law:
    (1, Q), or (0, n) with the axis a HalfTurn stores."""
    kind, sep, payload = text.partition(":")
    if not sep:
        raise SpecFormatError(f"rotation spec needs a 'kind:' prefix: {text!r}")
    try:
        if kind == "rod":
            x, y, z = _parse_floats(payload, 3, "rod spec")
            if not math.isfinite(x + y + z):  # the sum may also overflow
                _require_finite(x, y, z)
            return 1.0, x, y, z
        if kind == "half":
            x, y, z = _parse_floats(payload, 3, "half spec")
            return (0.0, *_half_turn_axis(*_direction(x, y, z)))
        if kind == "aa":
            nx, ny, nz, theta = _parse_floats(payload, 4, "aa spec")
            if degrees:
                theta = math.radians(theta)
            axis = _direction(nx, ny, nz)
            _require_finite(theta)
            return _lift_axis_angle(*axis, _fold_angle(theta))
        if kind == "mat":
            return _lift_matrix9(_checked9(_parse_floats(payload, 9, "mat spec")))
    except (ValueError, NotARotation) as exc:
        raise SpecFormatError(f"invalid {kind} spec: {exc}") from None
    raise SpecFormatError(f"unknown rotation kind {kind!r} (use aa, rod, mat or half)")


def _spec_rod(s: float, x: float, y: float, z: float, digits: int) -> str:
    if not s:
        raise HalfTurnUndefined(
            "this rotation's angle is pi: tan(theta/2) has a pole there and no "
            "Rodrigues vector exists; convert to aa, mat or half instead"
        )
    return "rod:" + _fmt_list((x, y, z), digits)


def _spec_aa(s: float, x: float, y: float, z: float, digits: int, degrees: bool) -> str:
    if s:
        axis, angle = _axis_angle(x, y, z)
    else:
        axis, angle = _half_turn_axis(x, y, z), math.pi
    if degrees:
        angle = math.degrees(angle)
    return "aa:" + _fmt_list((*axis, angle), digits)


def _spec_mat(s: float, x: float, y: float, z: float, digits: int) -> str:
    return "mat:" + _fmt_list(_rotation9(s, x, y, z), digits)


def _spec_half(s: float, x: float, y: float, z: float, digits: int) -> str:
    if s:
        raise HalfTurnUndefined("rotation angle is not pi; no half-turn form exists")
    return "half:" + _fmt_list(_half_turn_axis(x, y, z), digits)


def _print_result_block(
    s: float, x: float, y: float, z: float, digits: int, degrees: bool, prefix: str = ""
) -> None:
    print(prefix + (_spec_rod if s else _spec_half)(s, x, y, z, digits))
    print(prefix + _spec_aa(s, x, y, z, digits, degrees))
    print(prefix + _spec_mat(s, x, y, z, digits))


def _cmd_convert(args: argparse.Namespace) -> int:
    r = _parse_lifted(args.spec, args.degrees)
    if args.to == "rod":
        print(_spec_rod(*r, args.precision))
    elif args.to == "aa":
        print(_spec_aa(*r, args.precision, args.degrees))
    elif args.to == "mat":
        print(_spec_mat(*r, args.precision))
    else:
        print(_spec_half(*r, args.precision))
    return 0


def _lambda(x2: float, y2: float, z2: float, x1: float, y1: float, z1: float) -> float:
    """The conditioning number 1 - Q2.Q1 of the composition law.

    When the dot product overflows it is taken again from the operands
    divided by their largest components, so that lambda is +-inf past the
    float range, never nan.
    """
    d = x2 * x1 + y2 * y1 + z2 * z1
    if not math.isfinite(d):
        m2 = max(abs(x2), abs(y2), abs(z2))
        m1 = max(abs(x1), abs(y1), abs(z1))
        x2, y2, z2 = x2 / m2, y2 / m2, z2 / m2
        x1, y1, z1 = x1 / m1, y1 / m1, z1 / m1
        d = m2 * (m1 * (x2 * x1 + y2 * y1 + z2 * z1))
    return 1.0 - d


def _cmd_compose(args: argparse.Namespace) -> int:
    if len(args.specs) < 2:
        raise SpecFormatError("compose needs at least two rotation specs")
    digits = args.precision
    rotations = [_parse_lifted(text, args.degrees) for text in args.specs]
    s1, x1, y1, z1 = rotations[0]
    lines = []
    for i, (s2, x2, y2, z2) in enumerate(rotations[1:], start=1):
        if s1 and s2:
            lines.append(f"lambda[{i}] = {_fmt(_lambda(x2, y2, z2, x1, y1, z1), digits)}\n")
        else:
            lines.append(f"lambda[{i}] = n/a (half-turn operand)\n")
        s1, x1, y1, z1 = _compose_lifted(s2, x2, y2, z2, s1, x1, y1, z1)
    sys.stdout.writelines(lines)
    _print_result_block(s1, x1, y1, z1, digits, args.degrees)
    return 0


def _cmd_donkin(args: argparse.Namespace) -> int:
    from rodvec import geometry
    from rodvec.core import RodriguesVector

    s1, *q1 = _parse_lifted(args.q1, args.degrees)
    s2, *q2 = _parse_lifted(args.q2, args.degrees)
    if not (s1 and s2):
        raise SpecFormatError("donkin needs two regular (non-half-turn) rotations")
    tri = geometry.donkin_triangle(RodriguesVector(*q1), RodriguesVector(*q2))
    d = args.precision
    conv = math.degrees if args.degrees else (lambda a: a)
    print("A:" + _fmt_list(tri.a.as_tuple(), d))
    print("B:" + _fmt_list(tri.b.as_tuple(), d))
    print("C:" + _fmt_list(tri.c.as_tuple(), d))
    print(f"arc(A,B) = {_fmt(conv(geometry.arc_angle(tri.a, tri.b)), d)}")
    print(f"arc(B,C) = {_fmt(conv(geometry.arc_angle(tri.b, tri.c)), d)}")
    print(f"arc(A,C) = {_fmt(conv(geometry.arc_angle(tri.a, tri.c)), d)}")
    print(f"residual = {_fmt(geometry.donkin_verify(tri), 3)}")
    return 0


def _parse_omega_file(path: str) -> tuple[list[float], list[tuple[float, float, float]]]:
    """Sample times and (wx, wy, wz) rates of a 't wx wy wz' file, all finite."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFormatError(f"cannot read omega file: {exc}") from None
    times, rates = [], []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise SpecFormatError(f"{path}:{lineno}: expected 't wx wy wz', got {len(parts)} fields")
        try:
            t, wx, wy, wz = map(float, parts)
        except ValueError as exc:
            raise SpecFormatError(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(t + wx + wy + wz):  # the sum may also overflow
            _require_finite(wx, wy, wz)
            if not math.isfinite(t):
                raise ValueError("non-finite sample time")
        times.append(t)
        rates.append((wx, wy, wz))
    if len(times) < 2:
        raise SpecFormatError(f"{path}: need at least 2 samples, got {len(times)}")
    return times, rates


def _trajectory_lines(
    rows: list[tuple[float, float, float, float, float]], digits: int, matrix_cols: bool
) -> list[str]:
    """The lines of the trajectory table of the integrator's (t, s, x, y, z)
    rows, each ended by a newline; a half-turn row (s = 0) prints nan for Q."""
    header = "# t qx qy qz" + (" r11 r21 r31 r12 r22 r32\n" if matrix_cols else "\n")
    row = " ".join(["%%.%dg" % digits] * (10 if matrix_cols else 4)) + "\n"
    nan = math.nan
    out = [header]
    for t, s, x, y, z in rows:
        # + 0.0 folds -0.0 as _fmt does
        cols = (t + 0.0, x + 0.0, y + 0.0, z + 0.0) if s else (t + 0.0, nan, nan, nan)
        if matrix_cols:
            e = _rotation9(s, x, y, z)
            cols += (e[0] + 0.0, e[3] + 0.0, e[6] + 0.0, e[1] + 0.0, e[4] + 0.0, e[7] + 0.0)
        out.append(row % cols)
    return out


def _cmd_integrate(args: argparse.Namespace) -> int:
    times, rates = _parse_omega_file(args.file)
    start = _parse_lifted(args.initial, args.degrees) if args.initial else None
    rows = _integrate(times, rates, args.scheme, start, args.substeps)
    del times, rates  # freed before the trajectory text is built
    if args.out or args.trajectory:
        lines = _trajectory_lines(rows, args.precision, args.matrix_cols)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
        if args.trajectory:
            sys.stdout.writelines(lines)
    _print_result_block(*rows[-1][1:], args.precision, args.degrees, prefix="final ")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from rodvec import geometry, svg  # svg is slow to import
    from rodvec.core import RodriguesVector, UnitVector, Vec3

    kind = args.kind
    if kind in ("fig1a", "fig1b", "fig1c", "fig2"):
        if args.q is None:
            raise MissingInput(f"{kind} needs --q")
        if args.x is None:
            raise MissingInput(f"{kind} needs --x")
        q = RodriguesVector(*_parse_floats(args.q, 3, "--q"))
        scene = geometry.figure_scene(kind, q, x=Vec3(*_parse_floats(args.x, 3, "--x")))
    else:
        if args.q1 is None or args.q2 is None:
            raise MissingInput(f"{kind} needs --q1 and --q2")
        q1 = RodriguesVector(*_parse_floats(args.q1, 3, "--q1"))
        q2 = RodriguesVector(*_parse_floats(args.q2, 3, "--q2"))
        scene = geometry.figure_scene(kind, q1, q2=q2)
    view = None
    if args.view:
        view = UnitVector.from_vec(Vec3(*_parse_floats(args.view, 3, "--view")))
    svg.write_scene(scene, args.out, view_axis=view)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise SpecFormatError("--n must be >= 1")
    from rodvec import checks

    print(f"backend: {backend_name()}")
    results = checks.run_diagnostics(args.n, args.seed)
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(
            f"{r.name}: n={r.samples} max_residual={r.max_residual:.3e} "
            f"tol={r.tolerance:.0e} {status}"
        )
        failed = failed or not r.ok
    return 1 if failed else 0


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parsing leaves
    it unchanged, and building it costs more than a typical command."""
    parser = argparse.ArgumentParser(
        prog="rodvec",
        description="Rotation algebra on Rodrigues vectors: convert, compose, "
        "inspect the spherical-triangle construction, integrate attitude, "
        "emit figures, self-check.",
    )
    parser.add_argument("--degrees", action="store_true", help="angles in degrees at the CLI boundary")
    parser.add_argument("--precision", type=_positive_int, default=12, metavar="DIGITS",
                        help="significant digits in output (default 12)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between rotation representations")
    p.add_argument("spec", help="aa:nx,ny,nz,theta | rod:qx,qy,qz | mat:r11,...,r33 | half:nx,ny,nz")
    p.add_argument("--to", required=True, choices=("aa", "rod", "mat", "half"))
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "compose",
        help="compose rotations; the FIRST listed spec is applied FIRST "
        "(chronological order, the reverse of matrix-product notation)",
    )
    p.add_argument("specs", nargs="+", help="two or more rotation specs, application order")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("donkin", help="spherical triangle realizing a composition")
    p.add_argument("q1", help="first rotation (applied first)")
    p.add_argument("q2", help="second rotation")
    p.set_defaults(func=_cmd_donkin)

    p = sub.add_parser("integrate", help="propagate attitude from sampled angular velocity")
    p.add_argument("file", help="text file: 't wx wy wz' per line, '#' comments")
    p.add_argument("--scheme", choices=SCHEMES, default=EXACT_STEP)
    p.add_argument("--substeps", type=_positive_int, default=1, metavar="N",
                   help="integration steps per sample interval (default 1)")
    p.add_argument("--initial", default=None, metavar="SPEC", help="initial orientation spec")
    p.add_argument("--out", default=None, metavar="PATH", help="write trajectory to file")
    p.add_argument("--trajectory", action="store_true", help="print the full trajectory")
    p.add_argument("--matrix-cols", action="store_true",
                   help="append the first two rotation-matrix columns to trajectory rows")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("figure", help="emit an SVG of a geometric construction")
    p.add_argument("--kind", required=True, choices=FIGURE_KINDS)
    p.add_argument("--q", default=None, metavar="QX,QY,QZ", help="rotation (fig1a/fig1b/fig1c/fig2)")
    p.add_argument("--x", default=None, metavar="X,Y,Z", help="tracked point (fig1a/fig1b/fig1c/fig2)")
    p.add_argument("--q1", default=None, metavar="QX,QY,QZ", help="first rotation (fig4/fig5)")
    p.add_argument("--q2", default=None, metavar="QX,QY,QZ", help="second rotation (fig4/fig5)")
    p.add_argument("--view", default=None, metavar="X,Y,Z", help="override the projection axis")
    p.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("check", help="run the seeded residual diagnostics")
    p.add_argument("--n", type=int, default=1000, help="samples per diagnostic (default 1000)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (SpecFormatError, MissingInput, NotARotation, ValueError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HalfTurnUndefined as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParallelAxes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonMonotonicTime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except StepTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    raise SystemExit(main())
