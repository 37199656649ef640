"""Command-line frontend.

Subcommands: convert, compose, donkin, integrate, figure, check.
Angles are radians unless --degrees is given; numbers print with 12
significant digits unless --precision overrides.  Exit codes: 0 ok,
1 check failure, 2 parse/bad args, 3 half-turn has no Rodrigues vector,
4 parallel axes, 5 non-monotonic time, 6 a step's increment past the
float range, 7 io failure.

``convert``, ``compose``, ``donkin`` and ``integrate`` run on the float
core ``rodvec._lifted`` alone, and ``check`` on ``rodvec.checks``, which
runs on that core too.  ``compose`` folds each spec with
``_lifted._compose_chain`` as it parses it, and only formats what the fold
returns: the lambda of each step and the product.  Each spec is read in one
pass, its numbers split and converted once whatever its kind, and the lambda
lines are written a block at a time, one ``%`` per block.  ``integrate`` renders
its trajectory a block of rows at a time, every row before any is written;
with matrix columns, a regular row calls the matrix and residual kernels
directly.
Only ``figure`` imports typed modules, when it runs, so importing this
module loads no typed class.

The command line is declared once, in ``_ROOT_ARGUMENTS`` and
``_COMMANDS``.  A direct parser reads every well-formed command line from
that table; argparse, built from the same table, is imported only for
what the direct parser declines: help and usage errors.
"""

import math
import sys
from itertools import chain, repeat
from types import SimpleNamespace

from rodvec._backend import backend_name, kernels as _k
from rodvec._lifted import (
    EXACT_STEP,
    FIGURE_KINDS,
    ROTATION_MATRIX_TOL,
    SCHEMES,
    _arc_angle,
    _axis_angle,
    _checked9,
    _compose_chain,
    _direction,
    _donkin_residual,
    _donkin_triangle,
    _fold_angle,
    _half_turn_axis,
    _integrate,
    _lift_axis_angle,
    _lift_matrix9,
    _reject9,
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


#: The numbers that each kind of rotation spec takes.
_SPEC_COUNTS = {"rod": 3, "aa": 4, "mat": 9, "half": 3}


def _parse_lifted(text: str, degrees: bool) -> tuple[float, float, float, float]:
    """Parse ``aa:...``, ``rod:...``, ``mat:...`` or ``half:...`` to the
    Euler parameters of the composition law: (1, Q), or (0, n) with the
    axis a HalfTurn stores.

    One pass for every kind: the kind's count of numbers is looked up, the
    payload is split and its numbers converted once, and only then does the
    kind's own check run, so that a bad count, then a bad number, is found
    before a non-finite or degenerate one."""
    kind, sep, payload = text.partition(":")
    if not sep:
        raise SpecFormatError(f"rotation spec needs a 'kind:' prefix: {text!r}")
    count = _SPEC_COUNTS.get(kind)
    if count is None:
        raise SpecFormatError(f"unknown rotation kind {kind!r} (use aa, rod, mat or half)")
    parts = payload.split(",")
    if len(parts) != count:
        raise SpecFormatError(f"{kind} spec needs {count} comma-separated numbers, got {len(parts)}")
    try:
        v = [*map(float, parts)]
    except ValueError as exc:
        raise SpecFormatError(f"bad number in {kind} spec: {exc}") from None
    try:
        if kind == "rod":
            x, y, z = v
            if not math.isfinite(x + y + z):  # the sum may also overflow
                _require_finite(x, y, z)
            return 1.0, x, y, z
        if kind == "aa":
            nx, ny, nz, theta = v
            if degrees:
                theta = math.radians(theta)
            nx, ny, nz = _direction(nx, ny, nz)
            if not math.isfinite(theta):
                _require_finite(theta)
            return _lift_axis_angle(nx, ny, nz, _fold_angle(theta))
        if kind == "mat":
            return _lift_matrix9(_checked9(v))
        return (0.0, *_half_turn_axis(*_direction(*v)))
    except (ValueError, NotARotation) as exc:
        raise SpecFormatError(f"invalid {kind} spec: {exc}") from None


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
        axis, angle = (x, y, z), math.pi
    if degrees:
        angle = math.degrees(angle)
    return "aa:" + _fmt_list((*axis, angle), digits)


def _spec_mat(s: float, x: float, y: float, z: float, digits: int) -> str:
    return "mat:" + _fmt_list(_rotation9(s, x, y, z), digits)


def _spec_half(s: float, x: float, y: float, z: float, digits: int) -> str:
    if s:
        raise HalfTurnUndefined("rotation angle is not pi; no half-turn form exists")
    return "half:" + _fmt_list((x, y, z), digits)


def _print_result_block(
    s: float, x: float, y: float, z: float, digits: int, degrees: bool, prefix: str = ""
) -> None:
    sys.stdout.write(
        f"{prefix}{(_spec_rod if s else _spec_half)(s, x, y, z, digits)}\n"
        f"{prefix}{_spec_aa(s, x, y, z, digits, degrees)}\n"
        f"{prefix}{_spec_mat(s, x, y, z, digits)}\n"
    )


def _cmd_convert(args) -> int:
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


#: Lines of an omega file converted together while every one is plain, and
#: trajectory rows and compose's lambda lines formatted together.
_BLOCK = 64


def _cmd_compose(args) -> int:
    if len(args.specs) < 2:
        raise SpecFormatError("compose needs at least two rotation specs")
    digits = args.precision
    # each spec is parsed as the fold reaches it, and nothing is printed
    # until the fold returns, so a bad spec prints nothing but its error
    lams, product = _compose_chain(map(_parse_lifted, args.specs, repeat(args.degrees)))
    line = "lambda[%%d] = %%.%dg\n" % digits
    half = "lambda[%d] = n/a (half-turn operand)\n"
    write = sys.stdout.write
    for i in range(0, len(lams), _BLOCK):
        fmt, cols = [], []
        for k, lam in enumerate(lams[i : i + _BLOCK], start=i + 1):
            if lam is None:
                fmt.append(half)
                cols.append(k)
            else:
                fmt.append(line)
                cols += (k, lam + 0.0)  # + 0.0 folds -0.0 as _fmt does
        write("".join(fmt) % tuple(cols))
    _print_result_block(*product, digits, args.degrees)
    return 0


def _cmd_donkin(args) -> int:
    s1, *q1 = _parse_lifted(args.q1, args.degrees)
    s2, *q2 = _parse_lifted(args.q2, args.degrees)
    if not (s1 and s2):
        raise SpecFormatError("donkin needs two regular (non-half-turn) rotations")
    a, b, c = _donkin_triangle(q1, q2)
    d = args.precision
    conv = math.degrees if args.degrees else (lambda x: x)
    print("A:" + _fmt_list(a, d))
    print("B:" + _fmt_list(b, d))
    print("C:" + _fmt_list(c, d))
    print(f"arc(A,B) = {_fmt(conv(_arc_angle(a, b)), d)}")
    print(f"arc(B,C) = {_fmt(conv(_arc_angle(b, c)), d)}")
    print(f"arc(A,C) = {_fmt(conv(_arc_angle(a, c)), d)}")
    print(f"residual = {_fmt(_donkin_residual(a, b, c), 3)}")
    return 0


def _parse_omega_file(path: str) -> tuple[list[float], list[tuple[float, float, float]]]:
    """Sample times and (wx, wy, wz) rates of a 't wx wy wz' file, all finite.

    One U+FEFF that starts the file is a byte order mark and is dropped; a
    U+FEFF anywhere else is rejected as any other stray character is.
    After the first line, which is usually a '#' header, the lines are read
    in blocks.  A block of plain lines, each four finite numbers and nothing
    else, is converted in one pass; any other block goes through
    _parse_omega_lines, which reads and rejects line by line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFormatError(f"cannot read omega file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecFormatError(_not_utf8(path, exc)) from None
    times, rates = [], []
    head = lines[:1]
    if head and head[0].startswith("\ufeff"):  # a byte order mark, not a character of line 1
        head[0] = head[0][1:]
    _parse_omega_lines(path, head, 1, times, rates)
    for i in range(1, len(lines), _BLOCK):
        block = lines[i : i + _BLOCK]
        # Split at most three times, so a line gives at most four tokens: the
        # count is short if a line has fewer than four fields, and float()
        # rejects the last token of a line with more, and any token with '#'.
        tokens = chain.from_iterable(map(str.split, block, repeat(None), repeat(3)))
        try:
            v = list(map(float, tokens))
        except ValueError:
            v = None
        # a finite sum has no nan or inf term
        if v is not None and len(v) == 4 * len(block) and math.isfinite(sum(v)):
            times += v[0::4]
            rates += zip(v[1::4], v[2::4], v[3::4])
        else:
            _parse_omega_lines(path, block, i + 1, times, rates)
    if len(times) < 2:
        raise SpecFormatError(f"{path}: need at least 2 samples, got {len(times)}")
    return times, rates


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    """The message for an omega file that is not UTF-8, with the line and
    the byte offset of its first bad byte.  readlines() reports the offset
    within its decoder's chunk, so the file's bytes are read again to place
    it; line ends are counted as readlines() counts them: \\n, \\r\\n and \\r."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    head = data[: exc.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return f"{path}:{line}: not UTF-8 at byte {exc.start}: {exc.reason}"


def _parse_omega_lines(path: str, lines: list[str], first: int, times: list, rates: list) -> None:
    """Append the samples of the omega file lines, the first of them line
    number first, to times and rates; raise at the first bad line."""
    for lineno, line in enumerate(lines, start=first):
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


def _trajectory_lines(
    rows: list[tuple[float, float, float, float, float]], digits: int, matrix_cols: bool
) -> list[str]:
    """The trajectory table of the integrator's (t, s, x, y, z) rows: the
    header, then one string for each block of _BLOCK rows, every row ended
    by a newline; a half-turn row (s = 0) prints nan for Q.

    Each row's matrix is _rotation9's.  For a regular row, whose Q.Q is
    finite, its kernel and _checked9's residual test are written out here,
    and only a failing row goes to _reject9 for its error; a half-turn row
    and a row whose Q.Q overflows call _rotation9."""
    header = "# t qx qy qz" + (" r11 r21 r31 r12 r22 r32\n" if matrix_cols else "\n")
    row = " ".join(["%%.%dg" % digits] * (10 if matrix_cols else 4)) + "\n"
    nan, inf, tol = math.nan, math.inf, ROTATION_MATRIX_TOL
    # looked up per call, so that a replaced kernel is the one called
    rot_from_rod9, rot_residuals9 = _k.rot_from_rod9, _k.rot_residuals9
    out = [header]
    for i in range(0, len(rows), _BLOCK):
        block = rows[i : i + _BLOCK]
        cols = []
        if not matrix_cols:
            for t, s, x, y, z in block:
                # + 0.0 folds -0.0 as _fmt does
                cols += (t + 0.0, x + 0.0, y + 0.0, z + 0.0) if s else (t + 0.0, nan, nan, nan)
        else:
            for t, s, x, y, z in block:
                if s and x * x + y * y + z * z != inf:
                    # _rotation9 of a regular row: the kernel, then _checked9's test
                    e = rot_from_rod9((x, y, z))
                    ortho, det = rot_residuals9(e)
                    if not (ortho <= tol and det <= tol):
                        _reject9(e, ortho, det)
                    cols += (
                        t + 0.0, x + 0.0, y + 0.0, z + 0.0,
                        e[0] + 0.0, e[3] + 0.0, e[6] + 0.0, e[1] + 0.0, e[4] + 0.0, e[7] + 0.0,
                    )
                else:
                    # a half-turn row, or one whose Q.Q overflows
                    e = _rotation9(s, x, y, z)
                    cols += (t + 0.0, x + 0.0, y + 0.0, z + 0.0) if s else (t + 0.0, nan, nan, nan)
                    cols += (e[0] + 0.0, e[3] + 0.0, e[6] + 0.0, e[1] + 0.0, e[4] + 0.0, e[7] + 0.0)
        out.append(row * len(block) % tuple(cols))
    return out


def _cmd_integrate(args) -> int:
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


def _cmd_figure(args) -> int:
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


def _cmd_check(args) -> int:
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
        from argparse import ArgumentTypeError  # imported on this error path only

        raise ArgumentTypeError("must be >= 1")
    return v


#: The command line, declared once.  Each argument is the name and keywords
#: of its ``add_argument`` call: ``_build_parser`` hands them to argparse,
#: and ``_parse_direct`` reads ``action``, ``type``, ``choices``,
#: ``default``, ``required`` and ``nargs`` and ignores the rest.
_ROOT_ARGUMENTS = (
    ("--degrees", {"action": "store_true", "help": "angles in degrees at the CLI boundary"}),
    ("--precision", {"type": _positive_int, "default": 12, "metavar": "DIGITS",
                     "help": "significant digits in output (default 12)"}),
)

#: Each subcommand: its handler, its help line and its arguments.
_COMMANDS = {
    "convert": (_cmd_convert, "convert between rotation representations", (
        ("spec", {"help": "aa:nx,ny,nz,theta | rod:qx,qy,qz | mat:r11,...,r33 | half:nx,ny,nz"}),
        ("--to", {"required": True, "choices": ("aa", "rod", "mat", "half")}),
    )),
    "compose": (
        _cmd_compose,
        "compose rotations; the FIRST listed spec is applied FIRST "
        "(chronological order, the reverse of matrix-product notation)",
        (("specs", {"nargs": "+", "help": "two or more rotation specs, application order"}),),
    ),
    "donkin": (_cmd_donkin, "spherical triangle realizing a composition", (
        ("q1", {"help": "first rotation (applied first)"}),
        ("q2", {"help": "second rotation"}),
    )),
    "integrate": (_cmd_integrate, "propagate attitude from sampled angular velocity", (
        ("file", {"help": "text file: 't wx wy wz' per line, '#' comments"}),
        ("--scheme", {"choices": SCHEMES, "default": EXACT_STEP}),
        ("--substeps", {"type": _positive_int, "default": 1, "metavar": "N",
                        "help": "integration steps per sample interval (default 1)"}),
        ("--initial", {"default": None, "metavar": "SPEC", "help": "initial orientation spec"}),
        ("--out", {"default": None, "metavar": "PATH", "help": "write trajectory to file"}),
        ("--trajectory", {"action": "store_true", "help": "print the full trajectory"}),
        ("--matrix-cols", {"action": "store_true",
                           "help": "append the first two rotation-matrix columns to trajectory rows"}),
    )),
    "figure": (_cmd_figure, "emit an SVG of a geometric construction", (
        ("--kind", {"required": True, "choices": FIGURE_KINDS}),
        ("--q", {"default": None, "metavar": "QX,QY,QZ", "help": "rotation (fig1a/fig1b/fig1c/fig2)"}),
        ("--x", {"default": None, "metavar": "X,Y,Z", "help": "tracked point (fig1a/fig1b/fig1c/fig2)"}),
        ("--q1", {"default": None, "metavar": "QX,QY,QZ", "help": "first rotation (fig4/fig5)"}),
        ("--q2", {"default": None, "metavar": "QX,QY,QZ", "help": "second rotation (fig4/fig5)"}),
        ("--view", {"default": None, "metavar": "X,Y,Z", "help": "override the projection axis"}),
        ("--out", {"required": True, "metavar": "PATH", "help": "output SVG path"}),
    )),
    "check": (_cmd_check, "run the seeded residual diagnostics", (
        ("--n", {"type": int, "default": 1000, "help": "samples per diagnostic (default 1000)"}),
        ("--seed", {"type": int, "default": 42, "help": "RNG seed (default 42)"}),
    )),
}


def _grammar(arguments):
    """What _parse_direct reads of one argument table: the options by name as
    (dest, is_flag, type, choices), the dests of the required options, the
    defaults of the options, the one-token positionals, and the
    ``nargs="+"`` positional, which comes last, or None."""
    options, required, defaults, positionals, rest = {}, set(), {}, [], None
    for name, kw in arguments:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            flag = kw.get("action") == "store_true"
            options[name] = (dest, flag, kw.get("type"), kw.get("choices"))
            defaults[dest] = False if flag else kw.get("default")
            if kw.get("required"):
                required.add(dest)
        elif kw.get("nargs") == "+":
            rest = name
        else:
            positionals.append(name)
    return options, required, defaults, positionals, rest


_ROOT = _grammar(_ROOT_ARGUMENTS)
_GRAMMARS = {name: (func, _grammar(arguments)) for name, (func, _, arguments) in _COMMANDS.items()}


def _read(argv: list[str], i: int, grammar, values: dict, stop: bool):
    """Read argv[i:] as the options and positionals of one grammar into values,
    after its defaults, and stop after the first positional if stop: the
    positionals and the index after them, or None for anything argparse
    might read otherwise or reject."""
    options, required, defaults = grammar[:3]
    values.update(defaults)
    seen = set()
    positionals = []
    n = len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            positionals.append(token)
            if stop:
                break
            continue
        option = options.get(token)
        if option is None:  # -h, --help, --, --opt=value, abbreviations, negative numbers
            return None
        dest, flag, convert, choices = option
        if flag:
            value = True
        else:
            if i == n or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
            if convert is not None:
                try:
                    value = convert(value)
                except Exception:  # int's ValueError or _positive_int's ArgumentTypeError
                    return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(dest)
    if not required <= seen:
        return None
    return positionals, i


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed command line, or None.

    None for anything else: help, every usage error, and the spellings that
    only argparse reads (``--opt=value``, abbreviations, ``--``, values that
    start with '-').  Prints nothing and raises nothing, so that argparse
    alone words help and usage errors.
    """
    values = {}
    read = _read(argv, 0, _ROOT, values, stop=True)
    command = read[0][0] if read and read[0] else None
    if command not in _GRAMMARS:
        return None
    func, grammar = _GRAMMARS[command]
    read = _read(argv, read[1], grammar, values, stop=False)
    if read is None:
        return None
    args, positionals, rest = read[0], grammar[3], grammar[4]
    if rest is None:
        if len(args) != len(positionals):
            return None
    elif len(args) > len(positionals):
        values[rest] = args[len(positionals):]
    else:
        return None
    values.update(zip(positionals, args))
    values["command"] = command
    values["func"] = func
    return SimpleNamespace(**values)


#: The parser _build_parser makes, once it has made it.
_parser = None


def _build_parser():
    """The argparse parser of the same table, for help and usage errors: built
    when _parse_direct first declines and then kept, as parsing leaves it
    unchanged."""
    global _parser
    if _parser is not None:
        return _parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="rodvec",
        description="Rotation algebra on Rodrigues vectors: convert, compose, "
        "inspect the spherical-triangle construction, integrate attitude, "
        "emit figures, self-check.",
    )
    for name, kw in _ROOT_ARGUMENTS:
        parser.add_argument(name, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, kw in arguments:
            p.add_argument(name, **kw)
        p.set_defaults(func=func)
    _parser = parser
    return parser


#: The exit code of each error a command may raise; an error takes the code
#: of the first entry it is an instance of.
_EXIT_CODES = {
    SpecFormatError: 2,
    MissingInput: 2,
    NotARotation: 2,
    ValueError: 2,
    HalfTurnUndefined: 3,
    ParallelAxes: 4,
    NonMonotonicTime: 5,
    StepTooLarge: 6,
    OSError: 7,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            if code is None:
                return 0
            return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    raise SystemExit(main())
