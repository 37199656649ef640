"""Cold start: what ``import rodvec`` and ``import rodvec.cli`` load.

What gets loaded is checked in fresh interpreters.  By the time a test
runs, collection has imported every rodvec module into this one, so an
in-process test cannot see an import that a command path is missing.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rodvec
from rodvec.cli import main

SRC = str(Path(rodvec.__file__).resolve().parent.parent)

#: Modules no command but ``figure`` may load.
TYPED = (
    "typing",
    "rodvec.core",
    "rodvec.composition",
    "rodvec.cayley",
    "rodvec.kinematics",
    "rodvec.geometry",
    "rodvec.svg",
)

#: Modules that only ``check`` may load besides: its results are dataclasses.
CHECK_ONLY = ("dataclasses", "functools", "collections", "rodvec.checks")

#: The public names of the package, by the module that provides them, in __all__ order.
EXPORTS = {
    "rodvec._backend": ["backend_name"],
    "rodvec.core": [
        "Vec3", "UnitVector", "AxisAngle", "RodriguesVector", "Matrix3", "SkewMatrix",
        "RotationMatrix", "HalfTurn", "skew", "unskew", "euler_rodrigues_matrix",
        "rodrigues_from_axis_angle", "axis_angle_from_rodrigues", "matrix_from_rodrigues",
        "matrix_from_half_turn", "apply_rotation", "invert_rotation",
    ],
    "rodvec.cayley": [
        "cayley_rotation", "cayley_inverse_explicit", "rodrigues_from_matrix", "cayley_residuals",
    ],
    "rodvec.composition": [
        "RotationResult", "CompositionDiagnostics", "compose", "compose_general",
        "composition_diagnostics",
    ],
    "rodvec.geometry": [
        "SphericalTriangle", "FigureScene", "tangent_to_bisector", "bisector_intersection",
        "half_angle_point", "donkin_triangle", "donkin_verify", "donkin_residual", "arc_angle",
        "figure_scene",
    ],
    "rodvec.kinematics": [
        "AngularVelocity", "AngularVelocitySample", "AttitudeTrajectory", "FIRST_ORDER",
        "EXACT_STEP", "small_rotation_matrix", "infinitesimal_displacement",
        "compose_infinitesimal", "velocity_field", "rodrigues_increment", "integrate_attitude",
    ],
    "rodvec.errors": [
        "RodvecError", "HalfTurnUndefined", "NotARotation", "NotPerpendicular", "ParallelAxes",
        "DegenerateComposition", "StepTooLarge", "NonMonotonicTime", "MissingInput",
        "SpecFormatError",
    ],
}


def _fresh(body: str) -> str:
    """stdout of ``body`` run by ``python -E -s -S`` with only ``src`` put on
    sys.path, after ``at_start`` records the modules the interpreter began
    with.  Without ``site`` no ``.pth`` file can load a module before the
    body runs."""
    code = f"import sys\nat_start = set(sys.modules)\nsys.path.insert(0, {SRC!r})\n{body}"
    r = subprocess.run([sys.executable, "-E", "-s", "-S", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


class TestImportBudget:
    def test_cli_loads_no_typed_module(self, tmp_path):
        """Only ``figure`` loads typed modules; ``check`` alone loads
        dataclasses and what they import."""
        runs = {
            "convert": ["convert", "rod:0.1,0.2,0.3", "--to", "aa"],
            "compose": ["compose", "rod:0.1,0.2,0.3", "aa:1,1,0,2.5",
                        "mat:0,-1,0,1,0,0,0,0,1", "half:0,1,1", "rod:-1,0.5,2"],
            "integrate": ["integrate", _omega_log(tmp_path / "omega.txt"), "--trajectory",
                          "--matrix-cols", "--initial", "half:0,1,1"],
            "donkin": ["--degrees", "donkin", "rod:1,0.2,0", "aa:0,1,0.3,70"],
            "check": ["check", "--n", "3"],  # last: what it loads stays loaded
        }
        # io is loaded at startup; contextlib and json would load functools
        out = _fresh(
            "import io\n"
            f"typed, check_only = {TYPED!r}, {CHECK_ONLY!r}\n"
            "def loaded(name):\n"
            "    barred = typed if name == 'check' else typed + check_only\n"
            "    return [m for m in barred if m in sys.modules and m not in at_start]\n"
            "import rodvec.cli\n"
            "seen = {'import': loaded('import')}\n"
            f"for name, argv in {runs!r}.items():\n"
            "    sys.stdout = io.StringIO()\n"
            "    code = rodvec.cli.main(argv)\n"
            "    sys.stdout = sys.__stdout__\n"
            "    assert code == 0, argv\n"
            "    seen[name] = loaded(name)\n"
            "print(repr(seen))\n"
        )
        assert ast.literal_eval(out) == {"import": [], **{name: [] for name in runs}}

    def test_well_formed_commands_load_no_argparse(self, tmp_path):
        """argparse (with gettext) is only for help and usage errors, and no
        module of the package asks for ``from __future__ import annotations``."""
        runs = {
            "convert": ["convert", "rod:0.1,0.2,0.3", "--to", "mat"],
            "compose": ["--degrees", "compose", "aa:1,1,0,60", "half:0,1,1", "rod:-1,0.5,2"],
            "integrate": ["integrate", _omega_log(tmp_path / "omega.txt"), "--trajectory"],
            "check": ["--precision", "5", "check", "--n", "3", "--seed", "7"],
        }
        out = _fresh(
            "import contextlib, io, json\n"
            "def loaded():\n"
            "    return [m for m in ('argparse', 'gettext', '__future__')\n"
            "            if m in sys.modules and m not in at_start]\n"
            "import rodvec.cli\n"
            "seen = {'import': loaded()}\n"
            f"for name, argv in {runs!r}.items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert rodvec.cli.main(argv) == 0, argv\n"
            "    seen[name] = loaded()\n"
            "print(json.dumps(seen))\n"
        )
        assert json.loads(out) == {"import": [], **{name: [] for name in runs}}

    def test_package_import_loads_no_submodule(self):
        out = _fresh(
            "import rodvec\n"
            "print(sorted(m for m in sys.modules if m.startswith('rodvec.') and m not in at_start))\n"
        )
        assert out == "[]\n"


class TestLazyPackage:
    def test_all_is_unchanged(self):
        assert rodvec.__all__ == ["__version__", *(n for names in EXPORTS.values() for n in names)]

    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in EXPORTS.items() for n in names]
    )
    def test_from_rodvec_import_name(self, module, name):
        out = _fresh(
            f"from rodvec import {name}\n"
            "import importlib\n"
            f"print({name} is getattr(importlib.import_module({module!r}), {name!r}))\n"
        )
        assert out == "True\n"

    def test_dir_attributes_and_submodules(self):
        out = _fresh(
            "import rodvec\n"
            "print(set(rodvec.__all__) <= set(dir(rodvec)))\n"
            "print(hasattr(rodvec, 'no_such_name'))\n"
            "from rodvec import checks, geometry, svg\n"
            "print(checks.__name__, geometry.__name__, svg.__name__)\n"
        )
        assert out.splitlines() == ["True", "False", "rodvec.checks rodvec.geometry rodvec.svg"]

    def test_moved_constants_importable_from_their_old_modules(self):
        from rodvec import _lifted, composition, geometry, kinematics

        assert kinematics.SCHEMES is _lifted.SCHEMES == ("first-order", "exact-step")
        assert kinematics.STEP_ANGLE_MARGIN == 1e-3
        assert geometry.FIGURE_KINDS is _lifted.FIGURE_KINDS
        assert composition.DEGENERACY_REL_TOL == 1e-9


def _omega_log(path: Path) -> str:
    path.write_text("".join(f"{0.1 * k} 0.3 {-0.2 + 0.05 * k} 1.1\n" for k in range(6)))
    return str(path)


class TestSubcommandsInFreshInterpreters:
    """Each subcommand once through ``python -m rodvec``: exit 0 and the
    stdout that ``main(argv)`` prints in this process."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "aa:1,2,2,0.7", "--to", "mat"],
            ["compose", "rod:0.1,0.2,0.3", "half:0,0,1", "mat:0,-1,0,1,0,0,0,0,1"],
            ["donkin", "rod:1,0,0", "rod:0,1,0"],
            ["integrate", "{log}", "--trajectory", "--matrix-cols"],
            ["figure", "--kind", "fig4", "--q1", "1,0,0", "--q2", "0,1,0", "--out", "{out}"],
            ["check", "--n", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_matches_in_process(self, argv, tmp_path, capsys):
        log = _omega_log(tmp_path / "omega.txt")

        def fill(out):
            return [a.format(log=log, out=str(tmp_path / out)) for a in argv]

        assert main(fill("here.svg")) == 0
        expected = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": SRC}
        r = subprocess.run(
            [sys.executable, "-m", "rodvec", *fill("there.svg")], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == expected
        if argv[0] == "figure":
            assert (tmp_path / "there.svg").read_bytes() == (tmp_path / "here.svg").read_bytes()
