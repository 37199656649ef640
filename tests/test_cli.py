import ast
import contextlib
import hashlib
import io
import math
import os
import random
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rodvec._backend
import rodvec.checks
import rodvec.core
from rodvec._lifted import EXACT_STEP, _compose_chain, _integrate, _require_finite, _rotation9
from rodvec.cli import (
    _build_parser,
    _parse_direct,
    _parse_lifted,
    _parse_omega_file,
    _trajectory_lines,
    main,
)
from rodvec.core import RodriguesVector, _from_lifted
from rodvec.errors import SpecFormatError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConvert:
    def test_aa_to_rod(self, capsys):
        code, out, _ = run(capsys, "convert", "aa:0,0,1,1.5707963267948966", "--to", "rod")
        assert code == 0
        assert out == "rod:0,0,1\n"

    def test_rod_to_aa(self, capsys):
        code, out, _ = run(capsys, "convert", "rod:1,1,-1", "--to", "aa")
        assert code == 0
        parts = out.strip().removeprefix("aa:").split(",")
        assert float(parts[3]) == pytest.approx(2 * math.pi / 3, abs=1e-11)
        s = 1 / math.sqrt(3)
        assert [float(p) for p in parts[:3]] == pytest.approx([s, s, -s], abs=1e-11)

    def test_half_turn_angle_to_rod_exits_3(self, capsys):
        code, _, err = run(capsys, "convert", "aa:0,0,1,3.14159265358979", "--to", "rod")
        assert code == 3
        assert "pi" in err and "pole" in err

    def test_half_input_to_mat_and_aa(self, capsys):
        code, out, _ = run(capsys, "convert", "half:0,0,1", "--to", "mat")
        assert code == 0
        assert out == "mat:-1,0,0,0,-1,0,0,0,1\n"
        code, out, _ = run(capsys, "convert", "half:0,0,1", "--to", "aa")
        assert code == 0
        assert out.strip().split(",")[3] == f"{math.pi:.12g}"

    def test_mat_to_half(self, capsys):
        code, out, _ = run(capsys, "convert", "mat:-1,0,0,0,-1,0,0,0,1", "--to", "half")
        assert code == 0
        assert out == "half:0,0,1\n"

    def test_regular_to_half_exits_3(self, capsys):
        code, _, _ = run(capsys, "convert", "rod:0,0,1", "--to", "half")
        assert code == 3

    def test_parse_errors_exit_2(self, capsys):
        assert run(capsys, "convert", "rod:1,2", "--to", "aa")[0] == 2
        assert run(capsys, "convert", "blah:1,2,3", "--to", "aa")[0] == 2
        assert run(capsys, "convert", "rod:1,2,zzz", "--to", "aa")[0] == 2
        # a matrix that is not a rotation
        assert run(capsys, "convert", "mat:2,0,0,0,1,0,0,0,1", "--to", "rod")[0] == 2

    def test_degrees_boundary(self, capsys):
        code, out, _ = run(capsys, "--degrees", "convert", "aa:0,0,1,90", "--to", "rod")
        assert code == 0
        assert out == "rod:0,0,1\n"
        code, out, _ = run(capsys, "--degrees", "convert", "rod:0,0,1", "--to", "aa")
        assert out.strip() == "aa:0,0,1,90"

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "--precision", "3", "convert", "rod:1,1,-1", "--to", "aa")
        assert out.strip() == "aa:0.577,0.577,-0.577,2.09"

    def test_overflowing_rodrigues_vector(self, capsys):
        # Q.Q overflows; the rotation is pi - 2e-200 rad about x
        assert run(capsys, "convert", "rod:1e200,0,0", "--to", "mat") == (
            0, "mat:1,0,0,0,-1,0,0,0,-1\n", "")
        assert run(capsys, "convert", "rod:1e200,0,0", "--to", "aa") == (
            0, "aa:1,0,0,3.14159265359\n", "")

    def test_overflowing_axis_lengths(self, capsys):
        assert run(capsys, "convert", "half:1e200,0,0", "--to", "mat") == (
            0, "mat:1,0,0,0,-1,0,0,0,-1\n", "")
        assert run(capsys, "convert", "aa:1e200,0,0,1", "--to", "rod") == (
            0, "rod:0.546302489844,0,0\n", "")

    def test_tiny_axis_lengths(self, capsys):
        for spec in ("half:1e-16,0,0", "half:5e-324,0,0", "half:-5e-324,0,0"):
            assert run(capsys, "convert", spec, "--to", "mat") == (
                0, "mat:1,0,0,0,-1,0,0,0,-1\n", "")
        assert run(capsys, "convert", "aa:1e-300,0,0,1", "--to", "mat") == run(
            capsys, "convert", "aa:1,0,0,1", "--to", "mat")
        assert run(capsys, "convert", "aa:0,5e-324,0,1", "--to", "rod") == (
            0, "rod:0,0.546302489844,0\n", "")

    def test_zero_axis_exit_2(self, capsys):
        assert run(capsys, "convert", "half:0,0,0", "--to", "mat") == (
            2, "", "error: invalid half spec: cannot normalize a (near-)zero vector\n")
        assert run(capsys, "convert", "aa:0,-0,0,1", "--to", "mat") == (
            2, "", "error: invalid aa spec: cannot normalize a (near-)zero vector\n")

    def test_round_trips(self, capsys):
        for spec, fmt in [
            ("rod:0.25,-0.75,1.5", "rod"),
            ("aa:0.26726124191242,0.534522483825,0.801783725737,1.2", "aa"),
        ]:
            _, there, _ = run(capsys, "convert", spec, "--to", "mat")
            _, back, _ = run(capsys, "convert", there.strip(), "--to", fmt)
            orig = [float(v) for v in spec.split(":")[1].split(",")]
            got = [float(v) for v in back.strip().split(":")[1].split(",")]
            assert got == pytest.approx(orig, abs=1e-9)


def _bad(message):
    return 2, "", f"error: {message}\n"


#: (global options, spec): the (exit, stdout, stderr) of ``convert SPEC --to mat``
#: for every way a spec can fail to parse, and for the finite specs whose
#: sums overflow but which parse.
SPEC_OUTCOMES = {
    ((), "1,0,0"): _bad("rotation spec needs a 'kind:' prefix: '1,0,0'"),
    ((), "quat:1,0,0,0"): _bad("unknown rotation kind 'quat' (use aa, rod, mat or half)"),
    ((), "rod:"): _bad("rod spec needs 3 comma-separated numbers, got 1"),
    ((), "aa:"): _bad("aa spec needs 4 comma-separated numbers, got 1"),
    ((), "mat:"): _bad("mat spec needs 9 comma-separated numbers, got 1"),
    ((), "half:"): _bad("half spec needs 3 comma-separated numbers, got 1"),
    # the count is checked before any number is read
    ((), "rod:x,1"): _bad("rod spec needs 3 comma-separated numbers, got 2"),
    ((), "rod:1,2"): _bad("rod spec needs 3 comma-separated numbers, got 2"),
    ((), "rod:1,2,3,4"): _bad("rod spec needs 3 comma-separated numbers, got 4"),
    ((), "half:1,2"): _bad("half spec needs 3 comma-separated numbers, got 2"),
    ((), "half:1,2,3,4"): _bad("half spec needs 3 comma-separated numbers, got 4"),
    ((), "aa:0,0,1"): _bad("aa spec needs 4 comma-separated numbers, got 3"),
    ((), "aa:0,0,1,1,1"): _bad("aa spec needs 4 comma-separated numbers, got 5"),
    ((), "mat:1,0,0,0,1,0,0,0"): _bad("mat spec needs 9 comma-separated numbers, got 8"),
    ((), "mat:1,0,0,0,1,0,0,0,1,0"): _bad("mat spec needs 9 comma-separated numbers, got 10"),
    ((), "rod:1,x,3"): _bad("bad number in rod spec: could not convert string to float: 'x'"),
    ((), "half:1,,3"): _bad("bad number in half spec: could not convert string to float: ''"),
    ((), "aa:0,0,1,1rad"): _bad("bad number in aa spec: could not convert string to float: '1rad'"),
    ((), "mat:1,0,0,0,1,0,0,0,one"): _bad("bad number in mat spec: could not convert string to float: 'one'"),
    # a bad number is found before a non-finite one
    ((), "mat:nan,0,0,0,1,0,0,0,x"): _bad("bad number in mat spec: could not convert string to float: 'x'"),
    ((), "rod:nan,0,0"): _bad("invalid rod spec: non-finite component: nan"),
    ((), "rod:0,-inf,0"): _bad("invalid rod spec: non-finite component: -inf"),
    ((), "half:nan,0,1"): _bad("invalid half spec: non-finite component: nan"),
    ((), "half:0,0,-inf"): _bad("invalid half spec: non-finite component: -inf"),
    ((), "aa:inf,0,0,1"): _bad("invalid aa spec: non-finite component: inf"),
    ((), "aa:0,nan,1,1"): _bad("invalid aa spec: non-finite component: nan"),
    ((), "aa:0,0,1,nan"): _bad("invalid aa spec: non-finite component: nan"),
    ((), "mat:1,0,0,0,1,0,0,0,nan"): _bad("invalid mat spec: non-finite component: nan"),
    ((), "mat:inf,0,0,0,1,0,0,0,1"): _bad("invalid mat spec: non-finite component: inf"),
    ((), "aa:0,0,1,inf"): _bad("invalid aa spec: non-finite component: inf"),
    (("--degrees",), "aa:0,0,1,inf"): _bad("invalid aa spec: non-finite component: inf"),
    (("--degrees",), "aa:0,0,1,-inf"): _bad("invalid aa spec: non-finite component: -inf"),
    # the axis is checked before the angle
    ((), "aa:nan,0,1,inf"): _bad("invalid aa spec: non-finite component: nan"),
    ((), "aa:0,0,0,inf"): _bad("invalid aa spec: cannot normalize a (near-)zero vector"),
    ((), "aa:0,-0,0,1"): _bad("invalid aa spec: cannot normalize a (near-)zero vector"),
    ((), "half:0,0,0"): _bad("invalid half spec: cannot normalize a (near-)zero vector"),
    ((), "mat:2,0,0,0,1,0,0,0,1"): _bad(
        "invalid mat spec: matrix fails SO(3) checks: |R^T R - 1| = 3.000e+00, |det - 1| = 1.000e+00"),
    ((), "mat:1,0,0,0,0,1,0,1,0"): _bad(
        "invalid mat spec: matrix fails SO(3) checks: |R^T R - 1| = 0.000e+00, |det - 1| = 2.000e+00"),
    ((), "mat:1e300,0,0,0,1,0,0,0,1"): _bad(
        "invalid mat spec: matrix fails SO(3) checks: "
        "its entries are too large for R^T R or det R to be formed"),
    # finite specs whose sums overflow, and others that parse
    ((), "rod:1e308,1e308,0"): (0, "mat:-2.22044604925e-16,1,0,1,-2.22044604925e-16,0,0,0,-1\n", ""),
    ((), "half:1e308,1e308,1e308"): (
        0,
        "mat:-0.333333333333,0.666666666667,0.666666666667,0.666666666667,-0.333333333333,"
        "0.666666666667,0.666666666667,0.666666666667,-0.333333333333\n",
        "",
    ),
    ((), "aa:1e308,1e308,0,1"): (
        0,
        "mat:0.770151152934,0.229848847066,0.595009839529,0.229848847066,0.770151152934,"
        "-0.595009839529,-0.595009839529,0.595009839529,0.540302305868\n",
        "",
    ),
    (("--degrees",), "aa:1e308,1e308,0,90"): (
        0,
        "mat:0.5,0.5,0.707106781187,0.5,0.5,-0.707106781187,-0.707106781187,0.707106781187,"
        "2.22044604925e-16\n",
        "",
    ),
    (("--degrees",), "aa:0,0,1,1e308"): (
        0, "mat:-0.0992222472586,0.995065297179,0,-0.995065297179,-0.0992222472586,0,0,0,1\n", ""),
    ((), "rod:1e-320,-0.0,5e-324"): (
        0,
        "mat:1,-9.88131291682e-324,0,9.88131291682e-324,1,-1.99997773437e-320,0,"
        "1.99997773437e-320,1\n",
        "",
    ),
    ((), "rod: 1,2 ,3"): (
        0,
        "mat:-0.733333333333,-0.133333333333,0.666666666667,0.666666666667,-0.333333333333,"
        "0.666666666667,0.133333333333,0.933333333333,0.333333333333\n",
        "",
    ),
}


@pytest.mark.parametrize("options, spec", list(SPEC_OUTCOMES))
def test_spec_parse_outcome(capsys, options, spec):
    assert run(capsys, *options, "convert", spec, "--to", "mat") == SPEC_OUTCOMES[options, spec]


class TestCompose:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "compose", "rod:1,0,0", "rod:0,1,0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda[1] = 1"
        assert lines[1] == "rod:1,1,-1"

    def test_half_turn_output(self, capsys):
        code, out, _ = run(capsys, "compose", "rod:0,0,1", "rod:0,0,1")
        assert code == 0
        assert out.splitlines()[1] == "half:0,0,1"

    def test_product_just_short_of_pi_stays_regular(self, capsys):
        # the product is 1.1e-10 rad short of pi, far more than rounding
        result = run(capsys, "compose", "aa:0,0,1,1.57079632674", "aa:0,0,1,1.57079632674")
        assert result == (
            0,
            "lambda[1] = 1.09793285574e-10\n"
            "rod:0,0,18216050184\n"
            "aa:0,0,1,3.14159265348\n"
            "mat:-1,-1.0979328558e-10,0,1.0979328558e-10,-1,0,0,0,1\n",
            "",
        )

    def test_product_at_pi_to_rounding_is_the_half_turn(self, capsys):
        # lambda = 2.2e-16 of two float quarter turns is zero to rounding
        result = run(capsys, "compose", "aa:0,0,1,1.5707963267948966", "aa:0,0,1,1.5707963267948966")
        assert result == (
            0,
            "lambda[1] = 2.22044604925e-16\nhalf:0,0,1\naa:0,0,1,3.14159265359\nmat:-1,0,0,0,-1,0,0,0,1\n",
            "",
        )

    def test_inverse_pair(self, capsys):
        code, out, _ = run(capsys, "compose", "rod:0.3,0,0", "rod:-0.3,0,0")
        assert code == 0
        assert out.splitlines()[1] == "rod:0,0,0"

    def test_application_order_is_first_listed_first(self, capsys):
        # listed order q1 then q2 must equal compose(q2, q1)
        _, out, _ = run(capsys, "compose", "rod:0.2,0,0", "rod:0,0.4,0")
        lib = _from_lifted(*_parse_lifted(out.splitlines()[1], False))
        from rodvec import compose

        want = compose(RodriguesVector(0, 0.4, 0), RodriguesVector(0.2, 0, 0))
        assert (lib.vec - want.vec).norm() <= 1e-12

    def test_needs_two_specs(self, capsys):
        assert run(capsys, "compose", "rod:1,0,0")[0] == 2

    def test_output_matches_library_at_print_precision(self, capsys):
        from rodvec import compose

        _, out, _ = run(capsys, "compose", "rod:0.31,-0.2,0.7", "rod:0.1,0.5,-0.4")
        lib = compose(RodriguesVector(0.1, 0.5, -0.4), RodriguesVector(0.31, -0.2, 0.7))
        want = "rod:" + ",".join(f"{v:.12g}" for v in lib.as_tuple())
        assert out.splitlines()[1] == want

    def test_non_finite_component_exits_2(self, capsys):
        assert run(capsys, "convert", "rod:nan,0,0", "--to", "aa")[0] == 2
        assert run(capsys, "convert", "rod:inf,0,0", "--to", "aa")[0] == 2

    def test_overflowing_operands_give_half_turn(self, capsys):
        # ||Q1|| ||Q2|| = 1e308: the numerator's squared norm overflows
        code, out, _ = run(capsys, "compose", "rod:1e154,0,0", "rod:0,1e154,0")
        assert code == 0
        mat = [float(v) for v in out.splitlines()[-1].removeprefix("mat:").split(",")]
        assert mat == pytest.approx([-1, 0, 0, 0, -1, 0, 0, 0, 1], abs=1e-12)

    def test_overflowing_product_is_rescaled(self, capsys):
        # the cross term of the Euler-parameter product is 1e400
        code, out, _ = run(capsys, "compose", "rod:1e200,0,0", "rod:0,1e200,0")
        assert code == 0
        mat = [float(v) for v in out.splitlines()[-1].removeprefix("mat:").split(",")]
        assert mat == pytest.approx([-1, 0, 0, 0, -1, 0, 0, 0, 1], abs=1e-12)

    def test_overflowing_quotient_gives_half_turn(self, capsys):
        # 1 - Q2.Q1 = 3e-9 is not zero to rounding, but Q1/3e-9 overflows
        code, out, _ = run(capsys, "compose", "rod:1e300,0,0", "rod:0.999999997e-300,0,0")
        assert (code, out.splitlines()[1]) == (0, "half:1,0,0")

    def test_overflowing_lambda_is_rescaled(self, capsys):
        # Q2.Q1 = 1e400 - 1e400 overflows to inf - inf; the true lambda is 1
        code, out, _ = run(capsys, "compose", "rod:1e200,1e200,0", "rod:1e200,-1e200,0")
        assert (code, out.splitlines()[0]) == (0, "lambda[1] = 1")

    def test_lambda_past_the_float_range_is_infinite(self, capsys):
        # the true lambda is 1 - 1e400
        code, out, _ = run(capsys, "compose", "rod:1e200,0,0", "rod:1e200,0,0")
        assert (code, out.splitlines()[0]) == (0, "lambda[1] = -inf")
        assert "nan" not in out


def _readme_cli_examples() -> list[tuple[list[str], str]]:
    """The lines of the README's ``## CLI`` block that end in ``# <spec>``:
    each as its argv after ``rodvec``, with the spec it prints."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        m = re.fullmatch(r"rodvec (.*?)\s+#\s*(\S+)", line)
        if m:
            examples.append((shlex.split(m[1]), m[2]))
    return examples


class TestReadmeExamples:
    def test_the_cli_block_has_examples_with_their_output(self):
        assert len(_readme_cli_examples()) >= 2

    @pytest.mark.parametrize("argv, spec", _readme_cli_examples(), ids=lambda v: str(v[0]) if isinstance(v, list) else v)
    def test_example_prints_its_spec(self, capsys, argv, spec):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert spec in out.splitlines()


class TestDonkin:
    def test_worked_arcs_and_residual(self, capsys):
        code, out, _ = run(capsys, "donkin", "rod:1,0,0", "rod:0,1,0")
        assert code == 0
        vals = {}
        for line in out.splitlines():
            key, _, val = line.partition(" = ")
            vals[key] = val
        assert float(vals["arc(A,B)"]) == pytest.approx(math.pi / 4, abs=1e-11)
        assert float(vals["arc(B,C)"]) == pytest.approx(math.pi / 4, abs=1e-11)
        assert float(vals["arc(A,C)"]) == pytest.approx(math.pi / 3, abs=1e-11)
        assert float(vals["residual"]) <= 1e-10

    def test_parallel_axes_exit_4(self, capsys):
        assert run(capsys, "donkin", "rod:0,0,1", "rod:0,0,2")[0] == 4

    def test_overflowing_axis_length(self, capsys):
        code, out, _ = run(capsys, "donkin", "rod:1e200,0,0", "rod:0,1,0")
        assert code == 0
        assert float(out.splitlines()[-1].removeprefix("residual = ")) <= 1e-10

    def test_half_turn_input_rejected(self, capsys):
        assert run(capsys, "donkin", "half:0,0,1", "rod:1,0,0")[0] == 2

    def test_another_instance(self, capsys):
        code, out, _ = run(capsys, "donkin", "rod:0,0,1", "rod:1,0,0")
        assert code == 0
        residual = float(out.splitlines()[-1].partition(" = ")[2])
        assert residual <= 1e-10

    def test_nearly_parallel_axes(self, capsys, tmp_path):
        # axes 3.4e-9 rad apart: the command exited 1 with a NotPerpendicular
        # traceback, and so did fig4 and fig5
        q1 = "-0.9737716208221956,-0.5665403990723037,-0.44103526797777937"
        q2 = "-1.8782759933291822,-1.0927811167031554,-0.8506983946786105"
        code, out, err = run(capsys, "donkin", f"rod:{q1}", f"rod:{q2}")
        assert (code, err) == (0, "")
        assert float(out.splitlines()[-1].removeprefix("residual = ")) <= 1e-14
        for kind in ("fig4", "fig5"):
            path = tmp_path / f"{kind}.svg"
            argv = ["figure", "--kind", kind, f"--q1={q1}", f"--q2={q2}", "--out", str(path)]
            assert run(capsys, *argv) == (0, "", "")
            assert "<svg " in path.read_text()

    def test_degrees_flag_converts_arcs(self, capsys):
        code, out, _ = run(capsys, "--degrees", "donkin", "rod:1,0,0", "rod:0,1,0")
        assert code == 0
        arcs = [ln for ln in out.splitlines() if ln.startswith("arc")]
        assert [ln.partition(" = ")[2] for ln in arcs] == ["45", "45", "60"]


class TestIntegrate:
    def write_omega(self, tmp_path, rows, name="omega.txt"):
        p = tmp_path / name
        p.write_text("# t wx wy wz\n" + "\n".join(rows) + "\n")
        return str(p)

    def test_constant_omega_exact(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", f"{math.pi/2} 0 0 1"])
        code, out, _ = run(capsys, "integrate", path, "--scheme", "exact-step")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "final rod:0,0,1"
        assert lines[1] == "final aa:0,0,1,1.57079632679"

    def test_first_order_with_substeps(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", f"{math.pi/2} 0 0 1"])
        code, out, _ = run(
            capsys, "integrate", path, "--scheme", "first-order", "--substeps", "1000"
        )
        assert code == 0
        angle = float(out.splitlines()[1].removeprefix("final aa:").split(",")[3])
        assert abs(angle - math.pi / 2) <= 1e-6

    def test_decreasing_time_exit_5(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", "-1 0 0 1"])
        assert run(capsys, "integrate", path)[0] == 5

    def test_step_too_large_exit_6(self, capsys, tmp_path):
        # a step angle of 1e308 rad/s over 10 s is past the float range; a
        # step of 10 rad is not (TestExactStepPastPi in test_kinematics)
        path = self.write_omega(tmp_path, ["0 1e308 0 0", "10 1e308 0 0"])
        assert run(capsys, "integrate", path, "--scheme", "exact-step") == (
            6,
            "",
            "error: the step's increment is past the float range; reduce dt or add substeps\n",
        )

    @pytest.mark.parametrize("scheme", ["exact-step", "first-order"])
    def test_interval_past_the_float_range_exit_2(self, capsys, tmp_path, scheme):
        # the second interval overflows: its step size would be inf and its
        # midpoint nan
        path = self.write_omega(tmp_path, ["-1.5e308 0 0 0", "-1e308 0 0 0", "1e308 0 0 0", "1.5e308 0 0 0"])
        assert run(capsys, "integrate", path, "--scheme", scheme) == (
            2,
            "",
            "error: sample times -1e+308 -> 1e+308 are farther apart than the largest float\n",
        )

    def test_span_past_the_float_range_with_finite_intervals(self, capsys, tmp_path):
        # the span t[-1] - t[0] overflows, but no interval does
        path = self.write_omega(tmp_path, ["-1e308 0 0 0", "0 0 0 0", "1e308 0 0 0"])
        assert run(capsys, "integrate", path, "--trajectory") == (
            0,
            "# t qx qy qz\n-1e+308 0 0 0\n0 0 0 0\n1e+308 0 0 0\n"
            "final rod:0,0,0\nfinal aa:0,0,1,0\nfinal mat:1,0,0,0,1,0,0,0,1\n",
            "",
        )

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert run(capsys, "integrate", str(tmp_path / "nope.txt"))[0] == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0", "1 0 0 1"])
        assert run(capsys, "integrate", path)[0] == 2

    def test_single_sample_exit_2(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1"])
        assert run(capsys, "integrate", path)[0] == 2

    def test_trajectory_output(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", "0.5 0 0 1", "1 0 0 1"])
        outfile = tmp_path / "traj.txt"
        code, out, _ = run(
            capsys, "integrate", path, "--trajectory", "--out", str(outfile), "--matrix-cols"
        )
        assert code == 0
        lines = outfile.read_text().splitlines()
        assert lines[0].startswith("#")
        data = [ln.split() for ln in lines[1:]]
        assert len(data) == 3 and all(len(row) == 10 for row in data)
        assert [row[0] for row in data] == ["0", "0.5", "1"]
        # printed trajectory matches the file
        assert out.splitlines()[: len(lines)] == lines

    def test_initial_orientation(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 0", "1 0 0 0"])
        code, out, _ = run(capsys, "integrate", path, "--initial", "rod:0.5,0,0")
        assert code == 0
        assert out.splitlines()[0] == "final rod:0.5,0,0"

    def test_leaves_half_turn_initial_orientation(self, capsys, tmp_path):
        # 0.01 rad past a half-turn about z: Q = -cot(0.005) z
        rows = [f"{i / 1000} 0 0 1" for i in range(11)]
        path = self.write_omega(tmp_path, rows)
        code, out, _ = run(capsys, "integrate", path, "--initial", "half:0,0,1")
        assert code == 0
        assert out.splitlines()[0] == "final rod:0,0,-199.998333331"

    def test_steps_underflowing_to_zero_are_the_identity(self, capsys, tmp_path):
        # (5e-324 - 0)/3 rounds to 0: the first interval does not rotate
        path = self.write_omega(tmp_path, ["0 0 0 1", "5e-324 0 0 1", "1 0 0 1"])
        code, out, err = run(capsys, "integrate", path, "--substeps", "3", "--trajectory")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[1:3] == ["0 0 0 0", "4.94065645841e-324 0 0 0"]
        assert rows[4] == "final rod:0,0,0.546302489844"

    def test_non_finite_sample_time_exit_2(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", "nan 0 0 1"])
        assert run(capsys, "integrate", path) == (2, "", "error: non-finite sample time\n")

    def test_non_finite_rate_exit_2(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 1", "1 0 inf 1"])
        assert run(capsys, "integrate", path) == (2, "", "error: non-finite component: inf\n")

    def test_overflowing_interpolated_rate_exit_2(self, capsys, tmp_path):
        # the step midpoint rate is 1e308 + 0.5 * (-1e308 - 1e308) = -inf
        path = self.write_omega(tmp_path, ["0 1e308 0 0", "1 -1e308 0 0"])
        assert run(capsys, "integrate", path) == (2, "", "error: non-finite component: -inf\n")

    def test_overflowing_first_order_increment_exit_6(self, capsys, tmp_path):
        # Q = w dt / 2 = 5e308: the exact-step scheme's error and message
        path = self.write_omega(tmp_path, ["0 1e308 0 0", "10 1e308 0 0"])
        assert run(capsys, "integrate", path, "--scheme", "first-order") == (
            6,
            "",
            "error: the step's increment is past the float range; reduce dt or add substeps\n",
        )

    def test_overflowing_rodrigues_row_is_the_half_turn_matrix(self, capsys, tmp_path):
        # Q.Q overflows: the row's matrix is the half-turn about Q
        path = self.write_omega(tmp_path, ["0 0 0 0", "1 0 0 0"])
        code, out, err = run(
            capsys, "integrate", path, "--initial", "rod:1e200,0,0", "--trajectory", "--matrix-cols"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:3] == ["0 1e+200 0 0 1 0 0 0 -1 0", "1 1e+200 0 0 1 0 0 0 -1 0"]

    def test_row_landing_on_a_half_turn(self, capsys, tmp_path):
        # pi rad about -z ends on the half-turn branch, about the canonical +z
        path = self.write_omega(tmp_path, ["0 0 0 -1", f"{math.pi!r} 0 0 -1"])
        code, out, err = run(
            capsys, "integrate", path, "--substeps", "2", "--trajectory", "--matrix-cols"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:4] == [
            "0 0 0 0 1 0 0 0 1 0",
            "3.14159265359 nan nan nan -1 0 0 0 -1 0",
            "final half:0,0,1",
        ]

    def test_half_turn_trajectory_rows(self, capsys, tmp_path):
        path = self.write_omega(tmp_path, ["0 0 0 0", "0.5 0 0 0", "1 0 0 0"])
        code, out, _ = run(
            capsys, "integrate", path, "--initial", "half:0,0,1", "--trajectory", "--matrix-cols"
        )
        assert code == 0
        rows = out.splitlines()[1:4]
        assert rows == [f"{t} nan nan nan -1 0 0 0 -1 0" for t in ("0", "0.5", "1")]


def _spin_log(tmp_path):
    """500 samples with jittered times of a spin of about 3 rad/s, which
    passes theta = pi twice."""
    rng = random.Random(0)
    t = 0.0
    rows = []
    for _ in range(500):
        w = (
            0.4 + 0.2 * rng.uniform(-1, 1),
            -0.3 + 0.2 * rng.uniform(-1, 1),
            2.9 + 0.2 * rng.uniform(-1, 1),
        )
        rows.append(" ".join(repr(v) for v in (t, *w)))
        t += 0.01 * rng.uniform(0.9, 1.1)
    path = tmp_path / "spin.txt"
    path.write_text("# t wx wy wz\n" + "\n".join(rows) + "\n")
    return str(path)


def _plain_rows(n: int, first: int = 0) -> str:
    """n plain 't wx wy wz' lines of a slow spin, from sample first on."""
    return "".join(
        f"{(first + i) / 100!r} 0.3 -0.2 {1.0 + (first + i) / 1000!r}\n" for i in range(n)
    )


#: integrate --trajectory of three samples at t = 0, 0.5 and 1 of the rate (0.3, -0.2, 1)
_THREE_SAMPLES = (
    "# t qx qy qz\n0 0 0 0\n0.5 0.0768169717694 -0.051211314513 0.256056572565\n"
    "1 0.1659272288 -0.110618152533 0.553090762666\n"
    "final rod:0.1659272288,-0.110618152533,0.553090762666\n"
    "final aa:0.282216260515,-0.188144173677,0.940720868384,1.06301458127\n"
    "final mat:0.527159009825,-0.849304946131,-0.0280086921738,0.794746370342,"
    "0.504426269913,-0.33753865712,0.300801571121,0.155676737822,0.940894876228\n"
)

_HEADER = "# t wx wy wz\n"

#: Omega files that probe the reader, and what integrate --trajectory gives
#: for each as (exit code, stdout, stderr), recorded before plain lines were
#: converted a block at a time (the files with a U+FEFF: before a leading
#: one was dropped, except the two it makes readable).  {path} stands for
#: the file's path, and a long stdout is given by its sha256.
OMEGA_FILES = {
    "three_fields": (
        _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2\n1 0.3 -0.2 1\n",
        (2, "", "error: {path}:3: expected 't wx wy wz', got 3 fields\n"),
    ),
    "five_fields": (
        _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2 1 7\n1 0.3 -0.2 1\n",
        (2, "", "error: {path}:3: expected 't wx wy wz', got 5 fields\n"),
    ),
    "three_then_five_fields": (
        _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2\n1 0.3 -0.2 1 1.5\n2 0.3 -0.2 1\n",
        (2, "", "error: {path}:3: expected 't wx wy wz', got 3 fields\n"),
    ),
    "bad_number": (
        _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2 1x\n1 0.3 -0.2 1\n",
        (2, "", "error: {path}:3: could not convert string to float: '1x'\n"),
    ),
    "single_sample": (
        _HEADER + "0 0.3 -0.2 1\n",
        (2, "", "error: {path}: need at least 2 samples, got 1\n"),
    ),
    "comments": (
        _HEADER + "0 0.3 -0.2 1 # start\n# a comment-only line\n0.5 0.3 -0.2 1\n1 0.3 -0.2 1#end\n",
        (0, _THREE_SAMPLES, ""),
    ),
    "blank_lines": (
        "\n" + _HEADER + "\n0 0.3 -0.2 1\n  \t \n0.5 0.3 -0.2 1\n\n1 0.3 -0.2 1\n\n",
        (0, _THREE_SAMPLES, ""),
    ),
    "crlf_tabs_no_final_newline": (
        "# t wx wy wz\r\n0\t0.3\t-0.2\t1\r\n0.5 \t0.3 -0.2\t 1\r\n1 0.3 -0.2 1",
        (0, _THREE_SAMPLES, ""),
    ),
    "no_header": (
        "0 0.3 -0.2 1\n0.5 0.3 -0.2 1\n",
        (
            0,
            "# t qx qy qz\n0 0 0 0\n0.5 0.0768169717694 -0.051211314513 0.256056572565\n"
            "final rod:0.0768169717694,-0.051211314513,0.256056572565\n"
            "final aa:0.282216260515,-0.188144173677,0.940720868384,0.531507290637\n"
            "final mat:0.873031742669,-0.484113723264,-0.0587322674534,0.469463539726,"
            "0.866927499528,-0.167453562012,0.131983185144,0.118619616885,0.984128967834\n",
            "",
        ),
    ),
    "plain_blocks": (
        _HEADER + _plain_rows(200),
        (0, "sha256:bf383a997c9f02389039ae07a0cd18639e45b32238149508797ced3d2aaf0cb5", ""),
    ),
    "mixed_blocks": (
        _HEADER + _plain_rows(70) + "# a comment in the second block\n" + _plain_rows(60, 70)
        + "\n" + _plain_rows(70, 130) + "2.5 0.3 -0.2 1.2#end\n",
        (0, "sha256:fb0be5fa3bee17bcc19071d5c33a6e37f6ce6bcc9445658c58767d2987ba4021", ""),
    ),
    "bad_line_past_64": (
        _HEADER + _plain_rows(88) + "0.9 0.3 -0.2\n" + _plain_rows(50, 89),
        (2, "", "error: {path}:90: expected 't wx wy wz', got 3 fields\n"),
    ),
    "bad_number_past_64": (
        _HEADER + _plain_rows(150) + "1.5 0.3 -0.2 x\n" + _plain_rows(5, 151),
        (2, "", "error: {path}:152: could not convert string to float: 'x'\n"),
    ),
    "nan_time_past_64": (
        _HEADER + _plain_rows(100) + "nan 0.3 -0.2 1\n",
        (2, "", "error: non-finite sample time\n"),
    ),
    "inf_rate_past_64": (
        _HEADER + _plain_rows(100) + "1 0.3 -inf nan\n",
        (2, "", "error: non-finite component: -inf\n"),
    ),
    # a line or a block whose sum overflows is read all the same, and the
    # step it makes, of 7e305 and 1e306 rad, is integrated (recorded when
    # steps past pi were first integrated)
    "line_sum_overflows": (
        _HEADER + _plain_rows(80) + "0.8 1e308 1e308 0\n",
        (0, "sha256:6a2d8e319bd4db934f726000040a82a3b1a079d4e6d910198f01a3ddeacaabef", ""),
    ),
    "block_sum_overflows": (
        _HEADER + _plain_rows(80) + "0.8 1e308 0 0\n0.81 1e308 0 0\n",
        (0, "sha256:c1d2a678b2da5604b440d6f770c961ea87a03be90e1da096b679a2de5d39f6af", ""),
    ),
    # the file is decoded before a line is read: a decode error past the
    # first 8 KiB wins over a bad line before it, and is placed by its line
    # and its offset in the file
    "non_utf8_past_8k": (
        (_HEADER + _plain_rows(400)).encode() + b"4 0.3 -0.2 1\xff\n",
        (2, "", "error: {path}:402: not UTF-8 at byte 8360: invalid start byte\n"),
    ),
    "bad_line_then_non_utf8": (
        (_HEADER + "0 0.3 -0.2\n" + _plain_rows(400, 1)).encode() + b"4 0.3 \xff -0.2 1\n",
        (2, "", "error: {path}:403: not UTF-8 at byte 8365: invalid start byte\n"),
    ),
    # \r, \r\n and \n each end a line, as readlines() reads them
    "non_utf8_after_mixed_line_ends": (
        b"# t wx wy wz\r0 0.3 -0.2 1\r\n0.5 0.3 -0.2 1\n\r1 0.3 -0.2 \xe2\x82\n",
        (2, "", "error: {path}:5: not UTF-8 at byte 54: invalid continuation byte\n"),
    ),
    # one U+FEFF that starts the file is a byte order mark and is dropped,
    # so the file reads as it would without it; one anywhere else is
    # rejected with its line number
    "bom_then_header": (
        "\ufeff" + _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2 1\n1 0.3 -0.2 1\n",
        (0, _THREE_SAMPLES, ""),
    ),
    "bom_then_samples": (
        "\ufeff0 0.3 -0.2 1\r\n0.5 0.3 -0.2 1\r\n1 0.3 -0.2 1\r\n",
        (0, _THREE_SAMPLES, ""),
    ),
    "two_boms": (
        "\ufeff\ufeff" + _HEADER + "0 0.3 -0.2 1\n0.5 0.3 -0.2 1\n",
        (2, "", "error: {path}:1: expected 't wx wy wz', got 1 fields\n"),
    ),
    "feff_starts_line_3": (
        _HEADER + "0 0.3 -0.2 1\n\ufeff0.5 0.3 -0.2 1\n1 0.3 -0.2 1\n",
        (2, "", "error: {path}:3: could not convert string to float: '\\ufeff0.5'\n"),
    ),
    "feff_in_a_line_past_64": (
        _HEADER + _plain_rows(100) + "1 0.3 -0.2\ufeff 1\n",
        (2, "", "error: {path}:102: could not convert string to float: '-0.2\\ufeff'\n"),
    ),
}


class TestOmegaFileReader:
    """integrate's exit code, stdout and stderr for each file of OMEGA_FILES,
    byte for byte."""

    @pytest.mark.parametrize("name", OMEGA_FILES)
    def test_pinned_result(self, capsys, tmp_path, name):
        data, (code, out, err) = OMEGA_FILES[name]
        path = tmp_path / "omega.txt"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        got = run(capsys, "integrate", str(path), "--trajectory")
        if out.startswith("sha256:"):
            got = (got[0], "sha256:" + hashlib.sha256(got[1].encode()).hexdigest(), got[2])
        assert got == (code, out, err.format(path=path))


def ref_parse_omega_file(path):
    """The omega file reader as it was before blocks of plain lines were
    converted in one pass: every line read on its own, the reference that
    _parse_omega_file must match.  A file that is not UTF-8 is decoded
    whole to place its first bad byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFormatError(f"cannot read omega file: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # with a character after it, the text before the bad byte has
            # as many lines as the bad byte's line number
            line = len(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline=None).readlines())
            raise SpecFormatError(f"{path}:{line}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
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
        if not math.isfinite(t + wx + wy + wz):
            _require_finite(wx, wy, wz)
            if not math.isfinite(t):
                raise ValueError("non-finite sample time")
        times.append(t)
        rates.append((wx, wy, wz))
    if len(times) < 2:
        raise SpecFormatError(f"{path}: need at least 2 samples, got {len(times)}")
    return times, rates


def _read_omega(reader, path):
    """What reader makes of the file: the times and rates as float.hex, so
    that signed zeros count, or the exception's type and text."""
    try:
        times, rates = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return list(map(float.hex, times)), [tuple(map(float.hex, r)) for r in rates]


_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["0", "-0.0", "1e308", "-1e308", "5e-324", " 1_0", "0.5"]),
)
_odd_tokens = st.sampled_from(
    ["nan", "-NaN", "inf", "-Infinity", "1e999", "x", "1x", "#", "0x1p3", "--1", "\xa0", "1\x1c"]
)
_separators = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _plain_line(draw):
    sep = draw(_separators)
    numbers = draw(st.lists(_numbers, min_size=4, max_size=4))
    return draw(st.sampled_from(["", " ", "\t"])) + sep.join(numbers)


@st.composite
def _odd_line(draw):
    kinds = ["comment", "inline", "blank", "count", "shift", "token", "overflow"]
    kind = draw(st.sampled_from(kinds))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# t wx wy wz", "  # note 1 2 3"]))
    if kind == "inline":
        return draw(_plain_line()) + draw(st.sampled_from(["#", " # 1 2", "#x"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t \t"]))
    if kind == "count":
        size = draw(st.sampled_from([1, 2, 3, 5, 6, 8]))
        return " ".join(draw(st.lists(_numbers, min_size=size, max_size=size)))
    if kind == "shift":  # 3 fields, then 5: the right count of numbers for two lines
        a, b = draw(_plain_line()).split(), draw(_plain_line()).split()
        return " ".join(a[:3]) + "\n" + " ".join([a[3], *b])
    if kind == "token":
        parts = draw(_plain_line()).split()
        parts[draw(st.integers(0, 3))] = draw(_odd_tokens)
        return " ".join(parts)
    # every component finite, the line's sum not
    return draw(
        st.sampled_from(["0 1e308 1e308 0", "1e308 1e308 0 0", "-1e308 0 0 -1e308", "0 1 2 3"])
    )


@st.composite
def omega_logs(draw):
    """The bytes of an omega file of up to 300 lines: runs of plain lines,
    long enough to fill a block, between odd ones."""
    lines = ["# t wx wy wz"] if draw(st.booleans()) else []
    while len(lines) < 300 and draw(st.integers(0, 5)):
        if draw(st.booleans()):
            lines += draw(st.lists(_plain_line(), min_size=1, max_size=130))
        else:
            lines.append(draw(_odd_line()))
    lines = lines[:300]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data = (end.join(lines) + (end if draw(st.booleans()) else "")).encode()
    if lines and draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=200, deadline=None)
@given(omega_logs())
def test_omega_reader_matches_the_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "omega-differential.txt"
    path.write_bytes(data)
    assert _read_omega(_parse_omega_file, str(path)) == _read_omega(ref_parse_omega_file, str(path))


class TestIntegrateRowChecks:
    """Every trajectory row's matrix is finite-checked and SO(3)-checked: a
    kernel that returns a bad matrix fails the run with the exit code and
    the message of RotationMatrix(Matrix3(...)), and prints no row."""

    def run_corrupted(self, capsys, monkeypatch, tmp_path, change):
        real = rodvec._backend.kernels.rot_from_rod9
        monkeypatch.setattr(rodvec._backend.kernels, "rot_from_rod9", lambda q: change(real(q)))
        path = tmp_path / "omega.txt"
        path.write_text("# t wx wy wz\n0 0.3 -0.2 1\n0.5 0.3 -0.2 1\n1 0.3 -0.2 1\n")
        return run(capsys, "integrate", str(path), "--trajectory", "--matrix-cols")

    def test_flipped_sign_fails_the_so3_check(self, capsys, monkeypatch, tmp_path):
        # the identity row survives the flip (0.0 -> -0.0); the next one does not
        result = self.run_corrupted(capsys, monkeypatch, tmp_path, lambda m: (m[0], -m[1], *m[2:]))
        assert result == (
            2,
            "",
            "error: matrix fails SO(3) checks: |R^T R - 1| = 8.453e-01, |det - 1| = 4.687e-01\n",
        )

    def test_nan_entry_fails_the_finite_check(self, capsys, monkeypatch, tmp_path):
        result = self.run_corrupted(
            capsys, monkeypatch, tmp_path, lambda m: (*m[:4], math.nan, *m[5:])
        )
        assert result == (2, "", "error: non-finite component: nan\n")

    @pytest.mark.parametrize(
        "residuals, message",
        [
            ((1.0, 0.5), "|R^T R - 1| = 1.000e+00, |det - 1| = 5.000e-01"),
            ((0.0, math.inf), "its entries are too large for R^T R or det R to be formed"),
        ],
    )
    def test_failed_residuals_in_the_second_block(self, capsys, monkeypatch, tmp_path, residuals, message):
        # rot_residuals9 is called once per regular row, in row order: row
        # 100, in the second 64-row block, fails; the run stops there and
        # writes nothing
        kernels = rodvec._backend.kernels
        real = kernels.rot_residuals9
        calls = []

        def failing(m):
            calls.append(m)
            return residuals if len(calls) == 101 else real(m)

        monkeypatch.setattr(kernels, "rot_residuals9", failing)
        path = tmp_path / "omega.txt"
        path.write_text(_HEADER + _plain_rows(200))
        out_path = tmp_path / "trajectory.txt"
        result = run(
            capsys, "integrate", str(path), "--trajectory", "--matrix-cols", "--out", str(out_path)
        )
        assert result == (2, "", f"error: matrix fails SO(3) checks: {message}\n")
        assert len(calls) == 101
        assert not out_path.exists()


class TestIntegrateOutputDigests:
    """The sha256 of the printed trajectory, pinned so that a change to the
    integrator or to the formatting cannot move a single byte unnoticed."""

    @pytest.mark.parametrize(
        "options, sub_options, digest",
        [
            ([], [], "d094fc471f68122d509fd2e8448d8a2cbd503c2eb9ea920282592e04de7f7bdc"),
            (
                [],
                ["--substeps", "3", "--scheme", "first-order"],
                "39a03baa9150a9efa1a33427db64de7c6cf1892ed16db239fce084e6926ba809",
            ),
            (
                ["--precision", "17", "--degrees"],
                ["--initial", "aa:0,0.6,0.8,1"],
                "0f2a404f0c323fdc1e86b1d484f5fabbee130638414c6724c23fc9fa90207a06",
            ),
        ],
    )
    def test_trajectory_digest(self, capsys, tmp_path, options, sub_options, digest):
        path = _spin_log(tmp_path)
        code, out, err = run(
            capsys, *options, "integrate", path, "--trajectory", "--matrix-cols", *sub_options
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 504
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def ref_trajectory_lines(rows, digits, matrix_cols):
    """The trajectory table rendered one row at a time, one string per row:
    the renderer the block renderer must match byte for byte."""
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


def _trajectory_rows(n: int) -> list[tuple[float, float, float, float, float]]:
    """n seeded (t, s, x, y, z) rows: regular ones with components from 1e-8
    to 1e8 and signed zeros, every seventh a half-turn, and one whose Q.Q
    overflows."""
    rng = random.Random(n)
    rows = []
    for i in range(n):
        t = -0.0 if i == 0 else i / 100
        if i % 7 == 3:
            axis = _unit_axis(rng)
            rows.append((t, 0.0, *axis))
        elif i == 5:
            rows.append((t, 1.0, -1e200, 0.0, -0.0))
        else:
            q = [rng.choice((-0.0, 0.0, rng.uniform(-3.0, 3.0), rng.uniform(-1e8, 1e8), 1e-8)) for _ in range(3)]
            rows.append((t, 1.0, *q))
    return rows


#: Row counts about the 64-row block: one row, a full block, one past it,
#: two blocks and many.
_ROW_COUNTS = (1, 2, 63, 64, 65, 128, 129, 1001)


class TestTrajectoryBlocks:
    """``integrate`` renders its trajectory a block of rows at a time, with
    the bytes of the row-by-row renderer; every row is rendered and checked
    before any is written."""

    @pytest.mark.parametrize("matrix_cols", [False, True])
    @pytest.mark.parametrize("digits", [12, 17])
    @pytest.mark.parametrize("n", _ROW_COUNTS)
    def test_blocks_match_the_row_renderer(self, n, digits, matrix_cols):
        rows = _trajectory_rows(n)
        got = "".join(_trajectory_lines(rows, digits, matrix_cols))
        assert got == "".join(ref_trajectory_lines(rows, digits, matrix_cols))
        assert "nan" in got if n > 3 else "nan" not in got

    @pytest.mark.parametrize("n", _ROW_COUNTS)
    def test_one_string_per_block(self, n):
        lines = _trajectory_lines(_trajectory_rows(n), 12, True)
        assert len(lines) == 1 + math.ceil(n / 64)

    @pytest.mark.parametrize("options", [(), ("--precision", "17")])
    def test_integrated_rows_match_the_row_renderer(self, capsys, tmp_path, options):
        # 129 samples from a half-turn: three blocks, the first rows print nan
        path = tmp_path / "omega.txt"
        path.write_text(_HEADER + _plain_rows(129))
        code, out, err = run(
            capsys, *options, "integrate", str(path), "--initial", "half:0,0,1", "--trajectory", "--matrix-cols"
        )
        assert (code, err) == (0, "")
        rows = _integrate(*_parse_omega_file(str(path)), EXACT_STEP, _parse_lifted("half:0,0,1", False), 1)
        digits = 17 if options else 12
        want = "".join(ref_trajectory_lines(rows, digits, True))
        assert out.startswith(want) and out.count("\n") == 130 + 3
        assert " nan nan nan " in want

    @pytest.mark.parametrize("matrix_cols", [(), ("--matrix-cols",)])
    def test_out_file_equals_stdout(self, capsys, tmp_path, matrix_cols):
        path = tmp_path / "omega.txt"
        path.write_text(_HEADER + _plain_rows(200))
        out_path = tmp_path / "trajectory.txt"
        code, out, err = run(
            capsys, "integrate", str(path), "--trajectory", "--out", str(out_path), *matrix_cols
        )
        assert (code, err) == (0, "")
        text = out_path.read_bytes().decode()
        assert text.count("\n") == 201
        assert out == text + "".join(out.splitlines(keepends=True)[-3:])

    def test_bad_row_in_the_second_block_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # rot_from_rod9 is called once per regular row, in row order: the
        # sign flip lands on row 100
        kernels = rodvec._backend.kernels
        real = kernels.rot_from_rod9
        calls = []

        def corrupted(q):
            m = real(q)
            calls.append(q)
            return (m[0], -m[1], *m[2:]) if len(calls) == 101 else m

        monkeypatch.setattr(kernels, "rot_from_rod9", corrupted)
        path = tmp_path / "omega.txt"
        path.write_text(_HEADER + _plain_rows(200))
        out_path = tmp_path / "trajectory.txt"
        result = run(
            capsys, "integrate", str(path), "--trajectory", "--matrix-cols", "--out", str(out_path)
        )
        assert result == (
            2,
            "",
            "error: matrix fails SO(3) checks: |R^T R - 1| = 8.488e-01, |det - 1| = 1.528e+00\n",
        )
        assert len(calls) == 101
        assert not out_path.exists()


class TestFigure:
    def test_fig1a_census(self, capsys, tmp_path):
        out_path = tmp_path / "f.svg"
        code, _, _ = run(
            capsys, "figure", "--kind", "fig1a", "--q", "0,0,1", "--x", "1,0,0",
            "--out", str(out_path),
        )
        assert code == 0
        root = ET.parse(str(out_path)).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f".//{ns}path")
        lines = root.findall(f".//{ns}line")
        assert len(paths) == 1
        roles = sorted(el.get("class") for el in lines)
        assert roles == ["ray bisector", "segment radius", "segment tangent"]

    def test_fig4_outlines(self, capsys, tmp_path):
        out_path = tmp_path / "d.svg"
        code, _, _ = run(
            capsys, "figure", "--kind", "fig4", "--q1", "1,0,0", "--q2", "0,1,0",
            "--out", str(out_path),
        )
        assert code == 0
        root = ET.parse(str(out_path)).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        triangles = {el.get("class").split()[1] for el in root.findall(f".//{ns}path")}
        assert len(triangles) == 4

    def test_overflowing_rotation(self, capsys, tmp_path):
        for kind in ("fig1a", "fig1b", "fig1c", "fig2"):
            code, _, err = run(
                capsys, "figure", "--kind", kind, "--q", "1e200,1,0", "--x", "1,0.5,-0.2",
                "--out", str(tmp_path / f"{kind}.svg"),
            )
            assert (kind, code, err) == (kind, 0, "")

    def test_missing_x_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "--kind", "fig1c", "--q", "0,0,1", "--out", str(tmp_path / "x.svg")
        )
        assert code == 2

    def test_unwritable_path_exit_7(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "figure", "--kind", "fig1a", "--q", "0,0,1", "--x", "1,0,0",
            "--out", str(tmp_path / "no" / "dir" / "f.svg"),
        )
        assert code == 7

    def test_byte_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for p in (a, b):
            assert run(
                capsys, "figure", "--kind", "fig2", "--q", "0.3,0.1,1", "--x", "1,0.2,0",
                "--out", str(p),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "50", "--seed", "7")
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_single_sample(self, capsys):
        assert run(capsys, "check", "--n", "1", "--seed", "7")[0] == 0

    def test_byte_identical_stdout(self, capsys):
        _, first, _ = run(capsys, "check", "--n", "25", "--seed", "3")
        _, second, _ = run(capsys, "check", "--n", "25", "--seed", "3")
        assert first == second

    def test_corrupted_build_fails(self, capsys, monkeypatch):
        # negative control: flip a sign inside the explicit inverse
        real = rodvec.checks._cayley_inv9

        def corrupted(*q):
            m = real(*q)
            return (m[0], -m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8])

        monkeypatch.setattr(rodvec.checks, "_cayley_inv9", corrupted)
        code, out, _ = run(capsys, "check", "--n", "5", "--seed", "7")
        assert code == 1
        assert "FAIL" in out


class TestEntryPoint:
    def test_module_invocation_byte_identical(self):
        cmd = [sys.executable, "-m", "rodvec", "check", "--n", "10", "--seed", "42"]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_cli_import_leaves_svg_unloaded(self):
        src = os.path.dirname(os.path.dirname(rodvec.core.__file__))
        code = "import sys, rodvec.cli; print('rodvec.svg' in sys.modules, 'xml.sax.saxutils' in sys.modules)"
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "False False\n"

    def test_usage_error_exit_2(self):
        cmd = [sys.executable, "-m", "rodvec", "convert", "rod:1,0,0"]  # missing --to
        r = subprocess.run(cmd, capture_output=True)
        assert r.returncode == 2
        assert r.stderr.splitlines()[0] == b"usage: rodvec convert [-h] --to {aa,rod,mat,half} spec"


class TestParserBuiltOnce:
    """A well-formed command line is read without argparse.  argparse builds
    its parser on the first usage error, not at import, and keeps it: no
    call's arguments reach the next call."""

    def test_import_builds_no_parser(self):
        code = (
            "import sys, io, contextlib\n"
            "at_start = 'argparse' in sys.modules\n"
            "import rodvec.cli\n"
            "imported = ['argparse' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for to in ('rod', 'aa'):\n"
            "        assert rodvec.cli.main(['convert', 'rod:1,0,0', '--to', to]) == 0\n"
            "        imported.append('argparse' in sys.modules)\n"
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    made.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "counts = []\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    for _ in range(2):\n"
            "        assert rodvec.cli.main(['convert', 'rod:1,0,0']) == 2\n"  # missing --to
            "        counts.append(len(made))\n"
            "print(at_start, imported, counts)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        # the root parser and one per subcommand, built by the first usage error only
        assert r.stdout == "False [False, False, False] [7, 7]\n"

    def test_usage_error_same_before_and_after_a_call(self):
        code = (
            "import io, contextlib, rodvec.cli\n"
            "def run(argv):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = rodvec.cli.main(argv)\n"
            "    return code, out.getvalue(), err.getvalue()\n"
            "bad = ['--precision', '3', 'convert', 'rod:1,0,0']\n"
            "first = run(bad)\n"
            "ok = run(['--degrees', 'convert', 'aa:0,0,1,90', '--to', 'rod'])\n"
            "print(repr((first, ok, run(bad))))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        first, ok, again = ast.literal_eval(r.stdout)
        assert ok == (0, "rod:0,0,1\n", "")
        assert first == again
        assert first[:2] == (2, "")
        assert first[2].splitlines() == [
            "usage: rodvec convert [-h] --to {aa,rod,mat,half} spec",
            "rodvec convert: error: the following arguments are required: --to",
        ]

    def test_options_do_not_leak_into_the_next_call(self, capsys):
        spec = "rod:0.123456789123456,0,0"
        assert run(capsys, "--precision", "5", "convert", spec, "--to", "rod") == (
            0, "rod:0.12346,0,0\n", "")
        assert run(capsys, "convert", spec, "--to", "rod") == (0, "rod:0.123456789123,0,0\n", "")
        assert run(capsys, "--degrees", "convert", "rod:0,0,1", "--to", "aa") == (0, "aa:0,0,1,90\n", "")
        assert run(capsys, "convert", "rod:0,0,1", "--to", "aa") == (0, "aa:0,0,1,1.57079632679\n", "")


#: Magnitudes of spec components, from the smallest subnormal to 1e300.
_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e-8, 1.0, 1e8, 1e20, 1e154, 1e200, 1e300)

#: Specs that are malformed, not finite or not rotations, and two with
#: tiny axes ("aa:1e-200,0,0,1", "half:1e-300,0,0"), which parse.
_BAD_SPECS = (
    "rod:1,2", "rod:1,2,3,4", "blah:1,2,3", "rod1,2,3", "rod:1,,3", "ROD:1,2,3", "",
    "rod:nan,0,0", "rod:1e400,0,0", "rod:0,-inf,0", "aa:0,0,1", "aa:0,0,0,1",
    "aa:1e-200,0,0,1", "aa:1,0,0,nan", "aa:inf,0,0,1", "half:0,0,0", "half:nan,0,1",
    "half:1e-300,0,0", "mat:1,0,0,0,1,0,0,0", "mat:2,0,0,0,1,0,0,0,1",
    "mat:1,0,0,0,1,0,0,0,nan", "mat:1,0,0,0,1,0,0,0,-inf", "mat:1,0,0,0,0,1,0,1,0",
)


def _component(rng):
    v = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.choice(_MAGNITUDES) * rng.uniform(0.5, 2.0)
    return -v if rng.random() < 0.5 else v


def _unit_axis(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return [c / n for c in v]


def _matrix(axis, angle):
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return [
        c + t * x * x, t * x * y - s * z, t * x * z + s * y,
        t * x * y + s * z, c + t * y * y, t * y * z - s * x,
        t * x * z - s * y, t * y * z + s * x, c + t * z * z,
    ]


def _digest_spec(rng, bad=0.15):
    """One rotation spec of a random kind: exact half-turns, aa at and near
    +-pi and at 180 (pi with --degrees), mat within 1e-4 rad of pi,
    components from 5e-324 to 1e300, and now and then a malformed one."""
    if rng.random() < bad:
        return rng.choice(_BAD_SPECS)
    kind = rng.choice(("rod", "aa", "mat", "half"))
    if kind == "rod":
        return "rod:" + ",".join(repr(_component(rng)) for _ in range(3))
    if kind == "half":
        axis = [_component(rng) for _ in range(3)] if rng.random() < 0.5 else _unit_axis(rng)
        return "half:" + ",".join(map(repr, axis))
    if kind == "aa":
        axis = [_component(rng) for _ in range(3)] if rng.random() < 0.3 else _unit_axis(rng)
        angle = rng.choice((
            rng.uniform(-4.0, 4.0), rng.uniform(-400.0, 400.0), math.pi, -math.pi,
            math.pi - 1e-13, math.pi - 1e-11, 180.0, -180.0, 540.0, 3 * math.pi, 1e300, 0.0,
        ))
        return "aa:" + ",".join(map(repr, (*axis, angle)))
    axis = _unit_axis(rng)
    angle = rng.choice((math.pi - rng.uniform(0.0, 1e-4), math.pi, rng.uniform(-math.pi, math.pi), 1e-9))
    e = _matrix(axis, angle)
    if angle == math.pi and rng.random() < 0.5:
        e = [2.0 * a * b - (i == j) for i, a in enumerate(axis) for j, b in enumerate(axis)]
    if rng.random() < 0.1:
        e[rng.randrange(9)] *= 1.0 + rng.choice((1e-11, 1e-6))
    return "mat:" + ",".join(map(repr, e))


def _digest_runs(command, rng):
    """The argument lists of one digest: 40 seeded runs of one command."""
    if command == "compose":
        chains = [["rod:0,0,1", "rod:0,0,1", "half:1,0,0"], ["half:0,0,-1", "aa:0,0,1,180", "rod:1e300,0,0"]]
        while len(chains) < 40:
            chains.append([_digest_spec(rng, bad=0.03) for _ in range(rng.choice((1, 2, 2, 3, 4, 6)))])
        return [["compose", *c] for c in chains]
    if command == "donkin":
        return [["donkin", _digest_spec(rng, bad=0.05), _digest_spec(rng, bad=0.05)] for _ in range(40)]
    to = command.removeprefix("convert-")
    return [["convert", _digest_spec(rng), "--to", to] for _ in range(40)]


class TestComposeOutputDigests:
    """The sha256 of exit code, stdout and stderr of seeded compose, convert
    and donkin runs, pinned so that a change to spec parsing, composition
    or formatting cannot move a single byte unnoticed."""

    DIGESTS = {
        # "global options command": digest
        "compose": "960b821e5f389d742d08108100d2ee500e9fbf5970727e45c50f079aaf977f17",
        "--degrees compose": "d9f9630e3050b5914a31dfff28f48dac9385621d2964d454fb3df256f6356fb0",
        "--precision 17 compose": "216456a890e94193126accbc7796a78edb2cd3ed6a8a59987f63935c2e0353e7",
        "convert-rod": "5c23a3c25cc423ff350da6c4004e2d60727cfa6663823c770c107756650d3596",
        "--degrees convert-rod": "3e217da0ae82e636385ac0c6a4fb96df78b46414f8e46c0244639f9f1dc45f8f",
        "--precision 17 convert-rod": "351591af5afadfd644e304b294b13da0867e2c0608a95ab44175eb64124f973f",
        "convert-aa": "829dbc292bbd3e55ab444c04c30b92d314648e38d3543c8d5a3f9634ee820a50",
        "--degrees convert-aa": "ae13634c32ab87542e2985458be6e93efe218a1a47ebd84449a468654cdf92eb",
        "--precision 17 convert-aa": "b48fa7f51edf60e330ec4ba4544cb6c92f02e3445a736bee0442ca314bee81ed",
        "convert-mat": "7c7b98ee4391169431b2cf242d6081430645c8f14cd26896e44b6a98545fb74a",
        "--degrees convert-mat": "b6d5d57f26a6990b0468789fc363b852e5b9dd83f7a0de022e080538745dc9a3",
        "--precision 17 convert-mat": "e12330a323f1143e71e20ca58c1694d6492675463a0e8b7bc9fb7bacbfed8ac7",
        "convert-half": "d065b5507beebd3a58a2f7372de148fa858565d79a3675b067e0db157ac325ce",
        "--degrees convert-half": "220fb7a02c09c6792bd800284d714cfb3a8f30f943b1689e27a10b594ca8afcc",
        "--precision 17 convert-half": "312a89dea643f1e58a356969b177e6f7d8d52d05e4aad1eee0f14bba63b9c754",
        "donkin": "f28bef779cdf00dd81532012b611f8ad4848e41ad3d442bfdaacf4a38a11c783",
        "--degrees donkin": "8e0ebec7365c74e9585bfa207ee43285a06cd96d128744f5e78c487a39b01bfb",
        "--precision 17 donkin": "7c61c4e1d4b63e4c83795da12ce2ff83c56bd73b5f81ddbcad0b125b6176c9ae",
    }

    @pytest.mark.parametrize("options", [(), ("--degrees",), ("--precision", "17")])
    @pytest.mark.parametrize(
        "command",
        ["compose", "convert-rod", "convert-aa", "convert-mat", "convert-half", "donkin"],
    )
    def test_digest(self, capsys, options, command):
        h = hashlib.sha256()
        for argv in _digest_runs(command, random.Random(command)):
            code, out, err = run(capsys, *options, *argv)
            h.update(f"{code}\n{out}\0{err}\0".encode())
        assert h.hexdigest() == self.DIGESTS[" ".join((*options, command))]


def _long_chain() -> list[str]:
    """100 well-formed specs whose fold overflows at step 1 (lambda -inf)
    and meets a half-turn operand at step 2, then runs through seeded rod,
    aa, mat and half specs."""
    rng = random.Random(100)
    specs = ["rod:1e200,0,0", "rod:1e200,0,0", "half:0,0,1"]
    while len(specs) < 100:
        kind = ("rod", "aa", "mat", "half")[len(specs) % 4]
        axis = _unit_axis(rng)
        if kind == "rod":
            values = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        elif kind == "aa":
            values = [*axis, rng.uniform(-3.0, 3.0)]
        elif kind == "mat":
            values = _matrix(axis, rng.uniform(-3.0, 3.0))
        else:
            values = axis
        specs.append(kind + ":" + ",".join(map(repr, values)))
    return specs


#: A malformed spec of each kind of fault, and the error it gives.
_CHAIN_FAULTS = {
    "rod:1,2": "error: rod spec needs 3 comma-separated numbers, got 2\n",
    "aa:0,0,1,x": "error: bad number in aa spec: could not convert string to float: 'x'\n",
    "mat:2,0,0,0,1,0,0,0,1": (
        "error: invalid mat spec: matrix fails SO(3) checks: |R^T R - 1| = 3.000e+00, |det - 1| = 1.000e+00\n"
    ),
    "aa:0,0,0,1": "error: invalid aa spec: cannot normalize a (near-)zero vector\n",
    "quat:1,0,0,0": "error: unknown rotation kind 'quat' (use aa, rod, mat or half)\n",
}


class TestComposeStreamsItsSpecs:
    """``compose`` folds each spec as it parses it and prints only after the
    fold: a bad spec deep in a long chain prints nothing but its error, the
    error of the first bad spec, after the fold has taken its overflow and
    half-turn steps."""

    def test_the_chain_takes_the_overflow_and_half_turn_steps(self, capsys):
        code, out, err = run(capsys, "compose", *_long_chain())
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] == ["lambda[1] = -inf", "lambda[2] = n/a (half-turn operand)"]
        assert len(lines) == 99 + 3

    @pytest.mark.parametrize("position", [51, 101])
    @pytest.mark.parametrize("bad", list(_CHAIN_FAULTS))
    def test_bad_spec_prints_only_its_error(self, capsys, bad, position):
        specs = _long_chain()
        specs.insert(position - 1, bad)
        assert run(capsys, "compose", *specs) == (2, "", _CHAIN_FAULTS[bad])

    def test_first_bad_spec_wins(self, capsys):
        specs = _long_chain()
        specs.insert(50, "aa:0,0,0,1")
        specs.append("rod:1,2")
        assert run(capsys, "compose", *specs) == (2, "", _CHAIN_FAULTS["aa:0,0,0,1"])

    def test_a_generator_folds_as_the_list(self):
        rng = random.Random("stream")
        folded = 0
        for _ in range(300):
            rotations = []
            for _ in range(rng.choice((2, 3, 5, 12))):
                try:
                    rotations.append(_parse_lifted(_digest_spec(rng, bad=0.0), rng.random() < 0.3))
                except (SpecFormatError, ValueError):
                    pass
            if len(rotations) < 2:
                continue
            lams, product = _compose_chain(rotations)
            want = ([None if v is None else v.hex() for v in lams], [v.hex() for v in product])
            lams, product = _compose_chain(r for r in rotations)
            assert ([None if v is None else v.hex() for v in lams], [v.hex() for v in product]) == want
            folded += 1
        assert folded > 250


class TestHelpText:
    """The sha256 of the stdout of ``rodvec [command] --help`` at 80 columns,
    recorded while the parser was still written out call by call (the same
    on Python 3.10 to 3.13), so that building it from the argument table
    cannot move a byte."""

    DIGESTS = {
        "": "a3e616045b271df189ee3100c142fef73b2a9f4c66cf9385963fd37dcc0b6de4",
        "convert": "304034b405ddefc8b2e5da5efcad57f3b84d7027d937600f944660a8bf68147b",
        "compose": "5f9f9172b37806ccc8142e5e82ed3c59d81bcf102e3cba7dd958f15e4f558bb0",
        "donkin": "fdcf812dfc32434778e8d2bc1f17ffdf3e513970fa2b6c6496606b0cd9ae243b",
        "integrate": "1527e0b9c8d740b99525a60193c20212076972a29e060a1aaa3eb26c6f2eef9e",
        "figure": "16c2182d4a0c6337e5b95689389e92652bd54d8aeef704703366f59a4357a36c",
        "check": "6fce7538ae38a9545340cbb9429018ae6785c8b6a6ccf7c7da623c792ff16e07",
    }

    @pytest.mark.parametrize("command", list(DIGESTS), ids=lambda c: c or "rodvec")
    def test_digest(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *filter(None, [command, "--help"]))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command]


#: Spec strings, well-formed or not, as positionals and option values.
_SPECS = ("rod:1,0,0", "aa:0,0,1,90", "half:0,1,0", "mat:1,0,0,0,1,0,0,0,1", "1,0,0", "rod:1,2", "")

#: Integers, and strings argparse reads differently from a digit string or rejects.
_INTS = ("1", "3", "17", "-5", "0", "1_0", " 3", "3 ", "+2", "1e3", "x", "")

#: Tokens out of place anywhere: help, "--", a lone "-", the global
#: options after the subcommand, a subcommand name where none belongs.
_JUNK = (("-h",), ("--help",), ("--",), ("-",), ("--degrees",), ("--precision", "3"), ("check",))

#: Pieces of the global part: each option spelling (exact, abbreviated,
#: --x=v) with a value where it takes one.
_GLOBAL_PIECES = (("--degrees",), *(("--precision", v) for v in _INTS), ("--deg",), ("--prec", "3"),
                  ("--precision=5",), ("-h",))

#: Per subcommand: the pieces of each required option, the pieces of the
#: other options, the positionals to draw from and how many it takes.
_COMMAND_PIECES = {
    "convert": (
        [[("--to", v) for v in ("aa", "rod", "mat", "half", "quat", "")] + [("--t", "aa"), ("--to=rod",)]],
        [], _SPECS, 1,
    ),
    "compose": ([], [], _SPECS, 2),
    "donkin": ([], [], _SPECS, 2),
    "integrate": (
        [],
        [*(("--scheme", v) for v in ("first-order", "exact-step", "euler", "")),
         *(("--substeps", v) for v in _INTS), *(("--initial", v) for v in _SPECS), ("--initial", "-x"),
         ("--out", "out.txt"), ("--out", "check"), ("--trajectory",), ("--matrix-cols",),
         ("--matrix_cols",), ("--traj",), ("--sub", "2"), ("--scheme=first-order",)],
        ("log.txt", ""), 1,
    ),
    "figure": (
        [[("--kind", v) for v in ("fig1a", "fig2", "fig4", "fig5", "fig3")] + [("--k", "fig4"), ("--kind=fig4",)],
         [("--out", "o.svg"), ("--out", ""), ("--o", "o.svg")]],
        [(option, v) for option in ("--q", "--x", "--q1", "--q2", "--view") for v in ("1,0,0", "-1,0,0")],
        ("o.svg",), 0,
    ),
    "check": (
        [],
        [*(("--n", v) for v in _INTS), *(("--seed", v) for v in _INTS), ("--n=3",), ("--se", "3")],
        ("extra",), 0,
    ),
}


@st.composite
def _command_lines(draw):
    """Command lines close to well-formed: the global options, a subcommand
    and its options and positionals, shuffled, now and then with a piece
    missing, a positional too many or too few, or a token out of place."""
    mostly = st.sampled_from((True, True, True, True, False))
    command = draw(st.sampled_from(sorted(_COMMAND_PIECES)))
    required, optional, positionals, count = _COMMAND_PIECES[command]
    pieces = [draw(st.sampled_from(choices)) for choices in required if draw(mostly)]
    pieces += draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else []
    count = count if draw(mostly) else draw(st.sampled_from((count - 1, count + 1)))
    pieces += [(draw(st.sampled_from(positionals)),) for _ in range(max(count, 0))]
    pieces += draw(st.lists(st.sampled_from(_JUNK), max_size=1))
    pieces = draw(st.permutations(pieces))
    name = command if draw(mostly) else draw(st.sampled_from(("conv", "bogus", "", "-h")))
    pre = draw(st.lists(st.sampled_from(_GLOBAL_PIECES), max_size=2))
    return [token for piece in (*pre, (name,), *pieces) for token in piece]


#: Every token of the pieces above, for argument lists drawn token by token.
_TOKENS = sorted({
    *_COMMAND_PIECES, *_SPECS, *_INTS,
    *(token for pieces in (_JUNK, _GLOBAL_PIECES) for piece in pieces for token in piece),
    *(token for required, optional, _, _ in _COMMAND_PIECES.values()
      for piece in (*optional, *(p for choices in required for p in choices)) for token in piece),
})


def _argparse_vars(argv):
    """vars() of argparse's namespace of argv, or None where parse_args exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _direct_agrees(argv):
    """Whether the direct parser read argv; when it did, argparse must read
    the same namespace, and where argparse exits the direct parser declines."""
    direct = _parse_direct(argv)
    expected = _argparse_vars(argv)
    if direct is None:
        return False
    assert expected is not None, argv
    assert vars(direct) == expected, argv
    return True


class TestDirectParser:
    """The parser in front of argparse returns argparse's namespace or None."""

    WELL_FORMED = [
        ["convert", "rod:1,0,0", "--to", "aa"],
        ["--degrees", "--precision", "5", "convert", "--to", "half", "half:0,0,1"],
        ["--precision", "3", "--precision", "1_0", "convert", "x", "--to", "rod", "--to", "mat"],
        ["--precision", " 3", "compose", "rod:1,0,0"],
        ["compose", "rod:1,0,0", "", "aa:0,0,1,90", "rod:1,2"],
        ["donkin", "rod:1,0,0", "rod:0,1,0"],
        ["integrate", "log.txt"],
        ["integrate", "--trajectory", "log.txt", "--matrix-cols", "--scheme", "first-order",
         "--substeps", "4", "--initial", "", "--out", "check"],
        ["figure", "--kind", "fig4", "--out", "out.svg", "--q1", "1,0,0", "--q2", "0,1,0"],
        ["figure", "--out", "o.svg", "--kind", "fig1a", "--q", "1,0,0", "--x", "0,1,0", "--view", "0,0,1"],
        ["check"],
        ["check", "--n", "0", "--seed", "+7", "--n", "1_000"],
        ["--degrees", "--degrees", "check", "--seed", "3"],
    ]

    DECLINED = [
        [], ["--degrees"], ["bogus"], ["conv", "rod:1,0,0", "--to", "aa"],
        ["-h"], ["--help"], ["convert", "--help"], ["check", "-h"],
        ["convert", "rod:1,0,0"], ["convert", "--to", "aa"], ["convert", "a", "b", "--to", "aa"],
        ["convert", "rod:1,0,0", "--to", "quat"], ["convert", "rod:1,0,0", "--to"],
        ["convert", "rod:1,0,0", "--to=aa"], ["convert", "rod:1,0,0", "--t", "aa"],
        ["--prec", "3", "convert", "rod:1,0,0", "--to", "aa"],
        ["--precision", "0", "check"], ["--precision", "-5", "check"], ["--precision", "x", "check"],
        ["--precision=5", "check"], ["--precision", "check"],
        ["check", "--n", "-5"], ["check", "--n", "1e3"], ["check", "--n=3"], ["check", "--degrees"],
        ["check", "extra"], ["compose"], ["compose", "--", "rod:1,0,0"], ["compose", "-", "rod:1,0,0"],
        ["donkin", "rod:1,0,0"], ["donkin", "a", "b", "c"], ["integrate"], ["integrate", "a", "b"],
        ["integrate", "log.txt", "--substeps", "0"], ["integrate", "log.txt", "--scheme", "euler"],
        ["integrate", "log.txt", "--initial", "-x"], ["integrate", "log.txt", "--traj"],
        ["figure", "--kind", "fig4"], ["figure", "--out", "o.svg"], ["figure", "--kind", "fig3", "--out", "o"],
        ["figure", "--kind", "fig1a", "--out", "o", "--q", "-1,0,0"],
    ]

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_reads_well_formed_command_lines(self, argv):
        assert _direct_agrees(argv)

    @pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
    def test_declines_the_rest(self, argv):
        assert _parse_direct(argv) is None

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    def test_agrees_with_argparse(self, argv):
        _direct_agrees(argv)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_TOKENS), max_size=10))
    def test_agrees_with_argparse_on_any_tokens(self, argv):
        _direct_agrees(argv)
