"""Tests of the benchmark's own checks: each accepts the program's right
answer and counts a failure for a wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import Client  # noqa: E402
from tracer import Tracer  # noqa: E402


def cli(argv):
    from rodvec.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def perturb_last_matrix(out: str, delta: float) -> str:
    lines = out.splitlines()
    head, payload = lines[-1].rsplit(":", 1)
    values = [float(v) for v in payload.split(",")]
    values[4] += delta
    lines[-1] = head + ":" + ",".join(repr(v) for v in values)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def log_ops(tmp_path_factory):
    return workloads.integrate_log(7, tmp_path_factory.mktemp("logs"))


@pytest.fixture(scope="module")
def chain_ops():
    return workloads.compose_chain(7)


def test_trajectory_check_accepts_program_output(log_ops):
    for op in log_ops[:4]:  # one log of each rate profile
        assert op.check(*cli(op.argv)) is None


def test_trajectory_check_rejects_row_shifted_by_one_sample(log_ops):
    op = log_ops[1]
    code, out = cli(op.argv)
    lines = out.splitlines()
    k = 500
    lines[k] = lines[k + 1]
    assert op.check(code, "\n".join(lines) + "\n") is not None


def test_trajectory_check_rejects_perturbed_matrix(log_ops):
    op = log_ops[2]
    code, out = cli(op.argv)
    lines = out.splitlines()
    fields = lines[300].split()
    fields[5] = repr(float(fields[5]) + 1e-6)
    lines[300] = " ".join(fields)
    assert "matrix columns off" in op.check(code, "\n".join(lines) + "\n")
    assert "matrix off by" in op.check(code, perturb_last_matrix(out, 1e-6))


def test_trajectory_check_rejects_nan_rows_and_exit_codes(log_ops):
    op = log_ops[0]
    code, out = cli(op.argv)
    lines = out.splitlines()
    fields = lines[10].split()
    fields[4:] = ["nan"] * 6
    lines[10] = " ".join(fields)
    assert op.check(code, "\n".join(lines) + "\n") is not None
    assert op.check(2, out) == "exit code 2"


def test_chain_check_accepts_seeded_chains_and_rejects_perturbed_matrix(chain_ops):
    for op in chain_ops[1:6]:
        code, out = cli(op.argv)
        assert op.check(code, out) is None
        assert "matrix off by" in op.check(code, perturb_last_matrix(out, 1e-6))


def test_known_fault_chain_fails_by_the_half_turn_snap(chain_ops):
    op = chain_ops[0]
    assert op.known_fault
    tracer = Tracer()
    tracer.install()
    try:
        code, out = cli(op.argv)
    finally:
        tracer.uninstall()
    problem = op.check(code, out)
    assert problem is not None and "matrix off by" in problem
    assert tracer.counts["cayley.halfturn_snaps"] >= 1


def test_selftest_check_accepts_pass_and_rejects_fail_and_exit_code():
    code, out = cli(["check", "--n", "20", "--seed", "5"])
    assert oracle.check_selftest(code, out, 20) is None
    failing = out.rstrip("\n").rsplit(" PASS", 1)[0] + " FAIL\n"
    assert "diagnostic failed" in oracle.check_selftest(code, failing, 20)
    assert oracle.check_selftest(1, out, 20) == "exit code 1"


def test_selftest_repeat_must_be_byte_identical():
    (first, *_, repeat) = workloads.CheckRounds(3).next_round()
    assert first.argv == repeat.argv
    code, out = cli(first.argv)
    assert first.check(code, out) is None
    assert repeat.check(code, out) is None
    changed = out.replace("e-", "E-", 1)
    assert repeat.check(code, changed) is not None


def test_client_counts_failures_and_flags_only_unknown_ones(chain_ops):
    client = Client()
    good, fault = chain_ops[1], chain_ops[0]
    code, out, _ = client.invoke(good)
    assert client.verify(good, code, out, count=True) is None
    assert client.verify(good, code, perturb_last_matrix(out, 1e-6), count=True) is not None
    code, out, _ = client.invoke(fault)
    assert client.verify(fault, code, out, count=True) is not None
    assert (client.attempted, client.failed, len(client.wrong)) == (3, 2, 1)


def test_tracer_restores_the_program_and_counts_repeat_exactly(chain_ops):
    import rodvec.cli
    import rodvec.composition

    originals = (rodvec.cli.main, rodvec.composition.compose, rodvec.core.RodriguesVector.__init__)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            cli(chain_ops[3].argv)
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), dict(tracer.counts)))
    assert counts[0] == counts[1]
    assert counts[0][0]["cli"] == 1 and counts[0][1]["core.validations"] > 0
    assert (rodvec.cli.main, rodvec.composition.compose, rodvec.core.RodriguesVector.__init__) == originals


def test_quaternion_reference_matches_closed_form_spin():
    # constant rate about z: the orientation is a rotation by w*t about z
    t = np.linspace(0.0, 2.0, 201)
    w = np.tile([0.0, 0.0, 2.5], (len(t), 1))
    r = oracle.quaternion_matrices(oracle.integrate_quaternions(t, w))
    expected = np.array([oracle.axis_angle_matrix((0.0, 0.0, 1.0), 2.5 * x) for x in t])
    assert np.max(np.abs(r - expected)) < 1e-12
