"""The benchmark's own oracle accepts the program's output.

Builds the ``integrate-log``, ``compose-chain`` and ``check-selftest``
rounds of ``perfbench/workloads.py`` for one fixed seed and runs their first
operations through ``rodvec.cli.main``, so that a change which breaks the
benchmark's check fails here first.  The
benchmark's files are only imported, without writing bytecode next to them.
"""

import sys
from pathlib import Path

import pytest

from rodvec import _lifted, cli
from rodvec.cli import main

pytest.importorskip("numpy")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "oracle"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    yield workloads
    for name in ("workloads", "oracle"):
        sys.modules.pop(name, None)


def test_integrate_log_operations_pass_the_oracle(workloads, capsys, tmp_path):
    ops = workloads.integrate_log(7, tmp_path)
    for op in ops[:2]:
        assert op.argv[0] == "integrate" and "--matrix-cols" in op.argv
        code = main(op.argv)
        out = capsys.readouterr().out
        assert op.check(code, out) is None


def test_compose_chain_operations_pass_the_oracle(workloads, capsys):
    ops = workloads.compose_chain(7)
    # ops[0] is the fixed chain with a mat: spec 5e-4 rad short of a half-turn
    assert ops[0].known_fault and not any(op.known_fault for op in ops[1:3])
    for op in ops[:3]:
        assert op.argv[0] == "compose" and len(op.argv) == 1 + workloads.CHAIN_SPECS
        code = main(op.argv)
        out = capsys.readouterr().out
        assert op.check(code, out) is None


def test_check_selftest_operations_pass_the_oracle(workloads, capsys):
    ops = workloads.CheckRounds(7).next_round()
    for op in ops[:2]:
        assert op.argv[:3] == ["check", "--n", str(workloads.CHECK_N)]
        code = main(op.argv)
        out = capsys.readouterr().out
        assert op.check(code, out) is None


def test_only_half_turn_steps_leave_the_inline_fold(workloads, monkeypatch, capsys, tmp_path):
    """On the seeded compose chains and gyro logs, a step between regular
    rotations is composed inline: _compose_lifted, the general law, runs
    once for each step with a half-turn operand and for nothing else.  An
    inline test made stricter by mistake keeps every output's bits, since
    _compose_lifted gives the same ones, but loses the inline step's
    speed: this fails once it declines a regular step of these workloads."""
    calls = []
    compose_lifted = _lifted._compose_lifted

    def counted(*args):
        calls.append(args)
        return compose_lifted(*args)

    half_turn_steps = 0
    compose_chain = cli._compose_chain

    def chain(rotations):
        nonlocal half_turn_steps
        lams, product = compose_chain(rotations)
        # None marks a step with a half-turn operand
        half_turn_steps += lams.count(None)
        return lams, product

    monkeypatch.setattr(_lifted, "_compose_lifted", counted)
    monkeypatch.setattr(cli, "_compose_chain", chain)
    for op in workloads.compose_chain(1001):
        assert main(op.argv) == 0
    assert half_turn_steps and len(calls) == half_turn_steps
    # s = 0 is the half-turn, in either operand
    assert all(s2 == 0.0 or s1 == 0.0 for s2, _, _, _, s1, _, _, _ in calls)
    calls.clear()
    for op in workloads.integrate_log(1001, tmp_path):
        assert main(op.argv) == 0
    assert calls == []
    capsys.readouterr()
