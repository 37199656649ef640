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
