"""Seeded inputs for the three workloads and the check of each operation.

A workload is a list of operations, one round, that a run repeats whole
until its time is up.  An operation is one ``rodvec`` command line; its
check compares the output with the references in :mod:`oracle`.  The
program only ever sees the generated command lines and log files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Operation:
    argv: list[str]
    #: work units one invocation completes
    units: int
    #: (exit code, stdout) -> None when right, else what is wrong
    check: Callable[[int, str], str | None]
    #: the operation that hits the known half-turn snap; it fails every time
    known_fault: bool = False
    #: (stdout, verdict) of the last output checked, set by the client
    checked: tuple[str, str | None] | None = None


# --------------------------------------------------------------- integrate-log

#: Rate profiles of the generated gyro logs, one log each per round.
PROFILES = ("slow", "spin", "tumble", "vibration")
LOGS_PER_ROUND = 8


def _rate_profile(kind: str, t: np.ndarray, rng: np.random.Generator, dt: float) -> np.ndarray:
    """Angular velocity (rad/s), shape (len(t), 3), of one kind of motion."""
    tt = (t - t[0])[:, None]
    if kind == "slow":
        # a drifting platform: stays well short of a half-turn in total
        bias = rng.normal(0.0, 0.03, 3)
        amp = rng.uniform(0.0, 0.05, 3)
        freq = rng.uniform(0.05, 0.5, 3)
        return bias + amp * np.sin(2 * np.pi * freq * tt)
    if kind == "spin":
        # steady spin about a wobbling axis: passes theta = pi again and again
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rate = rng.uniform(1.0, 6.0)
        wobble = rng.uniform(0.0, 0.3, 3) * np.sin(2 * np.pi * rng.uniform(0.1, 1.0, 3) * tt)
        return rate * axis + wobble
    if kind == "tumble":
        amp = rng.uniform(0.5, 3.0, (3, 3))
        freq = rng.uniform(0.05, 1.0, (3, 3))
        phase = rng.uniform(0.0, 2 * np.pi, (3, 3))
        return sum(amp[k] * np.sin(2 * np.pi * freq[k] * tt + phase[k]) for k in range(3))
    # vibration: a small bias under vibration up to 40 % of the sampling rate
    bias = rng.normal(0.0, 0.2, 3)
    amp = rng.uniform(0.2, 1.5, 3)
    freq = rng.uniform(0.05, 0.4, 3) / dt
    return bias + amp * np.sin(2 * np.pi * freq * tt + rng.uniform(0, 2 * np.pi, 3))


#: Samples per log.  Every log has the same length, so every operation does
#: the same work and a latency quantile does not depend on which lengths a
#: seed happened to draw.
LOG_SAMPLES = 1000


def make_log(rng: np.random.Generator, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and rates of one log: LOG_SAMPLES samples at 50, 100 or
    200 Hz with 10 % timing jitter."""
    n = LOG_SAMPLES
    dt = float(rng.choice([0.005, 0.01, 0.02]))
    t = rng.uniform(0.0, 100.0) + np.concatenate([[0.0], np.cumsum(dt * rng.uniform(0.9, 1.1, n - 1))])
    return t, _rate_profile(kind, t, rng, dt)


def _write_log(path: Path, t: np.ndarray, w: np.ndarray) -> None:
    lines = ["# t wx wy wz"]
    lines += [f"{a!r} {b!r} {c!r} {d!r}" for a, b, c, d in zip(t.tolist(), *w.T.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_log(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, comments="#", ndmin=2)
    return data[:, 0], data[:, 1:]


def integrate_log(seed: int, workdir: Path) -> list[Operation]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(LOGS_PER_ROUND):
        kind = PROFILES[i % len(PROFILES)]
        # a log whose orientation lands on the composition law's half-turn
        # branch (chance about 1e-6 per pass through pi) is drawn again
        while True:
            t, w = make_log(rng, kind)
            path = workdir / f"log-{i}-{kind}.txt"
            _write_log(path, t, w)
            t, w = _read_log(path)  # exactly the doubles the program reads
            if oracle.half_turn_branch_margin(t, w) > 1e-6:
                break
        expected = oracle.quaternion_matrices(oracle.integrate_quaternions(t, w))
        ops.append(
            Operation(
                argv=["integrate", str(path), "--trajectory", "--matrix-cols"],
                units=len(t) - 1,
                check=_trajectory_check(t, expected),
            )
        )
    return ops


def _trajectory_check(t, expected):
    return lambda code, out: f"exit code {code}" if code else oracle.check_trajectory(out, t, expected)


# --------------------------------------------------------------- compose-chain

SPEC_KINDS = ("rod", "aa", "mat", "half")
SPEC_WEIGHTS = (0.35, 0.30, 0.25, 0.10)
CHAINS_PER_ROUND = 32
CHAIN_SPECS = 100

#: 1 + trace(R) at or below this is kept out of the seeded chains: it is ten
#: times the zone (1e-6, an angle within 1e-3 of pi) where
#: ``rodrigues_from_matrix`` snaps a rotation to an exact half-turn.
SNAP_ZONE_MARGIN = 1e-4

#: The known-fault chain: a fixed chain with this ``mat:`` spec in its middle.
#: The matrix lies 5e-4 rad short of a half-turn, inside the snap zone.
FAULT_SPEC = ((0.0, 0.6, 0.8), math.pi - 5e-4)
FAULT_SEED = 20160721


def _spec_text(kind: str, axis: np.ndarray, angle: float) -> str:
    if kind == "half":
        return "half:" + ",".join(repr(v) for v in axis.tolist())
    if kind == "aa":
        return "aa:" + ",".join(repr(v) for v in [*axis.tolist(), angle])
    if kind == "rod":
        return "rod:" + ",".join(repr(v) for v in (math.tan(0.5 * angle) * axis).tolist())
    return "mat:" + ",".join(repr(v) for v in oracle.axis_angle_matrix(axis, angle).ravel().tolist())


def make_chain(rng: np.random.Generator) -> tuple[list[str], list[tuple[np.ndarray, float]]]:
    """CHAIN_SPECS specs with their generating axis-angles, in application order.

    A spec is drawn again when a ``mat:`` spec or the product so far would
    fall in the snap zone, so no seeded chain meets the known fault.
    """
    n = CHAIN_SPECS
    specs: list[str] = []
    gens: list[tuple[np.ndarray, float]] = []
    acc = np.eye(3)
    while len(specs) < n:
        kind = str(rng.choice(SPEC_KINDS, p=SPEC_WEIGHTS))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = math.pi if kind == "half" else float(rng.uniform(-math.pi, math.pi))
        r = oracle.axis_angle_matrix(axis, angle)
        nxt = r @ acc
        if kind == "mat" and 1.0 + np.trace(r) <= SNAP_ZONE_MARGIN:
            continue
        if specs and 1.0 + np.trace(nxt) <= SNAP_ZONE_MARGIN:
            continue
        specs.append(_spec_text(kind, axis, angle))
        gens.append((axis, angle))
        acc = nxt
    return specs, gens


def fault_chain() -> tuple[list[str], list[tuple[np.ndarray, float]]]:
    """The fixed chain that meets the half-turn snap, the same for every seed."""
    specs, gens = make_chain(np.random.default_rng(FAULT_SEED))
    axis, angle = np.array(FAULT_SPEC[0]), FAULT_SPEC[1]
    mid = len(specs) // 2
    specs[mid] = _spec_text("mat", axis, angle)
    gens[mid] = (axis, angle)
    return specs, gens


def _chain_op(specs, gens, known_fault=False) -> Operation:
    expected = oracle.chain_matrix(gens)
    n = len(specs)

    def check(code, out):
        return f"exit code {code}" if code else oracle.check_chain(out, n, expected)

    return Operation(["compose", *specs], units=n - 1, check=check, known_fault=known_fault)


def compose_chain(seed: int) -> list[Operation]:
    rng = np.random.default_rng([seed, 2])
    ops = [_chain_op(*fault_chain(), known_fault=True)]
    ops += [_chain_op(*make_chain(rng)) for _ in range(CHAINS_PER_ROUND - 1)]
    return ops


# --------------------------------------------------------------- check-selftest

CHECK_N = 100
CHECKS_PER_ROUND = 8


class _SameAs:
    """Check of a repeated ``(n, seed)``: exit 0, all PASS and the same bytes
    as the round's first run of that pair."""

    def __init__(self) -> None:
        self.first: str | None = None

    def first_check(self, code, out):
        self.first = out
        return oracle.check_selftest(code, out, CHECK_N)

    def repeat_check(self, code, out):
        err = oracle.check_selftest(code, out, CHECK_N)
        if err is None and out != self.first:
            return "output differs from the first run of the same (n, seed)"
        return err


class CheckRounds:
    """check-selftest operations: a fresh seed for every operation of every
    round, except that each round ends by repeating its first (n, seed)."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"check-selftest:{seed}")

    def next_round(self) -> list[Operation]:
        seeds = [self._rng.randrange(1, 2**31) for _ in range(CHECKS_PER_ROUND - 1)]
        same = _SameAs()
        units = 5 * CHECK_N

        def argv(s):
            return ["check", "--n", str(CHECK_N), "--seed", str(s)]

        ops = [Operation(argv(seeds[0]), units, same.first_check)]
        ops += [Operation(argv(s), units, lambda c, o: oracle.check_selftest(c, o, CHECK_N)) for s in seeds[1:]]
        ops.append(Operation(argv(seeds[0]), units, same.repeat_check))
        return ops


class FixedRounds:
    """Rounds that repeat one generated list of operations."""

    def __init__(self, ops: list[Operation]) -> None:
        self._ops = ops

    def next_round(self) -> list[Operation]:
        return self._ops


WORKLOADS = ("integrate-log", "compose-chain", "check-selftest")


def rounds(workload: str, seed: int, workdir: Path):
    """The round source of a workload: an object whose next_round() gives
    the operations of the next round."""
    if workload == "integrate-log":
        return FixedRounds(integrate_log(seed, workdir))
    if workload == "compose-chain":
        return FixedRounds(compose_chain(seed))
    if workload == "check-selftest":
        return CheckRounds(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
