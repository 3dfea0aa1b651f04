"""Benchmark workloads: the CLI argument lists each workload sends.

The seed is an argument of the benchmark only; the program receives the
generated argv and nothing else.  Every op is one ``cli.main(argv)`` call.
Output paths are left as the ``OUT`` placeholder so the same op list can
be run into any directory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OUT = "{out}"

# Quantities whose values need the measured joint tables under the
# as-printed convention (the only convention the workloads use).
JOINT_QUANTITIES = frozenset(("s_ab_oracle", "s_ba_oracle"))

ALL_QUANTITIES = (
    "d_total", "d_qubit", "d_qutrit", "lqu", "s_ab_oracle", "s_ba_oracle",
    "i_ab_closed", "i_ba_closed", "steer_ab", "steer_ba", "steer_diff",
)

# The presets are listed here, not read from the package, so that the
# workload stays fixed while the program changes.
PRESET_NAMES = tuple(
    f"fig{n}{s}"
    for n, suffixes in ((1, "abcd"), (2, "abc"), (3, "abcdef"), (4, "abc"), (5, "abc"))
    for s in suffixes
)

VERIFY_CHECKS = 16

DENSE_P_COUNT = 21
DENSE_R_STEPS = 101
R_SPEC = f"0:{math.pi / 4!r}:{DENSE_R_STEPS}"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (with ``OUT`` placeholders) and output suffix."""

    argv: tuple[str, ...]
    suffix: str = ""  # output file extension; empty when the op writes no file

    def resolve(self, out_path: str) -> list[str]:
        return [out_path if arg == OUT else arg for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # Units of work in one pass, the numerator of points_per_s: the (p, r)
    # grid points written by a sweep, or the checks a verify run reports.
    points: int


def dense_p_values(seed: int) -> tuple[float, ...]:
    """21 distinct mixing parameters in (0, 0.5), six decimals, sorted."""
    rng = random.Random(f"dense-p:{seed}")
    ticks = rng.sample(range(1, 500_000), DENSE_P_COUNT)
    return tuple(t / 1_000_000 for t in sorted(ticks))


def _dense(seed: int, workers: int) -> tuple[Op, ...]:
    p_list = ",".join(repr(p) for p in dense_p_values(seed))
    argv = (
        "sweep", "--scenario", "both", "--p", p_list, "--r", R_SPEC,
        "--quantities", ",".join(ALL_QUANTITIES), "--convention", "as-printed",
        "--format", "json", "--workers", str(workers), "--out", OUT,
    )
    return (Op(argv, ".json"),)


def preset_order(seed: int) -> tuple[str, ...]:
    names = list(PRESET_NAMES)
    random.Random(f"presets:{seed}").shuffle(names)
    return tuple(names)


# Grid points per preset: fig1a scans 101 p values, fig2* six p values
# over 101 r values, every other preset one p value over 101 r values.
_PRESET_POINTS = sum(
    606 if name.startswith("fig2") else 101 for name in PRESET_NAMES
)


def build(name: str, seed: int) -> Workload:
    """The op list of workload ``name`` for ``seed``."""
    if name == "presets":
        ops = tuple(
            Op(("preset", preset, "--format", "csv", "--workers", "1", "--out", OUT), ".csv")
            for preset in preset_order(seed)
        )
        return Workload(name, ops, _PRESET_POINTS)
    if name == "dense-both":
        return Workload(name, _dense(seed, 1), DENSE_P_COUNT * DENSE_R_STEPS)
    if name == "dense-both-w2":
        return Workload(name, _dense(seed, 2), DENSE_P_COUNT * DENSE_R_STEPS)
    if name == "verify":
        # Verification's grid is fixed by the program; the seed changes nothing.
        return Workload(name, (Op(("verify",)),), VERIFY_CHECKS)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


WORKLOADS = ("presets", "dense-both", "dense-both-w2", "verify")
