"""Parameter sweeps over (scenario, p, r, phi) grids with flat-file output.

Grids are evaluated chunk by chunk in key order (ascending p, r, quantity)
and each chunk's records are yielded as they come, so output files are
byte-identical regardless of the worker count and no record list is held.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

from .measures import (
    Convention,
    DecoherenceReport,
    SteeringReport,
    decoherence_stack,
    lqu_stack,
    steering_report,
)
from .model import ModelParams, R_MAX, RegionIState, Scenario, accelerate_closed

# Consecutive (p, r) grid points evaluated together, and one pool task.  The
# stacked LQU holds a (CHUNK, 3, 3, 8, 8) complex Xi product, 9 KiB per point,
# while past a few dozen points a larger chunk saves no time per point.
CHUNK = 64


class _Chunk:
    """Consecutive evaluated grid points.  Each shared intermediate is
    computed on first read and at most once: LQU and decoherence in one
    stacked call for the whole chunk, the steering reports per point."""

    def __init__(self, states: list[RegionIState], convention: Convention):
        self.states = states
        self.convention = convention

    @cached_property
    def matrices(self) -> np.ndarray:
        return np.stack([state.matrix for state in self.states])

    @cached_property
    def decoherence(self) -> DecoherenceReport:
        return decoherence_stack(self.matrices)

    @cached_property
    def lqu(self) -> np.ndarray:
        return lqu_stack(self.matrices).value

    @cached_property
    def steering(self) -> list[SteeringReport]:
        return [steering_report(state, self.convention) for state in self.states]


# Every quantity a sweep can request, with the function that reads its
# values from a chunk, one per point in chunk order.
_QUANTITY_TABLE = {
    "d_total": lambda chunk: chunk.decoherence.d_total.tolist(),
    "d_qubit": lambda chunk: chunk.decoherence.d_qubit.tolist(),
    "d_qutrit": lambda chunk: chunk.decoherence.d_qutrit.tolist(),
    "lqu": lambda chunk: chunk.lqu.tolist(),
    "s_ab_oracle": lambda chunk: [report.s_ab_oracle for report in chunk.steering],
    "s_ba_oracle": lambda chunk: [report.s_ba_oracle for report in chunk.steering],
    "i_ab_closed": lambda chunk: [report.i_ab_closed for report in chunk.steering],
    "i_ba_closed": lambda chunk: [report.i_ba_closed for report in chunk.steering],
    "steer_ab": lambda chunk: [report.steer_ab for report in chunk.steering],
    "steer_ba": lambda chunk: [report.steer_ba for report in chunk.steering],
    "steer_diff": lambda chunk: [abs(report.steer_ab - report.steer_ba) for report in chunk.steering],
}

QUANTITIES = tuple(_QUANTITY_TABLE)

CSV_HEADER = "scenario,p,r_q,r_t,phi,quantity,value"

GRID_POINTS_MAX = 100_000  # largest (p, r) grid one sweep evaluates; bounds work, not memory


class ConfigError(ValueError):
    """Invalid sweep configuration; maps to CLI exit code 1."""


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated (grid point, quantity) pair."""

    scenario: str
    p: float
    r_q: float
    r_t: float
    phi: float
    quantity: str
    value: float


_RECORD_FIELDS = tuple(field.name for field in fields(SweepRecord))
_record_values = attrgetter(*_RECORD_FIELDS)
# One record as ``json.dump(..., indent=2)`` lays out an element of the top-level list.
_JSON_RECORD = "  {{\n" + ",\n".join(f'    "{name}": {{}}' for name in _RECORD_FIELDS) + "\n  }}"


@dataclass(frozen=True)
class SweepConfig:
    """A sweep: scenario, grids, quantities and output settings.

    ``r_values`` feed the accelerated subsystem(s) of the scenario; the
    inertial scenario ignores them (records carry r_q = r_t = 0).
    """

    scenario: Scenario
    p_values: tuple[float, ...]
    r_values: tuple[float, ...] = (0.0,)
    phi: float = 0.0
    quantities: tuple[str, ...] = QUANTITIES
    convention: Convention = Convention.AS_PRINTED
    workers: int = 1

    def validate(self) -> None:
        if not self.p_values:
            raise ConfigError("p grid is empty")
        if not self.r_values:
            raise ConfigError("r grid is empty")
        if not self.quantities:
            raise ConfigError("no quantities requested")
        points = len(self.p_values) * len(self.r_values)
        if points > GRID_POINTS_MAX:
            raise ConfigError(f"grid of {points} (p, r) points exceeds the cap of {GRID_POINTS_MAX}")
        if not math.isfinite(self.phi):
            raise ConfigError(f"phi={self.phi} is not finite")
        for p in self.p_values:
            if not 0.0 <= p <= 0.5:
                raise ConfigError(f"p={p} outside [0, 0.5]")
        for r in self.r_values:
            if not 0.0 <= r <= R_MAX:
                raise ConfigError(f"r={r} outside [0, pi/4]")
        unknown = set(self.quantities) - set(QUANTITIES)
        if unknown:
            raise ConfigError(f"unknown quantities {sorted(unknown)}; available: {', '.join(QUANTITIES)}")
        # Each (scenario, p, r_q, r_t, phi, quantity) output key must occur once.
        for what, values in (("quantity", self.quantities), ("p", self.p_values), ("r", self.r_values)):
            seen = set()
            for value in values:
                if value in seen:
                    raise ConfigError(f"repeated {what} {value!r}; every output record must be unique")
                seen.add(value)
        if self.scenario is Scenario.NONE and len(self.r_values) > 1:
            raise ConfigError(
                f"scenario none ignores r and takes a single r value, got {len(self.r_values)}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")


def _evaluate_chunk(task) -> list[SweepRecord]:
    scenario_value, points, phi, quantities, convention_value = task
    scenario = Scenario(scenario_value)
    params = [ModelParams.for_scenario(scenario, p, r, phi) for p, r in points]
    chunk = _Chunk([accelerate_closed(point) for point in params], Convention(convention_value))
    columns = [(name, _QUANTITY_TABLE[name](chunk)) for name in quantities]
    records = [
        SweepRecord(scenario_value, point.p, point.r_q, point.r_t, phi, name, values[k])
        for k, point in enumerate(params)
        for name, values in columns
    ]
    for record in records:
        if not math.isfinite(record.value):
            raise ValueError(f"non-finite value for {record}")
    return records


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: the request, capped by the CPUs and the tasks."""
    return max(1, min(workers, os.cpu_count() or 1, tasks))


class Sweep:
    """A validated sweep's records, sized from the config and evaluated anew
    on each iteration: ascending p, r and quantity name, chunk by chunk.  A
    chunk that holds a non-finite value raises before any of it is yielded.
    A pool keeps at most two chunks per worker submitted and not yet
    yielded, so finished chunks cannot pile up ahead of a slow reader."""

    def __init__(self, config: SweepConfig):
        config.validate()
        self.config = config

    def __len__(self) -> int:
        return len(self.config.p_values) * len(self.config.r_values) * len(self.config.quantities)

    def __iter__(self):
        config = self.config
        # x + 0.0 maps -0.0 to 0.0 and leaves every other float as it is, so a
        # grid point has one key and one spelling in CSV and JSON alike.
        points = itertools.product(sorted(p + 0.0 for p in config.p_values),
                                   sorted(r + 0.0 for r in config.r_values))
        quantities = tuple(sorted(config.quantities))
        tasks = ((config.scenario.value, chunk, config.phi + 0.0, quantities, config.convention.value)
                 for chunk in iter(lambda: list(itertools.islice(points, CHUNK)), []))
        workers = _pool_size(config.workers, math.ceil(len(config.p_values) * len(config.r_values) / CHUNK))
        if workers == 1:
            yield from itertools.chain.from_iterable(map(_evaluate_chunk, tasks))
            return
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            window = collections.deque()
            for task in tasks:
                if len(window) == 2 * workers:
                    yield from window.popleft().result()
                window.append(pool.submit(_evaluate_chunk, task))
            while window:
                yield from window.popleft().result()


def run_sweep(config: SweepConfig) -> Sweep:
    """Validate a sweep and return its records as a sized lazy stream."""
    return Sweep(config)


def format_value(value: float) -> str:
    """Fixed 12-significant-digit positional rendering, e.g. 0.500000000000."""
    value = float(value)
    if value == 0.0:
        return "0.000000000000"
    # The exponent of the value as rounded, so 9.9999999999999 renders as 10.0000000000.
    rounded = f"{value:.11e}"
    exponent = math.floor(math.log10(abs(float(rounded))))
    if exponent > 11:
        # Zeros, not the binary value's own digits, after the twelfth digit.
        return rounded.split("e")[0].replace(".", "") + "0" * (exponent - 11)
    return f"{value:.{11 - exponent}f}"


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` renders it; finite floats (numpy ones
    too) and strings take the shortcuts ``json`` itself takes."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def write_output(records, path, fmt: str = "csv") -> None:
    """Persist records as CSV (pinned header, 12 significant digits) or JSON.

    JSON bytes are those of ``json.dump([asdict(r) ...], indent=2)`` plus a
    newline, streamed record by record.  The file is rendered into a
    temporary file beside the target, symlinks resolved, and moved into
    place, so a failed write leaves the target as it was.  A target that
    exists and is not a regular file is rejected untouched.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ConfigError(f"output {path} exists and is not a regular file")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                fh.write(CSV_HEADER + "\n")
                for rec in records:
                    fh.write(
                        f"{rec.scenario},{format_value(rec.p)},{format_value(rec.r_q)},"
                        f"{format_value(rec.r_t)},{format_value(rec.phi)},{rec.quantity},"
                        f"{format_value(rec.value)}\n"
                    )
            else:
                fh.write("[")
                separator = "\n"
                for rec in records:
                    fh.write(separator + _JSON_RECORD.format(*map(_json_scalar, _record_values(rec))))
                    separator = ",\n"
                fh.write("]\n" if separator == "\n" else "\n]\n")
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _preset_table() -> dict[str, SweepConfig]:
    r_grid = tuple(float(r) for r in np.linspace(0.0, R_MAX, 101))
    p_grid = tuple(float(p) for p in np.linspace(0.0, 0.5, 101))
    decoherence = ("d_total", "d_qubit", "d_qutrit")
    steer = ("steer_ab", "steer_ba", "steer_diff")
    fig2_p = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    fig45_p = {"a": 0.0, "b": 0.01, "c": 0.05}

    presets: dict[str, SweepConfig] = {
        "fig1a": SweepConfig(Scenario.NONE, p_values=p_grid, r_values=(0.0,), quantities=decoherence),
        "fig1b": SweepConfig(Scenario.QUBIT, p_values=(0.1,), r_values=r_grid, quantities=decoherence),
        "fig1c": SweepConfig(Scenario.QUTRIT, p_values=(0.1,), r_values=r_grid, quantities=decoherence),
        "fig1d": SweepConfig(Scenario.BOTH, p_values=(0.1,), r_values=r_grid, quantities=decoherence),
        "fig2a": SweepConfig(Scenario.QUBIT, p_values=fig2_p, r_values=r_grid, quantities=("lqu",)),
        "fig2b": SweepConfig(Scenario.QUTRIT, p_values=fig2_p, r_values=r_grid, quantities=("lqu",)),
        "fig2c": SweepConfig(Scenario.BOTH, p_values=fig2_p, r_values=r_grid, quantities=("lqu",)),
    }
    for suffix, scenario in (("a", Scenario.QUBIT), ("c", Scenario.QUTRIT), ("e", Scenario.BOTH)):
        presets[f"fig3{suffix}"] = SweepConfig(
            scenario, p_values=(0.1,), r_values=r_grid, quantities=("i_ab_closed",)
        )
    for suffix, scenario in (("b", Scenario.QUBIT), ("d", Scenario.QUTRIT), ("f", Scenario.BOTH)):
        presets[f"fig3{suffix}"] = SweepConfig(
            scenario, p_values=(0.1,), r_values=r_grid, quantities=("i_ba_closed",)
        )
    for suffix, p in fig45_p.items():
        presets[f"fig4{suffix}"] = SweepConfig(
            Scenario.QUBIT, p_values=(p,), r_values=r_grid, quantities=steer
        )
        presets[f"fig5{suffix}"] = SweepConfig(
            Scenario.QUTRIT, p_values=(p,), r_values=r_grid, quantities=steer
        )
    return presets


PRESET_NAMES = tuple(sorted(_preset_table()))


def preset_config(name: str, workers: int = 1) -> SweepConfig:
    """Look up a figure preset by name (fig1a .. fig5c)."""
    table = _preset_table()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return replace(table[name], workers=workers)
