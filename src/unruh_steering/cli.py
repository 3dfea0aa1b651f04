"""Command-line front end: parameter sweeps, figure presets and verification.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .measures import Convention
from .model import R_MAX, Scenario
from .sweep import (
    ConfigError,
    GRID_POINTS_MAX,
    PRESET_NAMES,
    QUANTITIES,
    SweepConfig,
    preset_config,
    run_sweep,
    write_output,
)
from .verify import run_verify

_CONVENTIONS = {conv.value: conv for conv in Convention}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return values


def _parse_r_grid(text: str) -> tuple[float, ...]:
    """Parse start:end:steps into an inclusive linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--r expects start:end:steps, got {text!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--r: {exc}") from exc
    # Checked before the grid is allocated; the (p, r) grid cap bounds the steps too.
    if not 1 <= steps <= GRID_POINTS_MAX:
        raise ConfigError(f"--r: steps must be in [1, {GRID_POINTS_MAX}], got {steps}")
    if steps == 1:
        return (start,)
    return tuple(float(r) for r in np.linspace(start, end, steps))


_SWEEP_KEYS = ("scenario", "p", "r", "phi", "quantities", "convention", "format", "out", "workers")
_SWEEP_DEFAULTS = {
    "r": "0:0:1",
    "phi": "0",
    "quantities": ",".join(QUANTITIES),
    "convention": Convention.AS_PRINTED.value,
    "format": "csv",
    "workers": "1",
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key-value sweep configuration, one ``key = value`` per line.

    Blank lines and ``#`` comments are ignored; command-line flags
    override file values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; known: {', '.join(_SWEEP_KEYS)}")
        settings[key] = value.strip()
    return settings


def build_parser() -> _Parser:
    parser = _Parser(prog="unruh-steering", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid")
    sweep.add_argument("--config", metavar="PATH",
                       help="flat key-value config file; flags override its entries")
    sweep.add_argument("--scenario", choices=[s.value for s in Scenario])
    sweep.add_argument("--p", metavar="LIST", help="comma-separated mixing parameters")
    sweep.add_argument("--r", metavar="START:END:STEPS",
                       help=f"acceleration grid in [0, {R_MAX:.6f}] (default single point 0)")
    sweep.add_argument("--phi", help="Unruh phase (default 0)")
    sweep.add_argument("--quantities", metavar="LIST",
                       help=f"comma-separated subset of: {', '.join(QUANTITIES)}")
    sweep.add_argument("--convention", choices=sorted(_CONVENTIONS))
    sweep.add_argument("--format", choices=["csv", "json"])
    sweep.add_argument("--out", help="output file path")
    sweep.add_argument("--workers", help="worker process count (default 1)")

    preset = sub.add_parser("preset", help="run a stored figure preset")
    preset.add_argument("name", choices=list(PRESET_NAMES), metavar="NAME",
                        help=f"one of: {', '.join(PRESET_NAMES)}")
    preset.add_argument("--format", default="csv", choices=["csv", "json"])
    preset.add_argument("--out", required=True, help="output file path")
    preset.add_argument("--workers", type=int, default=1)

    sub.add_parser("verify", help="run the closed-form vs oracle verification suite")
    return parser


def _run_sweep_command(args) -> int:
    settings = dict(_SWEEP_DEFAULTS)
    if args.config:
        settings.update(read_config_file(args.config))
    for key in _SWEEP_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = str(flag_value)
    for key in ("scenario", "p", "out"):
        if key not in settings:
            raise ConfigError(f"missing required setting --{key} (flag or config file)")
    if settings["scenario"] not in {s.value for s in Scenario}:
        raise ConfigError(f"unknown scenario {settings['scenario']!r}")
    if settings["convention"] not in _CONVENTIONS:
        raise ConfigError(f"unknown convention {settings['convention']!r}")
    if settings["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown format {settings['format']!r}")
    try:
        phi = float(settings["phi"])
        workers = int(settings["workers"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    quantities = tuple(q.strip() for q in settings["quantities"].split(",") if q.strip())
    config = SweepConfig(
        scenario=Scenario(settings["scenario"]),
        p_values=_parse_floats(settings["p"], "--p"),
        r_values=_parse_r_grid(settings["r"]),
        phi=phi,
        quantities=quantities,
        convention=_CONVENTIONS[settings["convention"]],
        workers=workers,
    )
    records = run_sweep(config)
    write_output(records, settings["out"], settings["format"])
    print(f"wrote {len(records)} records to {settings['out']}")
    return 0


def _run_preset_command(args) -> int:
    config = preset_config(args.name, workers=args.workers)
    records = run_sweep(config)
    write_output(records, args.out, args.format)
    print(f"preset {args.name}: wrote {len(records)} records to {args.out}")
    return 0


def _run_verify_command() -> int:
    report = run_verify()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _run_sweep_command(args)
        if args.command == "preset":
            return _run_preset_command(args)
        return _run_verify_command()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
