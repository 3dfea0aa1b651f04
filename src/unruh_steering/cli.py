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
    # Checked before the grid is built; the (p, r) grid cap bounds the steps too.
    if not 1 <= steps <= GRID_POINTS_MAX:
        raise ConfigError(f"--r: steps must be in [1, {GRID_POINTS_MAX}], got {steps}")
    if not np.isfinite(end - start):  # a non-finite endpoint, or a span past the float range
        raise ConfigError(f"--r: start and end must be finite and span a finite range, got {text!r}")
    return tuple(float(r) for r in np.linspace(start, end, steps))


def read_config_file(path: str, keys: list[str]) -> dict[str, str]:
    """Flat key-value sweep configuration, one ``key = value`` per line,
    each key one of ``keys``.

    Blank lines and ``#`` comments are ignored; command-line flags
    override file values.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not part of the first key
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; known: {', '.join(keys)}")
        settings[key] = value.strip()
    return settings


def _add_output_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--out", required=required, help="output file path")
    parser.add_argument("--workers", type=int, default=1, help="worker process count (default 1)")


def _add_sweep_arguments(sweep: argparse.ArgumentParser, required: bool = True) -> None:
    """Every sweep setting, declared once for its flag and its config-file entry."""
    sweep.add_argument("--config", metavar="PATH",
                       help="flat key-value config file; flags override its entries")
    sweep.add_argument("--scenario", required=required, choices=[s.value for s in Scenario])
    sweep.add_argument("--p", required=required, metavar="LIST", help="comma-separated mixing parameters")
    sweep.add_argument("--r", default="0:0:1", metavar="START:END:STEPS",
                       help=f"acceleration grid in [0, {R_MAX:.6f}] (default single point 0)")
    sweep.add_argument("--phi", type=float, default=0.0, help="Unruh phase (default 0)")
    sweep.add_argument("--quantities", default=",".join(QUANTITIES), metavar="LIST",
                       help=f"comma-separated subset of: {', '.join(QUANTITIES)}")
    sweep.add_argument("--convention", default=Convention.AS_PRINTED.value,
                       choices=sorted(conv.value for conv in Convention))
    _add_output_arguments(sweep, required)


def build_parser() -> _Parser:
    parser = _Parser(prog="unruh-steering", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid")
    _add_sweep_arguments(sweep)

    preset = sub.add_parser("preset", help="run a stored figure preset")
    preset.add_argument("name", choices=list(PRESET_NAMES), metavar="NAME",
                        help=f"one of: {', '.join(PRESET_NAMES)}")
    _add_output_arguments(preset)

    sub.add_parser("verify", help="run the closed-form vs oracle verification suite")
    return parser


def _with_config_entries(argv: list[str]) -> list[str]:
    """A sweep's argv with its config file's entries, as ``--key=value``
    tokens, put before the command-line arguments: the sweep parser checks
    each entry as the flag of the same name, and a flag wins wherever it
    appears.  The pre-scan declares the sweep's options, so it finds
    ``--config`` under every spelling the sweep parser accepts, and its
    setting names are the config file's keys.  Help is printed without
    reading the file."""
    if argv[:1] != ["sweep"]:
        return argv
    scan = _Parser(add_help=False)
    scan.add_argument("-h", "--help", action="store_true")
    _add_sweep_arguments(scan, required=False)
    settings = vars(scan.parse_known_args(argv[1:])[0])
    path, wants_help = settings.pop("config"), settings.pop("help")
    if path is None or wants_help:
        return argv
    entries = [f"--{key}={value}" for key, value in read_config_file(path, list(settings)).items()]
    return [argv[0], *entries, *argv[1:]]


def _run_sweep_command(args) -> int:
    config = SweepConfig(
        scenario=Scenario(args.scenario),
        p_values=_parse_floats(args.p, "--p"),
        r_values=_parse_r_grid(args.r),
        phi=args.phi,
        quantities=tuple(q.strip() for q in args.quantities.split(",") if q.strip()),
        convention=Convention(args.convention),
        workers=args.workers,
    )
    return _write_sweep(config, args.out, args.format)


def _run_preset_command(args) -> int:
    config = preset_config(args.name, workers=args.workers)
    return _write_sweep(config, args.out, args.format, prefix=f"preset {args.name}: ")


def _write_sweep(config: SweepConfig, out: str, fmt: str, prefix: str = "") -> int:
    """Stream a sweep into ``out`` and print how many records were written."""
    sweep = run_sweep(config)
    write_output(sweep, out, fmt)
    print(f"{prefix}wrote {len(sweep)} records to {out}")
    return 0


def _run_verify_command() -> int:
    report = run_verify()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config_entries(argv))
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
