"""Command-line front-end: simulate, analyze, oracle.

Exit codes are part of the contract so shell pipelines can branch on
outcomes: 0 success / no violation, 1 unreadable or invalid input,
2 invalid flags or enumeration cap, 3 CHSH violation (S > 2),
4 oracle counterexample.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import BellkitError, ConfigError, EnumerationCapError
from .oracle import DEFAULT_CAP, verify_necessary_conditions
from .report import build_analysis_report
from .rng import SEED_MAX
from .simulate import SimulationConfig, run_experiment, tally_for_range
from .stats import bell1964_statistic
from .trials import (
    TallyTable,
    ThreeSettingTally,
    load_tally,
    read_trials,
    tally_from_trials,
    trial_chunk_writer,
    write_tally,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_COUNTEREXAMPLE = 4


def _fraction_flag(allowed, requirement: str):
    def parse(text: str) -> Fraction:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not allowed(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


def _angles_flag(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated angles (radians)")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle in {text!r}") from None


def _ints_flag(count: int):
    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer in {text!r}") from None

    return parse


def _shard_count(args: argparse.Namespace) -> int:
    """Partition count: --shards, else BELLKIT_THREADS, else 1."""
    if args.shards is not None:
        if args.shards < 1:
            raise ConfigError("--shards must be >= 1")
        return args.shards
    raw = os.environ.get("BELLKIT_THREADS", "")
    try:
        shards = int(raw) if raw else 1
    except ValueError:
        shards = 0
    if shards < 1:
        raise ConfigError(f"BELLKIT_THREADS must be an integer >= 1, got {raw!r}")
    return shards


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Simulate and analyze CHSH/Bell-test experiments.",
    )
    parser.add_argument("--version", action="version", version=f"bellkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Generate a trial stream and tally")
    sim.add_argument("--config", type=Path, help="JSON config document; flags override")
    sim.add_argument("--model", choices=["quantum", "lhv"])
    sim.add_argument(
        "--angles",
        type=_angles_flag,
        metavar="A0,A1,B0,B1",
        help="station-1 and station-2 measurement angles in radians",
    )
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--settings", choices=["uniform", "round-robin"])
    sim.add_argument("--flip-station2", action="store_true", default=None)
    sim.add_argument("--out", type=Path, required=True, help="tally JSON output path")
    sim.add_argument("--emit-trials", type=Path, help="also stream trials to this path")
    sim.add_argument("--emit-format", choices=["jsonl", "csv"], default="jsonl")
    sim.add_argument("--shards", type=int, default=None,
                     help="worker shard count (default: BELLKIT_THREADS or 1)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="Full statistical report for a tally or trial file")
    src = ana.add_mutually_exclusive_group(required=True)
    src.add_argument("--tally", type=Path, help="tally JSON file")
    src.add_argument("--trials", type=Path, help="trial stream file")
    ana.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                     help="trial file format (with --trials)")
    ana.add_argument("--header", action="store_true",
                     help="skip one header line (csv input)")
    ana.add_argument("--epsilon", type=_fraction_flag(lambda v: v > 0, "positive"),
                     help="requested no-signalling tolerance")
    ana.add_argument("--delta", type=_fraction_flag(lambda v: v >= 0, "nonnegative"),
                     help="requested violation magnitude for the bound thresholds")
    ana.add_argument("--bell1964", type=_ints_flag(6),
                     metavar="n_ac,N_ac,n_ba,N_ba,n_bc,N_bc",
                     help="include the three-setting statistics for these counts")
    ana.set_defaults(func=cmd_analyze)

    orc = sub.add_parser("oracle", help="Exhaustively verify the necessity conditions")
    orc.add_argument("--n-per-setting", type=int, required=True)
    orc.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help=f"enumeration size guard (default {DEFAULT_CAP})")
    orc.set_defaults(func=cmd_oracle)
    return parser


def _assemble_config(args: argparse.Namespace) -> SimulationConfig:
    data: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        data.update(loaded)
    if args.model is not None:
        data["model"] = args.model
    if args.angles is not None:
        data["theta_a0"], data["theta_a1"], data["theta_b0"], data["theta_b1"] = args.angles
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["seed"] = args.seed
    if args.settings is not None:
        data["setting_scheme"] = (
            "uniform_random" if args.settings == "uniform" else "round_robin"
        )
    if args.flip_station2 is not None:
        data["flip_station2"] = args.flip_station2
    return SimulationConfig.from_dict(data)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = _assemble_config(args)
        shards = _shard_count(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.emit_trials is None:
            tally = run_experiment(cfg, shards=shards).tally
        else:
            # one ordered pass writes every trial and tallies it
            with open(args.emit_trials, "w", encoding="utf-8") as handle:
                write = trial_chunk_writer(handle, args.emit_format)
                tally = tally_for_range(cfg, 0, cfg.trials, write=write)
        write_tally(args.out, tally, seed=cfg.seed)
    except OSError as exc:
        print(f"error: write failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    summary = {
        "out": str(args.out),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "model": cfg.model,
        "tally": tally.to_dict(),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


class _HashingReader(io.RawIOBase):
    """A binary file that feeds every byte read from it to a SHA-256 digest."""

    def __init__(self, file: io.FileIO):
        self._file = file
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _load_input_tally(args: argparse.Namespace) -> tuple[TallyTable, Path, str, int | None]:
    """The input's tally, path, SHA-256 and recorded seed, from one read of its bytes."""
    path = args.tally if args.tally is not None else args.trials
    raw = _HashingReader(open(path, "rb", buffering=0))
    seed = None
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as text:
        if args.tally is not None:
            tally, extras = load_tally(text)
            seed = extras.get("seed")
        else:
            tally = tally_from_trials(read_trials(text, format=args.format, header=args.header))
    valid_seed = type(seed) is int and 0 <= seed <= SEED_MAX
    return tally, path, raw.sha256.hexdigest(), seed if valid_seed else None


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.header and args.format != "csv":
        print("error: --header applies to csv input only", file=sys.stderr)
        return EXIT_USAGE
    try:
        tally, path, sha256, seed = _load_input_tally(args)
        bell = None
        if args.bell1964 is not None:
            n_ac, big_ac, n_ba, big_ba, n_bc, big_bc = args.bell1964
            bell = bell1964_statistic(
                ThreeSettingTally(
                    n_ac=n_ac, n_ba=n_ba, n_bc=n_bc,
                    N_ac=big_ac, N_ba=big_ba, N_bc=big_bc,
                )
            )
        report = build_analysis_report(
            tally,
            epsilon=args.epsilon,
            delta=args.delta,
            bell1964=bell,
            input_path=str(path),
            input_sha256=sha256,
            seed=seed,
        )
    except (BellkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_VIOLATION if report.chsh.violated else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        report = verify_necessary_conditions(args.n_per_setting, cap=args.cap)
    except (EnumerationCapError, BellkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.to_json())
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
