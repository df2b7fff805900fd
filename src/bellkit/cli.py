"""Command-line front-end: simulate, analyze, oracle.

Exit codes are part of the contract so shell pipelines can branch on
outcomes: 0 success / no violation, 1 unreadable or invalid input (a
trial line over TRIAL_LINE_MAX characters included), 2 invalid flags or
an oracle K >= 100, past its enumeration cap, 3 CHSH violation (S > 2),
4 oracle counterexample. Argparse types check every flag, so a bad flag
exits 2 before any work. Each cmd_* returns (payload, exit code) or
raises; only main prints, and it maps each error to its exit code.

Each command imports the modules it runs inside the function or flag
type that runs them: only simulation needs numpy, only analyze loads
report and bounds, only analyze --trials loads hashlib, and only oracle
loads the oracle, so --version loads no bellkit module but errors and
trials.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

from . import __version__
from .errors import BellkitError, ConfigError, DomainError, EnumerationCapError, ParseError
from .trials import (
    SEED_MAX,
    TRIAL_LINE_MAX,
    TallyTable,
    ThreeSettingTally,
    atomic_target,
    load_tally,
    read_trials,
    tally_from_trials,
    trial_chunk_writer,
    write_atomic,
    write_tally,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .simulate import SimulationConfig
    from .stats import Bell1964Result

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_COUNTEREXAMPLE = 4

# analyze prints Delta, N*Delta/8, N*Delta/24 and Delta/12 as exact fractions, and
# Python writes an int of at most 4300 digits. A tally's N < 2^66 adds at most 20
# digits to Delta's numerator and 24 adds 2 to its denominator, so these bound the
# numerator and denominator of a --delta that renders.
DELTA_NUMERATOR_LIMIT = 10 ** (4300 - 20)
DELTA_DENOMINATOR_LIMIT = 10 ** (4300 - 2)

# A tally file and a --config document are each one JSON object, read whole;
# bellkit writes a tally in under 300 bytes.
TALLY_BYTES_MAX = 1 << 20
CONFIG_BYTES_MAX = 1 << 20
# Characters of a trial file that analyze --trials reads, hashes and splits at a time.
TRIAL_BLOCK_CHARS = 1 << 16


def _number_flag(accept, requirement: str):
    """An argparse type: as_exact of the text, kept when float() takes it and accept(number, float) holds."""

    def parse(text: str) -> Fraction:
        from .bounds import as_exact

        try:
            number = as_exact(text)
            kept = accept(number, float(number))
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except OverflowError:  # past the float range
            kept = False
        if not kept:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return number

    return parse


def _angles_flag(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated angles (radians)")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle in {text!r}") from None


def _bell1964_flag(text: str) -> Bell1964Result:
    """An argparse type: n_ac,N_ac,n_ba,N_ba,n_bc,N_bc as their three-setting statistics."""
    from .stats import bell1964_statistic

    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected 6 comma-separated integers")
    try:
        counts = [int(p) for p in parts]
        # the n counts sit at even places and the N counts at odd ones
        return bell1964_statistic(ThreeSettingTally(*counts[0::2], *counts[1::2]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer in {text!r}") from None
    except (BellkitError, OverflowError) as exc:  # OverflowError: a count past 2^64 - 1
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_flag(low: int, high: float, requirement: str):
    """An argparse type: an integer in low..high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_positive_int = _int_flag(1, float("inf"), "an integer >= 1")


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
    sim.add_argument("--trials", type=_positive_int)
    sim.add_argument("--seed", type=_int_flag(0, SEED_MAX, "an integer in 0..2^64 - 1"))
    sim.add_argument("--settings", choices=["uniform", "round-robin"])
    sim.add_argument("--flip-station2", action="store_true", default=None)
    sim.add_argument("--out", type=Path, required=True, help="tally JSON output path")
    sim.add_argument("--emit-trials", type=Path, help="also stream trials to this path")
    sim.add_argument("--emit-format", choices=["jsonl", "csv"], default="jsonl")
    sim.add_argument("--shards", type=_positive_int, default=1,
                     help="worker shard count (default: 1)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="Full statistical report for a tally or trial file")
    src = ana.add_mutually_exclusive_group(required=True)
    src.add_argument("--tally", type=Path, help="tally JSON file")
    src.add_argument("--trials", type=Path, help="trial stream file")
    ana.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                     help="trial file format (with --trials)")
    ana.add_argument("--header", action="store_true",
                     help="skip one header line (csv input)")
    ana.add_argument("--epsilon",
                     type=_number_flag(lambda v, f: f > 0, "above 0 and finite as a float"),
                     help="requested no-signalling tolerance")
    # S <= 4 on every tally, so no violation exceeds 2
    ana.add_argument("--delta",
                     type=_number_flag(lambda v, f: (v == 0 or (f > 0 and v <= 2))
                                       and v.numerator < DELTA_NUMERATOR_LIMIT
                                       and v.denominator < DELTA_DENOMINATOR_LIMIT,
                                       "0, or above 0 as a float and at most 2, with at most "
                                       "4280 digits above and 4298 below its fraction bar"),
                     help="requested violation magnitude for the bound thresholds")
    ana.add_argument("--bell1964", type=_bell1964_flag,
                     metavar="n_ac,N_ac,n_ba,N_ba,n_bc,N_bc",
                     help="include the three-setting statistics for these counts")
    ana.set_defaults(func=cmd_analyze)

    orc = sub.add_parser("oracle", help="Exhaustively verify the necessity conditions")
    orc.add_argument("--n-per-setting", type=_positive_int, required=True, metavar="K",
                     help="trials per setting; the oracle checks all (K + 1)^4 tallies, K <= 99")
    orc.set_defaults(func=cmd_oracle)
    return parser


def _read_document(path: Path, limit: int, error: type[BellkitError]) -> bytes:
    """The file's bytes, reading at most limit + 1 of them; raises error when it holds more than limit."""
    with open(path, "rb") as handle:
        data = handle.read(limit + 1)
    if len(data) > limit:
        raise error(f"{path} is over {limit} bytes")
    return data


def _assemble_config(args: argparse.Namespace) -> SimulationConfig:
    from .simulate import SimulationConfig

    data: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(_read_document(args.config, CONFIG_BYTES_MAX, ConfigError).decode("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        data.update(loaded)
    scheme = {"uniform": "uniform_random", "round-robin": "round_robin"}.get(args.settings)
    flags = {"model": args.model, "trials": args.trials, "seed": args.seed,
             "setting_scheme": scheme, "flip_station2": args.flip_station2}
    flags.update(zip(("theta_a0", "theta_a1", "theta_b0", "theta_b1"), args.angles or ()))
    data.update((name, value) for name, value in flags.items() if value is not None)
    return SimulationConfig.from_dict(data)


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    # the tally would replace the trials if both writes replace one file
    target = None if args.emit_trials is None else atomic_target(args.emit_trials)
    if target is not None and target == atomic_target(args.out):
        raise ConfigError(f"--out and --emit-trials name the same file: {args.emit_trials}")
    from .simulate import run_experiment, tally_for_range

    cfg = _assemble_config(args)
    if args.emit_trials is None:
        tally = run_experiment(cfg, shards=args.shards).tally
    else:
        # one ordered pass writes every trial and tallies it
        tally = write_atomic(args.emit_trials, lambda handle: tally_for_range(
            cfg, 0, cfg.trials, write=trial_chunk_writer(handle, args.emit_format)))
    write_tally(args.out, tally, seed=cfg.seed)
    summary = {"out": str(args.out), "trials": cfg.trials, "seed": cfg.seed,
               "model": cfg.model, "tally": tally.to_dict()}
    return summary, EXIT_OK


def _hashed_lines(text: IO[str], sha256) -> Iterator[str]:
    """The lines of text, split as its readlines() splits them; sha256 takes each block's UTF-8 bytes.

    text is read in blocks of TRIAL_BLOCK_CHARS characters. A block's last
    line, when unfinished or ending in a \r that a \n may follow, is carried
    into the next block. Once a block's complete lines are yielded, a carry
    longer than TRIAL_LINE_MAX raises ParseError with its line number, so no
    line is held whole; read_trials refuses each longer line exactly.
    """
    rest = ""
    yielded = 0
    while block := text.read(TRIAL_BLOCK_CHARS):
        sha256.update(block.encode("utf-8"))
        lines = io.StringIO(rest + block, newline="").readlines()
        rest = "" if lines[-1].endswith("\n") else lines.pop()
        yielded += len(lines)
        yield from lines
        if len(rest) > TRIAL_LINE_MAX:
            raise ParseError(f"line is over {TRIAL_LINE_MAX} characters", yielded + 1)
    if rest:
        yield rest


def _builtin_sha256():
    """CPython's own SHA-256 constructor, which maps no OpenSSL; hashlib's if neither module imports."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.11 and earlier
        except ImportError:
            from hashlib import sha256
    return sha256


def _load_input_tally(args: argparse.Namespace) -> tuple[TallyTable, Path, str, int | None]:
    """The input's tally, path, SHA-256 and recorded seed, from one read of its bytes.

    A tally file, at most TALLY_BYTES_MAX bytes, is read whole and hashed by
    the builtin SHA-256, which spares a small file the cost of loading
    OpenSSL. A trial file is read in blocks and hashed by hashlib's OpenSSL
    SHA-256, several times faster on a large file, imported once the file
    opens, so a missing one maps no OpenSSL. Strict UTF-8 without newline
    translation decodes one-to-one, so either hash is that of the bytes.
    """
    seed = None
    if args.tally is not None:
        path = args.tally
        data = _read_document(path, TALLY_BYTES_MAX, ParseError)
        digest = _builtin_sha256()(data).hexdigest()
        tally, extras = load_tally((data.decode("utf-8"),))
        seed = extras.get("seed")
    else:
        path = args.trials
        with open(path, encoding="utf-8", newline="") as text:
            import hashlib

            sha256 = hashlib.sha256()
            lines = _hashed_lines(text, sha256)
            tally = tally_from_trials(read_trials(lines, format=args.format, header=args.header))
        digest = sha256.hexdigest()
    valid_seed = type(seed) is int and 0 <= seed <= SEED_MAX
    return tally, path, digest, seed if valid_seed else None


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, int]:
    tally, path, sha256, seed = _load_input_tally(args)
    # loaded after the input, so a refused file costs none of the report's modules
    from .report import build_analysis_report

    report = build_analysis_report(tally, epsilon=args.epsilon, delta=args.delta,
                                   bell1964=args.bell1964, input_path=str(path),
                                   input_sha256=sha256, seed=seed)
    return report.to_dict(), EXIT_VIOLATION if report.chsh.violated else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> tuple[dict, int]:
    from .oracle import verify_necessary_conditions

    report = verify_necessary_conditions(args.n_per_setting)
    return report.to_dict(), EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def main(argv: list[str] | None = None) -> int:
    """Run one command: print its JSON payload, or its error, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze" and args.header and args.format != "csv":
            parser.error("--header applies to csv input only")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
    except (BellkitError, OSError, UnicodeDecodeError) as exc:
        # the one error-to-exit-code table: usage errors exit 2, input errors 1
        code = EXIT_USAGE if isinstance(exc, (ConfigError, EnumerationCapError)) else EXIT_INPUT
        failed = "write failed: " if args.command == "simulate" and isinstance(exc, OSError) else ""
        print(f"error: {failed}{exc}", file=sys.stderr)
        return code
    print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
