"""The four workloads: seeded input generation, CLI steps and output checks.

A workload's set-up writes its inputs under a work directory and returns
its passes. A pass is a fixed list of CLI steps (argument lists for
`python -m bellkit.cli`), each with the work it does and a check of its
exit code and stdout. The closed loop in run.py repeats passes, cycling
through the list, and the traced run in trace.py replays them in-process.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
# The seed whose simulate tallies are pinned in golden.json.
DEFAULT_SEED = GOLDEN["seed"]

LHV_ANGLES = (0.0, 1.2, 0.4, -0.9)
SIGMAS = 5.0
SAMPLE_LINES = 1000


@dataclass(frozen=True)
class Sizes:
    quantum: int    # simulate: quantum trials per call
    lhv: int        # simulate: hidden-variable trials per call
    lines: int      # trial_file: trials emitted and ingested per call
    oracle_k: int   # oracle: trials per setting


# Timed runs use the ROADMAP baseline sizes; the traced run, which replays
# every workload four times in one process, uses smaller ones.
TIMED = Sizes(quantum=10_000_000, lhv=4_000_000, lines=1_000_000, oracle_k=16)
TRACED = Sizes(quantum=2_000_000, lhv=1_000_000, lines=100_000, oracle_k=10)


@dataclass(frozen=True)
class Step:
    kind: str                                     # sim_quantum, emit, oracle, analyze, ...
    argv: tuple[str, ...]                         # arguments after `python -m bellkit.cli`
    items: int                                    # trials, lines, tallies or files processed
    check: Callable[[int, str], str | None]       # (exit code, stdout) -> error or None


Pass = list[Step]


def _angles_arg(angles) -> str:
    return ",".join(repr(a) for a in angles)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_or_none(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


# --------------------------------------------------------------- simulate

def _simulate_check(model, angles, flip, trials, seed, out: Path):
    golden = GOLDEN.get(model)
    pin = golden["tally"] if seed == DEFAULT_SEED and golden["trials"] == trials else None
    first: list[dict] = []

    def check(rc: int, stdout: str) -> str | None:
        doc = _json_or_none(stdout)
        if rc != 0 or doc is None:
            return f"exit {rc}, stdout not JSON" if doc is None else f"exit {rc}"
        tally = doc.get("tally")
        if doc.get("trials") != trials or doc.get("seed") != seed or not isinstance(tally, dict):
            return "summary does not echo trials/seed/tally"
        on_disk = json.loads(out.read_text())
        if {k: on_disk.get(k) for k in tally} != tally or on_disk.get("seed") != seed:
            return "tally file differs from the printed tally"
        if pin is not None and tally != pin:
            return f"tally differs from the golden tally for seed {seed}"
        first.append(tally)
        if tally != first[0]:
            return "tally differs between identical calls"
        for k, (cell, corr) in enumerate(zip(ref.CELLS, ref.CORR)):
            m = tally[cell]
            e_hat = 2 * tally[corr] / m - 1
            e = ref.analytic_correlation(model, angles, k >> 1, k & 1, flip)
            if abs(e_hat - e) > SIGMAS * math.sqrt(max(1 - e * e, 0.0) / m) + 1e-12:
                return f"E for settings {k >> 1}{k & 1} is {e_hat}, analytic {e}"
        return None

    return check


def simulate(seed: int, wd: Path, sizes: Sizes) -> list[Pass]:
    """One pass: a uniform quantum run at the maximal-violation angles and a
    round-robin, station-2-flipped hidden-variable run."""
    steps = []
    for kind, model, angles, trials, scheme, flip in (
        ("sim_quantum", "quantum", ref.CHSH_MAX_ANGLES, sizes.quantum, "uniform", False),
        ("sim_lhv", "lhv", LHV_ANGLES, sizes.lhv, "round-robin", True),
    ):
        out = wd / f"{kind}.json"
        argv = ("simulate", "--model", model, "--angles", _angles_arg(angles),
                "--trials", str(trials), "--seed", str(seed), "--settings", scheme,
                "--shards", "1", "--out", str(out)) + (("--flip-station2",) if flip else ())
        steps.append(Step(kind, argv, trials,
                          _simulate_check(model, angles, flip, trials, seed, out)))
    return [steps]


# ------------------------------------------------------------- trial_file

_CSV_ROWS = {  # row text by (s1, s2, o1 == 1, o2 == 1) packed into 4 bits
    (s1 << 3) | (s2 << 2) | (p1 << 1) | p2:
        f"{s1},{s2},{1 if p1 else -1},{1 if p2 else -1}\n"
    for s1 in (0, 1) for s2 in (0, 1) for p1 in (0, 1) for p2 in (0, 1)
}


def _ingest_check(expected: dict, sha: Callable[[], str]):
    exit_code = 3 if ref.chsh_exact(expected) > 2 else 0

    def check(rc: int, stdout: str) -> str | None:
        doc = _json_or_none(stdout)
        if doc is None:
            return f"exit {rc}, stdout not JSON"
        if rc != exit_code:
            return f"exit {rc}, expected {exit_code}"
        if doc["tally"] != expected:
            return "ingested tally differs from the emitted tally"
        if doc["chsh"]["s_exact"] != str(ref.chsh_exact(expected)):
            return "s_exact differs from the reference"
        if doc["metadata"]["input_sha256"] != sha():
            return "input_sha256 differs from the file's hash"
        return None

    return check


def _emit_check(seed: int, lines: int, jsonl: Path, tally_out: Path, expected: dict):
    sample = set(random.Random(seed).sample(range(lines), min(SAMPLE_LINES, lines)))

    def check(rc: int, stdout: str) -> str | None:
        doc = _json_or_none(stdout)
        if rc != 0 or doc is None:
            return f"exit {rc}"
        if doc["tally"] != expected:
            return "emit tally differs from the reference tally"
        if {k: v for k, v in json.loads(tally_out.read_text()).items() if k != "seed"} != expected:
            return "tally file differs from the reference tally"
        count = 0
        with open(jsonl, "rb") as handle:
            for index, line in enumerate(handle):
                count += 1
                if index in sample:
                    want = '{"s1":%d,"s2":%d,"o1":%d,"o2":%d}\n' % ref.quantum_trial(
                        seed, index, ref.CHSH_MAX_ANGLES)
                    if line.decode() != want:
                        return f"emitted line {index + 1} is {line!r}, reference {want!r}"
        return None if count == lines else f"{count} lines emitted, expected {lines}"

    return check


def trial_file(seed: int, wd: Path, sizes: Sizes) -> list[Pass]:
    """One pass: emit a JSONL trial file, then ingest it and a headed CSV of
    the same trials that set-up wrote from the reference generator."""
    n = sizes.lines
    s1, s2, o1, o2 = ref.quantum_arrays(seed, n, ref.CHSH_MAX_ANGLES)
    expected = ref.tally_of(s1, s2, o1, o2)
    codes = (s1 << 3) | (s2 << 2) | ((o1 > 0) << 1) | (o2 > 0)
    csv_path = wd / "trials.csv"
    csv_path.write_text("s1,s2,o1,o2\n" + "".join(map(_CSV_ROWS.__getitem__, codes.tolist())))
    csv_sha = _sha256(csv_path)
    jsonl = wd / "trials.jsonl"
    tally_out = wd / "emit_tally.json"
    emit = ("simulate", "--model", "quantum", "--angles", _angles_arg(ref.CHSH_MAX_ANGLES),
            "--trials", str(n), "--seed", str(seed), "--settings", "uniform",
            "--shards", "1", "--out", str(tally_out), "--emit-trials", str(jsonl))
    return [[
        Step("emit", emit, n, _emit_check(seed, n, jsonl, tally_out, expected)),
        Step("ingest_jsonl", ("analyze", "--trials", str(jsonl)), n,
             _ingest_check(expected, lambda: _sha256(jsonl))),
        Step("ingest_csv", ("analyze", "--trials", str(csv_path), "--format", "csv", "--header"),
             n, _ingest_check(expected, lambda: csv_sha)),
    ]]


# ----------------------------------------------------------------- oracle

def oracle(seed: int, wd: Path, sizes: Sizes) -> list[Pass]:
    """One pass: the exhaustive oracle at a fixed K. Its input has no random
    part, so the seed does not change it."""
    k = sizes.oracle_k
    tallies = (k + 1) ** 4

    def check(rc: int, stdout: str) -> str | None:
        doc = _json_or_none(stdout)
        if rc != 0 or doc is None:
            return f"exit {rc}"
        if doc["checked"] != tallies or doc["n_per_setting"] != k:
            return f"checked {doc['checked']} tallies, expected {tallies}"
        return f"counterexamples: {doc['counterexamples'][:3]}" if doc["counterexamples"] else None

    return [[Step("oracle", ("oracle", "--n-per-setting", str(k)), tallies, check)]]


# ---------------------------------------------------------- analyze_tally

def _random_tally(rng: random.Random, big: bool, violated: bool) -> dict:
    lo, hi = (2**63 - 2**60, 2**63) if big else (2_400_000, 2_600_000)
    e = 0.7071 if violated else 0.4   # |E| per setting pair; S is about 4e
    tally = {}
    for k, (cell, corr) in enumerate(zip(ref.CELLS, ref.CORR)):
        m = rng.randrange(lo, hi)
        p = (1 - e if k == 3 else 1 + e) / 2
        spread = m // 2000
        tally[cell] = m
        tally[corr] = min(m, max(0, int(m * p) + rng.randrange(-spread, spread + 1)))
    return tally


def _valid_tally_check(tally: dict, sha: str, seed: int, eps, delta, bell):
    s = ref.chsh_exact(tally)
    achieved = ref.epsilon_achieved(tally)

    def check(rc: int, stdout: str) -> str | None:
        doc = _json_or_none(stdout)
        if doc is None:
            return f"exit {rc}, stdout not JSON"
        if rc != (3 if s > 2 else 0):
            return f"exit {rc} for S = {float(s)}"
        if doc["tally"] != tally or doc["metadata"]["seed"] != seed:
            return "report tally or seed differs from the file"
        if doc["chsh"]["s_exact"] != str(s):
            return "s_exact differs from the reference"
        ns = doc["nosignalling"]
        if ns["epsilon_achieved_exact"] != str(achieved):
            return "epsilon_achieved_exact differs from the reference"
        if doc["metadata"]["input_sha256"] != sha:
            return "input_sha256 differs from the file's hash"
        if eps is not None and ns["pass"] != (achieved < Fraction(eps)):
            return "epsilon pass/fail differs from the reference"
        if delta is not None and doc["bounds"]["delta_exact"] != str(Fraction(delta)):
            return "requested delta not honoured"
        if bell is not None:
            n_ac, big_ac, n_ba, big_ba, n_bc, big_bc = bell
            frac = Fraction(n_ac, big_ac) - Fraction(n_ba, big_ba) - Fraction(n_bc, big_bc)
            if doc["bell1964"]["fraction_form_exact"] != str(frac):
                return "bell1964 fraction form differs from the reference"
        return None

    return check


def _rejected_check(rc: int, stdout: str) -> str | None:
    return None if rc == 1 and not stdout.strip() else f"exit {rc}, expected 1"


def _malformed_files(rng: random.Random) -> dict[str, str]:
    tally = _random_tally(rng, big=False, violated=True)
    missing = {k: v for k, v in tally.items() if k != "n11"}
    broken = {**tally, "n00": tally["a"] + 1}
    empty = {**tally, "a": 0, "n00": 0}
    return {
        "not_json": json.dumps(tally)[:-7],
        "missing_field": json.dumps(missing),
        "corr_exceeds_count": json.dumps(broken),
        "empty_cell": json.dumps(empty),
    }


def analyze_tally(seed: int, wd: Path, sizes: Sizes) -> list[Pass]:
    """One pass per tally file: 16 valid files (counts near 10^7 or near
    2^63, violated or not, each combination of --epsilon, --delta and
    --bell1964) and 4 malformed ones, in a seeded order."""
    rng = random.Random(seed)
    passes = []
    for i in range(16):
        big, flags = bool(i & 8), i & 7
        tally = _random_tally(rng, big, violated=bool((i ^ (i >> 3)) & 1))
        file_seed = rng.randrange(2**64)
        path = wd / f"tally_{i:02d}.json"
        path.write_text(json.dumps({**tally, "seed": file_seed}, indent=2) + "\n")
        eps = f"0.{rng.randrange(1, 1000):03d}" if flags & 1 else None
        delta = f"0.{rng.randrange(1, 1000):03d}" if flags & 2 else None
        bell = None
        if flags & 4:
            totals = [rng.randrange(1, 10**7) for _ in range(3)]
            bell = (rng.randrange(totals[0] + 1), totals[0], rng.randrange(totals[1] + 1),
                    totals[1], rng.randrange(totals[2] + 1), totals[2])
        argv = ["analyze", "--tally", str(path)]
        if eps is not None:
            argv += ["--epsilon", eps]
        if delta is not None:
            argv += ["--delta", delta]
        if bell is not None:
            argv += ["--bell1964", ",".join(map(str, bell))]
        check = _valid_tally_check(tally, _sha256(path), file_seed, eps, delta, bell)
        passes.append([Step("analyze", tuple(argv), 1, check)])
    for name, text in _malformed_files(rng).items():
        path = wd / f"malformed_{name}.json"
        path.write_text(text)
        passes.append([Step("analyze", ("analyze", "--tally", str(path)), 1, _rejected_check)])
    rng.shuffle(passes)
    return passes


WORKLOADS = {
    "simulate": simulate,
    "trial_file": trial_file,
    "oracle": oracle,
    "analyze_tally": analyze_tally,
}
