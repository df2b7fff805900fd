"""Flip each exact comparison in bellkit's arithmetic and check that a test notices.

    python tools/mutate_comparisons.py

Every `<`, `<=`, `>` and `>=` in the modules of MODULES is found through
ast and flipped in strictness (`<` and `<=`, `>` and `>=`), one at a time,
in a temporary copy of src/; so is each line of REPLACEMENTS. Every test
file then runs with -x against that copy, the mutated module's own test
file first, one mutant per core at a time. Hypothesis runs under its ci
profile, which derandomizes: each test draws the same examples on every
run and machine for a given Hypothesis version. A mutant is killed when
the tests fail (or time out) and survives when they pass. The script
prints every mutant and its fate, and exits 1 if a survivor is not in
ALLOWED, or 2 if the unmutated copy fails its tests. Before any test
runs, it exits 1 naming each ALLOWED key that no mutant matches, so an
entry goes when its comparison does. It needs only the standard library
besides the test suite's own requirements.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bellkit"
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
MODULES = ("bounds", "stats", "oracle", "rng", "simulate", "trials", "cli")
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
TIMEOUT_S = 600

# Mutants beyond the comparisons: module, a line's text (stripped), the part
# of it to replace, and its replacement.
REPLACEMENTS = (
    # without its margin the LHV arc test decides the words np.cos must decide
    ("simulate", "_ARC_MARGIN = 1 << 35", "1 << 35", "0"),
)

# Survivors that no test can kill, keyed by module, the mutated source text
# and the part of it replaced.
ALLOWED = {
    ("trials", "o2 > 0", ">"): "outcomes are +1 or -1, so o2 > 0 and o2 >= 0 agree",
    ("simulate", "np.cos(phase, out=phase) >= 0.0", ">="):
        "no float64 phase has a cos of exactly 0.0 (pi/2 is irrational), so >= 0.0 and > 0.0 agree",
    ("simulate", "d1 < _HALF", "<"):
        "a word at d1 = 2^63 lies in the arc test's margin, so the float expression decides it",
    ("stats", "num * best_den > best_num * den", ">"):
        "on a tie the kept strength equals the new one, so the maximum is the same",
}


class Mutant(NamedTuple):
    module: str
    line: int
    col: int  # character offset of the replaced part in its line
    text: str  # the mutated comparison or line, on one line
    old: str
    new: str

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.text, self.old

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col}  {self.text}  ({self.old} -> {self.new})"


def find_mutants(module: str) -> list[Mutant]:
    """One mutant per comparison operator of FLIPS in the module, and per REPLACEMENTS line, in source order."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.OP and tok.string in FLIPS]

    def position(line: int, byte_col: int) -> tuple[int, int]:
        # ast counts columns in UTF-8 bytes, tokenize in characters
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    mutants = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        text = " ".join(ast.get_source_segment(source, node).split())
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            start = position(left.end_lineno, left.end_col_offset)
            stop = position(right.lineno, right.col_offset)
            for tok in tokens:
                if start <= tok.start < stop:
                    mutants.append(Mutant(module, *tok.start, text, tok.string, FLIPS[tok.string]))
    for name, text, old, new in REPLACEMENTS:
        if name == module:
            numbers = [i for i, line in enumerate(lines, 1) if line.strip() == text]
            if len(numbers) != 1:
                raise LookupError(f"{module}.py has {len(numbers)} lines {text!r}, not one")
            mutants.append(Mutant(module, numbers[0], lines[numbers[0] - 1].index(old), text, old, new))
    return sorted(mutants, key=lambda m: (m.line, m.col))


def run_tests(mutant: Mutant | None) -> str:
    """'passed', 'failed' or 'timeout' for the tests on a copy of src/ carrying the mutant."""
    with tempfile.TemporaryDirectory(prefix="bellkit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = TESTS
        if mutant is not None:
            path = src / "bellkit" / f"{mutant.module}.py"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            line = lines[mutant.line - 1]
            assert line[mutant.col:mutant.col + len(mutant.old)] == mutant.old, mutant
            lines[mutant.line - 1] = line[:mutant.col] + mutant.new + line[mutant.col + len(mutant.old):]
            path.write_text("".join(lines), encoding="utf-8")
            # the module's own test file first, where a killing test most likely sits
            tests = sorted(TESTS, key=lambda test: test.stem != f"test_{mutant.module}")
        # -o pythonpath= drops pyproject's src entry, which would come before the copy
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "pythonpath=",
                "--hypothesis-profile=ci", *map(str, tests)]
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    jobs = os.cpu_count() or 1
    started = time.perf_counter()
    mutants = [m for module in MODULES for m in find_mutants(module)]
    stale = sorted(set(ALLOWED) - {mutant.key for mutant in mutants})
    for key in stale:
        print(f"error: no mutant matches the ALLOWED entry {key}", file=sys.stderr)
    if stale:
        return 1
    if run_tests(None) != "passed":
        print("error: the tests fail on the unmutated copy of src/", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(jobs) as pool:
        outcomes = list(pool.map(run_tests, mutants))
    unexpected = 0
    for mutant, outcome in zip(mutants, outcomes):
        fate = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
        allowed = ALLOWED.get(mutant.key) if fate == "survived" else None
        unexpected += fate == "survived" and allowed is None
        print(f"{fate:9} {mutant}" + (f"  [allowed: {allowed}]" if allowed else ""))
    survived = outcomes.count("passed")
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed, {survived} survived, "
          f"{unexpected} not allowed; {time.perf_counter() - started:.0f} s on {jobs} cores")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
