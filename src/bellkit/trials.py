"""Trial and tally data model: parsing, tallying, merging.

A trial is two setting bits and two +/-1 outcomes. Trials aggregate into a
tally of eight counts: trials per setting pair (a, b, c, d for settings
00, 01, 10, 11) and correlated results per setting pair (n00..n11), where
a trial is *correlated* when the product of its outcomes is +1.

Both types are valid by construction: a TrialRecord holds exact ints in
their domains, and a TallyTable never has a correlated count above its
setting count. Inputs are checked once, when they become these types, and
nothing downstream checks them again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Literal

from .errors import DomainError, EmptyCellError, InvariantError, ParseError

TrialFormat = Literal["jsonl", "csv"]

# Counts are 64-bit-capacity nonnegative integers; exceeding this is an
# error, never wraparound.
COUNT_MAX = 2**64 - 1

CELL_LABELS = ("a", "b", "c", "d")
CORR_LABELS = ("n00", "n01", "n10", "n11")

_TRIAL_FIELDS = ("s1", "s2", "o1", "o2")

# The one line layout per trial format, shared by every trial writer.
_LINE_TEMPLATES = {
    "jsonl": '{"s1":%d,"s2":%d,"o1":%d,"o2":%d}',
    "csv": "%d,%d,%d,%d",
}

# Distinct lines whose records read_trials keeps, per call: a bound on its memory.
_PARSED_MAX = 1024


def _check_count(label: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"count '{label}' must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"count '{label}' must be nonnegative, got {value}")
    if value > COUNT_MAX:
        raise OverflowError(f"count '{label}' exceeds 64-bit count capacity: {value}")


@dataclass(frozen=True)
class TrialRecord:
    """One experimental trial: setting bits s1, s2 and outcomes o1, o2."""

    s1: int
    s2: int
    o1: int
    o2: int

    def __post_init__(self):
        for name in ("s1", "s2"):
            v = getattr(self, name)
            if type(v) is not int or v not in (0, 1):
                raise DomainError(f"{name} must be 0 or 1, got {v!r}")
        for name in ("o1", "o2"):
            v = getattr(self, name)
            if type(v) is not int or v not in (-1, 1):
                raise DomainError(f"{name} must be +1 or -1, got {v!r}")


@dataclass(frozen=True)
class TallyTable:
    """The eight aggregate counts of a CHSH experiment.

    a, b, c, d count trials under settings 00, 01, 10, 11; n00..n11 count
    the correlated results under the same settings. Construction checks
    each field's own domain (nonnegative, 64-bit capacity) and the
    cross-field invariants n00 <= a, n01 <= b, n10 <= c, n11 <= d, so every
    TallyTable that exists is valid. Empty setting cells are allowed; a
    statistic that divides by a cell count calls require_populated.
    """

    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    n00: int = 0
    n01: int = 0
    n10: int = 0
    n11: int = 0

    def __post_init__(self):
        for label in CELL_LABELS + CORR_LABELS:
            _check_count(label, getattr(self, label))
        errors = [
            f"{corr}={n} exceeds {cell}={count}"
            for cell, corr, count, n in zip(
                CELL_LABELS, CORR_LABELS, self.setting_counts, self.corr_counts
            )
            if n > count
        ]
        if errors:
            raise InvariantError("; ".join(errors))

    def require_populated(self) -> None:
        """Raise EmptyCellError naming the first setting cell with zero trials."""
        for cell, count in zip(CELL_LABELS, self.setting_counts):
            if count == 0:
                raise EmptyCellError(cell)

    @property
    def total_trials(self) -> int:
        """N = a + b + c + d."""
        return self.a + self.b + self.c + self.d

    @property
    def setting_counts(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def corr_counts(self) -> tuple[int, int, int, int]:
        return (self.n00, self.n01, self.n10, self.n11)

    @property
    def anti_corr_counts(self) -> tuple[int, int, int, int]:
        """Anti-correlated results per setting: count minus correlated."""
        return tuple(m - n for m, n in zip(self.setting_counts, self.corr_counts))

    def to_dict(self) -> dict[str, int]:
        return {label: getattr(self, label) for label in CELL_LABELS + CORR_LABELS}

    @classmethod
    def from_dict(cls, data: dict) -> "TallyTable":
        missing = [k for k in CELL_LABELS + CORR_LABELS if k not in data]
        if missing:
            raise ParseError(f"tally object missing fields: {', '.join(missing)}")
        return cls(**{k: data[k] for k in CELL_LABELS + CORR_LABELS})


@dataclass(frozen=True)
class ThreeSettingTally:
    """Counts for the three setting pairs of the 1964 two-outcome test.

    N_xy is the number of trials under setting pair xy and n_xy the number
    of correlated results among them.
    """

    n_ac: int
    n_ba: int
    n_bc: int
    N_ac: int
    N_ba: int
    N_bc: int

    def __post_init__(self):
        for name in ("n_ac", "n_ba", "n_bc", "N_ac", "N_ba", "N_bc"):
            _check_count(name, getattr(self, name))
        for pair in ("ac", "ba", "bc"):
            n = getattr(self, f"n_{pair}")
            total = getattr(self, f"N_{pair}")
            if n > total:
                raise InvariantError(f"n_{pair}={n} exceeds N_{pair}={total}")


def parse_trial_line(
    line: str, format: TrialFormat = "jsonl", line_number: int | None = None
) -> TrialRecord:
    """Parse one trial record from a line of text.

    JSONL lines are objects with integer fields s1, s2, o1, o2; CSV lines
    are `s1,s2,o1,o2`. Malformed syntax and values TrialRecord rejects
    raise ParseError, tagged with line_number when given.
    """
    if format == "jsonl":
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"invalid JSON: {exc}", line_number) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line_number)
        missing = [field for field in _TRIAL_FIELDS if field not in obj]
        if missing:
            raise ParseError(f"missing field '{missing[0]}'", line_number)
        values = [obj[field] for field in _TRIAL_FIELDS]
    elif format == "csv":
        parts = line.strip().split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 comma-separated fields, got {len(parts)}", line_number)
        values = []
        for field, part in zip(_TRIAL_FIELDS, parts):
            try:
                values.append(int(part.strip()))
            except ValueError:
                raise ParseError(f"field '{field}' is not an integer: {part!r}", line_number) from None
    else:
        raise DomainError(f"unknown trial format: {format!r}")

    try:
        return TrialRecord(*values)
    except DomainError as exc:
        raise ParseError(str(exc), line_number) from exc


def serialize_trial_line(record: TrialRecord, format: TrialFormat = "jsonl") -> str:
    """Render one trial record as a line (no trailing newline)."""
    try:
        template = _LINE_TEMPLATES[format]
    except KeyError:
        raise DomainError(f"unknown trial format: {format!r}") from None
    return template % (record.s1, record.s2, record.o1, record.o2)


def trial_chunk_writer(handle: IO[str], format: TrialFormat = "jsonl"):
    """A write(s1, s2, o1, o2) callable that appends one line per trial to handle.

    The four arguments are equal-length integer arrays (a chunk of trials
    in index order); each line is the serialize_trial_line rendering, one
    of 16 rendered once and looked up at 8*s1 + 4*s2 + 2*(o1 > 0) + (o2 > 0).
    """
    lines = [
        serialize_trial_line(TrialRecord(s1, s2, o1, o2), format) + "\n"
        for s1 in (0, 1) for s2 in (0, 1) for o1 in (-1, 1) for o2 in (-1, 1)
    ]

    def write(s1, s2, o1, o2) -> None:
        index = 8 * s1 + 4 * s2 + 2 * (o1 > 0) + (o2 > 0)
        handle.write("".join([lines[i] for i in index.tolist()]))

    return write


def read_trials(
    source: str | Path | IO[str] | Iterable[str],
    format: TrialFormat = "jsonl",
    header: bool = False,
) -> Iterator[TrialRecord]:
    """Stream trial records from a path, file object, or iterable of lines.

    Blank lines are skipped. With header=True the first line is skipped
    (headerless CSV is the default contract). Parse failures carry the
    1-based line number. Each of the first _PARSED_MAX distinct lines is
    parsed once; a repeat of one yields the record parsed before.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_trials(handle, format=format, header=header)
        return
    numbered = enumerate(source, start=1)
    if header:
        next(numbered, None)
    parsed: dict[str, TrialRecord] = {}
    for lineno, line in numbered:
        rec = parsed.get(line)
        if rec is None:
            if not line.strip():
                continue
            rec = parse_trial_line(line, format=format, line_number=lineno)
            if len(parsed) < _PARSED_MAX:
                parsed[line] = rec
        yield rec


def tally_from_trials(trials: Iterable[TrialRecord]) -> TallyTable:
    """Aggregate trials into the eight counts.

    Each trial increments exactly one setting count and, when its outcome
    product is +1, the matching correlated count.
    """
    counts = [0, 0, 0, 0]
    corr = [0, 0, 0, 0]
    for rec in trials:
        key = 2 * rec.s1 + rec.s2
        counts[key] += 1
        if rec.o1 == rec.o2:
            corr[key] += 1
    return TallyTable(
        a=counts[0], b=counts[1], c=counts[2], d=counts[3],
        n00=corr[0], n01=corr[1], n10=corr[2], n11=corr[3],
    )


def merge_tallies(t1: TallyTable, t2: TallyTable) -> TallyTable:
    """Componentwise sum of two tallies (associative and commutative).

    A sum above COUNT_MAX raises OverflowError, as any TallyTable count does.
    """
    labels = CELL_LABELS + CORR_LABELS
    return TallyTable(**{label: getattr(t1, label) + getattr(t2, label) for label in labels})


def write_tally(path: str | Path, t: TallyTable, seed: int | None = None) -> None:
    """Write a tally as a JSON object; byte-identical for identical inputs.

    The object holds the eight count fields; when a simulation seed is
    given it is recorded under the extra key "seed" for provenance.
    """
    payload: dict = t.to_dict()
    if seed is not None:
        payload["seed"] = seed
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_tally(path: str | Path | IO[str]) -> tuple[TallyTable, dict]:
    """Load a tally JSON file or text handle; returns (tally, extra keys such as seed).

    The eight count fields are required integers; unknown keys are
    surfaced in the extras dict rather than rejected. Anything that is not
    a valid TallyTable raises ParseError.
    """
    if isinstance(path, (str, Path)):
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = path.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid tally JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("tally file must hold a single JSON object")
    try:
        tally = TallyTable.from_dict(data)
    except (DomainError, InvariantError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    extras = {k: v for k, v in data.items() if k not in CELL_LABELS + CORR_LABELS}
    return tally, extras
