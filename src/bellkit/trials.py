"""Trial and tally data model: parsing, tallying, merging.

A trial is two setting bits and two +/-1 outcomes. Trials aggregate into a
tally of eight counts: trials per setting pair (a, b, c, d for settings
00, 01, 10, 11) and correlated results per setting pair (n00..n11), where
a trial is *correlated* when the product of its outcomes is +1.

Both types are valid by construction: a TrialRecord holds exact ints in
their domains, and a TallyTable never has a correlated count above its
setting count. Inputs are checked once, when they become these types, and
nothing downstream checks them again.

Records are named tuples: len, iteration and indexing work, and a record
equals, and hashes as, the plain tuple of its values. _asdict gives its
fields as a dict, _replace a copy with some changed, and assigning a
field raises a plain AttributeError. Every way of building a checked
record runs its check: the constructor, _make, _replace, copy and pickle.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter, namedtuple
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Literal

from .errors import DomainError, EmptyCellError, InvariantError, ParseError

TrialFormat = Literal["jsonl", "csv"]

# Counts are 64-bit-capacity nonnegative integers; exceeding this is an
# error, never wraparound.
COUNT_MAX = 2**64 - 1
# Seeds are 64-bit unsigned integers, the key space of the SplitMix64 stream in rng.
SEED_MAX = 2**64 - 1

CELL_LABELS = ("a", "b", "c", "d")
CORR_LABELS = ("n00", "n01", "n10", "n11")

_TRIAL_FIELDS = ("s1", "s2", "o1", "o2")

# The one line layout per trial format, shared by every trial writer.
_LINE_TEMPLATES = {
    "jsonl": '{"s1":%d,"s2":%d,"o1":%d,"o2":%d}',
    "csv": "%d,%d,%d,%d",
}

# The longest line read_trials takes, line end included; bellkit writes at most 32.
TRIAL_LINE_MAX = 4096
# Distinct lines whose records read_trials keeps, per call: a bound on its memory.
_PARSED_MAX = 1024
# Lines trial_chunk_writer renders per handle.write: a bound on the text it
# holds. 4,096 lines of ~31 characters join to ~127 KB, below glibc's
# 128 KiB mmap threshold, so a slice's text is not mapped afresh each time.
_SLICE_LINES = 1 << 12


def _check_counts(record: tuple) -> None:
    """Raise for the first field of record that is not an int (bools excluded) in 0..COUNT_MAX."""
    for label, value in zip(record._fields, record):
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise DomainError(f"count '{label}' must be an integer, got {value!r}")
        if value < 0:
            raise DomainError(f"count '{label}' must be nonnegative, got {value}")
        if value > COUNT_MAX:
            raise OverflowError(f"count '{label}' exceeds 64-bit count capacity: {value}")


class Checked:
    """Base of a named tuple that is valid by construction: _check runs from __new__.

    _make, and so _replace, calls the class, and a copy or an unpickled
    record is rebuilt by calling it, so no way of building one skips _check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class TrialRecord(Checked, namedtuple("TrialRecord", _TRIAL_FIELDS)):
    """One experimental trial: setting bits s1, s2 and outcomes o1, o2."""

    __slots__ = ()

    def _check(self):
        for name in ("s1", "s2"):
            v = getattr(self, name)
            if type(v) is not int or v not in (0, 1):
                raise DomainError(f"{name} must be 0 or 1, got {v!r}")
        for name in ("o1", "o2"):
            v = getattr(self, name)
            if type(v) is not int or v not in (-1, 1):
                raise DomainError(f"{name} must be +1 or -1, got {v!r}")


class TallyTable(Checked, namedtuple("TallyTable", CELL_LABELS + CORR_LABELS, defaults=(0,) * 8)):
    """The eight aggregate counts of a CHSH experiment.

    a, b, c, d count trials under settings 00, 01, 10, 11; n00..n11 count
    the correlated results under the same settings. Construction checks
    each field's own domain (nonnegative, 64-bit capacity) and the
    cross-field invariants n00 <= a, n01 <= b, n10 <= c, n11 <= d, so every
    TallyTable that exists is valid. Empty setting cells are allowed; a
    statistic that divides by a cell count calls require_populated.
    """

    __slots__ = ()

    def _check(self):
        _check_counts(self)
        a, b, c, d, n00, n01, n10, n11 = self
        if n00 > a or n01 > b or n10 > c or n11 > d:
            raise InvariantError("; ".join(
                f"{corr}={n} exceeds {cell}={count}"
                for cell, corr, count, n in zip(CELL_LABELS, CORR_LABELS, self[:4], self[4:])
                if n > count
            ))

    def require_populated(self) -> None:
        """Raise EmptyCellError naming the first setting cell with zero trials."""
        if 0 in self[:4]:
            raise EmptyCellError(CELL_LABELS[self.index(0)])

    @property
    def total_trials(self) -> int:
        """N = a + b + c + d."""
        return self.a + self.b + self.c + self.d

    @property
    def setting_counts(self) -> tuple[int, int, int, int]:
        return self[:4]

    @property
    def corr_counts(self) -> tuple[int, int, int, int]:
        return self[4:]

    def to_dict(self) -> dict[str, int]:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "TallyTable":
        missing = [k for k in cls._fields if k not in data]
        if missing:
            raise ParseError(f"tally object missing fields: {', '.join(missing)}")
        return cls._make(data[k] for k in cls._fields)

    @classmethod
    def from_bins(cls, bins: list[int]) -> "TallyTable":
        """The tally of eight bins: bin 2k + 1 counts the correlated trials of
        setting pair k = 2*s1 + s2, and bin 2k the rest."""
        corr = bins[1::2]
        return cls(*(rest + n for rest, n in zip(bins[0::2], corr)), *corr)


class ThreeSettingTally(Checked, namedtuple("ThreeSettingTally", "n_ac n_ba n_bc N_ac N_ba N_bc")):
    """Counts for the three setting pairs of the 1964 two-outcome test.

    N_xy is the number of trials under setting pair xy and n_xy the number
    of correlated results among them.
    """

    __slots__ = ()

    def _check(self):
        _check_counts(self)
        for pair, n, total in zip(("ac", "ba", "bc"), self[:3], self[3:]):
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
        except (ValueError, RecursionError) as exc:
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
    of 16 rendered once and looked up at 8*s1 + 4*s2 + (o1 + 1) + (o2 > 0),
    which keeps int8 arrays int8.
    """
    lines = [
        serialize_trial_line(TrialRecord(s1, s2, o1, o2), format) + "\n"
        for s1 in (0, 1) for s2 in (0, 1) for o1 in (-1, 1) for o2 in (-1, 1)
    ]

    def write(s1, s2, o1, o2) -> None:
        index = 8 * s1 + 4 * s2 + (o1 + 1) + (o2 > 0)
        for lo in range(0, len(index), _SLICE_LINES):
            handle.write("".join([lines[i] for i in index[lo : lo + _SLICE_LINES].tolist()]))

    return write


def read_trials(
    source: Iterable[str],
    format: TrialFormat = "jsonl",
    header: bool = False,
) -> Iterator[TrialRecord]:
    """Stream trial records from a text file object or an iterable of lines.

    Blank lines are skipped. With header=True the first line is skipped
    (headerless CSV is the default contract). Any line over TRIAL_LINE_MAX
    characters, even a header or a blank one, raises ParseError. Parse
    failures carry the 1-based line number. Each of the first _PARSED_MAX
    distinct lines is parsed once; a repeat of one yields the record parsed
    before.
    """
    parsed: dict[str, TrialRecord] = {}
    for lineno, line in enumerate(source, start=1):
        rec = parsed.get(line)
        if rec is None:
            if len(line) > TRIAL_LINE_MAX:
                raise ParseError(f"line is over {TRIAL_LINE_MAX} characters", lineno)
            if not line.strip() or (header and lineno == 1):
                continue
            rec = parse_trial_line(line, format=format, line_number=lineno)
            if len(parsed) < _PARSED_MAX:
                parsed[line] = rec
        yield rec


def tally_from_trials(trials: Iterable[TrialRecord]) -> TallyTable:
    """Aggregate trials into the eight counts, through TallyTable.from_bins.

    Equal records are counted together first, so the bin of each of the 16
    distinct records is found once.
    """
    bins = [0] * 8
    for rec, n in Counter(trials).items():
        bins[4 * rec.s1 + 2 * rec.s2 + (rec.o1 == rec.o2)] += n
    return TallyTable.from_bins(bins)


def merge_tallies(t1: TallyTable, t2: TallyTable) -> TallyTable:
    """Componentwise sum of two tallies (associative and commutative).

    A sum above COUNT_MAX raises OverflowError, as any TallyTable count does.
    """
    return TallyTable(*(x + y for x, y in zip(t1, t2)))


def atomic_target(path: str | Path) -> Path | None:
    """The file write_atomic(path, ...) replaces, or None if it writes path in place.

    A path that exists and is not a regular file (a pipe, /dev/null) is
    written in place; any other replaces its resolved target.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        return None
    return Path(os.path.realpath(path))


def write_atomic(path: str | Path, fill: Callable[[IO[str]], Any]) -> Any:
    """Return fill(handle) once it has written the text file at path, all or nothing.

    fill writes a temporary file beside atomic_target(path), which takes
    the target's permissions and then replaces it through os.replace; on
    any error the temporary file is removed and path is left as it was.
    Where atomic_target(path) is None, path is written in place. An OSError
    about the temporary file names path instead.
    """
    target = atomic_target(path)
    if target is None:
        with open(path, "w", encoding="utf-8") as handle:
            return fill(handle)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            result = fill(handle)
        if target.exists():
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    return result


def write_tally(path: str | Path, t: TallyTable, seed: int | None = None) -> None:
    """Write a tally as a JSON object; byte-identical for identical inputs.

    The object holds the eight count fields; when a simulation seed is
    given it is recorded under the extra key "seed" for provenance. The
    file is written atomically, through write_atomic.
    """
    payload: dict = t.to_dict()
    if seed is not None:
        payload["seed"] = seed
    write_atomic(path, lambda handle: handle.write(json.dumps(payload, indent=2) + "\n"))


def load_tally(path: str | Path | Iterable[str]) -> tuple[TallyTable, dict]:
    """Load a tally JSON file, or its text as a handle or lines; returns (tally, extras such as seed).

    The eight count fields are required integers; unknown keys are
    surfaced in the extras dict rather than rejected. Anything that is not
    a valid TallyTable raises ParseError.
    """
    if isinstance(path, (str, Path)):
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = "".join(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid tally JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("tally file must hold a single JSON object")
    try:
        tally = TallyTable.from_dict(data)
    except (DomainError, InvariantError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    extras = {k: v for k, v in data.items() if k not in CELL_LABELS + CORR_LABELS}
    return tally, extras
