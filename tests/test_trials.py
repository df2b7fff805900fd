"""Trial parsing, tallying, merging, and construction-time validation."""

import copy
import io
import json
import os
import pickle
import stat
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    ConfigError,
    DomainError,
    EmptyCellError,
    InvariantError,
    ParseError,
    SimulationConfig,
    TallyTable,
    ThreeSettingTally,
    TrialRecord,
    load_tally,
    merge_tallies,
    parse_trial_line,
    read_trials,
    serialize_trial_line,
    tally_from_trials,
    write_tally,
)
from bellkit import trials
from bellkit.trials import COUNT_MAX, trial_chunk_writer, write_atomic

trial_records = st.builds(
    TrialRecord,
    s1=st.sampled_from([0, 1]),
    s2=st.sampled_from([0, 1]),
    o1=st.sampled_from([-1, 1]),
    o2=st.sampled_from([-1, 1]),
)


@st.composite
def tallies(draw, max_count=200):
    counts = [draw(st.integers(0, max_count)) for _ in range(4)]
    ns = [draw(st.integers(0, c)) for c in counts]
    return TallyTable(
        a=counts[0], b=counts[1], c=counts[2], d=counts[3],
        n00=ns[0], n01=ns[1], n10=ns[2], n11=ns[3],
    )


def brute_force_tally(records):
    """Independent tally: per-setting dict counting, no shared code path."""
    table = {}
    for r in records:
        key = (r.s1, r.s2)
        total, corr = table.get(key, (0, 0))
        table[key] = (total + 1, corr + (1 if r.o1 == r.o2 else 0))
    cells = [table.get(k, (0, 0)) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    return TallyTable(
        a=cells[0][0], b=cells[1][0], c=cells[2][0], d=cells[3][0],
        n00=cells[0][1], n01=cells[1][1], n10=cells[2][1], n11=cells[3][1],
    )


def per_record_tally(records):
    """The eight bins counted one record at a time: the reference for
    tally_from_trials, which counts equal records together first."""
    bins = [0] * 8
    for rec in records:
        bins[4 * rec.s1 + 2 * rec.s2 + (rec.o1 == rec.o2)] += 1
    return TallyTable.from_bins(bins)


class TestTrialRecord:
    def test_domains_enforced(self):
        with pytest.raises(DomainError):
            TrialRecord(2, 0, 1, 1)
        with pytest.raises(DomainError):
            TrialRecord(0, 0, 0, 1)
        with pytest.raises(DomainError):
            TrialRecord(0, 0, 1, 2)
        with pytest.raises(DomainError):
            TrialRecord(1.0, 0, 1, 1)
        with pytest.raises(DomainError):
            TrialRecord(0, 0, True, 1)


class TestParsing:
    def test_jsonl_example(self):
        assert parse_trial_line('{"s1":0,"s2":1,"o1":1,"o2":-1}') == TrialRecord(0, 1, 1, -1)

    def test_csv_example(self):
        assert parse_trial_line("1,1,-1,-1", format="csv") == TrialRecord(1, 1, -1, -1)

    def test_out_of_domain_outcome(self):
        with pytest.raises(ParseError):
            parse_trial_line('{"s1":0,"s2":0,"o1":0,"o2":1}')

    def test_out_of_domain_setting(self):
        with pytest.raises(ParseError):
            parse_trial_line("2,0,1,1", format="csv")

    def test_malformed_reports_line_number(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_trial_line("not json", line_number=7)

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            parse_trial_line('{"s1":0,"s2":0,"o1":1.5,"o2":1}')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="o2"):
            parse_trial_line('{"s1":0,"s2":0,"o1":1}')

    @given(rec=trial_records, fmt=st.sampled_from(["jsonl", "csv"]))
    def test_round_trip(self, rec, fmt):
        line = serialize_trial_line(rec, format=fmt)
        assert parse_trial_line(line, format=fmt) == rec

    def test_read_trials_line_numbers(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text('{"s1":0,"s2":0,"o1":1,"o2":1}\nbroken\n')
        with path.open(encoding="utf-8") as handle, pytest.raises(ParseError, match="line 2"):
            list(read_trials(handle))

    def test_read_trials_csv_header_flag(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("s1,s2,o1,o2\n0,0,1,1\n1,1,-1,1\n")
        with path.open(encoding="utf-8") as handle:
            recs = list(read_trials(handle, format="csv", header=True))
        assert recs == [TrialRecord(0, 0, 1, 1), TrialRecord(1, 1, -1, 1)]

    def test_blank_lines_skipped(self):
        lines = ['{"s1":0,"s2":0,"o1":1,"o2":1}', "", "  "]
        assert len(list(read_trials(lines))) == 1


ALL_RECORDS = [
    TrialRecord(s1, s2, o1, o2)
    for s1 in (0, 1) for s2 in (0, 1) for o1 in (-1, 1) for o2 in (-1, 1)
]
BAD_LINES = {
    "jsonl": ['{"s1":2,"s2":0,"o1":1,"o2":1}\n', '{"s1":1.0,"s2":0,"o1":1,"o2":1}\n',
              '{"s1":0,"s2":0,"o1":1}\n', "not json\n", "[0,0,1,1]\n"],
    "csv": ["2,0,1,1\n", "1.0,0,1,1\n", "0,0,1\n", "0,0,1,1,1\n", "s1,s2,o1,o2\n"],
}
BLANK_LINES = ["\n", "   \n", "\t\r\n", "\r\n", ""]


def unique_line(rec, fmt, n):
    """A valid line for rec that differs from every other n: an extra key or odd spacing."""
    if fmt == "jsonl":
        return '{"s1":%d, "s2":%d,"o1":%d,"o2":%d,"k":%d}\n' % (rec.s1, rec.s2, rec.o1, rec.o2, n)
    return " " * n + "%d,%d, %d,%d\n" % (rec.s1, rec.s2, rec.o1, rec.o2)


@st.composite
def trial_files(draw):
    """(format, header, lines) drawn from valid, blank, CRLF, malformed and unique lines, and
    valid or blank lines padded to the length ceiling or one past it."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    valid = [serialize_trial_line(rec, fmt) + "\n" for rec in ALL_RECORDS]
    pool = st.one_of(
        st.sampled_from(valid),
        st.sampled_from(valid).map(lambda line: line[:-1] + "\r\n"),
        st.sampled_from(BLANK_LINES),
        st.sampled_from(BAD_LINES[fmt]),
        st.builds(unique_line, st.sampled_from(ALL_RECORDS), st.just(fmt), st.integers(0, 40)),
        st.builds(lambda line, width: line.rstrip("\r\n").ljust(width - 1) + "\n",
                  st.sampled_from(valid + BLANK_LINES),
                  st.sampled_from([trials.TRIAL_LINE_MAX, trials.TRIAL_LINE_MAX + 1])),
    )
    lines = draw(st.lists(pool, max_size=60))
    return fmt, draw(st.booleans()), lines


def reference_records(lines, fmt, header):
    """parse_trial_line on every line, with no memo: the contract read_trials keeps."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if len(line) > trials.TRIAL_LINE_MAX:
            raise ParseError(f"line is over {trials.TRIAL_LINE_MAX} characters", lineno)
        if not (header and lineno == 1) and line.strip():
            records.append(parse_trial_line(line, format=fmt, line_number=lineno))
    return records


class TestMemoizedIngest:
    @settings(max_examples=300, deadline=None)
    @given(trial_files(), st.sampled_from([1, 3, trials._PARSED_MAX]))
    def test_matches_parse_of_every_line(self, trial_file, cap):
        fmt, header, lines = trial_file
        try:
            expected = brute_force_tally(reference_records(lines, fmt, header))
        except ParseError as exc:
            expected = exc
        with mock.patch.object(trials, "_PARSED_MAX", cap):
            if isinstance(expected, ParseError):
                with pytest.raises(ParseError) as raised:
                    tally_from_trials(read_trials(lines, format=fmt, header=header))
                assert str(raised.value) == str(expected)
                assert raised.value.line_number == expected.line_number
            else:
                assert tally_from_trials(read_trials(lines, format=fmt, header=header)) == expected

    def test_distinct_lines_past_the_cap(self):
        cap = trials._PARSED_MAX
        distinct = [unique_line(ALL_RECORDS[n % 16], "jsonl", n) for n in range(cap + 500)]
        lines = distinct + distinct + ["broken\n"]
        parse = mock.Mock(wraps=parse_trial_line)
        with mock.patch.object(trials, "parse_trial_line", parse):
            records = []
            with pytest.raises(ParseError, match=f"line {len(lines)}: invalid JSON"):
                for rec in read_trials(lines):
                    records.append(rec)
        # every distinct line once, the 500 past the cap twice, and the bad line
        assert parse.call_count == len(distinct) + 500 + 1
        assert tally_from_trials(records) == brute_force_tally(reference_records(lines[:-1], "jsonl", False))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_emit_table_rows_are_serialized_lines(self, fmt):
        handle = io.StringIO()
        columns = zip(*((r.s1, r.s2, r.o1, r.o2) for r in ALL_RECORDS))
        trial_chunk_writer(handle, fmt)(*(np.array(c, dtype=np.int8) for c in columns))
        rows = handle.getvalue().splitlines(keepends=True)
        assert rows == [serialize_trial_line(rec, fmt) + "\n" for rec in ALL_RECORDS]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_emit_writes_a_chunk_in_bounded_slices(self, fmt):
        # eight full slices of 8192 lines and a partial one
        rng = np.random.default_rng(25)
        s1, s2 = rng.integers(0, 2, size=(2, 2**16 + 3), dtype=np.int8)
        o1, o2 = 2 * rng.integers(0, 2, size=(2, 2**16 + 3), dtype=np.int8) - 1
        writes = []
        trial_chunk_writer(mock.Mock(write=writes.append), fmt)(s1, s2, o1, o2)
        assert [text.count("\n") for text in writes] == [8192] * 8 + [3]
        records = (TrialRecord(*map(int, trial)) for trial in zip(s1, s2, o1, o2))
        assert "".join(writes) == "".join(serialize_trial_line(rec, fmt) + "\n" for rec in records)


class TestTally:
    def test_empty_sequence(self):
        assert tally_from_trials([]) == TallyTable()

    def test_hand_counted_example(self):
        recs = [
            TrialRecord(0, 0, 1, 1),
            TrialRecord(0, 0, 1, -1),
            TrialRecord(1, 1, -1, -1),
        ]
        t = tally_from_trials(recs)
        assert (t.a, t.n00) == (2, 1)
        assert (t.d, t.n11) == (1, 1)
        assert (t.b, t.c) == (0, 0)

    def test_identical_records(self):
        t = tally_from_trials([TrialRecord(0, 1, -1, -1)] * 4)
        assert (t.b, t.n01) == (4, 4)
        assert t.a == t.c == t.d == 0

    @given(st.lists(st.integers(0, 2**62), min_size=8, max_size=8))
    def test_from_bins_layout(self, bins):
        assert TallyTable.from_bins(bins).to_dict() == {
            "a": bins[0] + bins[1], "b": bins[2] + bins[3],
            "c": bins[4] + bins[5], "d": bins[6] + bins[7],
            "n00": bins[1], "n01": bins[3], "n10": bins[5], "n11": bins[7],
        }

    @given(st.lists(st.integers(0, 50), min_size=8, max_size=8), st.randoms())
    def test_from_bins_matches_trials(self, bins, random):
        recs = []
        for k, count in enumerate(bins):
            s1, s2, correlated = k >> 2, (k >> 1) & 1, k & 1
            for i in range(count):
                o1 = 1 if i % 2 else -1
                recs.append(TrialRecord(s1, s2, o1, o1 if correlated else -o1))
        random.shuffle(recs)
        assert tally_from_trials(recs) == TallyTable.from_bins(bins)

    @given(st.lists(trial_records, max_size=200))
    def test_matches_brute_force(self, recs):
        assert tally_from_trials(recs) == brute_force_tally(recs) == per_record_tally(recs)

    @settings(max_examples=200, deadline=None)
    @given(trial_files())
    def test_stream_matches_per_record_loop(self, trial_file):
        fmt, header, lines = trial_file
        try:
            expected = per_record_tally(list(read_trials(lines, format=fmt, header=header)))
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                tally_from_trials(read_trials(lines, format=fmt, header=header))
            assert str(raised.value) == str(exc)
        else:
            assert tally_from_trials(read_trials(lines, format=fmt, header=header)) == expected

    @given(st.lists(trial_records, max_size=100), st.lists(trial_records, max_size=100))
    def test_concat_merges(self, xs, ys):
        assert tally_from_trials(xs + ys) == merge_tallies(
            tally_from_trials(xs), tally_from_trials(ys)
        )

    def test_total_trials(self):
        t = TallyTable(a=1, b=2, c=3, d=4)
        assert t.total_trials == 10


class TestMerge:
    def test_identity(self):
        t = TallyTable(a=3, n00=2)
        assert merge_tallies(t, TallyTable()) == t

    def test_componentwise(self):
        merged = merge_tallies(TallyTable(a=1, n00=1), TallyTable(a=2, n00=0))
        assert (merged.a, merged.n00) == (3, 1)

    @given(tallies(), tallies())
    def test_commutative(self, t1, t2):
        assert merge_tallies(t1, t2) == merge_tallies(t2, t1)

    def test_overflow_is_an_error(self):
        big = TallyTable(a=COUNT_MAX)
        with pytest.raises(OverflowError):
            merge_tallies(big, TallyTable(a=1))

    def test_counts_above_capacity_rejected(self):
        with pytest.raises(OverflowError):
            TallyTable(a=COUNT_MAX + 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            TallyTable(a=-1)


class TestValidate:
    def test_bound_violation(self):
        with pytest.raises(InvariantError, match="n00=5 exceeds a=4"):
            TallyTable(a=4, n00=5)
        with pytest.raises(InvariantError, match="n01=3 exceeds b=2; n11=1 exceeds d=0"):
            TallyTable(a=4, b=2, n01=3, n11=1)

    def test_valid_no_empty(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        t.require_populated()
        assert t.corr_counts == (2, 2, 2, 2)

    def test_empty_cell_flagged(self):
        t = TallyTable(a=4, b=0, c=4, d=4, n00=1, n10=1, n11=1)
        with pytest.raises(EmptyCellError, match="'b'"):
            t.require_populated()


# A valid record of each checked type, one of its fields, a value the type
# refuses there, and the error that refusal raises.
CHECKED_RECORDS = [
    (TrialRecord(0, 1, -1, 1), "o1", 0, DomainError),
    (TallyTable(4, 4, 4, 4, 1, 2, 3, 4), "n11", 5, InvariantError),
    (ThreeSettingTally(1, 2, 3, 4, 5, 6), "N_ba", -1, DomainError),
    (SimulationConfig("quantum", 0.0, 1.0, 0.5, -0.5, trials=8), "trials", 0, ConfigError),
]


def _forged(record, field, value):
    """record with field set to value, built past the type's check."""
    values = list(record)
    values[record._fields.index(field)] = value
    return tuple.__new__(type(record), values)


@pytest.mark.parametrize(
    "record, field, value, error", CHECKED_RECORDS, ids=[type(r).__name__ for r, *_ in CHECKED_RECORDS])
class TestCheckedRecords:
    """Every way of building a checked record runs its check."""

    def test_construction(self, record, field, value, error):
        forged = _forged(record, field, value)
        with pytest.raises(error):
            type(record)(*forged)
        with pytest.raises(error):
            type(record)(**forged._asdict())
        with pytest.raises(error):
            type(record)._make(forged)
        with pytest.raises(error):
            record._replace(**{field: value})

    def test_copy_and_pickle(self, record, field, value, error):
        forged = _forged(record, field, value)
        for rebuild in [copy.copy, copy.deepcopy] + [
            lambda r, p=protocol: pickle.loads(pickle.dumps(r, p))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            with pytest.raises(error):
                rebuild(forged)
            rebuilt = rebuild(record)
            assert rebuilt == record and type(rebuilt) is type(record)

    def test_fields_cannot_be_assigned(self, record, field, value, error):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_tuple_identity(self, record, field, value, error):
        assert record == tuple(record) and hash(record) == hash(tuple(record))
        assert record._asdict() == dict(zip(record._fields, record))


def test_tally_repr():
    t = TallyTable(1, 2, 3, 4, 0, 1, 2, 3)
    assert repr(t) == "TallyTable(a=1, b=2, c=3, d=4, n00=0, n01=1, n10=2, n11=3)"


class TestTallyFile:
    def test_round_trip(self, tmp_path):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        path = tmp_path / "t.json"
        write_tally(path, t, seed=42)
        loaded, extras = load_tally(path)
        assert loaded == t
        assert extras == {"seed": 42}
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        assert load_tally(path.read_text().splitlines(keepends=True)) == (t, {"seed": 42})

    @pytest.mark.parametrize("before", [None, "old\n"], ids=["absent", "present"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, before):
        path = tmp_path / "t.json"
        if before is not None:
            path.write_text(before)

        def fill(handle):
            handle.write("partial")
            handle.flush()
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space"):
            write_atomic(path, fill)
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.json"])
        assert before is None or path.read_text() == before

    def test_a_replaced_file_keeps_its_permissions(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("old\n")
        path.chmod(0o600)
        write_tally(path, TallyTable(a=1, b=1, c=1, d=1))
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_write_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        t = TallyTable(a=1, b=1, c=1, d=1, n00=1)
        write_tally(link, t)
        assert link.is_symlink()
        assert load_tally(target)[0] == t
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        t = TallyTable(a=2, b=2, c=2, d=2, n00=1)
        write_tally(fifo, t)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(received[0]) == t.to_dict()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"a": 1, "b": 1, "c": 1, "d": 1}))
        with pytest.raises(ParseError, match="n00"):
            load_tally(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "t.json"
        payload = {k: 1 for k in ("a", "b", "c", "d", "n00", "n01", "n10", "n11")}
        payload["a"] = 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="'a'"):
            load_tally(path)

    def test_corr_count_above_cell_count(self, tmp_path):
        path = tmp_path / "t.json"
        payload = {k: 4 for k in ("a", "b", "c", "d", "n01", "n10", "n11")}
        path.write_text(json.dumps({**payload, "n00": 5}))
        with pytest.raises(ParseError, match="n00=5 exceeds a=4"):
            load_tally(path)
