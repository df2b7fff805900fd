"""Trial parsing, tallying, merging, and construction-time validation."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import (
    DomainError,
    EmptyCellError,
    InvariantError,
    ParseError,
    TallyTable,
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
from bellkit.trials import COUNT_MAX, trial_chunk_writer

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
        with pytest.raises(ParseError, match="line 2"):
            list(read_trials(path))

    def test_read_trials_csv_header_flag(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("s1,s2,o1,o2\n0,0,1,1\n1,1,-1,1\n")
        recs = list(read_trials(path, format="csv", header=True))
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
    """(format, header, lines) drawn from valid, blank, CRLF, malformed and unique lines."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    valid = [serialize_trial_line(rec, fmt) + "\n" for rec in ALL_RECORDS]
    pool = st.one_of(
        st.sampled_from(valid),
        st.sampled_from(valid).map(lambda line: line[:-1] + "\r\n"),
        st.sampled_from(BLANK_LINES),
        st.sampled_from(BAD_LINES[fmt]),
        st.builds(unique_line, st.sampled_from(ALL_RECORDS), st.just(fmt), st.integers(0, 40)),
    )
    lines = draw(st.lists(pool, max_size=60))
    return fmt, draw(st.booleans()), lines


def reference_records(lines, fmt, header):
    """parse_trial_line on every line, with no memo: the contract read_trials keeps."""
    return [
        parse_trial_line(line, format=fmt, line_number=lineno)
        for lineno, line in enumerate(lines, start=1)
        if not (header and lineno == 1) and line.strip()
    ]


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

    @given(st.lists(trial_records, max_size=200))
    def test_matches_brute_force(self, recs):
        assert tally_from_trials(recs) == brute_force_tally(recs)

    @given(st.lists(trial_records, max_size=100), st.lists(trial_records, max_size=100))
    def test_concat_merges(self, xs, ys):
        assert tally_from_trials(xs + ys) == merge_tallies(
            tally_from_trials(xs), tally_from_trials(ys)
        )

    @given(st.lists(trial_records, max_size=200))
    def test_anti_corr_complements(self, recs):
        t = tally_from_trials(recs)
        for count, anti, corr in zip(t.setting_counts, t.anti_corr_counts, t.corr_counts):
            assert corr + anti == count

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


class TestTallyFile:
    def test_round_trip(self, tmp_path):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        path = tmp_path / "t.json"
        write_tally(path, t, seed=42)
        loaded, extras = load_tally(path)
        assert loaded == t
        assert extras == {"seed": 42}

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
