"""Trial parsing, tallying, merging, and construction-time validation."""

import json

import pytest
from hypothesis import given
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
from bellkit.trials import COUNT_MAX

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

    def test_correlated_is_outcome_product(self):
        assert TrialRecord(0, 0, 1, 1).correlated
        assert TrialRecord(0, 0, -1, -1).correlated
        assert not TrialRecord(0, 0, 1, -1).correlated

    def test_setting_index(self):
        assert TrialRecord(1, 0, 1, 1).setting_index == 2


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
