"""CLI contracts: flags, report schema, exit codes, file round trips."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit
import bellkit.cli
from bellkit import (
    TallyTable,
    TrialRecord,
    build_analysis_report,
    load_tally,
    parse_trial_line,
    serialize_trial_line,
    tally_from_trials,
    write_tally,
)
from bellkit.bounds import as_exact
from bellkit.cli import CONFIG_BYTES_MAX, TALLY_BYTES_MAX, main
from bellkit.trials import TRIAL_LINE_MAX, trial_chunk_writer

QUANTUM_MAX = ["--angles", "0,1.5707963267948966,0.7853981633974483,-0.7853981633974483"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(argv, timeout=60):
    """Run `python -m bellkit.cli argv` in a child process with this checkout's bellkit."""
    src = str(Path(bellkit.__file__).resolve().parents[1])
    child_env = {**os.environ,
                 "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "bellkit.cli", *argv],
                          env=child_env, capture_output=True, text=True, timeout=timeout)


class TestSimulate:
    def test_writes_tally(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--model", "quantum", *QUANTUM_MAX,
            "--trials", "2000", "--seed", "42", "--out", str(out),
        )
        assert code == 0
        tally, extras = load_tally(out)
        assert tally.total_trials == 2000
        assert extras["seed"] == 42
        summary = json.loads(stdout)
        assert summary["tally"] == tally.to_dict()

    def test_missing_trials_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "quantum", "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert "trials" in err

    def test_bad_flag_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "thermal", "--trials", "100",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 2

    def test_config_document_with_flag_overrides(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": "lhv", "trials": 400, "seed": 1,
            "theta_a0": 0.0, "theta_a1": 1.0, "theta_b0": 0.5, "theta_b1": -0.5,
        }))
        out = tmp_path / "t.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg_path), "--seed", "9",
            "--out", str(out),
        )
        assert code == 0
        _, extras = load_tally(out)
        assert extras["seed"] == 9

    def test_byte_identical_for_same_seed(self, capsys, tmp_path):
        paths = [tmp_path / "t1.json", tmp_path / "t2.json"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "simulate", "--model", "quantum", *QUANTUM_MAX,
                "--trials", "5000", "--seed", "123", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_write_failure_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "lhv", *QUANTUM_MAX,
            "--trials", "100", "--seed", "1",
            "--out", str(tmp_path / "missing" / "dir" / "t.json"),
        )
        assert code == 1
        assert "write failed" in err

    @pytest.mark.parametrize("before", [None, b"old trials\n"], ids=["absent", "present"])
    def test_failed_emit_leaves_the_target_as_it_was(self, capsys, tmp_path, monkeypatch, before):
        target = tmp_path / "trials.jsonl"
        if before is not None:
            target.write_bytes(before)
        chunks = []

        def failing_writer(handle, format):
            write = trial_chunk_writer(handle, format)

            def write_one_chunk(*arrays):
                if chunks:
                    raise OSError(28, "No space left on device")
                chunks.append(len(arrays[0]))
                write(*arrays)
                handle.flush()

            return write_one_chunk

        monkeypatch.setattr(bellkit.cli, "trial_chunk_writer", failing_writer)
        code, stdout, err = run_cli(
            capsys, "simulate", "--model", "lhv", *QUANTUM_MAX, "--trials", "70000",
            "--seed", "1", "--out", str(tmp_path / "t.json"), "--emit-trials", str(target),
        )
        assert (code, stdout) == (1, "")
        assert "write failed" in err and "No space" in err
        assert chunks == [2**16]
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else [target.name])
        assert before is None or target.read_bytes() == before

    def test_shards_defaults_to_one(self, tmp_path):
        parsed = bellkit.cli.build_parser().parse_args(
            ["simulate", "--model", "lhv", "--trials", "8", "--out", str(tmp_path / "t.json")])
        assert parsed.shards == 1

    def test_more_shards_than_trials_is_quick(self, tmp_path):
        # one partition per shard would take hours to list
        proc = run_module(["simulate", "--model", "lhv", *QUANTUM_MAX, "--trials", "8",
                           "--shards", str(10**12), "--out", str(tmp_path / "t.json")], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert load_tally(tmp_path / "t.json")[0].total_trials == 8

    def test_round_robin_settings(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "lhv", *QUANTUM_MAX,
            "--trials", "4000", "--seed", "3", "--settings", "round-robin",
            "--out", str(out),
        )
        assert code == 0
        tally, _ = load_tally(out)
        assert tally.setting_counts == (1000, 1000, 1000, 1000)


    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_emitted_lines_are_canonical_and_shard_free(self, capsys, tmp_path, fmt):
        # 70,000 trials span two generation chunks
        outputs = []
        for shards in ("1", "3"):
            tally_path = tmp_path / f"t{shards}.json"
            trials_path = tmp_path / f"trials{shards}.{fmt}"
            code, _, _ = run_cli(
                capsys, "simulate", "--model", "lhv", *QUANTUM_MAX,
                "--trials", "70000", "--seed", "6", "--shards", shards,
                "--out", str(tally_path), "--emit-trials", str(trials_path),
                "--emit-format", fmt,
            )
            assert code == 0
            outputs.append((trials_path.read_bytes(), tally_path.read_bytes()))
        assert outputs[0] == outputs[1]
        lines = outputs[0][0].decode("utf-8").splitlines()
        assert len(lines) == 70000
        records = [parse_trial_line(line, format=fmt) for line in lines]
        assert [serialize_trial_line(rec, format=fmt) for rec in records] == lines
        assert tally_from_trials(records) == load_tally(tmp_path / "t1.json")[0]


class TestAnalyze:
    def write_tally_file(self, tmp_path, **fields):
        path = tmp_path / "tally.json"
        write_tally(path, TallyTable(**fields))
        return path

    def test_violation_exit_3(self, capsys, tmp_path):
        path = self.write_tally_file(
            tmp_path, a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        code, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path))
        assert code == 3
        report = json.loads(stdout)
        assert report["chsh"]["s"] == 4.0
        assert report["chsh"]["violated"] is True

    def test_uniform_exit_0(self, capsys, tmp_path):
        path = self.write_tally_file(
            tmp_path, a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        code, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path))
        assert code == 0
        report = json.loads(stdout)
        assert report["chsh"]["s"] == 0.0
        assert report["nosignalling"]["epsilon_achieved"] == 0.0

    def test_requested_epsilon_failing(self, capsys, tmp_path):
        path = self.write_tally_file(
            tmp_path, a=100, b=100, c=100, d=100, n00=50, n01=60, n10=55, n11=45)
        code, stdout, _ = run_cli(
            capsys, "analyze", "--tally", str(path), "--epsilon", "0.01")
        assert code == 0
        ns = json.loads(stdout)["nosignalling"]
        assert ns["epsilon_achieved"] == 0.075
        assert ns["pass"] is False
        assert ns["pairs_failing"]

    def test_empty_cell_exit_1(self, capsys, tmp_path):
        path = self.write_tally_file(tmp_path, a=4, b=0, c=4, d=4, n00=1)
        code, _, err = run_cli(capsys, "analyze", "--tally", str(path))
        assert code == 1
        assert "'b'" in err

    def test_invalid_tally_exit_1(self, capsys, tmp_path):
        path = tmp_path / "tally.json"
        payload = {k: 4 for k in ("a", "b", "c", "d", "n01", "n10", "n11")}
        payload["n00"] = 9
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "analyze", "--tally", str(path))
        assert code == 1
        assert "n00" in err

    def test_unreadable_input_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "analyze", "--tally", str(tmp_path / "nope.json"))
        assert code == 1

    def test_trials_and_tally_agree(self, capsys, tmp_path):
        tally_path = tmp_path / "t.json"
        trials_path = tmp_path / "trials.jsonl"
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "quantum", *QUANTUM_MAX,
            "--trials", "3000", "--seed", "8", "--out", str(tally_path),
            "--emit-trials", str(trials_path),
        )
        assert code == 0
        code_t, out_t, _ = run_cli(capsys, "analyze", "--tally", str(tally_path))
        code_s, out_s, _ = run_cli(capsys, "analyze", "--trials", str(trials_path))
        assert code_t == code_s
        report_t, report_s = json.loads(out_t), json.loads(out_s)
        assert report_t["tally"] == report_s["tally"]
        assert report_t["chsh"] == report_s["chsh"]

    def test_csv_trials_input(self, capsys, tmp_path):
        tally_path = tmp_path / "t.json"
        trials_path = tmp_path / "trials.csv"
        run_cli(
            capsys, "simulate", "--model", "lhv", *QUANTUM_MAX,
            "--trials", "2000", "--seed", "4", "--out", str(tally_path),
            "--emit-trials", str(trials_path), "--emit-format", "csv",
        )
        code, stdout, _ = run_cli(
            capsys, "analyze", "--trials", str(trials_path), "--format", "csv")
        assert code in (0, 3)
        assert json.loads(stdout)["tally"] == load_tally(tally_path)[0].to_dict()

    def test_header_without_csv_exits_2(self, capsys, tmp_path):
        path = self.write_tally_file(tmp_path, a=4, b=4, c=4, d=4)
        code, stdout, err = run_cli(capsys, "analyze", "--tally", str(path), "--header")
        assert (code, stdout) == (2, "")
        assert "--header applies to csv input only" in err

    @pytest.mark.parametrize("argv", [
        ["--delta", "2"], ["--delta", "0e999999999"], ["--delta", "5e-324"],
        ["--epsilon", "5e-324"], ["--epsilon", "1/3"], ["--epsilon", "1.7976931348623157e308"],
    ])
    def test_epsilon_and_delta_at_their_bounds(self, capsys, tmp_path, argv):
        path = self.write_tally_file(
            tmp_path, a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        code, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path), *argv)
        assert code == 3

        def not_finite(name):
            raise AssertionError(f"{name} in the report")

        report = json.loads(stdout, parse_constant=not_finite)
        flag, text = argv
        if flag == "--delta":
            assert report["bounds"]["delta_exact"] == str(Fraction(0 if text.startswith("0e") else text))
        else:
            assert report["bounds"]["min_trials_epsilon"] == float(Fraction(text))
        assert len(str(report["bounds"]["min_trials"])) < 330

    @pytest.mark.parametrize("text", ["0e999999999", "-0", "1/3", "5e-324", "2", "0.828"])
    def test_delta_flag_reads_as_exact(self, capsys, tmp_path, text):
        path = self.write_tally_file(
            tmp_path, a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        _, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path), "--delta", text)
        assert json.loads(stdout)["bounds"]["delta_exact"] == str(as_exact(text))

    def test_bell1964_section(self, capsys, tmp_path):
        path = self.write_tally_file(
            tmp_path, a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        code, stdout, _ = run_cli(
            capsys, "analyze", "--tally", str(path),
            "--bell1964", "4,4,1,4,1,5",
        )
        assert code == 0
        bell = json.loads(stdout)["bell1964"]
        assert bell["fraction_form"] == pytest.approx(0.55)
        assert bell["violated"] is True

    @pytest.mark.parametrize("name, argv, newline, trials", [
        ("trials.jsonl", ["--trials"], "\r\n", 4000),
        ("trials.csv", ["--format", "csv", "--header", "--trials"], "\r\n", 4000),
        ("tally.json", ["--tally"], "\n", 4000),
        ("trials.jsonl", ["--trials"], "\r", 4000),
        ("tally.json", ["--tally"], "\r\n", 4000),
        ("trials.jsonl", ["--trials"], "\r\n", 8000),
    ], ids=["jsonl", "csv-crlf-header", "tally", "jsonl-cr", "tally-crlf", "jsonl-crlf-batches"])
    def test_input_sha256_is_of_the_parsed_bytes(self, capsys, tmp_path, name, argv, newline, trials):
        # the text is read without newline translation, so a translated \r or \r\n would
        # change the hash
        records = [TrialRecord(i % 4 // 2, i % 2, 1, 1 - 2 * (i % 3 == 0)) for i in range(trials)]
        tally = tally_from_trials(records)
        path = tmp_path / name
        if name.endswith(".json"):
            write_tally(path, tally, seed=5)
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        else:
            fmt = name.rsplit(".", 1)[1]
            lines = [serialize_trial_line(rec, format=fmt) for rec in records]
            header = ["s1,s2,o1,o2"] if fmt == "csv" else []
            path.write_bytes(newline.join(header + lines + [""]).encode("utf-8"))
        if trials == 8000:  # the lines are hashed one 64 KiB batch at a time
            assert path.stat().st_size > 3 * 2**16
        code, stdout, _ = run_cli(capsys, "analyze", *argv, str(path))
        assert code == 0
        report = json.loads(stdout)
        assert report["tally"] == tally.to_dict()
        assert report["metadata"]["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_seed_carried_into_metadata(self, capsys, tmp_path):
        tally_path = tmp_path / "t.json"
        run_cli(
            capsys, "simulate", "--model", "lhv", *QUANTUM_MAX,
            "--trials", "1000", "--seed", "77", "--out", str(tally_path),
        )
        _, stdout, _ = run_cli(capsys, "analyze", "--tally", str(tally_path))
        assert json.loads(stdout)["metadata"]["seed"] == 77

    @pytest.mark.parametrize("seed, echoed", [
        (True, None), (-7, None), (2**64, None), (2**64 - 1, 2**64 - 1), (0, 0),
    ], ids=["bool", "negative", "above-64-bit", "max", "zero"])
    def test_only_a_valid_seed_is_echoed(self, capsys, tmp_path, seed, echoed):
        tally_path = tmp_path / "t.json"
        counts = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2).to_dict()
        tally_path.write_text(json.dumps({**counts, "seed": seed}))
        code, stdout, _ = run_cli(capsys, "analyze", "--tally", str(tally_path))
        assert code == 0
        assert json.loads(stdout)["metadata"]["seed"] == echoed


NOT_UTF8 = b'{"s1":0,"s2":0,"o1":1,"o2":1}\n\xff\xfe\n'
VALID_TALLY = b'{"a":4,"b":4,"c":4,"d":4,"n00":2,"n01":2,"n10":2,"n11":2}'
VALID_CONFIG = b'{"model":"lhv","trials":8}'
HUGE = "9" * 5000  # above Python's 4300-digit int conversion limit
TRIAL = {"jsonl": b'{"s1":0,"s2":0,"o1":1,"o2":1}', "csv": b"0,0,1,1"}
# a trial at each setting pair but 00 (the CSV under a header), so with a TRIAL line no cell is empty
OTHER_CELLS = {
    "jsonl": b'{"s1":0,"s2":1,"o1":1,"o2":1}\n{"s1":1,"s2":0,"o1":1,"o2":1}\n{"s1":1,"s2":1,"o1":1,"o2":1}\n',
    "csv": b"s1,s2,o1,o2\n0,1,1,1\n1,0,1,1\n1,1,1,1\n",
}
INPUTS = {
    "bad": NOT_UTF8,
    "huge_trial": b'{"s1":%s,"s2":0,"o1":1,"o2":1}\n' % HUGE.encode(),
    "huge_tally": b'{"a":%s,"b":1,"c":1,"d":1,"n00":0,"n01":0,"n10":0,"n11":0}' % HUGE.encode(),
    "huge_seed": b'{"model":"lhv","trials":8,"seed":%s}' % HUGE.encode(),
    "flip_string": b'{"model":"lhv","trials":8,"flip_station2":"false"}',
    "angle_bool": b'{"model":"lhv","trials":8,"theta_a0":true}',
    "angle_huge_int": b'{"model":"lhv","trials":8,"theta_a0":1%s}' % (b"0" * 400),
    "seed_huge_int": b'{"model":"lhv","trials":8,"seed":1%s}' % (b"0" * 400),
    "scheme_long": b'{"model":"lhv","trials":8,"setting_scheme":"%s"}' % (b"x" * 5000),
    "angle_difference": b'{"model":"quantum","trials":8,"theta_a0":1e308,"theta_b0":-1e308}',
    "deep": b"[" * 100_000,  # nested past the JSON decoder's recursion limit
    # valid documents padded with whitespace to their ceiling, and one byte past it
    "tally_at_max": VALID_TALLY.ljust(TALLY_BYTES_MAX),
    "tally_past_max": VALID_TALLY.ljust(TALLY_BYTES_MAX + 1),
    "config_at_max": VALID_CONFIG.ljust(CONFIG_BYTES_MAX),
    "config_past_max": VALID_CONFIG.ljust(CONFIG_BYTES_MAX + 1),
    # trial lines padded with spaces to the ceiling, with and without a line end, and one past it
    **{f"{fmt}_at_max": OTHER_CELLS[fmt] + TRIAL[fmt].ljust(TRIAL_LINE_MAX - 1) + b"\n"
       + TRIAL[fmt].ljust(TRIAL_LINE_MAX) for fmt in TRIAL},
    **{f"{fmt}_past_max": OTHER_CELLS[fmt] + TRIAL[fmt].ljust(TRIAL_LINE_MAX) + b"\n" for fmt in TRIAL},
    # longer than a read block, so the reader refuses it before the line ends
    "trial_line_100k": TRIAL["jsonl"] + b"\n" + b"9" * (100 << 10) + b"\n",
}
SIMULATE = ["simulate", "--out", "{out}", "--config"]


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "--tally", "{tally}", "--epsilon", "0"], 2),
    (["analyze", "--tally", "{tally}", "--delta", "-1"], 2),
    (["analyze", "--trials", "{bad}"], 1),
    (["analyze", "--tally", "{bad}"], 1),
    (["analyze", "--trials", "{huge_trial}"], 1),
    (["analyze", "--tally", "{huge_tally}"], 1),
    (SIMULATE + ["{huge_seed}"], 2),
    (SIMULATE + ["{bad}"], 2),
    (SIMULATE + ["{flip_string}"], 2),
    (SIMULATE + ["{angle_bool}"], 2),
    (SIMULATE + ["{angle_huge_int}"], 2),
    (SIMULATE + ["{seed_huge_int}"], 2),
    (SIMULATE + ["{scheme_long}"], 2),
    (SIMULATE + ["{angle_difference}"], 2),
    (["simulate", "--model", "quantum", "--angles", "1e308,0,-1e308,0", "--trials", "8",
      "--out", "{out}"], 2),
    (["simulate", "--model", "lhv", "--angles", "1e308,0,-1e308,0", "--trials", "8",
      "--out", "{out}"], 2),
    (["analyze", "--tally", "{tally}", "--bell1964", "5,3,1,2,1,2"], 2),
    (["analyze", "--tally", "{tally}", "--bell1964", "1,0,1,2,1,2"], 2),
    (["analyze", "--tally", "{tally}", "--bell1964=-1,3,1,2,1,2"], 2),
    (["analyze", "--tally", "{tally}", "--bell1964", "1,99999999999999999999999,1,2,1,2"], 2),
    (["analyze", "--tally", "{tally}", "--delta", "1e400"], 2),
    (["analyze", "--tally", "{tally}", "--epsilon", "1e400"], 2),
    (["analyze", "--tally", "{tally}", "--epsilon", "1e-5000"], 2),
    (["analyze", "--tally", "{tally}", "--delta", "1e-5000"], 2),
    (["analyze", "--tally", "{tally}", "--epsilon", "1e99999999"], 2),
    (["analyze", "--tally", "{tally}", "--delta", "0." + "1" * 5000], 2),
    (["analyze", "--tally", "{deep}"], 1),
    (["analyze", "--trials", "{deep}"], 1),
    (SIMULATE + ["{deep}"], 2),
    (["oracle", "--n-per-setting", "9" * 1200], 2),
    # far past the cap: (K + 1)^4 past sys.maxsize, and K + 1 = sys.maxsize
    (["oracle", "--n-per-setting", str(10**20)], 2),
    (["oracle", "--n-per-setting", str(2**63 - 2)], 2),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{missing}/out.json"], 1),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}",
      "--emit-trials", "{missing}/trials.jsonl"], 1),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}", "--emit-trials", "{out}"], 2),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}", "--emit-trials", "{link}"], 2),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "/dev/null",
      "--emit-trials", "/dev/null"], 0),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}", "--seed", "-1"], "--seed"),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}",
      "--seed", str(2**64)], "--seed"),
    (["simulate", "--model", "lhv", "--trials", "8", "--out", "{out}",
      "--seed", str(2**64 - 1)], 0),
    (["simulate", "--model", "lhv", "--trials", "0", "--out", "{out}"], "--trials"),
    # accepted by as_exact, but Delta/12 or N*Delta/24 would pass 4300 digits in the report
    (["analyze", "--tally", "{tally}", "--delta", "0." + "1" * 4299 + "3"], "--delta"),
    (["analyze", "--tally", "{tally}", "--delta", "1" * 4300 + "/2" + "0" * 4299], "--delta"),
    # above 0, but 0 as a float
    (["analyze", "--tally", "{tally}", "--delta", "1/1" + "0" * 400], "--delta"),
    # a numerator of exactly 10^4280, one past the 4280 digits allowed
    (["analyze", "--tally", "{tally}", "--delta", "1" + "0" * 4280 + "/" + "9" * 4280], "--delta"),
    (["analyze", "--tally", "{tally_at_max}"], 0),
    (["analyze", "--tally", "{tally_past_max}"], 1),
    (SIMULATE + ["{config_at_max}"], 0),
    (SIMULATE + ["{config_past_max}"], 2),
    (["analyze", "--trials", "{jsonl_at_max}"], 0),
    (["analyze", "--trials", "{jsonl_past_max}"], 1),
    (["analyze", "--trials", "{csv_at_max}", "--format", "csv", "--header"], 0),
    (["analyze", "--trials", "{csv_past_max}", "--format", "csv", "--header"], 1),
    (["analyze", "--trials", "{trial_line_100k}"], 1),
], ids=["epsilon-zero", "delta-negative", "trials-not-utf8", "tally-not-utf8",
        "trials-huge-int", "tally-huge-count",
        "config-huge-seed", "config-not-utf8", "config-flip-string", "config-angle-bool",
        "config-angle-huge-int", "config-seed-huge-int", "config-scheme-long",
        "config-angle-difference", "angles-difference-quantum", "angles-difference-lhv",
        "bell1964-n-above-N", "bell1964-empty-pair", "bell1964-negative", "bell1964-above-64-bit",
        "delta-overflows-float", "epsilon-overflows-float", "epsilon-underflows-float",
        "delta-underflows-float", "epsilon-huge-exponent", "delta-5000-digits",
        "tally-deep-json", "trials-deep-json",
        "config-deep-json", "oracle-huge-k", "oracle-slab-past-maxsize", "oracle-pool-past-maxsize",
        "out-missing-dir", "emit-missing-dir",
        "emit-is-out", "emit-links-to-out", "emit-and-out-dev-null",
        "seed-negative", "seed-above-64-bit", "seed-max", "trials-zero",
        "delta-4300-digits", "delta-4300-digit-numerator", "delta-zero-as-float",
        "delta-numerator-at-limit", "tally-at-ceiling", "tally-past-ceiling",
        "config-at-ceiling", "config-past-ceiling", "trial-line-at-ceiling", "trial-line-past-ceiling",
        "csv-line-at-ceiling", "csv-line-past-ceiling", "trial-line-100k"])
def test_exit_code_contract_without_traceback(tmp_path, argv, expected):
    """expected is an exit code, or the flag that argparse must reject (exit 2)."""
    tally = tmp_path / "tally.json"
    write_tally(tally, TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2))
    paths = {"tally": tally, "out": tmp_path / "out.json", "missing": tmp_path / "missing",
             "link": tmp_path / "link.json"}
    paths["link"].symlink_to(paths["out"])
    for name, data in INPUTS.items():
        paths[name] = tmp_path / f"{name}.txt"
        if any(f"{{{name}}}" in arg for arg in argv):
            paths[name].write_bytes(data)
    proc = run_module([arg.format(**paths) for arg in argv])
    rejected_flag = expected if isinstance(expected, str) else None
    assert proc.returncode == (2 if rejected_flag else expected), proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 0:
        return
    assert "error" in proc.stderr
    assert proc.stdout == ""
    if rejected_flag:
        assert f"argument {rejected_flag}" in proc.stderr
    if "--config" in argv:  # a rejected value is echoed as a bounded prefix
        assert len(proc.stderr.encode()) < 300, proc.stderr
    for arg in argv:
        if arg.startswith("{missing}"):  # a failed write names its target, not a temporary file
            assert arg.format(**paths) in proc.stderr
            assert ".tmp" not in proc.stderr


# Starts argv[3:] with stdout and stderr sent to the files argv[1] and argv[2], and
# prints its exit code and ru_maxrss. It runs under `python -S`, smaller than any
# bellkit call, because Linux carries the spawner's peak RSS into the child's at exec.
SPAWNER = """import os, sys
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB, carried across exec")
@pytest.mark.parametrize("source, baseline", [
    ("--tally", ["--version"]),
    # an empty trial file is opened and hashed, so it maps OpenSSL for hashlib as a huge one does
    ("--trials", ["analyze", "--trials", "empty.jsonl"]),
], ids=["tally", "trials"])
def test_oversized_input_refused_in_bounded_memory(tmp_path, source, baseline):
    """A 32 MiB one-line tally or trial file is refused within 2 MiB of the peak of a call
    that reads no input: a tally from one read of TALLY_BYTES_MAX + 1 bytes, a trial file
    once a read block holds more than TRIAL_LINE_MAX characters of one line. Read whole,
    the line would add twice its size."""
    (tmp_path / "empty.jsonl").write_bytes(b"")
    huge = tmp_path / "huge.txt"
    with open(huge, "wb") as handle:
        for _ in range(32):
            handle.write(b"9" * (1 << 20))
    src = str(Path(bellkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def peak_kib(*argv):
        out, err = tmp_path / "out.txt", tmp_path / "err.txt"
        proc = subprocess.run([sys.executable, "-S", "-c", SPAWNER, str(out), str(err),
                               sys.executable, "-m", "bellkit.cli", *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, maxrss = map(int, proc.stdout.split())
        return code, maxrss, out.read_text(), err.read_text()

    _, baseline_kib, _, _ = peak_kib(*baseline)
    code, refused_kib, stdout, stderr = peak_kib("analyze", source, str(huge))
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1, stderr
    assert refused_kib <= baseline_kib + 2048, (refused_kib, baseline_kib)


GOOD_LINE = TRIAL["jsonl"].decode() + "\n"
OVERLONG = f"line is over {TRIAL_LINE_MAX} characters"


@pytest.mark.parametrize("lines, error", [
    # carried across read blocks, and refused by the reader before the line ends
    ([GOOD_LINE, "9" * (100 << 10)], f"line 2: {OVERLONG}"),
    ([GOOD_LINE] * 3000 + ["9" * (100 << 10)], f"line 3001: {OVERLONG}"),
    # within one block, and refused by read_trials
    ([GOOD_LINE, "9" * 5000 + "\n", GOOD_LINE], f"line 2: {OVERLONG}"),
    # a bad line before an overlong one is still the one reported
    ([GOOD_LINE, "not json\n", "9" * (100 << 10)], "line 2: invalid JSON"),
], ids=["carried", "carried-after-a-block", "in-block", "earlier-bad-line"])
def test_overlong_trial_line_named_by_number(capsys, tmp_path, lines, error):
    path = tmp_path / "trials.jsonl"
    path.write_text("".join(lines))
    code, stdout, err = run_cli(capsys, "analyze", "--trials", str(path))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {error}"), err


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x85", "a", "\u00e9"]), max_size=80),
       block=st.integers(1, 64))
def test_trial_reader_splits_as_readlines(pieces, block):
    """Read in blocks of any size, a text splits into the lines readlines() gives, and hashes whole."""
    text = "".join(pieces)
    sha256 = hashlib.sha256()
    with mock.patch.object(bellkit.cli, "TRIAL_BLOCK_CHARS", block):
        lines = list(bellkit.cli._hashed_lines(io.StringIO(text, newline=""), sha256))
    assert lines == io.StringIO(text, newline="").readlines()
    assert sha256.digest() == hashlib.sha256(text.encode("utf-8")).digest()


class TestOracleCommand:
    def test_clean_run_exit_0(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "--n-per-setting", "4")
        assert code == 0
        assert json.loads(stdout)["checked"] == 625

    def test_cap_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n-per-setting", "100000000")
        assert code == 2
        assert "cap" in err

    def test_cap_boundary(self, capsys):
        # (100 + 1)^4 tallies exceed the cap of 10^8 = (99 + 1)^4, refused before any is enumerated
        code, stdout, err = run_cli(capsys, "oracle", "--n-per-setting", "100")
        assert code == 2
        assert stdout == ""
        assert "cap 100000000" in err


def test_violation_possible_under_unequal_settings(capsys, tmp_path):
    """S = 3 with d = 2: the report that says violated must not say no violation is possible."""
    path = tmp_path / "t.json"
    path.write_text('{"a":1,"b":1,"c":1,"d":2,"n00":1,"n01":1,"n10":1,"n11":1}', encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path))
    printed = json.loads(stdout)
    assert code == 3
    assert printed["chsh"]["s_exact"] == "3" and printed["chsh"]["violated"]
    assert printed["bounds"]["violation_possible"] is True


class TestReportSelfContainment:
    def test_numeric_fields_recomputable_from_tally(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tally(path, TallyTable(a=100, b=90, c=110, d=100,
                                     n00=80, n01=75, n10=88, n11=20))
        _, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path), "--epsilon", "0.5")
        printed = json.loads(stdout)
        rebuilt = build_analysis_report(
            TallyTable.from_dict(printed["tally"]), epsilon="0.5").to_dict()
        for section in ("tally", "chsh", "nosignalling", "bounds"):
            assert printed[section] == rebuilt[section]

    def test_floats_round_trip_through_json(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tally(path, TallyTable(a=7, b=13, c=17, d=23, n00=3, n01=5, n10=11, n11=2))
        _, stdout, _ = run_cli(capsys, "analyze", "--tally", str(path))
        report = json.loads(stdout)
        t = TallyTable.from_dict(report["tally"])
        assert report["chsh"]["e00"] == float(Fraction(2 * t.n00 - t.a, t.a))
        assert json.loads(json.dumps(report)) == report


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "bellkit" in stdout

    def test_no_command_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_only_simulation_imports_numpy(self, tmp_path):
        """analyze, oracle and flag errors run without numpy; a simulate name loads it."""
        write_tally(tmp_path / "tally.json", TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0))
        (tmp_path / "bad.json").write_text('{"a": 1}')
        records = [TrialRecord(k >> 1, k & 1, 1, 1) for k in range(4)]
        (tmp_path / "trials.jsonl").write_text(
            "".join(serialize_trial_line(r, "jsonl") + "\n" for r in records))
        (tmp_path / "trials.csv").write_text(
            "s1,s2,o1,o2\n" + "".join(serialize_trial_line(r, "csv") + "\n" for r in records))
        calls = [
            (["--version"], 0),
            (["analyze", "--tally", "tally.json"], 3),
            (["analyze", "--tally", "bad.json"], 1),
            (["analyze", "--trials", "trials.jsonl"], 0),
            (["analyze", "--trials", "trials.csv", "--format", "csv", "--header"], 0),
            (["oracle", "--n-per-setting", "2"], 0),
            (["simulate", "--model", "lhv", "--trials", "8", "--seed", "-1", "--out", "t.json"], 2),
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import bellkit, bellkit.cli\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        codes.append(bellkit.cli.main(argv))\n"
            "before = 'numpy' in sys.modules\n"
            "run = bellkit.run_experiment\n"
            "print(json.dumps([codes, before, 'numpy' in sys.modules,\n"
            "                  run is sys.modules['bellkit.simulate'].run_experiment]))\n"
        )
        src = str(Path(bellkit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, json.dumps([argv for argv, _ in calls])],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        codes, before, after, same = json.loads(proc.stdout)
        assert codes == [code for _, code in calls]
        assert (before, after, same) == (False, True, True)

    @pytest.mark.parametrize("argv, code, unloaded, loaded", [
        (["--version"], 0, ["bellkit.stats", "bellkit.bounds", "bellkit.oracle", "bellkit.report",
                            "fractions", "decimal"], []),
        (["analyze", "--tally", "tally.json"], 3,
         ["dataclasses", "inspect", "hashlib", "_hashlib", "bellkit.oracle"], []),
        (["analyze", "--trials", "trials.jsonl"], 0, ["dataclasses", "inspect", "bellkit.oracle"],
         ["hashlib"]),
        # hashlib is imported once the trial file opens, so a missing one maps no OpenSSL
        (["analyze", "--trials", "missing.jsonl"], 1, ["hashlib", "_hashlib", "bellkit.report"], []),
        (["oracle", "--n-per-setting", "2"], 0,
         ["dataclasses", "inspect", "hashlib", "bellkit.bounds", "bellkit.report"], []),
        (["simulate", "--model", "lhv", "--trials", "8", "--out", "out.json"], 0,
         ["hashlib", "concurrent.futures", "bellkit.stats", "bellkit.bounds", "bellkit.oracle",
          "bellkit.report", "fractions", "decimal"], []),
    ], ids=["version", "analyze", "analyze-trials", "analyze-missing-trials", "oracle", "simulate"])
    def test_command_starts_without_unused_modules(self, tmp_path, argv, code, unloaded, loaded):
        """Records are named tuples, so no command loads dataclasses or the inspect it pulls
        in; only `analyze --trials` loads hashlib, once its file opens (a tally file is hashed
        by the builtin SHA-256, without OpenSSL), and only a run of two or more shards its thread pool.
        Each command loads only the bellkit modules it runs: --version none but errors and
        trials, and simulate none of the exact statistics."""
        write_tally(tmp_path / "tally.json", TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0))
        (tmp_path / "trials.jsonl").write_text(
            "".join(serialize_trial_line(TrialRecord(k >> 1, k & 1, 1, 1)) + "\n" for k in range(4)))
        script = (
            "import contextlib, io, json, sys\n"
            "argv, probe = json.loads(sys.argv[1])\n"
            "preloaded = [m for m in probe if m in sys.modules]\n"
            "from bellkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(argv)\n"
            "print(json.dumps([code, [m for m in probe if m in sys.modules and m not in preloaded]]))\n"
        )
        src = str(Path(bellkit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, json.dumps([argv, unloaded + loaded])],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, loaded]

    def test_no_module_imports_dataclasses(self):
        package = Path(bellkit.__file__).parent
        imported = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add(node.module)
        assert "typing" in imported and "dataclasses" not in imported

    def test_no_module_imports_a_private_name(self):
        """No bellkit module imports another's underscore name, and the oracle imports
        nothing from bounds: the count forms they share are stats' integer core."""
        package = Path(bellkit.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom) or not (node.level or node.module.startswith("bellkit")):
                    continue  # not an import from bellkit
                source = (node.module or "").removeprefix("bellkit").lstrip(".")
                for alias in node.names:
                    private = alias.name.startswith("_") and not alias.name.endswith("__")
                    if private or (path.stem == "oracle" and "bounds" in (source, alias.name)):
                        found.append(f"{path.name}: from .{source} import {alias.name}")
        assert found == []
