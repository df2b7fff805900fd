"""Fuzz the CLI in-process: any input bytes and any flag text end in a contract exit code.

Each example calls bellkit.cli.main with stdout and stderr captured and
checks the contract: no exception escapes, the exit code is one its
command may return, exit 1 or 2 writes an error to stderr and nothing to
stdout, and exit 0, 3 or 4 prints JSON. Whatever runs is drawn from small
ranges (trials <= 10^4, shards <= 8, K <= 6), so every example is quick.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bellkit.cli import main
from bellkit.trials import CELL_LABELS, CORR_LABELS

CODES = {"simulate": {0, 1, 2}, "analyze": {0, 1, 2, 3}, "oracle": {0, 2, 4}}
FUZZ = settings(max_examples=100, deadline=None)
SPECIAL_BYTES = [
    b"", b"\xff\xfe\n", b"[" * 100_000, b"9" * 5000, b"\r\r\r", b"{}", b"null",
]
SPECIAL_NUMBERS = [
    "0", "2", "-1", "1e400", "1e-5000", "0e999999999", "1e999999999", "5e-324", "1/3", "1/0",
    "nan", "inf", "sNaN", "1_000", " 0.5 ", "٣", "2.0000000000000000000001", "9" * 5000,
]


def run(command: str, argv: list[str]) -> None:
    """Run main(argv) and check the exit-code contract for command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in CODES[command], (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        assert "error" in err.getvalue(), argv
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue())


def as_int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def flag_text(limit: int | None = None):
    """Arbitrary flag text; when it reads as an integer, that integer is at most limit."""
    text = st.one_of(st.text(max_size=12), st.sampled_from(SPECIAL_NUMBERS))
    if limit is None:
        return text
    return text.filter(lambda t: as_int(t) is None or as_int(t) <= limit)


def fuzzed(valid, invalid=flag_text()):
    """Mostly a valid flag value, else arbitrary text."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda strategy: strategy)


@st.composite
def bell1964_counts(draw) -> str:
    totals = [draw(st.integers(1, 10**6)) for _ in range(3)]
    return ",".join(f"{draw(st.integers(0, total))},{total}" for total in totals)


rarely = st.sampled_from([False, False, False, True])
number_text = st.one_of(
    flag_text(), st.fractions().map(str), st.decimals().map(str), st.floats().map(repr),
    st.lists(st.integers(-2, 2**65), min_size=5, max_size=7).map(lambda xs: ",".join(map(str, xs))),
)
optional_flags = st.lists(
    st.tuples(st.just("--epsilon"), fuzzed(st.fractions(10**-9, 10).map(str), number_text))
    | st.tuples(st.just("--delta"), fuzzed(st.fractions(0, 2).map(str), number_text))
    | st.tuples(st.just("--bell1964"), fuzzed(bell1964_counts(), number_text)),
    max_size=3,
).map(lambda pairs: [f"{flag}={text}" for flag, text in pairs])
angle_text = st.one_of(
    st.lists(st.floats(), min_size=4, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    st.text(max_size=12), st.just("1e308,0,-1e308,0"),
)
count = st.one_of(
    st.integers(-2, 10), st.integers(2**64 - 2, 2**64 + 1), st.floats(), st.booleans(),
    st.none(), st.text(max_size=3),
)


@st.composite
def tally_bytes(draw) -> bytes:
    kind = draw(st.sampled_from(["raw", "special", "fuzzed", "valid"]))
    if kind == "raw":
        return draw(st.binary(max_size=300))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL_BYTES))
    if kind == "fuzzed":
        doc = draw(st.fixed_dictionaries(
            {label: count for label in CELL_LABELS + CORR_LABELS},
            optional={"seed": count, "extra": count},
        ))
    else:
        cells = draw(st.lists(st.integers(1, 12), min_size=4, max_size=4))
        corr = [draw(st.integers(0, cell)) for cell in cells]
        doc = dict(zip(CELL_LABELS + CORR_LABELS, cells + corr))
        doc["seed"] = draw(count)
    return json.dumps(doc).encode()


@st.composite
def trial_bytes(draw) -> tuple[bytes, str]:
    """A trial file and its format: arbitrary bytes, or up to 1,500 lines
    (more distinct lines than read_trials keeps) with any line ending, an
    optional header and arbitrary trailing bytes."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    if draw(rarely):
        return draw(st.one_of(st.binary(max_size=300), st.sampled_from(SPECIAL_BYTES))), fmt
    n = draw(st.integers(0, 1500))
    distinct = draw(st.booleans())
    outcomes = draw(st.lists(
        st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])), min_size=1, max_size=7,
    ))
    lines = []
    for i in range(n):
        s1, s2 = divmod(i % 4, 2)
        o1, o2 = outcomes[i % len(outcomes)]
        if fmt == "jsonl":
            tag = f',"i":{i}' if distinct else ""
            lines.append(f'{{"s1":{s1},"s2":{s2},"o1":{o1},"o2":{o2}{tag}}}')
        else:
            pad1, pad2 = ("0" * (i % 40), "0" * (i // 40)) if distinct else ("", "")
            lines.append(f"{pad1}{s1},{pad2}{s2},{o1},{o2}")
    if fmt == "csv" and draw(st.booleans()):
        lines.insert(0, "s1,s2,o1,o2")
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    tail = draw(fuzzed(st.just(b""), st.binary(max_size=20) | st.sampled_from(SPECIAL_BYTES)))
    return newline.join(lines).encode() + newline.encode() * draw(st.integers(0, 1)) + tail, fmt



@FUZZ
@given(data=tally_bytes(), flags=optional_flags, missing=st.booleans())
def test_analyze_tally(data, flags, missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tally.json"
        if not missing:
            path.write_bytes(data)
        run("analyze", ["analyze", "--tally", str(path), *flags])


@FUZZ
@given(file=trial_bytes(), flags=optional_flags,
       fmt=st.sampled_from([None, None, None, "jsonl", "csv"]), header=rarely)
def test_analyze_trials(file, flags, fmt, header):
    data, written_as = file
    fmt = fmt or written_as
    argv = ["--format", fmt] + (["--header"] if header or fmt == "csv" and data[:1] == b"s" else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.txt"
        path.write_bytes(data)
        run("analyze", ["analyze", "--trials", str(path), *argv, *flags])


@FUZZ
@given(
    model=fuzzed(st.sampled_from(["quantum", "lhv"])),
    trials=st.integers(1, 10**4),
    seed=st.integers(0, 2**64 - 1),
    round_robin=rarely,
    shards=st.none() | fuzzed(st.integers(1, 8).map(str), flag_text(8)),
    emit=st.sampled_from([None, "jsonl", "csv"]),
    missing_dir=rarely,
    angles=st.none() | angle_text,
)
def test_simulate(model, trials, seed, round_robin, shards, emit, missing_dir, angles):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / ("missing" if missing_dir else "") / "t.json"
        argv = ["simulate", f"--model={model}", "--trials", str(trials), "--seed", str(seed),
                "--out", str(out)]
        argv += ["--settings", "round-robin"] if round_robin else []
        argv += [f"--shards={shards}"] if shards is not None else []
        argv += [f"--angles={angles}"] if angles is not None else []
        argv += ["--emit-trials", str(Path(tmp) / "trials"), "--emit-format", emit] if emit else []
        run("simulate", argv)


@settings(max_examples=30, deadline=None)
@given(k=fuzzed(st.integers(1, 6).map(str), flag_text(6)))
def test_oracle(k):
    run("oracle", ["oracle", f"--n-per-setting={k}"])


# --delta texts at each digit and exponent edge, and whether analyze renders them. as_exact
# takes up to 4300 digits and 10^-4300, but what analyze prints (N*Delta/24 with N < 2^66)
# fits Python's 4300-digit int text only for 4280 digits above Delta's fraction bar and
# 4298 below it; past that budget the flag exits 2. The decimal, numerator and denominator
# edges are worst cases: at N = 2^66 - 5, which is prime to 2, 3 and 5, nothing in
# N*Delta/24 cancels, and each budget + 1 text would print a 4301-digit integer.
DELTA_EDGES = [
    pytest.param("0." + "1" * 4299 + "3", False, id="4300-digits"),
    pytest.param("1" * 4300 + "/2" + "0" * 4299, False, id="4300-digits-over-2e4299"),
    pytest.param("0." + "9" * 4279 + "7", True, id="decimal-budget"),
    pytest.param("0." + "9" * 4280 + "7", False, id="decimal-budget+1"),
    pytest.param("9" * 4279 + "7/2" + "0" * 4280, True, id="numerator-budget"),
    pytest.param("9" * 4280 + "7/2" + "0" * 4281, False, id="numerator-budget+1"),
    pytest.param("1" + "0" * 4278 + "1/" + "9" * 4298, True, id="denominator-budget"),
    pytest.param("1" + "0" * 4278 + "1/" + "9" * 4299, False, id="denominator-budget+1"),
    pytest.param("9" * 4280 + "e-4297", True, id="exponent-budget"),
    pytest.param("9" * 4280 + "e-4298", False, id="exponent-budget+1"),
    pytest.param("5e-324", True, id="smallest-float"),
    pytest.param("1e-4300", False, id="below-the-float-range"),
    pytest.param("1e4300", False, id="above-2"),
    pytest.param("1e4301", False, id="past-the-number-rule"),
]


@pytest.mark.parametrize("text, renders", DELTA_EDGES)
@pytest.mark.parametrize("cells", [(4,) * 4, (2**64 - 1,) * 3 + (2**64 - 2,)],
                         ids=["small-counts", "largest-counts"])
def test_delta_at_digit_edges(tmp_path, text, renders, cells):
    path = tmp_path / "tally.json"
    path.write_text(json.dumps({**dict(zip(CELL_LABELS, cells)),
                                **dict(zip(CORR_LABELS, cells[:3] + (0,)))}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--tally", str(path), f"--delta={text}"])
    assert code == (3 if renders else 2), err.getvalue()[-300:]
    if renders:
        assert json.loads(out.getvalue())["bounds"]["delta_exact"] == str(Fraction(text))
    else:
        assert "argument --delta" in err.getvalue() and out.getvalue() == ""
