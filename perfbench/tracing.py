"""Traced per-module run: spans around bellkit's public functions.

The tracer replaces each function named in TARGETS, in every bellkit
namespace that binds it, with a wrapper that records a span (name, step
kind, start, end, parent span, busy seconds, items). Generator functions
are timed across their whole iteration: busy time is the time spent inside
their next() calls, and items counts what they yield. A recursive call
folds into the caller's span. Per-item functions such as parse_trial_line
are not wrapped; their work shows as items of the generator that calls
them. A function that no longer exists is reported absent, and every
metric that needs it reads null.

The run replays every workload's steps through bellkit.cli.main in this
process four times: a warm-up, then traced, untraced and traced again. The
traced/untraced ratio per workload is the tracing overhead, and the exact
counts of the two traced replays must agree.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import reference as ref
import workloads as wl

# (span name, module, attribute, items of a plain call or None)
TARGETS = (
    ("rng.trial_words", "bellkit.rng", "trial_words", len),
    ("simulate.trial_arrays", "bellkit.simulate", "trial_arrays", None),
    ("simulate.tally_for_range", "bellkit.simulate", "tally_for_range", None),
    ("simulate.run_experiment", "bellkit.simulate", "run_experiment", None),
    ("trials.read_trials", "bellkit.trials", "read_trials", None),
    ("trials.tally_from_trials", "bellkit.trials", "tally_from_trials", None),
    ("trials.merge_tallies", "bellkit.trials", "merge_tallies", None),
    ("trials.load_tally", "bellkit.trials", "load_tally", None),
    ("trials.write_tally", "bellkit.trials", "write_tally", None),
    ("stats.chsh_statistic", "bellkit.stats", "chsh_statistic", None),
    ("bounds.nosignalling_deltas", "bellkit.bounds", "nosignalling_deltas", None),
    ("bounds.bounds_report", "bellkit.bounds", "bounds_report", None),
    ("oracle.enumerate", "bellkit.oracle", "enumerate_uniform_tallies", None),
    ("oracle.verify", "bellkit.oracle", "verify_necessary_conditions", None),
    ("report.build_analysis_report", "bellkit.report", "build_analysis_report", None),
    ("report.render", "bellkit.report", "AnalysisReport.to_dict", None),
    ("cli.simulate", "bellkit.cli", "cmd_simulate", None),
    ("cli.analyze", "bellkit.cli", "cmd_analyze", None),
    ("cli.oracle", "bellkit.cli", "cmd_oracle", None),
)

SPAN_FIELDS = ("name", "kind", "start", "end", "parent", "busy_s", "items")
SHARD_REPEATS = 3
IMPORT_REPEATS = 3


class Tracer:
    """Wraps TARGETS and keeps the spans they record in memory.

    Each thread has its own stack of open spans, so shard worker threads
    record correct spans; a span opened in a worker has no parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.kind: str | None = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, attr, count in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            if path:
                self._patches.append((owner, leaf, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "bellkit" or mod_name.startswith("bellkit.")) and \
                        getattr(mod, leaf, None) is original:
                    self._patches.append((mod, leaf, original, wrapper))

    def install(self) -> None:
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)

    def take(self) -> list[list]:
        """The spans recorded so far, with each parent given as its index (-1 for none)."""
        spans, self.spans = self.spans, []
        index = {id(span): i for i, span in enumerate(spans)}
        for span in spans:
            span[4] = -1 if span[4] is None else index[id(span[4])]
        return spans

    def _open(self, name: str) -> tuple[list | None, list]:
        """A new span under this thread's innermost open one, and the thread's stack.

        The span is None inside a span of the same name: recursion folds
        into the outer call.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == name:
            return None, stack
        span = [name, self.kind, 0.0, 0.0, parent, 0.0, 0]
        self.spans.append(span)
        return span, stack

    def _wrap(self, name, fn, count):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def iterate(inner):
                span, stack = tracer._open(name)
                if span is None:
                    yield from inner
                    return
                span[2] = perf_counter()
                while True:
                    stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        span[3] = t1
                        span[5] += t1 - t0
                    span[6] += 1
                    yield item

            def generator(*args, **kwargs):
                return iterate(fn(*args, **kwargs))

            return generator

        def call(*args, **kwargs):
            span, stack = tracer._open(name)
            if span is None:
                return fn(*args, **kwargs)
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[5] = span[3] - span[2]
                stack.pop()
            if count is not None:
                span[6] = count(result)
            return result

        return call


class Spans:
    """Sums over the spans of one replay, selected by name and step kind."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_busy = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                self.child_busy[span[4]] += span[5]

    def _select(self, name, kinds):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] == name and s[1] in kinds]

    def calls(self, name, kinds) -> int:
        return len(self._select(name, kinds))

    def items(self, name, kinds) -> int:
        return sum(s[6] for _, s in self._select(name, kinds))

    def busy(self, name, kinds) -> float:
        return sum(s[5] for _, s in self._select(name, kinds))

    def self_s(self, name, kinds) -> float:
        return sum(s[5] - self.child_busy[i] for i, s in self._select(name, kinds))

    def busy_each(self, name, kinds) -> list[float]:
        return [s[5] for _, s in self._select(name, kinds)]


def _ratio(num, den):
    return num / den if num is not None and den else None


QUANTUM, SIMULATE = {"sim_quantum"}, {"sim_quantum", "sim_lhv"}
EMIT, INGEST = {"emit"}, {"ingest_jsonl", "ingest_csv"}
ORACLE, ANALYZE = {"oracle"}, {"analyze"}
SHARDS = ("shards1", "shards2")

# (metric, unit, better, spans it needs)
LAYER_METRICS = (
    ("rng.trial_words.calls", "count", "lower", ("rng.trial_words",)),
    ("rng.words", "count", "lower", ("rng.trial_words",)),
    ("rng.words_per_trial", "count", "lower", ("rng.trial_words",)),
    ("rng.emit_words_per_trial", "count", "lower", ("rng.trial_words",)),
    ("rng.trial_words.s", "s", "lower", ("rng.trial_words",)),
    ("rng.words_per_s", "1/s", "higher", ("rng.trial_words",)),
    ("simulate.trial_arrays.self_s", "s", "lower", ("simulate.trial_arrays",)),
    ("simulate.tally_for_range.self_s", "s", "lower", ("simulate.tally_for_range",)),
    ("simulate.run_experiment.s", "s", "lower", ("simulate.run_experiment",)),
    ("simulate.trials_per_s", "1/s", "higher", ("simulate.run_experiment",)),
    ("simulate.shard2_speedup", "ratio", "higher", ("simulate.run_experiment",)),
    ("trials.read_trials.s", "s", "lower", ("trials.read_trials",)),
    ("trials.parse_lines", "count", "higher", ("trials.read_trials",)),
    ("trials.parse_lines_per_s", "1/s", "higher", ("trials.read_trials",)),
    ("trials.tally_from_trials.self_s", "s", "lower", ("trials.tally_from_trials",)),
    ("trials.merge_tallies.calls", "count", "lower", ("trials.merge_tallies",)),
    ("trials.load_tally.s", "s", "lower", ("trials.load_tally",)),
    ("trials.write_tally.s", "s", "lower", ("trials.write_tally",)),
    ("trials.ingest_read_ratio", "ratio", "lower", ()),
    ("stats.chsh_statistic.calls", "count", "lower", ("stats.chsh_statistic",)),
    ("stats.chsh_statistic.s", "s", "lower", ("stats.chsh_statistic",)),
    ("stats.chsh_per_s", "1/s", "higher", ("stats.chsh_statistic",)),
    ("bounds.nosignalling_deltas.calls", "count", "lower", ("bounds.nosignalling_deltas",)),
    ("bounds.nosignalling_deltas.s", "s", "lower", ("bounds.nosignalling_deltas",)),
    ("bounds.bounds_report.s", "s", "lower", ("bounds.bounds_report",)),
    ("oracle.enumerate.s", "s", "lower", ("oracle.enumerate",)),
    ("oracle.verify.self_s", "s", "lower", ("oracle.verify",)),
    ("oracle.tallies", "count", "higher", ("oracle.enumerate",)),
    ("oracle.tallies_per_s", "1/s", "higher", ("oracle.enumerate", "oracle.verify")),
    ("report.build_analysis_report.self_s", "s", "lower", ("report.build_analysis_report",)),
    ("report.render_s", "s", "lower", ("report.render",)),
    ("cli.import_s", "s", "lower", ()),
    ("cli.numpy_loaded", "count", "lower", ()),
    ("cli.emit.self_s", "s", "lower", ("cli.simulate",)),
    ("cli.analyze.self_s", "s", "lower", ("cli.analyze",)),
) + tuple(
    (f"trace.{name}.overhead", "ratio", "lower", ()) for name in wl.WORKLOADS
)

# Counts that depend only on the workload sizes, so every replay must repeat them.
EXACT_COUNTS = ("rng.words_per_trial", "rng.trial_words.calls", "trials.parse_lines", "oracle.tallies")


def layer_values(s: Spans, trials: dict, extra: dict) -> dict:
    """Per-layer metric values from one traced replay plus measurements made beside it."""
    words = s.items("rng.trial_words", QUANTUM)
    words_s = s.busy("rng.trial_words", QUANTUM)
    run_s = s.busy("simulate.run_experiment", SIMULATE)
    read_s = s.busy("trials.read_trials", INGEST)
    lines = s.items("trials.read_trials", INGEST)
    chsh_s = s.busy("stats.chsh_statistic", ORACLE)
    tallies = s.items("oracle.enumerate", ORACLE)
    one, two = (s.busy_each("simulate.run_experiment", {kind}) for kind in SHARDS)
    return {
        "rng.trial_words.calls": s.calls("rng.trial_words", QUANTUM),
        "rng.words": words,
        "rng.words_per_trial": _ratio(words, trials["sim_quantum"]),
        "rng.emit_words_per_trial": _ratio(s.items("rng.trial_words", EMIT), trials["emit"]),
        "rng.trial_words.s": words_s,
        "rng.words_per_s": _ratio(words, words_s),
        "simulate.trial_arrays.self_s": s.self_s("simulate.trial_arrays", SIMULATE),
        "simulate.tally_for_range.self_s": s.self_s("simulate.tally_for_range", SIMULATE),
        "simulate.run_experiment.s": run_s,
        "simulate.trials_per_s": _ratio(trials["sim_quantum"] + trials["sim_lhv"], run_s),
        "simulate.shard2_speedup":
            _ratio(statistics.median(one), statistics.median(two)) if one and two else None,
        "trials.read_trials.s": read_s,
        "trials.parse_lines": lines,
        "trials.parse_lines_per_s": _ratio(lines, read_s),
        "trials.tally_from_trials.self_s": s.self_s("trials.tally_from_trials", INGEST),
        "trials.merge_tallies.calls": s.calls("trials.merge_tallies", set(SHARDS)),
        "trials.load_tally.s": s.busy("trials.load_tally", ANALYZE),
        "trials.write_tally.s": s.busy("trials.write_tally", SIMULATE),
        "stats.chsh_statistic.calls": s.calls("stats.chsh_statistic", ORACLE),
        "stats.chsh_statistic.s": chsh_s,
        "stats.chsh_per_s": _ratio(s.calls("stats.chsh_statistic", ORACLE), chsh_s),
        "bounds.nosignalling_deltas.calls": s.calls("bounds.nosignalling_deltas", ORACLE),
        "bounds.nosignalling_deltas.s": s.busy("bounds.nosignalling_deltas", ORACLE),
        "bounds.bounds_report.s": s.busy("bounds.bounds_report", ANALYZE),
        "oracle.enumerate.s": s.busy("oracle.enumerate", ORACLE),
        "oracle.verify.self_s": s.self_s("oracle.verify", ORACLE),
        "oracle.tallies": tallies,
        "oracle.tallies_per_s": _ratio(tallies, s.busy("oracle.verify", ORACLE)),
        "report.build_analysis_report.self_s": s.self_s("report.build_analysis_report", ANALYZE),
        "report.render_s": s.busy("report.render", ANALYZE),
        "cli.emit.self_s": s.self_s("cli.simulate", EMIT),
        "cli.analyze.self_s": s.self_s("cli.analyze", INGEST),
        **extra,
    }


IMPORT_PROBE = (
    "import time\nt = time.perf_counter()\nimport bellkit.cli\nprint(time.perf_counter() - t)"
)
NUMPY_PROBE = (
    "import contextlib, io, sys\nfrom bellkit.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n    rc = main(sys.argv[1:])\n"
    "print(rc, int('numpy' in sys.modules))"
)


def _rchar() -> int | None:
    """Bytes this process has read so far, from /proc/self/io; None where unavailable."""
    try:
        with open("/proc/self/io") as handle:
            return next(int(line.split()[1]) for line in handle if line.startswith("rchar:"))
    except (OSError, StopIteration, ValueError):
        return None


def run_traced(seed: int, wd: Path, spawn) -> tuple[dict, int, list[str], dict]:
    """Replay every workload in-process; return (per-layer values, attempted, errors, record).

    spawn(args, wd) runs `python <args>` in a fresh interpreter and returns
    its exit code and stdout; it serves the import and numpy probes.
    """
    import bellkit.cli
    import bellkit.simulate

    steps = {}
    for name, setup in wl.WORKLOADS.items():
        (wd / name).mkdir()
        steps[name] = [step for one_pass in setup(seed, wd / name, wl.TRACED) for step in one_pass]
    trials = {step.kind: step.items for seq in steps.values() for step in seq}
    tracer = Tracer()
    errors: list[str] = []
    attempted = 0

    def run_step(name, step) -> tuple[float, int | None]:
        """Wall seconds of one in-process CLI call and the bytes it read."""
        nonlocal attempted
        attempted += 1
        tracer.kind = step.kind
        out = io.StringIO()
        read0 = _rchar()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = bellkit.cli.main(list(step.argv))
        except Exception as exc:  # a crash is a failed step, not the end of the run
            errors.append(f"{name}/{step.kind}: raised {exc!r}")
            return perf_counter() - t0, None
        wall = perf_counter() - t0
        read1 = _rchar()
        problem = step.check(rc, out.getvalue())
        if problem:
            errors.append(f"{name}/{step.kind}: {problem}")
        return wall, None if read0 is None or read1 is None else read1 - read0

    def replay(traced: bool) -> tuple[dict, float | None]:
        walls = dict.fromkeys(steps, 0.0)
        read_ratio = None
        if traced:
            tracer.install()
        try:
            for name, seq in steps.items():
                for step in seq:
                    wall, read = run_step(name, step)
                    walls[name] += wall
                    if step.kind == "ingest_jsonl" and read is not None:
                        read_ratio = read / Path(step.argv[-1]).stat().st_size
        finally:
            tracer.uninstall()
        return walls, read_ratio

    def shard_runs() -> None:
        """run_experiment with 1 and 2 shards, alternating; needs 2 CPUs for 2 threads."""
        nonlocal attempted
        if len(os.sched_getaffinity(0)) < 2:
            return
        cfg = bellkit.simulate.SimulationConfig(
            model="quantum", theta_a0=ref.CHSH_MAX_ANGLES[0], theta_a1=ref.CHSH_MAX_ANGLES[1],
            theta_b0=ref.CHSH_MAX_ANGLES[2], theta_b1=ref.CHSH_MAX_ANGLES[3],
            trials=wl.TRACED.quantum, seed=seed)
        tallies = set()
        tracer.install()
        try:
            for _ in range(SHARD_REPEATS):
                for shards, kind in zip((1, 2), SHARDS):
                    attempted += 1
                    tracer.kind = kind
                    tallies.add(bellkit.simulate.run_experiment(cfg, shards=shards).tally)
        finally:
            tracer.uninstall()
        if len(tallies) != 1:
            errors.append("simulate: the shard count changed the tally")

    replay(traced=False)  # warm-up: first-call allocations and caches
    walls1, read_ratio = replay(traced=True)
    shard_runs()
    spans1 = tracer.take()
    walls0, _ = replay(traced=False)
    walls2, _ = replay(traced=True)
    spans2 = tracer.take()

    import_times = []
    for _ in range(IMPORT_REPEATS):
        attempted += 1
        rc, stdout = spawn(["-c", IMPORT_PROBE], wd)
        if rc == 0:
            import_times.append(float(stdout))
        else:
            errors.append(f"import probe exited {rc}")
    attempted += 1
    rc, stdout = spawn(["-c", NUMPY_PROBE, *steps["analyze_tally"][0].argv], wd)
    probe = stdout.split()
    numpy_loaded = int(probe[1]) if rc == 0 and len(probe) == 2 else None
    if numpy_loaded is None or probe[0] not in ("0", "1", "3"):
        errors.append(f"numpy probe failed: exit {rc}, stdout {stdout!r}")

    extra = {
        "trials.ingest_read_ratio": read_ratio,
        "cli.import_s": statistics.median(import_times) if import_times else None,
        "cli.numpy_loaded": numpy_loaded,
        **{f"trace.{name}.overhead": (walls1[name] + walls2[name]) / 2 / walls0[name] - 1
           for name in steps},
    }
    values = layer_values(Spans(spans1), trials, extra)
    repeat = layer_values(Spans(spans2), trials, extra)
    for name in EXACT_COUNTS:
        if values[name] != repeat[name]:
            errors.append(f"{name} differs between traced replays: {values[name]} vs {repeat[name]}")
    for name, _, _, needs in LAYER_METRICS:
        if set(needs) & set(tracer.absent):
            values[name] = None
    record = {
        "absent": tracer.absent,
        "walls_s": {"traced_1": walls1, "untraced": walls0, "traced_2": walls2},
        "span_fields": SPAN_FIELDS,
        "spans": {"traced_1": spans1, "traced_2": spans2},
    }
    return values, attempted, errors, record
