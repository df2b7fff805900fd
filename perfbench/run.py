"""bellkit benchmark: drives the real CLI as one closed-loop client.

Run from the root of a bellkit checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

--workload is one of simulate, trial_file, oracle, analyze_tally, or all.
With --trace 0 each CLI call is a child process (`python -m bellkit.cli`,
with src/ on PYTHONPATH), started only after the previous one has exited;
the run prints the end-to-end metrics. With --trace 1 it replays every
workload in-process with spans around each module's functions and prints
the per-layer metrics. Every output is checked. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A fuller
record (environment, every call, spans) is written under .bench_out/.
See perfbench/README.md for the metrics and the reasons for each workload.
"""

from __future__ import annotations

import os

# bellkit uses no BLAS. One OpenBLAS thread keeps numpy's import from adding
# threads, so no process here runs more threads than there are CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END = {  # metric: (unit, better)
    "setup_s": ("s", "lower"),
    "items_per_s": ("items/s", "higher"),
    "pass_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-step throughput under the names the benchmark doc uses: (metric, scale, unit).
STEP_RATES = {
    "sim_quantum": ("sim_quantum_mtrials_per_s", 1e6, "M trials/s"),
    "sim_lhv": ("sim_lhv_mtrials_per_s", 1e6, "M trials/s"),
    "emit": ("emit_klines_per_s", 1e3, "k lines/s"),
    "ingest_jsonl": ("ingest_jsonl_klines_per_s", 1e3, "k lines/s"),
    "ingest_csv": ("ingest_csv_klines_per_s", 1e3, "k lines/s"),
    "oracle": ("oracle_ktallies_per_s", 1e3, "k tallies/s"),
}


@dataclass
class Call:
    kind: str
    pass_index: int
    rc: int
    wall_s: float
    maxrss_kb: int
    error: str | None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Launcher:
    """Runs `python <args>` children through launcher.py, one at a time.

    The launcher reports each child's exit code, wall time and peak RSS
    from wait4: that child's own, where RUSAGE_CHILDREN would give the
    largest over every child so far.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def run(self, args: list[str], wd: Path) -> tuple[int, float, int, str, str]:
        """(exit code, wall s, peak RSS KiB, stdout, stderr) of one call."""
        out, err = wd / "stdout", wd / "stderr"
        request = {"argv": [sys.executable, *args], "env": _child_env(), "stdout": str(out),
                   "stderr": str(err), "timeout_s": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["rc"] is None:
            raise RuntimeError(f"killed after {CALL_TIMEOUT_S} s: {' '.join(args)}")
        return (reply["rc"], reply["wall_s"], reply["maxrss_kb"],
                out.read_text(errors="replace"), err.read_text(errors="replace"))

    def close(self, kill: bool) -> None:
        """Stop the launcher; with kill, also any call it is running."""
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            return next((line.split(":", 1)[1].strip() for line in handle
                         if line.startswith("model name")), None)
    except OSError:
        return None


def environment(bellkit_version: str) -> dict:
    return {
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bellkit": bellkit_version,
        "git_commit": _git_commit(),
        "page_cache": "warm: ingest reads hit the page cache; the benchmark drops no "
                      "caches and changes no machine setting",
        "clients": "one closed-loop client; one child process at a time",
    }


def _tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    None while that percentile would not lie above the median.
    """
    if len(values) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_timed(name: str, seed: int, seconds: float, wd: Path, spawn) -> dict:
    """Set up several times, then run passes until the next would overrun `seconds`."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        passes = wl.WORKLOADS[name](seed, wd, wl.TIMED)
        rc, _, _, version, stderr = spawn(["-m", "bellkit.cli", "--version"], wd)
        setup_times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"bellkit does not start: exit {rc}\n{stderr}")

    calls: list[Call] = []
    start = time.perf_counter()
    last = 0.0
    index = 0
    while index == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for step in passes[index % len(passes)]:
            rc, wall, rss, stdout, stderr = spawn(["-m", "bellkit.cli", *step.argv], wd)
            error = "traceback on stderr" if "Traceback" in stderr else step.check(rc, stdout)
            calls.append(Call(step.kind, index, rc, wall, rss, error))
        last = time.perf_counter() - t0
        index += 1

    items = {step.kind: step.items for one_pass in passes for step in one_pass}
    pass_walls = [sum(c.wall_s for c in calls if c.pass_index == i) for i in range(index)]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": sum(items[c.kind] for c in calls) / sum(c.wall_s for c in calls),
        "pass_p50_ms": 1000.0 * statistics.median(pass_walls),
        "peak_rss_mb": max(c.maxrss_kb for c in calls) / 1024.0,
    }
    detail = {}
    for kind in dict.fromkeys(c.kind for c in calls):
        mine = [c for c in calls if c.kind == kind]
        if kind in STEP_RATES:
            metric, scale, unit = STEP_RATES[kind]
            rate = len(mine) * items[kind] / sum(c.wall_s for c in mine) / scale
            detail[metric] = {"value": rate, "unit": unit, "better": "higher"}
        else:
            walls = [1000.0 * c.wall_s for c in mine]
            detail["analyze_p50_ms"] = {"value": statistics.median(walls), "unit": "ms",
                                        "better": "lower"}
            tail = _tail(walls)
            detail["analyze_tail_ms"] = {
                "value": tail[0] if tail else None, "unit": "ms", "better": "lower",
                "percentile": tail[1] if tail else None, "samples": len(walls)}
    failed = sum(c.error is not None for c in calls)
    detail["failed_ops_ratio"] = {"value": failed / len(calls), "unit": "ratio",
                                  "better": "lower"}
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": len(calls),
        "errors": [f"pass {c.pass_index} {c.kind}: {c.error}" for c in calls if c.error],
        "bellkit": version.strip(),
        "setup_times_s": setup_times,
        "calls": [c.__dict__ for c in calls],
    }


def _print_metric(name: str, value, unit: str, better: str, note: str = "") -> None:
    shown = "absent" if value is None else f"{value:.6g}"
    print(f"  {name:<38} {shown:>14} {unit:<12} {better} is better{note}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (SRC / "bellkit" / "__init__.py").is_file():
        print(f"error: no bellkit sources under {SRC}; run from a bellkit checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wd = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wd.mkdir()
    if not args.trace:
        # One CPU for this process, the launcher and every call: the calls are
        # single-threaded, and a CPU that changes between calls adds noise.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher()
    finished = False
    try:
        if args.trace:
            status = _traced(args, wd, launcher.run)
        else:
            names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
            status = _timed(args, names, wd, launcher.run)
        finished = True
        return status
    finally:
        launcher.close(kill=not finished)
        shutil.rmtree(wd, ignore_errors=True)


def _timed(args, names: list[str], wd: Path, spawn) -> int:
    results = {}
    for name in names:
        (wd / name).mkdir()
        results[name] = result = run_timed(name, args.seed, args.seconds, wd / name, spawn)
        env = environment(result["bellkit"])
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"calls {result['attempted']}")
        print("env " + json.dumps(env))
        print(" end-to-end:")
        for metric, (unit, better) in END_TO_END.items():
            _print_metric(metric, result["metrics"][metric], unit, better)
        print(" per step:")
        for metric, d in result["detail"].items():
            note = (f"  (p{d['percentile']:.1f} of {d['samples']} calls)"
                    if d.get("percentile") else "")
            _print_metric(metric, d["value"], d["unit"], d["better"], note)
        for error in result["errors"]:
            print(f"  FAILED {error}")
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "environment": env, **result}
        (OUT / f"{name}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["errors"]) for r in results.values())
    metrics = {
        (metric if len(names) == 1 else f"{name}/{metric}"): (r["metrics"][metric], unit)
        for name, r in results.items() for metric, (unit, _) in END_TO_END.items()
    }
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


def _traced(args, wd: Path, spawn) -> int:
    sys.path.insert(0, str(SRC))
    import bellkit

    if Path(bellkit.__file__).resolve().parent != (SRC / "bellkit").resolve():
        print(f"error: imported bellkit from {bellkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    values, attempted, errors, record = tracing.run_traced(
        args.seed, wd, lambda probe_args, probe_wd: spawn(probe_args, probe_wd)[::3])
    env = environment(f"bellkit {bellkit.__version__}")
    print(f"traced run  seed {args.seed}  (replays all workloads; --workload is recorded only)")
    print("env " + json.dumps(env))
    for name, unit, better, _ in tracing.LAYER_METRICS:
        _print_metric(name, values[name], unit, better)
    for name in record["absent"]:
        print(f"  ABSENT {name}")
    for error in errors:
        print(f"  FAILED {error}")
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "metrics": values, "errors": errors, **record}
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
    metrics = {name: (values[name], unit) for name, unit, _, _ in tracing.LAYER_METRICS}
    print(_result_line(not errors, attempted, len(errors), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
