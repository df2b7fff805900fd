"""Every exported name and every function the benchmark tracer wraps exists.

perfbench/tracing.py reports a target it cannot find as absent and its
metrics as null, so a deletion or rename would otherwise pass unnoticed.
Its TARGETS table is read with ast; perfbench itself is not imported.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit
from bellkit import TallyTable, write_tally

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every TARGETS entry in perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS table in {TRACING}")


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_public_names_resolve():
    assert [name for name in bellkit.__all__ if not hasattr(bellkit, name)] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bellkit import *", namespace)
    assert [name for name in bellkit.__all__ if name not in namespace] == []


def test_lazy_lookup_refuses_private_simulate_names():
    with pytest.raises(AttributeError):
        bellkit.trial_arrays  # a simulate name that bellkit does not export


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    assert [target for target in targets if not resolves(*target)] == []


# Wraps each of `counted` as perfbench/tracing.py does: after importing bellkit.cli and
# bellkit.simulate, import each target's module in TARGETS order and note every bellkit
# module loaded at that moment that binds the target; replace the target in those modules
# only once all are noted, then print each command's exit code and calls.
TRACER_PROBE = """
import contextlib, importlib, io, json, sys
import bellkit.cli, bellkit.simulate
targets, counted, commands = json.loads(sys.argv[1])
calls = dict.fromkeys(counted, 0)

def wrap(attr, original):
    def call(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)
    return call

patches = []
for module, attr in targets:
    owner = importlib.import_module(module)
    if attr in counted:
        original = getattr(owner, attr)
        wrapper = wrap(attr, original)
        patches += [(mod, attr, wrapper) for name, mod in list(sys.modules.items())
                    if name.split(".")[0] == "bellkit" and getattr(mod, attr, None) is original]
for mod, attr, wrapper in patches:
    setattr(mod, attr, wrapper)
seen = []
for argv in commands:
    before = dict(calls)
    with contextlib.redirect_stdout(io.StringIO()):
        code = bellkit.cli.main(argv)
    seen.append([code, {attr: calls[attr] - before[attr] for attr in counted}])
print(json.dumps(seen))
"""


def test_tracer_sees_every_call_of_its_targets(tmp_path):
    """A module the tracer loads after it wraps a target reaches the target through
    its module, so no call goes unseen: the oracle sends the 385 check points of its 715
    violating tallies at K = 10 through chsh_statistic, and analyze calls bounds_report once."""
    write_tally(tmp_path / "tally.json", TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0))
    counted = ["chsh_statistic", "bounds_report"]
    commands = [["oracle", "--n-per-setting", "10"], ["analyze", "--tally", "tally.json"]]
    src = str(Path(bellkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_PROBE, json.dumps([tracer_targets(), counted, commands])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, {"chsh_statistic": 385, "bounds_report": 0}],
        [3, {"chsh_statistic": 1, "bounds_report": 1}],
    ]
