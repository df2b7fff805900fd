"""Every exported name and every function the benchmark tracer wraps exists.

perfbench/tracing.py reports a target it cannot find as absent and its
metrics as null, so a deletion or rename would otherwise pass unnoticed.
Its TARGETS table is read with ast; perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import bellkit

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
