"""The traced benchmark run wraps hoicompose functions by name; a rename there
would break that run without failing any other test."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = []
    for module, function, _ in layers.TARGETS:
        target = getattr(importlib.import_module(f"hoicompose.{module}"), function, None)
        if not callable(target):
            missing.append(f"hoicompose.{module}.{function}")
    assert not missing, missing
