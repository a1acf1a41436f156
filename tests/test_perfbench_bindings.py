"""The benchmark's traced run patches functions by name; each name it
binds must still resolve in the package."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_boundaries_resolve(monkeypatch):
    # import perfbench/spans.py without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    del sys.modules["spans"]
    boundaries = [b for bs in spans.SPAN_BOUNDARIES.values() for b in bs]
    boundaries += [b for bs, _, _ in spans.COUNT_BOUNDARIES.values()
                   for b in bs]
    assert boundaries
    for module_name, attr in boundaries:
        importlib.import_module(module_name)
        _, fn = spans._resolve(module_name, attr)
        assert callable(fn), (module_name, attr)
