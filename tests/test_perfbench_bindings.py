"""The benchmark's traced run patches functions by name; each name it
binds must still resolve in the package."""

import importlib
import json
import subprocess
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


TRACER_SCRIPT = """
import json, sys
import spans, worker
worker._import_package()
boundaries = [b for bs in spans.SPAN_BOUNDARIES.values() for b in bs]
boundaries += [b for bs, _, _ in spans.COUNT_BOUNDARIES.values() for b in bs]
before = set(sys.modules)
missing = sorted({m for m, _ in boundaries if m not in sys.modules})
unresolved = []
for boundary in boundaries:
    try:
        spans._resolve(*boundary)
    except (KeyError, AttributeError) as exc:
        unresolved.append([*boundary, repr(exc)])
print(json.dumps({"count": len(boundaries), "missing": missing,
                  "unresolved": unresolved,
                  "imported": sorted(set(sys.modules) - before)}))
"""


def test_trace_boundaries_resolve_after_the_worker_import():
    """The tracer reads each boundary module from ``sys.modules`` without
    importing it, so after the worker's own package import every boundary
    must already be loaded and resolve with no further import."""
    proc = subprocess.run([sys.executable, "-B", "-c", TRACER_SCRIPT],
                          cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["count"]
    assert out == {"count": out["count"], "missing": [], "unresolved": [],
                   "imported": []}
