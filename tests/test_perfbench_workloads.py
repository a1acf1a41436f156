"""Every benchmark workload runs one small job to completion.

The benchmark runner (``perfbench/run.py``) counts a raise inside a
workload stage as a failed check, but a worker that raises outside one (at
import, in ``inputs``, or in a workload's own imports in ``run``), prints
no ``RESULT`` line or passes the deadline exits non-zero and fails the
whole run.  Each case runs one untimed ``--small`` job of one workload from
the repository root, as the runner does, and leaves no file behind."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact-bound", "exact-scatter", "flow", "divergence")


def _out_listing():
    return sorted(p.name for p in OUT.iterdir()) if OUT.is_dir() else None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_one_small_job(workload):
    before = _out_listing()
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "perfbench/worker.py", "--workload",
             workload, "--seed", "7", "--mode", "run", "--small",
             "--seconds", "0"],
            cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, timeout=300)
    finally:
        # the worker makes perfbench/out for its job directory
        if before is None and OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [line for line in proc.stdout.splitlines()
               if line.startswith("RESULT ")]
    assert len(results) == 1, proc.stdout[-3000:]
    jobs = json.loads(results[0][len("RESULT "):])["jobs"]
    assert jobs
    for job in jobs:
        assert job["attempted"] > 0
        assert job["failed"] == 0, job["failures"]
        dps_before, dps_after = job["dps_before_after"]
        assert dps_before == dps_after
    assert _out_listing() == before
