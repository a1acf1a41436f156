"""Every benchmark workload runs one small and one full-size job to
completion.

The benchmark runner (``perfbench/run.py``) counts a raise inside a
workload stage as a failed check, but a worker that raises outside one (at
import, in ``inputs``, or in a workload's own imports in ``run``), prints
no ``RESULT`` line or passes the deadline exits non-zero and fails the
whole run.  Each case runs one untimed job of one workload, ``--small``
or at the size the benchmark measures, from the repository root, as the
runner does, and leaves no file behind.  A full-size job must also end
within the runner's allowance for one job (``JOB_ALLOWANCE_S``)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact-bound", "exact-scatter", "flow", "divergence")


def _job_allowance_s(monkeypatch):
    """``JOB_ALLOWANCE_S`` of ``perfbench/run.py``, imported without
    writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    del sys.modules["run"], sys.modules["spans"]
    return run.JOB_ALLOWANCE_S


def _out_listing():
    return sorted(p.name for p in OUT.iterdir()) if OUT.is_dir() else None


def _run_one_job(workload, *flags):
    """The jobs of one untimed worker run, checked for failures."""
    before = _out_listing()
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "perfbench/worker.py", "--workload",
             workload, "--seed", "7", "--mode", "run", *flags,
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
    return jobs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_one_small_job(workload):
    _run_one_job(workload, "--small")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_one_full_job(workload, monkeypatch):
    allowance = _job_allowance_s(monkeypatch)
    for job in _run_one_job(workload):
        assert job["wall_s"] < allowance
