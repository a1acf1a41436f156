"""Benchmark for ispflow: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): exact-bound, exact-scatter, flow, divergence.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``       median time of one fully checked job;
* ``setup_s``      median, over eight fresh interpreters (seven that only
                   set up, and the one that runs the jobs), of the time
                   from process start until the first op is ready
                   (imports and inputs);
* ``peak_rss_mb``  peak resident memory of the process that ran the jobs;
* ``op_p50_ms``, ``op_p90_ms``  latency percentiles of the ops (a
                   derivation stage on the exact workloads, a root solve
                   on flow, a second-order classification on divergence).

Every time in the result line is at reference host speed (hostspeed.py):
each worker samples the host's speed ten times a second, and a time is
the speed integrated over its interval, because the shared hosts this
runs on change speed by up to 2x within minutes.  The printed summary
shows the raw times next to them, and the op each percentile is.

Jobs repeat, one at a time, while the next is expected to end within
``--seconds`` (at least one job runs).  ``failed_frac`` (failed checks
over attempted checks, counting the published-table mismatch on
divergence) is printed with its base.  With ``--trace 1`` one process runs
an untraced, a traced and an untraced job; the run reports the per-layer
metrics of the traced job (seconds at reference host speed and exact
counts) and ``trace.overhead_frac``, its time over the following
untraced job's, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
built from ``src/`` in this checkout; without it the run fails with a
non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("exact-bound", "exact-scatter", "flow", "divergence")
SETUP_PROBES = 7          # fresh interpreters that only set up
# time allowed for the set-up probes, and for one job at half the
# reference host speed with tracing on; a run that passes its deadline
# (see ``deadline_s``) fails
SETUP_ALLOWANCE_S = 30
JOB_ALLOWANCE_S = 40

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_p90_ms": "ms"}

# single-threaded numeric libraries, and a fixed hash seed
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


def run_worker(args, mode, deadline, extra=()):
    """Start a worker; return its set-up time, raw and at reference host
    speed, and its result."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--mode", mode, *extra,
            "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            env=CHILD_ENV)
    out = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError(f"{mode} worker passed the deadline")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    setup = [tuple(map(float, l.split()[1:])) for l in lines
             if l.startswith("SETUP ")]
    results = [json.loads(l[len("RESULT "):]) for l in lines
               if l.startswith("RESULT ")]
    if proc.returncode != 0 or not setup:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    if mode != "probe" and not results:
        raise BenchError(f"{mode} worker printed no result")
    return setup[0], (results[0] if results else None)


def percentile(ops, q):
    """Nearest-rank percentile of (latency, op name) pairs: the pair of
    rank ceil(q n / 100).  It is always a measured op, so on the exact
    workloads, whose jobs have three ops of different stages each, it falls
    on the same stage however many jobs fit in the run."""
    return sorted(ops)[math.ceil(q * len(ops) / 100) - 1]


def source_record():
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def tally(result):
    jobs = result["jobs"]
    return (sum(j["attempted"] for j in jobs), sum(j["failed"] for j in jobs),
            sum(j["published_failed"] for j in jobs))


def describe(result, args):
    jobs = result["jobs"]
    print(f"inputs (seed {args.seed}): {result['inputs']}")
    print("env: " + json.dumps({**source_record(), **result["env"]},
                               sort_keys=True))
    dps = sorted({tuple(j["dps_before_after"]) for j in jobs})
    print("job wall s, raw -> at reference host speed: " + ", ".join(
        f"{j['wall_s']:.3f} -> {j['wall_ref_s']:.3f}" for j in jobs))
    print(f"jobs: {len(jobs)}; mp.dps before -> after a job: "
          + ", ".join(f"{a} -> {b}" for a, b in dps)
          + f"; IntegrationWarnings per job: "
          f"{sorted({j['integration_warnings'] for j in jobs})}")
    for j in jobs:
        for failure in j["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)


def end_to_end(args, deadline):
    setups = [run_worker(args, "probe", deadline)[0]
              for _ in range(SETUP_PROBES)]
    setup, result = run_worker(args, "run", deadline)
    setups.append(setup)
    describe(result, args)
    jobs = result["jobs"]
    raw = [(x * 1e3, name) for j in jobs
           for x, name in zip(j["latencies_s"], j["op_names"])]
    ref = [(x * 1e3, name) for j in jobs
           for x, name in zip(j["latencies_ref_s"], j["op_names"])]
    p50, p50_op = percentile(ref, 50)
    p90, p90_op = percentile(ref, 90)
    metrics = {
        "wall_s": statistics.median(j["wall_ref_s"] for j in jobs),
        "setup_s": statistics.median(r for _, r in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": p50,
        "op_p90_ms": p90,
    }
    raw_metrics = {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_s": statistics.median(r for r, _ in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": percentile(raw, 50)[0],
        "op_p90_ms": percentile(raw, 90)[0],
    }
    samples = {"wall_s": f"median of {len(jobs)} jobs",
               "setup_s": f"median of {len(setups)} fresh interpreters",
               "peak_rss_mb": "one process",
               "op_p50_ms": f"{len(ref)} ops; a {p50_op}",
               "op_p90_ms": f"{len(ref)} ops; a {p90_op}"}
    print(f"{'metric':<13} {'reference':>14} {'raw':>14}")
    for name, value in metrics.items():
        print(f"{name:<13} {value:14.6f} {raw_metrics[name]:14.6f} "
              f"{END_TO_END_UNITS[name]:<3} ({samples[name]})")
    attempted, failed, published = tally(result)
    failed_frac = (failed + published) / max(attempted, 1)
    print(f"{'failed_frac':<13} {failed_frac:14.6f} 1   "
          f"({failed + published} of {attempted} checks; "
          f"{published} against the published table's documented defect)")
    return result, {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()}


def per_layer(args, deadline):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{args.workload}-seed{args.seed}.json.gz"
    _, result = run_worker(args, "trace", deadline,
                           ("--trace-out", str(trace_path)))
    describe(result, args)
    print(f"traced job (the second): {result['spans']} spans written to "
          f"{trace_path.relative_to(ROOT)}")
    for name, value in result["layers"].items():
        print(f"{name:<36} {value:16.6f} {LAYER_UNITS[name]}")
    return result, {n: (v, LAYER_UNITS[n])
                    for n, v in result["layers"].items()}


def deadline_s(args):
    """The whole run, all processes included: the set-up probes and
    ``--seconds`` of jobs plus the one job that may end past it, or the
    traced run's three jobs."""
    if args.trace:
        return SETUP_ALLOWANCE_S + 3 * JOB_ALLOWANCE_S
    return SETUP_ALLOWANCE_S + args.seconds + JOB_ALLOWANCE_S


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="ispflow benchmark: one workload, one seed.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + deadline_s(args)
    print(f"ispflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, _ = tally(result)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
