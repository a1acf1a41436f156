"""One benchmark process: set up, then run jobs of one workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {probe,run,trace} [--small] [--trace-out PATH] \
        [--spawned-at T]

Set-up is importing the package and generating the inputs.  When it is
done the worker prints ``SETUP <raw s> <reference s>``: its set-up time,
from ``--spawned-at`` to the first op being ready, raw and at reference
host speed (hostspeed.py; the host's speed is sampled all the time the
worker runs).  ``probe`` exits there.  ``run`` repeats the job, untraced,
while the next job is expected to end within ``--seconds`` (at least one
job).  ``trace`` runs three jobs: untraced, with every layer boundary
wrapped (its spans go to ``--trace-out``), and untraced again.  Both print
one line ``RESULT <json>``.

The package is imported from ``src/`` next to this directory and nowhere
else.  Quadrature warnings are counted, not printed and not silenced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

from hostspeed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    """Import every module of the package from ``src/``."""
    sys.path.insert(0, str(SRC))
    import ispflow
    import ispflow.cli
    import ispflow.emit  # noqa: F401  (cli imports it lazily)
    where = Path(ispflow.__file__).resolve().parent
    if where != SRC / "ispflow":
        raise ImportError(f"ispflow imported from {where}, not {SRC}")


def _count_integration_warnings():
    """Route every IntegrationWarning to a counter; others print as usual."""
    from scipy.integrate import IntegrationWarning
    counter = [0]
    shown = warnings.showwarning

    def show(message, category, *args, **kwargs):
        if issubclass(category, IntegrationWarning):
            counter[0] += 1
        else:
            shown(message, category, *args, **kwargs)

    warnings.simplefilter("always", IntegrationWarning)
    warnings.showwarning = show
    return counter


def _env():
    import mpmath
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    clock = SpeedClock()
    clock.start()
    try:
        return run(clock, argv)
    finally:
        clock.stop()


def run(clock, argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("probe", "run", "trace"),
                        required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned-at", type=float,
                        help="time.monotonic() when the parent started "
                             "this process (default: the clock's start)")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, Job
    workload = WORKLOADS[args.workload]
    inp, summary = workload.inputs(args.seed, args.small)
    ready = clock.now()
    clock.sample()
    # interpreter start-up before the clock's start is scaled by the
    # first sample's speed
    spawned = (args.spawned_at - clock.started_at
               if args.spawned_at is not None else 0.0)
    print(f"SETUP {ready - spawned!r} {clock.ref(spawned, ready)!r}",
          flush=True)
    if args.mode == "probe":
        return 0

    import mpmath as mp
    warning_count = _count_integration_warnings()
    outdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    initial_dps = mp.mp.dps

    def run_job(tracer=None):
        job = Job(clock, tracer)
        mp.mp.dps = initial_dps
        warnings_before = warning_count[0]
        job.begin()
        workload.run(job, inp, outdir)
        job.finish()
        shutil.rmtree(outdir, ignore_errors=True)
        return {
            "wall_s": job.wall_s,
            "wall_ref_s": job.wall_ref_s,
            "latencies_s": job.latencies,
            "latencies_ref_s": job.latencies_ref,
            "op_names": job.op_names,
            "attempted": job.attempted,
            "failed": job.failed,
            "published_failed": job.published_failed,
            "failures": job.failures[:20],
            "integration_warnings": warning_count[0] - warnings_before,
            "dps_before_after": [initial_dps, mp.mp.dps],
            "outputs_sha256": hashlib.sha256(
                "\n".join(job.outputs).encode()).hexdigest(),
        }

    result = {"inputs": summary, "env": _env()}
    if args.mode == "trace":
        # untraced warm-up, traced job, untraced reference: the traced job
        # and its reference are both warm and adjacent in time
        from spans import Tracer, layer_metrics
        tracer = Tracer(clock.now)
        jobs = [run_job()]
        tracer.install()
        try:
            jobs.append(run_job(tracer))
        finally:
            tracer.uninstall()
        jobs.append(run_job())
        result["layers"] = layer_metrics(tracer, clock.to_ref,
                                         jobs[1]["integration_warnings"])
        result["layers"]["trace.overhead_frac"] = (
            jobs[1]["wall_ref_s"] / jobs[2]["wall_ref_s"] - 1)
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        jobs = []
        began = time.perf_counter()
        while True:
            jobs.append(run_job())
            if (time.perf_counter() - began + jobs[-1]["wall_s"]
                    > args.seconds):
                break
    result["jobs"] = jobs
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
