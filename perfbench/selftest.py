"""Self-test of the benchmark: boundary coverage and exact repeatability.

    python3 perfbench/selftest.py

Runs every workload twice, small and traced (an untraced, a traced and an
untraced job each time), on one seed, and asserts:

* each per-layer metric is non-zero on the workloads that exercise its
  layer and exactly zero on the others (``EXERCISED``): a wrapper that
  misses a binding of a boundary shows as a zero;
* the counts (every ``count`` and ``B`` metric) are identical between the
  two runs, and the checked outputs (golden equalities, classifications,
  solved values) between all six jobs, traced or not, so later
  count-based claims have a baseline;
* every check passes, the d = 1 ck' published-table mismatch aside;
* BENCHMARK.json names exactly the metrics the benchmark reports.

Not collected by pytest; takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import CHILD_ENV, END_TO_END_UNITS, HERE, ROOT, WORKLOAD_NAMES
from spans import LAYER_UNITS

RING_AND_SERIES = {
    "constexpr.mul_calls", "constexpr.terms_out", "series.mul_calls",
    "series.substitute_calls", "series.inverse_calls", "series.mul_self_s",
    "series.substitute_self_s", "series.explog_self_s",
    "transseries.mul_calls", "transseries.div_self_s"}
FRONT_END = {"cli.main_s", "emit.write_s", "emit.bytes"}
DERIVATIONS = {"coupling.table_solve_s", "expansions.sector_solve_s",
               "bound.beta_s", "golden.check_s"}

# which layers each workload exercises; every other layer must read 0
EXERCISED = {
    "exact-bound": RING_AND_SERIES | FRONT_END | DERIVATIONS
    | {"coupling.fit_s"},
    "exact-scatter": RING_AND_SERIES | FRONT_END | DERIVATIONS
    | {"constexpr.random_ops_s", "scatter.beta_s", "scatter.cross_sector_s"},
    "flow": {"rgnumeric.residual_evals_per_solve", "rgnumeric.solve_self_s",
             "rgnumeric.solves_per_beta", "rgnumeric.beta_s",
             "specfun.calls", "specfun.self_s"},
    "divergence": {"tmatrix.classify_s", "tmatrix.integral_self_s",
                   "tmatrix.quad_calls", "tmatrix.integration_warnings"},
}
SEED = 7


def traced_small(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--mode", "trace", "--small"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=170)
    if out.returncode:
        raise AssertionError(f"{workload}: worker failed\n{out.stderr}")
    line, = [l for l in out.stdout.splitlines() if l.startswith("RESULT ")]
    return json.loads(line[len("RESULT "):])


def check_workload(workload):
    problems = []
    first, second = traced_small(workload), traced_small(workload)
    for result in (first, second):
        for job in result["jobs"]:
            if job["failed"] or not job["attempted"]:
                problems.append(f"failed checks: {job['failures']}")
    layers = first["layers"]
    for name, value in layers.items():
        if name == "trace.overhead_frac":
            continue
        if name in EXERCISED[workload] and not value > 0:
            problems.append(f"{name} is {value}, but the workload "
                            f"exercises it")
        if name not in EXERCISED[workload] and value != 0:
            problems.append(f"{name} is {value}, but the workload "
                            f"should bypass it")
    for name, unit in LAYER_UNITS.items():
        if unit in ("count", "B") and name in layers \
                and layers[name] != second["layers"][name]:
            problems.append(f"{name} differs between runs: {layers[name]} "
                            f"vs {second['layers'][name]}")
    digests = {j["outputs_sha256"] for r in (first, second)
               for j in r["jobs"]}
    if len(digests) != 1:
        problems.append("checked outputs differ between jobs or runs")
    return problems


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("workload names differ from run.py")
    for key, units in (("end_to_end", END_TO_END_UNITS),
                       ("per_layer", LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"{key} differs from the reported metrics")
    return problems


def main():
    failures = {}
    for workload in WORKLOAD_NAMES:
        problems = check_workload(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        if problems:
            failures[workload] = problems
    problems = check_benchmark_json()
    print(f"BENCHMARK.json: {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
