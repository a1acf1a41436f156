"""Start-up cost: importing the package and running a derivation load
mpmath only; numpy and scipy load at the first divergence quadrature, and
the gamma-phase kernel computes no Bernoulli numbers or plan at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import ispflow, ispflow.cli, ispflow.emit
from mpmath.libmp import gammazeta
import_work = [len(gammazeta.bernoulli_cache),
               ispflow.specfun._stirling_plan.cache_info().currsize]

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

code = ispflow.cli.main(["coeffs", "--sector", "bound", "--pmax", "2",
                         "--lmax", "5", "--out", sys.argv[1]])
after_coeffs = loaded()
same = ispflow.classify_divergence is ispflow.tmatrix.classify_divergence
report = ispflow.classify_divergence("c2", 1)
print(json.dumps({"code": code, "import_work": import_work,
                  "after_coeffs": after_coeffs, "same": same,
                  "classification": report.classification,
                  "after_classify": loaded()}))
"""


def test_numpy_and_scipy_load_at_the_first_quadrature(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert out["import_work"] == [0, 0]
    assert out["after_coeffs"] == []
    assert out["same"]
    assert out["classification"] == "L"
    assert out["after_classify"] == ["numpy", "scipy"]
