"""CSV bytes against the BLAS thread count (ROADMAP item 8).

The CLI solves the rectangle 81 x 41 and the cube 25 in fresh
interpreters, once at OPENBLAS_NUM_THREADS=1 and once at 2, and the
CSVs of the two runs are compared. This pins today's outcome:

- the rectangle's CSVs match;
- the cube's CSVs differ in their last digits; ROADMAP item 8 traces
  this to its PCG's dot products over 12,167 values.

A change that makes the cube's bytes thread-independent flips its case.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "rect": ("exp", "rect:1,0.5", 0.05, "nx: 81\n  ny: 41\n  threshold: 10"),
    "cube": ("pow:2", "cube:1", 0.14, "nx: 25\n  threshold: 500"),
}


def _solve(tmp_path, name, threads):
    """The CSVs of one CLI solve, by file name."""
    nonlinearity, geometry, eps, solver = CONFIGS[name]
    out = tmp_path / f"{name}-{threads}"
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(f"experiment:\n  name: {name}-threads\n  nonlinearity: {nonlinearity}\n"
                   f"  order: 4\n  geometry: {geometry}\n  eps: [{eps}]\n"
                   f"solver:\n  {solver}\noutputs:\n  directory: {out}\n  formats: [csv]\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "blowuplab.cli", "--config", str(cfg), "solve"],
                   env=env, check=True, capture_output=True)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
@pytest.mark.parametrize("name,match", [("rect", True), ("cube", False)])
def test_csv_bytes_against_two_blas_threads(tmp_path, name, match):
    one, two = _solve(tmp_path, name, 1), _solve(tmp_path, name, 2)
    assert len(one) == 5 and one.keys() == two.keys()
    assert (one == two) == match
