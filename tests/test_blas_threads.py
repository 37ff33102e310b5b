"""CSV bytes against the BLAS thread count (ROADMAP item 8).

Each case runs CLI verbs in fresh interpreters, once at
OPENBLAS_NUM_THREADS=1 and once at 2, and every CSV of the two runs must
match byte for byte:

- `solve` on the rectangle 81 x 41 and the cube 25; the cube's PCG sums
  its dot products in one order at any thread count;
- in the opt-in tier, `solve`, `predict` and `compare` on the strip
  (nx 401) and on `rect:1,0.5`, `solve` on the disc (nr 400) and
  `predict` on the potato: 43 CSVs with the two cases above.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
OPTIONAL = pytest.mark.skipif(os.environ.get("BLOWUPLAB_OPTIONAL_TIER") != "1",
                              reason="optional tier: set BLOWUPLAB_OPTIONAL_TIER=1")
RECT = ("exp", "rect:1,0.5", "[0.05]", "nx: 81\n  ny: 41\n  threshold: 10")

# name: (nonlinearity, geometry, eps, solver settings), verbs, CSV count
CASES = [
    pytest.param(RECT, ("solve",), 5, id="rect"),
    pytest.param(("pow:2", "cube:1", "[0.14]", "nx: 25\n  threshold: 500"), ("solve",), 5,
                 id="cube"),
    pytest.param(("exp", "strip", "[0.1, 0.2]", "nx: 401\n  grading: 2.0\n  threshold: 1000"),
                 ("solve", "predict", "compare"), 13, id="strip-verbs", marks=OPTIONAL),
    pytest.param(RECT, ("solve", "predict", "compare"), 10, id="rect-verbs", marks=OPTIONAL),
    pytest.param(("pow:2", "radial-disc", "[0.05, 0.1]", "nx: 400\n  threshold: 1000"),
                 ("solve",), 9, id="disc", marks=OPTIONAL),
    pytest.param(("exp", "polar:1,0.3,0,0,0,0,-0.3", "[0.03, 0.1]", "nx: 401"),
                 ("predict",), 6, id="potato", marks=OPTIONAL),
]


def _run(tmp_path, case, verbs, threads):
    """The CSVs of the verbs run in turn on one output directory, by file name."""
    nonlinearity, geometry, eps, solver = case
    out = tmp_path / f"threads-{threads}"
    cfg = tmp_path / "case.yaml"
    cfg.write_text(f"experiment:\n  name: threads\n  nonlinearity: {nonlinearity}\n"
                   f"  order: 4\n  geometry: '{geometry}'\n  eps: {eps}\n"
                   f"solver:\n  {solver}\noutputs:\n  directory: {out}\n  formats: [csv]\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for verb in verbs:
        subprocess.run([sys.executable, "-m", "blowuplab.cli", "--config", str(cfg), verb],
                       env=env, check=True, capture_output=True)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
@pytest.mark.parametrize("case,verbs,count", CASES)
def test_csv_bytes_against_two_blas_threads(tmp_path, case, verbs, count):
    one, two = _run(tmp_path, case, verbs, 1), _run(tmp_path, case, verbs, 2)
    assert len(one) == count and one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []
