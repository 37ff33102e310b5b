"""Start-up stays small: the package never imports scipy.optimize,
scipy.interpolate, scipy.integrate or scipy.ndimage on its own.

Together they cost a quarter of a second at every CLI start-up, and the
package needs only a spline (profiles._Spline), an assignment
(cli._assign) and a local-maximum mask from them. Custom nonlinearities
import quad and solve_ivp where they are called, and scipy.integrate
loads scipy.optimize with it; nothing in the package imports
scipy.optimize itself.

Two scipy packages do stay loaded. scipy.spatial adds about 0.015 s on
top of the rest and gives the k-d tree of the nearest-boundary search.
scipy.sparse.linalg gives spsolve, and the benchmark's tracer hooks its
`splu` and `cg` (tests/test_tracer_hooks.py).

Each check runs in a fresh interpreter, since the test session itself
has imported them all.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.ndimage")

RECT_CFG = """
experiment:
  name: rect-tiny
  nonlinearity: exp
  order: 4
  geometry: rect:1,0.5
  eps: [0.2]
solver:
  nx: 31
  ny: 17
  threshold: 8
outputs:
  directory: {out}
  formats: [csv]
"""


def loaded_after(code):
    """The HEAVY modules in sys.modules after `code` runs in a new interpreter."""
    probe = code + textwrap.dedent(f"""
        import sys
        print("loaded:" + ",".join(m for m in {HEAVY!r} if m in sys.modules))
        """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("loaded:"), done.stdout
    return [m for m in last[len("loaded:"):].split(",") if m]


@pytest.mark.parametrize("module", ["blowuplab", "blowuplab.cli"])
def test_import_loads_no_heavy_scipy(module):
    assert loaded_after(f"import {module}\n") == []


def test_cli_verbs_load_no_heavy_scipy(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "rect.yaml"
    cfg.write_text(RECT_CFG.format(out=out))
    code = textwrap.dedent(f"""
        from blowuplab.cli import main
        for verb in ("solve", "predict", "compare"):
            assert main(["--config", {str(cfg)!r}, verb]) == 0, verb
        """)
    assert loaded_after(code) == []
    assert (out / "comparison.csv").exists()


def test_critical_eps_and_tabulated_flow_import_no_optimize():
    """critical_eps is a closed form, and the tabulated inverse is Newton
    on a start grid, so neither calls into scipy.optimize. Building the
    table loads scipy.integrate, which loads scipy.optimize, so the probe
    unloads it after the build and checks that no call loads it again."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from blowuplab import Nonlinearity, ReactionSolution, critical_eps
        tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2),
                               form="tabulated")
        for name in [m for m in sys.modules if m.startswith("scipy.optimize")]:
            del sys.modules[name]
        assert critical_eps(ReactionSolution(Nonlinearity.exponential()), 1.0) > 0
        assert tab.invert(3.0) > 0 and tab.invert(np.array([0.5, 2.0])).shape == (2,)
        assert np.all(np.isfinite(tab.flow(np.array([0.0, 1.0, 10.0]), 1e-3)))
        """)
    assert "scipy.optimize" not in loaded_after(code)
