"""Start-up stays small: the package never imports scipy.optimize,
scipy.interpolate, scipy.integrate, scipy.ndimage, scipy.spatial,
scipy.sparse or multiprocessing on its own, and scipy.special only when
the order-2 profile is evaluated.

Together the first four cost a quarter of a second at every CLI
start-up, and the package needs only a spline (profiles._Spline), an
assignment (cli._assign) and a local-maximum mask from them. Custom
nonlinearities import quad and solve_ivp where they are called, and
scipy.integrate loads scipy.optimize with it; nothing in the package
imports scipy.optimize itself.

scipy.spatial and scipy.special added about 60 ms and 7.6 MB to every
start-up (2-core x86_64, scipy 1.17). The nearest boundary sample and the close skeleton pairs are
found in numpy (geometry.SmoothPolarDomain._nearest_sample and
geometry._near_pairs), and v2 and v2_prime import erfcx when they are
called. multiprocessing loads only when `solve --threads` starts a
process pool. scipy.sparse (with scipy.sparse.linalg) added about 3.6 MB
to every start-up: the layer-profile systems are solved on LAPACK bands,
and only the tests' reference code (solvers.common.splu, SparseLUCN,
ConjugateGradientCN, rect_operator and cube_operator) imports it, when
called.

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
HEAVY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.ndimage",
         "scipy.spatial", "scipy.special", "scipy.sparse", "multiprocessing")

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


def test_smooth_domain_pipeline_loads_no_heavy_scipy():
    """The potato's skeleton, its fourth-order prediction and its deepest
    point search the boundary samples and the skeleton pairs in numpy."""
    code = textwrap.dedent("""
        from blowuplab.geometry import compute_skeleton, max_distance_point, potato_domain
        from blowuplab.predictor import predict_fourth_2d
        from blowuplab.profiles import get_correction, get_profile4
        from blowuplab.reaction import TABLE_DELTA, Nonlinearity, ReactionSolution
        dom = potato_domain()
        skel = compute_skeleton(dom, 0.05)
        assert len(skel.samples) > 0
        rs = ReactionSolution(Nonlinearity.exponential())
        prof = get_profile4()
        pred = predict_fourth_2d(dom, skel, rs, 0.1, rs.T0 * (1.0 - TABLE_DELTA),
                                 eta0=prof.eta0, profile=prof, correction=get_correction(4))
        assert len(pred.points) > 0
        assert max_distance_point(dom)[1] > 0.7
        """)
    assert loaded_after(code) == []


# v2 and v2_prime at the commit that imported erfcx at start-up
V2_GOLDEN = {0.0: 0.0, 0.5: 0.45087072128329486, 2.0: 0.9432098762697393,
             10.0: 0.9999999999999439, 25.0: 1.0}
V2_PRIME_GOLDEN = {0.0: 1.1283791670955126, 0.5: 0.6981773244602326,
                   2.0: 0.10050908332002445, 10.0: 2.962685867369888e-13,
                   25.0: 4.95414546614859e-71}


def test_second_order_profile_loads_erfcx_on_first_call():
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from blowuplab.profiles import v2, v2_prime
        assert "scipy.special" not in sys.modules
        eta = {list(V2_GOLDEN)!r}
        assert [v2(e) for e in eta] == {list(V2_GOLDEN.values())!r}
        assert "scipy.special" in sys.modules
        assert [v2_prime(e) for e in eta] == {list(V2_PRIME_GOLDEN.values())!r}
        assert v2(np.array(eta)).tolist() == {list(V2_GOLDEN.values())!r}
        assert v2_prime(np.array(eta)).tolist() == {list(V2_PRIME_GOLDEN.values())!r}
        """)
    assert loaded_after(code) == ["scipy.special"]


def test_critical_eps_and_tabulated_flow_import_no_optimize():
    """critical_eps is a closed form, and the tabulated inverse is Newton
    on a start grid, so neither calls into scipy.optimize. Building the
    table loads scipy.integrate, which loads scipy.optimize, so the probe
    unloads it after the build and checks that no call loads it again."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from blowuplab import Nonlinearity, ReactionSolution, critical_eps
        tab = ReactionSolution(Nonlinearity.custom(lambda u: (1.0 + u) ** 2))
        for name in [m for m in sys.modules if m.startswith("scipy.optimize")]:
            del sys.modules[name]
        assert critical_eps(ReactionSolution(Nonlinearity.exponential()), 1.0) > 0
        assert tab.invert(3.0) > 0 and tab.invert(np.array([0.5, 2.0])).shape == (2,)
        assert np.all(np.isfinite(tab.flow(np.array([0.0, 1.0, 10.0]), 1e-3)))
        """)
    assert "scipy.optimize" not in loaded_after(code)
