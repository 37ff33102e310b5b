"""Start-up stays small: the package never imports scipy.optimize,
scipy.interpolate, scipy.integrate, scipy.ndimage, scipy.spatial,
scipy.sparse or multiprocessing on its own, and scipy.special only when
the order-2 profile is evaluated.

Together the first four cost a quarter of a second at every CLI
start-up, and the package needs only an assignment and a local-maximum
mask from them. The assignment is scipy's compiled
linear_sum_assignment, which blowuplab.lapack loads from its extension
module scipy.optimize._lsap without scipy.optimize's package init. The
layer profiles and their corrections are stored Chebyshev series summed
in numpy, so building them loads neither scipy.special nor
numpy.polynomial. Custom
nonlinearities import quad and solve_ivp where they are called, and
scipy.integrate loads scipy.optimize with it; nothing in the package
imports the scipy.optimize package itself.

scipy.spatial and scipy.special added about 60 ms and 7.6 MB to every
start-up (2-core x86_64, scipy 1.17). The nearest boundary sample and the close skeleton pairs are
found in numpy (geometry.SmoothPolarDomain._nearest_sample and
geometry._near_pairs), and v2 and v2_prime import erfcx when they are
called. multiprocessing loads only when `solve --threads` starts a
process pool. scipy.sparse (with scipy.sparse.linalg) added about 3.6 MB
to every start-up; only the tests' reference code (solvers.common.splu, SparseLUCN,
ConjugateGradientCN, rect_operator and cube_operator) imports it, when
called.

scipy.linalg is not imported either: blowuplab.lapack loads its
extension module _flapack from its file. The package init would run
scipy._lib._util, whose array-API layer imports numpy.f2py and
numpy.testing; a CLI start-up (`import blowuplab.cli`) fell from a median
0.41 s to 0.22 s without it (2-core x86_64, scipy 1.17.1, alternating
pairs). No run loads scipy's BLAS module scipy.linalg._fblas (1.3 MB):
the order-4 rectangle step solves with its Cholesky factor by dpotrs.
numpy.random, for noisy initial data, loads on first use, not at
start-up (5.5 MB and about 10 ms; a start-up holds 34.6 MB of RSS). So
the rect verbs and the potato pipeline import no numpy or scipy module
inside their run and a noisy solve only numpy.random; np.unique's
numpy.ma stays out of every run. The order-2 profile's erfcx still loads
scipy._lib._util, numpy.f2py and numpy.testing on its first call (its
scipy.special import takes about 0.15 s, against 0.04 s with
scipy.linalg loaded), and a custom nonlinearity's scipy.integrate loads
scipy.linalg as well.

Each check runs in a fresh interpreter, since the test session itself
has imported them all.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from blowuplab import lapack
from blowuplab.solvers import common

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.ndimage",
         "scipy.spatial", "scipy.special", "scipy.sparse", "multiprocessing",
         "scipy.linalg", "numpy.f2py", "numpy.testing")
# loaded by the solver paths that use them, on first use
ON_FIRST_USE = ("numpy.random",)
# loaded by no run
NEVER = ("scipy.linalg._fblas",)
NUMPY_RANDOM = ["numpy.random", "numpy.random._bounded_integers", "numpy.random._common",
                "numpy.random._generator", "numpy.random._mt19937", "numpy.random._pcg64",
                "numpy.random._philox", "numpy.random._pickle", "numpy.random._sfc64",
                "numpy.random.bit_generator", "numpy.random.mtrand"]

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

STRIP_NOISY_CFG = """
experiment:
  name: strip-noisy
  nonlinearity: exp
  order: 4
  geometry: strip
  eps: [0.2]
solver:
  nx: 201
  threshold: 8
  noise_amplitude: 0.01
outputs:
  directory: {out}
  formats: [csv]
"""


def listed_after(code, names):
    """The list that the expression `names` makes after `code` runs in a
    new interpreter, printed as its last line."""
    probe = code + f"\nprint('listed:' + ','.join({names}))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("listed:"), done.stdout
    return [m for m in last[len("listed:"):].split(",") if m]


def loaded_after(code):
    """The HEAVY modules in sys.modules after `code` runs in a new interpreter."""
    return listed_after("import sys\n" + code,
                        f"m for m in {HEAVY!r} if m in sys.modules")


@pytest.mark.parametrize("module", ["blowuplab", "blowuplab.cli"])
def test_import_loads_no_heavy_scipy(module):
    assert loaded_after(f"import {module}\n") == []


@pytest.mark.parametrize("module", ["blowuplab", "blowuplab.cli"])
def test_import_loads_no_solver_path_module(module):
    """numpy.random loads on first use, not at start-up, and _fblas never."""
    assert listed_after(f"import sys\nimport {module}\n",
                        f"m for m in {ON_FIRST_USE + NEVER!r} if m in sys.modules") == []


def rect_verbs(tmp_path):
    """Code that runs the rect solve, predict and compare verbs into
    tmp_path/out."""
    cfg = tmp_path / "rect.yaml"
    cfg.write_text(RECT_CFG.format(out=tmp_path / "out"))
    return textwrap.dedent(f"""
        from blowuplab.cli import main
        for verb in ("solve", "predict", "compare"):
            assert main(["--config", {str(cfg)!r}, verb]) == 0, verb
        """)


# the potato's skeleton, its fourth-order prediction and its deepest point
POTATO_PIPELINE = textwrap.dedent("""
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


def test_cli_verbs_load_no_heavy_scipy(tmp_path):
    assert loaded_after(rect_verbs(tmp_path)) == []
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_rect_verbs_never_load_fblas(tmp_path):
    """The order-4 rectangle step solves by dpotrs from _flapack; nothing
    loads _fblas on first access either."""
    assert not hasattr(lapack, "__getattr__")
    assert listed_after("import sys\n" + rect_verbs(tmp_path),
                        f"m for m in {NEVER!r} if m in sys.modules") == []


def test_smooth_domain_pipeline_loads_no_heavy_scipy():
    """The potato's skeleton, its fourth-order prediction and its deepest
    point search the boundary samples and the skeleton pairs in numpy."""
    assert loaded_after(POTATO_PIPELINE) == []


def imported_in_run(code):
    """The numpy and scipy modules that `code` imports after a CLI start-up."""
    return listed_after("import sys\nimport blowuplab.cli\nstarted = set(sys.modules)\n"
                        + code, "sorted(m for m in set(sys.modules) - started "
                                "if m.split('.')[0] in ('numpy', 'scipy'))")


def test_runs_import_only_their_solver_paths_modules(tmp_path):
    """A strip solve with noise imports numpy.random for its initial
    data, and the rect verbs and the potato pipeline nothing: no _fblas,
    no np.unique's numpy.ma, no other lazy import."""
    assert imported_in_run(rect_verbs(tmp_path)) == []
    assert imported_in_run(POTATO_PIPELINE) == []
    cfg = tmp_path / "strip.yaml"
    cfg.write_text(STRIP_NOISY_CFG.format(out=tmp_path / "strip"))
    solve = (f"from blowuplab.cli import main\n"
             f"assert main(['--config', {str(cfg)!r}, 'solve']) == 0\n")
    assert imported_in_run(solve) == NUMPY_RANDOM


# v2 and v2_prime at the commit that imported erfcx at start-up
V2_GOLDEN = {0.0: 0.0, 0.5: 0.45087072128329486, 2.0: 0.9432098762697393,
             10.0: 0.9999999999999439, 25.0: 1.0}
V2_PRIME_GOLDEN = {0.0: 1.1283791670955126, 0.5: 0.6981773244602326,
                   2.0: 0.10050908332002445, 10.0: 2.962685867369888e-13,
                   25.0: 4.95414546614859e-71}


def test_profiles_and_corrections_load_no_special_or_polynomial():
    """Building the order-4 profile and both corrections sums stored series:
    no erfcx for the order-2 correction's forcing, no numpy.polynomial."""
    code = textwrap.dedent("""
        import sys
        from blowuplab.profiles import get_correction, get_profile4
        get_profile4(), get_correction(4), get_correction(2)
        """)
    assert listed_after(code, "m for m in ('numpy.polynomial', 'scipy.special') "
                              "if m in sys.modules") == []


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
    assert loaded_after(code) == ["scipy.special", "numpy.f2py", "numpy.testing"]


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


@pytest.mark.parametrize("first", ["blowuplab.lapack", "scipy.linalg"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    """blowuplab.lapack's routines are scipy.linalg.lapack's objects,
    whether it or scipy.linalg loads the extension module."""
    code = textwrap.dedent(f"""
        import {first}
        import scipy.linalg
        from scipy.linalg import lapack as scipy_lapack
        from blowuplab import lapack
        same = [lapack.dpotrs is scipy_lapack.dpotrs,
                lapack.LinAlgError is scipy.linalg.LinAlgError]
        same += [getattr(lapack, name) is getattr(scipy_lapack, name) for name in
                 ("dgbtrf", "dgbtrs", "dgttrf", "dgttrs", "dpotrf")]
        """)
    assert listed_after(code, "map(str, same)") == ["True"] * 7


@pytest.mark.parametrize("first", ["blowuplab.lapack", "scipy.optimize"])
def test_assignment_is_scipys_in_either_import_order(first):
    """blowuplab.lapack's linear_sum_assignment is scipy.optimize's object,
    whether it or scipy.optimize loads the extension module _lsap."""
    code = textwrap.dedent(f"""
        import {first}
        import scipy.optimize
        from blowuplab import lapack
        same = [lapack.linear_sum_assignment is scipy.optimize.linear_sum_assignment]
        """)
    assert listed_after(code, "map(str, same)") == ["True"]


def test_cli_start_up_loads_lsap_without_optimize():
    assert listed_after("import sys\nimport blowuplab.cli\n",
                        "m for m in ('scipy.optimize', 'scipy.optimize._lsap') "
                        "if m in sys.modules") == ["scipy.optimize._lsap"]


def test_cho_factor_is_scipys_on_the_bench_rectangle(monkeypatch):
    """The Schur complement of the benchmark rectangle's order-4 step
    (rect:1,0.5 at nx 121, 119 x 59 interior nodes, eps 0.05)."""
    schur = []

    def record(S):
        schur.append(S.copy())
        return lapack.cho_factor(S)

    monkeypatch.setattr(common, "cho_factor", record)
    common.FastDiagRectCN((119, 59), (2.0 / 120, 1.0 / 60), 0.05 ** 4)._setup(2.0 ** -10)
    (S,) = schur
    assert S.shape == (2 * 59, 2 * 59)
    assert np.array_equal(lapack.cho_factor(S), scipy.linalg.cho_factor(S)[0])


def test_cho_factor_raises_as_scipy_does():
    with pytest.raises(lapack.LinAlgError, match="2-th leading minor"):
        lapack.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        lapack.cho_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_missing_extension_raises_import_error_naming_it():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module") as err:
        lapack._extension("_no_such_module")
    assert err.value.name == "scipy.linalg._no_such_module"
    assert "scipy.linalg._no_such_module" not in sys.modules
    with pytest.raises(ImportError, match=r"scipy\.optimize\._no_such_module"):
        lapack._extension("_no_such_module", "optimize")
    assert "scipy.optimize._no_such_module" not in sys.modules
