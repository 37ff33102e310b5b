"""Fast self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

Checks that the output checks pass on good outputs and fail on a
corrupted one, that a changed CSV fails the determinism check, that a
traced call records spans and counts, that a hook whose target is gone
reports its metric as missing, and that no hook stays installed after
the tracer is removed. Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selfcheck"


def expect(cond, what):
    if not cond:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def summary(rows):
    return "eps,T_eps,multiplicity,stop_reason,sup_stop\n" + "".join(
        f"{e},{T},{m},threshold,10.0\n" for e, T, m in rows)


def comparison(rows):
    return ("eps,pred_x,pred_y,comp_x,comp_y,distance,pred_multiplicity,"
            "comp_multiplicity,multiplicity_agree\n"
            + "".join(f"{e},0,0,0,0,0,{m},{m},{a}\n" for e, m, a in rows))


def check_outputs():
    # rect: good outputs pass, one wrong multiplicity fails only its op
    out = WORK / "rect"
    good = [(e, 0.95, m) for e, m in wl.RECT_EPS.items()]
    write(out / "sweep_summary.csv", summary(good))
    write(out / "comparison.csv", comparison([(e, m, 1) for e, m in wl.RECT_EPS.items()]))
    write(out / "skeleton.csv", "x,y,s,branch,pairs\n0.0,0.0,0.5,0,0.5\n")
    p = wl.Pass(out)
    wl.check_rect(p, out)
    expect(p.attempted == 7 and p.failed == 0, "rect checks pass on good outputs")
    write(out / "sweep_summary.csv", summary([(0.05, 0.95, 3)] + good[1:]))
    p = wl.Pass(out)
    wl.check_rect(p, out)
    expect(p.failed == 1 and p.failures["rect solve eps=0.05"],
           "a wrong rect multiplicity fails its solve")
    write(out / "comparison.csv", comparison([(0.05, 4, 1), (0.1, 2, 0), (0.2, 1, 1)]))
    p = wl.Pass(out)
    wl.check_rect(p, out)
    expect(p.failures["rect predict eps=0.1"], "multiplicity_agree = 0 fails its prediction")

    # cube: one orbit of 8 passes, a point moved off the orbit fails
    out = WORK / "cube"
    write(out / "sweep_summary.csv", summary([(0.14, 0.97, 8), (0.2, 0.95, 1)]))
    a, b = 0.3794, 0.3719
    orbit = [(sx * a, sy * a, sz * b) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    body = "x,y,z,value\n" + "".join(f"{x},{y},{z},500\n" for x, y, z in orbit)
    write(out / "singularities_eps0p14.csv", body)
    write(out / "singularities_eps0p2.csv", "x,y,z,value\n0.001,0,0,500\n")
    p = wl.Pass(out)
    wl.check_cube(p, out)
    expect(p.attempted == 2 and p.failed == 0, "cube checks pass on good outputs")
    write(out / "singularities_eps0p14.csv", body.replace(f"{-a},{-a},{-b}", f"{-a},{-a},-0.2"))
    p = wl.Pass(out)
    wl.check_cube(p, out)
    expect(p.failed == 1, "a cube point off the orbit fails")

    # banded: a strip T_eps off by more than 0.003 fails, a growing ring fails
    strip, disc = WORK / "strip", WORK / "disc"
    write(strip / "sweep_summary.csv",
          summary([(0.1, 0.9779, 2), (0.142857, 0.9775, 2), (0.2, 0.9713, 1)]))
    write(strip / "comparison.csv",
          comparison([(e, m, 1) for e, m in wl.STRIP_EPS.items()]))
    write(strip / "singularities_eps0p2.csv", "x,value\n0.0009,18.8\n")
    write(disc / "sweep_summary.csv", summary([(e, 0.98, 1) for e in wl.DISC_EPS]))
    for eps, r in zip(wl.DISC_EPS, (0.78, 0.67, 0.56)):
        write(disc / f"singularities_eps{wl._tag(eps)}.csv", f"x,value\n{r},1005\n")
    p = wl.Pass(strip, disc)
    wl.check_banded(p, strip, disc)
    expect(p.attempted == 9 and p.failed == 0, "banded checks pass on good outputs")
    write(strip / "sweep_summary.csv",
          summary([(0.1, 0.9700, 2), (0.142857, 0.9775, 2), (0.2, 0.9713, 1)]))
    write(disc / "singularities_eps0p1.csv", "x,value\n0.7,1005\n")
    p = wl.Pass(strip, disc)
    wl.check_banded(p, strip, disc)
    expect(p.failures["strip solve eps=0.1"] and p.failures["disc solve eps=0.1"]
           and p.failed == 2, "a wrong strip T_eps and a growing disc ring fail")

    # smooth: a wrong regime fails
    sample = SimpleNamespace(point=np.zeros(2), s_value=0.75, pair_distances=[0.75, 1.0])
    done = {wl.SMOOTH_OPS[1]: SimpleNamespace(regime="omega-set", candidates=[1]),
            wl.SMOOTH_OPS[2]: SimpleNamespace(regime="skeleton-points", multiplicity=2),
            wl.SMOOTH_OPS[3]: SimpleNamespace(points=np.array([wl.POTATO_ARGMAX])),
            wl.SMOOTH_OPS[4]: SimpleNamespace(samples=[sample])}
    p = wl.Pass(WORK)
    p.attempt(*wl.SMOOTH_OPS)
    wl.check_smooth(p, done)
    expect(p.failed == 0, "smooth checks pass on good results")
    done[wl.SMOOTH_OPS[2]].regime = "omega-set"
    p = wl.Pass(WORK)
    wl.check_smooth(p, done)
    expect(p.failed == 1, "a wrong potato regime fails")

    # determinism: a changed CSV fails every operation of the pass
    run.OUT = WORK

    def result():
        return dict(hashes=wl.Pass(strip).csv_hashes(), failures=dict(a=[], b=[]))

    r = result()
    run.check_determinism(r, "selfcheck")
    expect(not any(r["failures"].values()), "the first pass sets the reference hashes")
    write(strip / "comparison.csv", comparison([(0.1, 2, 1)]))
    r = result()
    run.check_determinism(r, "selfcheck")
    expect(all(r["failures"].values()), "a changed CSV fails the determinism check")


def hooked_bindings():
    """Every binding that still holds a tracer wrapper."""
    import scipy.sparse.linalg
    found = []
    owners = [m for n, m in sys.modules.items() if n.startswith("blowuplab") and m]
    owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
    for owner in owners + [scipy.sparse.linalg]:
        for key, value in vars(owner).items():
            if getattr(value, tr.HOOK_MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


def check_tracer():
    import blowuplab.cli  # noqa: F401 -- the tracer hooks the CLI verbs too
    from blowuplab import Nonlinearity, SolverConfig, solve
    from blowuplab.solvers import common

    cfg = SolverConfig(order=4, nonlinearity=Nonlinearity.exponential(), eps=0.2,
                       nx=41, threshold=10.0)
    t = tr.Tracer()
    t.pass_id = 1
    t.install()
    try:
        expect(hooked_bindings(), "hooks are installed")
        report = solve(cfg)
    finally:
        t.uninstall()
    expect(not hooked_bindings(), "no hook is left after uninstall")
    m = t.layer_metrics(1)
    steps = report.diagnostics["steps"]
    expect(m["solvers.steps"][0] == steps and m["solvers.linear_apply_calls"][0] == steps,
           f"a traced strip solve counts its {steps} steps and solves")
    expect(m["stencils.fd_weights_calls"][0] == cfg.nx - 2
           and m["solvers.linear_factorizations"][0] == 0,
           "fd_weights calls are counted; no factorization on the strip")

    saved = common.SparseLUCN, common.splu
    del common.SparseLUCN, common.splu
    t = tr.Tracer()
    try:
        t.install()
        t.uninstall()
    finally:
        common.SparseLUCN, common.splu = saved
    m = t.layer_metrics(0)
    expect(len(t.missing) == 2 and m["solvers.linear_factorizations"][0] is None
           and m["solvers.linear_apply_calls"][0] == 0,
           "a removed hook target reports its metric as missing")
    expect(not hooked_bindings(), "no hook is left after a partial install")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    check_outputs()
    check_tracer()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
