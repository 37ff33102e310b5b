"""The benchmark workloads: their inputs, one pass each, and the checks
on every pass's outputs.

`solver-pipelines` runs three parts in one pass: the strip and disc
(banded steps), the rectangle (direct sparse LU) and the cube (CG).
`smooth-predict` runs the library prediction pipeline on smooth domains.

Each pass runs in a fresh interpreter (worker.py) and calls the CLI
verbs in it; the profile caches are cleared before every verb, so the
profile BVP behind get_profile4/get_correction runs again, as it does
for a user who starts each verb on its own. Interpreter start-up,
`import blowuplab` and config load are measured apart (setup_s). Why
each workload was chosen is written in NOTES.md next to this file.

An operation is one eps solve, one prediction or one skeleton. It fails
on an exception, a nonzero exit code or a failed output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
import time
import traceback
from pathlib import Path

import yaml

NOISE = 1e-8   # amplitude of the seeded initial noise of the solver parts


class Pass:
    """Stage times, operations and output facts of one pass."""

    def __init__(self, *out_dirs: Path):
        self.out_dirs = list(out_dirs)
        self.stage = dict(solve=0.0, predict=0.0, compare=0.0, library=0.0)
        self.parts = {}           # part of the pass -> seconds
        self.failures = {}        # operation -> list of failed checks
        self.bytes_written = 0    # by the CLI verbs

    def fresh_dir(self, path: Path):
        """An emptied output directory whose CSVs count as the pass's."""
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self.out_dirs.append(path)
        return path

    def csv_hashes(self):
        """sha256 of every CSV the pass wrote, keyed by dir/name."""
        return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                for d in self.out_dirs for p in sorted(d.glob("*.csv"))}

    @property
    def wall_s(self):
        return sum(self.stage.values())

    def attempt(self, *ops):
        for op in ops:
            self.failures.setdefault(op, [])

    def check(self, op, ok, why):
        self.failures.setdefault(op, [])
        if not ok:
            self.failures[op].append(why)

    def fail_all(self, ops, why):
        for op in ops:
            self.check(op, False, why)

    @property
    def attempted(self):
        return len(self.failures)

    @property
    def failed(self):
        return sum(1 for why in self.failures.values() if why)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _tag(eps):
    return f"{eps:g}".replace(".", "p")


def read_rows(path):
    """CSV rows as dicts; '#' lines are metadata and skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _file_state(directory: Path):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.iterdir() if p.is_file()}


def run_cli(p: Pass, config: Path, out: Path, verb: str):
    """Run one CLI verb in this process; add its time to the pass and the
    bytes of the files it wrote. Returns the exit code, None on a crash."""
    from blowuplab import cli, profiles
    before = _file_state(out)
    profiles.get_profile4.cache_clear()
    profiles.get_correction.cache_clear()
    t0 = time.perf_counter()
    try:
        rc = cli.main(["--config", str(config), "--threads", "1", verb])
    except Exception:   # a crash is a failed operation, not a failed run
        traceback.print_exc()
        rc = None
    p.stage[verb] += time.perf_counter() - t0
    after = _file_state(out)
    p.bytes_written += sum(size for name, (size, mt) in after.items()
                           if before.get(name, (None, None))[1] != mt)
    return rc


def write_config(path: Path, out: Path, experiment: dict, solver: dict,
                 seed: int, snapshot_stride: int = 0):
    doc = dict(experiment=experiment,
               solver=dict(solver, noise_amplitude=NOISE),
               outputs=dict(directory=str(out), snapshot_stride=snapshot_stride,
                            formats=["csv"]),
               seed=seed)
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _summary(out: Path):
    return {float(r["eps"]): r for r in read_rows(out / "sweep_summary.csv")}


def check_sweep(p: Pass, out: Path, label: str, expected: dict):
    """Per eps of sweep_summary.csv: the expected multiplicity, a finite
    T_eps and a blow-up stop. Returns the rows by eps."""
    try:
        rows = _summary(out)
    except (OSError, IndexError, KeyError, ValueError) as e:
        p.fail_all([f"{label} solve eps={e_}" for e_ in expected], f"summary: {e!r}")
        return {}
    for eps, mult in expected.items():
        op = f"{label} solve eps={eps}"
        row = rows.get(eps, {})
        p.check(op, row.get("multiplicity") == str(mult),
                f"multiplicity {row.get('multiplicity')} != {mult}")
        p.check(op, math.isfinite(_float(row.get("T_eps"))), "T_eps not finite")
        p.check(op, row.get("stop_reason") in ("threshold", "reaction-singularity"),
                f"stop_reason {row.get('stop_reason')}")
    return rows


def check_agreement(p: Pass, out: Path, label: str, eps_values):
    """Every comparison.csv row of each eps has multiplicity_agree = 1."""
    try:
        rows = read_rows(out / "comparison.csv")
        by_eps = {eps: [r for r in rows if float(r["eps"]) == eps] for eps in eps_values}
    except (OSError, IndexError, KeyError, ValueError) as e:
        p.fail_all([f"{label} predict eps={e_}" for e_ in eps_values],
                   f"comparison: {e!r}")
        return
    for eps, mine in by_eps.items():
        p.check(f"{label} predict eps={eps}",
                bool(mine) and all(r.get("multiplicity_agree") == "1" for r in mine),
                "predicted and computed multiplicities disagree")


def _points(path):
    return [[float(r[c]) for c in ("x", "y", "z") if c in r] for r in read_rows(path)]


# -- solver-pipelines: rectangle ------------------------------------------------

RECT_EPS = {0.05: 4, 0.1: 2, 0.2: 1}
RECT_OPS = ([f"rect solve eps={e}" for e in RECT_EPS]
            + [f"rect predict eps={e}" for e in RECT_EPS] + ["rect skeleton"])


def rect_config(work: Path, seed: int) -> Path:
    """Write the rectangle's config; the start-up probes load it too."""
    cfg = work / "rect.yaml"
    write_config(cfg, work / "rect", dict(name="rect-pipeline", nonlinearity="exp",
                                          order=4, geometry="rect:1,0.5",
                                          eps=list(RECT_EPS)),
                 dict(nx=121, threshold=10.0), seed, snapshot_stride=10)
    return cfg


def rect_pipeline(p: Pass, work: Path, seed: int):
    """CLI solve, predict and compare on the rectangle."""
    out = p.fresh_dir(work / "rect")
    cfg = rect_config(work, seed)
    solve_ops, predict_ops = RECT_OPS[:3], RECT_OPS[3:]
    p.attempt(*RECT_OPS)
    if run_cli(p, cfg, out, "solve") != 0:
        p.fail_all(solve_ops, "solve exit code")
    if run_cli(p, cfg, out, "predict") != 0:
        p.fail_all(predict_ops, "predict exit code")
    if run_cli(p, cfg, out, "compare") != 0:
        p.fail_all(predict_ops[:-1], "compare exit code")
    check_rect(p, out)


def check_rect(p: Pass, out: Path):
    """Multiplicities 4/2/1, predictions that agree, a non-empty skeleton."""
    check_sweep(p, out, "rect", RECT_EPS)
    check_agreement(p, out, "rect", RECT_EPS)
    try:
        p.check("rect skeleton", len(read_rows(out / "skeleton.csv")) > 0,
                "empty skeleton")
    except (OSError, IndexError) as e:
        p.check("rect skeleton", False, repr(e))


# -- solver-pipelines: cube -----------------------------------------------------

CUBE_EPS = {0.14: 8, 0.2: 1}
CUBE_OPS = [f"cube solve eps={e}" for e in CUBE_EPS]


def cube_solve(p: Pass, work: Path, seed: int):
    """CLI solve on the cube."""
    out = p.fresh_dir(work / "cube")
    cfg = work / "cube.yaml"
    write_config(cfg, out, dict(name="cube-solve", nonlinearity="pow:2", order=4,
                                geometry="cube:1", eps=list(CUBE_EPS)),
                 dict(nx=25, threshold=500.0), seed)
    p.attempt(*CUBE_OPS)
    if run_cli(p, cfg, out, "solve") != 0:
        p.fail_all(CUBE_OPS, "solve exit code")
    check_cube(p, out)


def check_cube(p: Pass, out: Path):
    """8 points in one symmetry orbit, then 1 point at the origin."""
    ops = CUBE_OPS
    check_sweep(p, out, "cube", CUBE_EPS)
    try:
        pts = _points(out / "singularities_eps0p14.csv")
        # one orbit of the cube's symmetry group: equal sorted |coordinates|
        keys = [sorted(abs(c) for c in q) for q in pts]
        same = all(max(abs(a - b) for a, b in zip(k, keys[0])) < 0.02 for k in keys)
        p.check(ops[0], len(pts) == 8 and same, f"not one orbit of 8: {keys}")
        pts = _points(out / "singularities_eps0p2.csv")
        p.check(ops[1], len(pts) == 1 and math.hypot(*pts[0]) < 0.1,
                f"not one point at the origin: {pts}")
    except (OSError, IndexError, KeyError, ValueError) as e:
        p.fail_all(ops, repr(e))


# -- solver-pipelines: strip and disc -------------------------------------------

STRIP_EPS = {0.1: 2, 0.142857: 2, 0.2: 1}
DISC_EPS = {0.05: 1, 0.075: 1, 0.1: 1}
STRIP_OPS = [f"strip solve eps={e}" for e in STRIP_EPS]
STRIP_PREDICT_OPS = [f"strip predict eps={e}" for e in STRIP_EPS]
DISC_OPS = [f"disc solve eps={e}" for e in DISC_EPS]


def banded_pipeline(p: Pass, work: Path, seed: int):
    """CLI solve, predict and compare on the strip, then solve on the disc."""
    strip_out, disc_out = p.fresh_dir(work / "strip"), p.fresh_dir(work / "disc")
    strip_cfg, disc_cfg = work / "strip.yaml", work / "disc.yaml"
    write_config(strip_cfg, strip_out,
                 dict(name="banded-strip", nonlinearity="exp", order=4,
                      geometry="strip", eps=list(STRIP_EPS)),
                 dict(nx=2001, grading=2.0, threshold=1e3), seed, snapshot_stride=5)
    write_config(disc_cfg, disc_out,
                 dict(name="banded-disc", nonlinearity="pow:2", order=4,
                      geometry="radial-disc", eps=list(DISC_EPS)),
                 dict(nx=1000, threshold=1e3), seed)
    p.attempt(*STRIP_OPS, *STRIP_PREDICT_OPS, *DISC_OPS)
    if run_cli(p, strip_cfg, strip_out, "solve") != 0:
        p.fail_all(STRIP_OPS, "solve exit code")
    if run_cli(p, strip_cfg, strip_out, "predict") != 0:
        p.fail_all(STRIP_PREDICT_OPS, "predict exit code")
    if run_cli(p, strip_cfg, strip_out, "compare") != 0:
        p.fail_all(STRIP_PREDICT_OPS, "compare exit code")
    if run_cli(p, disc_cfg, disc_out, "solve") != 0:
        p.fail_all(DISC_OPS, "solve exit code")
    check_banded(p, strip_out, disc_out)


def check_banded(p: Pass, strip_out: Path, disc_out: Path):
    """Strip T_eps(0.1) and multiplicities 2/2/1 with the last peak at the
    centre, agreeing predictions, disc rings inside the disc that shrink
    as eps grows."""
    strip_ops, disc_ops = STRIP_OPS, DISC_OPS
    rows = check_sweep(p, strip_out, "strip", STRIP_EPS)
    T = _float(rows.get(0.1, {}).get("T_eps"))
    p.check(strip_ops[0], abs(T - 0.9779) <= 0.003, f"T_eps {T!r} not 0.9779 +- 0.003")
    try:
        pts = _points(strip_out / "singularities_eps0p2.csv")
        p.check(strip_ops[2], len(pts) == 1 and abs(pts[0][0]) < 0.02,
                f"eps 0.2 peak not at the centre: {pts}")
    except (OSError, IndexError, KeyError, ValueError) as e:
        p.check(strip_ops[2], False, repr(e))
    check_agreement(p, strip_out, "strip", STRIP_EPS)

    check_sweep(p, disc_out, "disc", DISC_EPS)
    rings = []
    for eps, op in zip(DISC_EPS, disc_ops):
        try:
            r = _points(disc_out / f"singularities_eps{_tag(eps)}.csv")[0][0]
        except (OSError, IndexError, KeyError, ValueError) as e:
            p.check(op, False, repr(e))
            continue
        p.check(op, 0.0 < r < 1.0, f"ring radius {r!r} outside the disc")
        p.check(op, not rings or r < rings[-1], f"ring {r!r} not inside {rings}")
        rings.append(r)


# -- smooth-predict --------------------------------------------------------------

POTATO_RES = 0.05
ELLIPSE_RES = 0.1
POTATO_ARGMAX = (0.3070, -0.0345)
SMOOTH_OPS = ["potato skeleton", "potato predict eps=0.03", "potato predict eps=0.1",
              "potato predict order 2", "ellipse skeleton"]


def smooth_predict(work: Path, seed: int, tracer=None) -> Pass:
    """Library prediction pipeline on smooth star-shaped domains. It has
    no random input, so the seed is not used."""
    import blowuplab as bl
    from blowuplab import profiles
    from blowuplab.reaction import TABLE_DELTA

    p = Pass()
    out = p.fresh_dir(work / "smooth")
    ops = SMOOTH_OPS
    p.attempt(*ops)
    done = {}

    def run(op, fn, *needs):
        if any(n not in done for n in needs):
            p.check(op, False, f"needs {needs}")
            return
        try:
            done[op] = fn()
        except Exception as e:   # a crash is a failed operation, not a failed run
            traceback.print_exc()
            if op in ops:
                p.check(op, False, repr(e))

    def skeleton(dom, res, name):
        with _span(tracer, f"geometry.skeleton_{name}"):
            skel = bl.compute_skeleton(dom, res)
        skel.to_csv(out / f"skeleton_{name}.csv")
        return skel

    def solve_profiles():
        prof = bl.solve_profile4()
        return prof, bl.solve_curvature_correction(4, prof)

    def predict4(eps):
        prof, corr = done["profiles"]
        pred = bl.predict_fourth_2d(potato, done[ops[0]], rs, eps, T_fallback,
                                    eta0=prof.eta0, profile=prof, correction=corr)
        pred.to_csv(out / f"prediction_eps{_tag(eps)}.csv")
        return pred

    def predict2():
        pred = bl.predict_second_2d(potato, done[ops[0]])
        pred.to_csv(out / "prediction_order2.csv")
        return pred

    profiles.get_profile4.cache_clear()
    profiles.get_correction.cache_clear()
    t0 = time.perf_counter()
    potato = bl.potato_domain()
    rs = bl.ReactionSolution(bl.Nonlinearity.exponential())
    T_fallback = rs.T0 * (1.0 - TABLE_DELTA)   # the CLI's fallback blow-up time
    run("profiles", solve_profiles)
    run(ops[0], lambda: skeleton(potato, POTATO_RES, "potato"))
    run(ops[1], lambda: predict4(0.03), "profiles", ops[0])
    run(ops[2], lambda: predict4(0.1), "profiles", ops[0])
    run(ops[3], predict2, ops[0])
    run(ops[4], lambda: skeleton(bl.ellipse_domain(0.75, 1.0), ELLIPSE_RES, "ellipse"))
    p.stage["library"] = p.parts["smooth"] = time.perf_counter() - t0
    check_smooth(p, done)
    return p



def check_smooth(p: Pass, done: dict):
    """Potato regimes and distance argmax; the ellipse centre sample."""
    ops = SMOOTH_OPS
    if ops[1] in done:
        pred = done[ops[1]]
        p.check(ops[1], pred.regime == "omega-set" and len(pred.candidates) >= 1,
                f"regime {pred.regime} with {len(pred.candidates)} candidates")
    if ops[2] in done:
        pred = done[ops[2]]
        p.check(ops[2], pred.regime == "skeleton-points" and pred.multiplicity >= 1,
                f"regime {pred.regime} with {pred.multiplicity} points")
    if ops[3] in done:
        x, y = done[ops[3]].points[0]
        p.check(ops[3], math.hypot(x - POTATO_ARGMAX[0], y - POTATO_ARGMAX[1]) <= 2e-3,
                f"argmax ({x!r}, {y!r}) not near {POTATO_ARGMAX}")
    if ops[4] in done:
        centre = min(done[ops[4]].samples, key=lambda s: math.hypot(*s.point))
        pairs = sorted(centre.pair_distances)
        p.check(ops[4], abs(centre.s_value - 0.75) <= 1e-3 and len(pairs) == 2
                and abs(pairs[0] - 0.75) <= 1e-3 and abs(pairs[1] - 1.0) <= 1e-3,
                f"centre sample s={centre.s_value!r} pairs={pairs}")


PARTS = [("banded", banded_pipeline), ("rect", rect_pipeline), ("cube", cube_solve)]


def solver_pipelines(work: Path, seed: int, tracer=None) -> Pass:
    """The three solver parts, one after the other, in one pass."""
    p = Pass()
    for name, part in PARTS:
        before = p.wall_s
        with _span(tracer, f"part.{name}"):
            part(p, work, seed)
        p.parts[name] = p.wall_s - before
    return p


class Workload:
    def __init__(self, run_pass, ops, invocations, probe_config, seeded=True):
        self.run_pass = run_pass          # (work dir, seed, tracer) -> Pass
        self.ops = ops                    # the operations of one pass
        self.invocations = invocations    # interpreters a user starts per pass
        self.probe_config = probe_config  # (work, seed) -> config a start-up loads
        self.seeded = seeded              # whether the seed draws any input


WORKLOADS = {
    "solver-pipelines": Workload(
        solver_pipelines, STRIP_OPS + STRIP_PREDICT_OPS + DISC_OPS + RECT_OPS + CUBE_OPS,
        invocations=8, probe_config=rect_config),
    "smooth-predict": Workload(smooth_predict, SMOOTH_OPS, invocations=1,
                               probe_config=lambda work, seed: None, seeded=False),
}
