"""Golden solver reports: eight small runs over the four geometries.

`tests/data/solver_reports_golden.json` was recorded from the per-geometry
solvers that `solve()` replaced (strip, radial disc, rectangle, cube), so
these tests pin the shared pipeline to their numbers. Counts and stop
reasons must match exactly; every float to 1e-12 relative. Coordinates
are relative to the unit scale of the domains, since the coordinate of a
centred peak is rounding noise (1e-16) rather than a number to match.

The rectangle and cube cases were recorded with the sparse LU and plain
CG Crank-Nicolson steps. Those stay as the reference slow paths: the golden check
runs these cases through them, and test_fast_solver_matches_reference
compares `solve()`, which uses FastDiagCN, with that reference run.

Re-record (only when a change of the numbers is intended):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
import os
import sys

import pytest

from blowuplab.reaction import Nonlinearity
from blowuplab.solvers import BUILDERS, SolverConfig, solve, solve_problem
from blowuplab.solvers.common import ConjugateGradientCN, SparseLUCN
from oracles import box_operator

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "solver_reports_golden.json")
RTOL = 1e-12
COORDINATE_KEYS = ("singularities", "ring_radius", "peak_trajectory")

CASES = {
    "strip4_snapshots_noise": dict(
        order=4, nonlinearity="exp", eps=0.2, geometry="strip", nx=201,
        grading=2.0, threshold=10.0, snapshot_stride=10,
        noise_amplitude=1e-3, seed=3),
    "strip2_snapshots_noise": dict(
        order=2, nonlinearity="pow:2", eps=0.1, geometry="strip", nx=201,
        grading=2.0, threshold=20.0, snapshot_times=(0.2, 0.5),
        noise_amplitude=1e-4, seed=5, check_supersolution=False),
    "disc_ring": dict(
        order=4, nonlinearity="pow:2", eps=0.1, geometry="radial-disc",
        nx=200, threshold=50.0, snapshot_stride=25),
    "disc_origin": dict(
        order=4, nonlinearity="pow:2", eps=0.35, geometry="radial-disc",
        nx=100, threshold=100.0),
    "rect4_anisotropic_snapshots": dict(
        order=4, nonlinearity="exp", eps=0.1, geometry="rect", nx=41, ny=21,
        half_width_y=0.5, threshold=10.0, snapshot_stride=20),
    "rect2": dict(
        order=2, nonlinearity="pow:2", eps=0.2, geometry="rect", nx=31,
        threshold=10.0),
    "cube": dict(
        order=4, nonlinearity="pow:2", eps=0.25, geometry="cube", nx=11,
        threshold=5.0),
    "strip_eps0": dict(
        order=4, nonlinearity="exp", eps=0.0, geometry="strip", nx=51,
        threshold=50.0, snapshot_times=(0.3,)),
}


# the Crank-Nicolson step each golden rectangle and cube case was recorded with
REFERENCE = {"rect2": SparseLUCN, "rect4_anisotropic_snapshots": SparseLUCN,
             "cube": ConjugateGradientCN}


def case_config(name):
    kw = dict(CASES[name])
    kw["nonlinearity"] = Nonlinearity.from_spec(kw["nonlinearity"])
    return SolverConfig(**kw)


def run_case(name):
    """The case through the path its golden report was recorded with."""
    cfg = case_config(name)
    if name not in REFERENCE:
        return solve(cfg)
    adapter, axes = BUILDERS[cfg.geometry](cfg)
    return solve_problem(cfg, REFERENCE[name](box_operator(adapter)), axes)


def record(rep):
    """The report's numbers as plain JSON types."""
    return dict(
        stop_reason=rep.stop_reason,
        multiplicity=rep.multiplicity,
        steps=rep.diagnostics["steps"],
        T_eps=rep.T_eps,
        t_stop=rep.t_stop,
        sup_stop=rep.sup_stop,
        singularities=[[[float(c) for c in loc], float(v)]
                       for loc, v in rep.singularities],
        ring_radius=rep.ring_radius,
        peak_trajectory=[[float(t), [float(c) for c in loc]]
                         for t, loc in rep.peak_trajectory],
        sup_history=[[float(t), float(s)] for t, s in
                     rep.diagnostics["sup_history"]],
        dt_history=[float(d) for d in rep.diagnostics["dt_history"]],
    )


def _flat(value):
    """Every number of a nested list, in order."""
    if isinstance(value, list):
        return [x for v in value for x in _flat(v)]
    return [value]


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_reproduces_golden_report(name):
    want = _load()[name]
    got = record(run_case(name))
    for key in ("stop_reason", "multiplicity", "steps"):
        assert got[key] == want[key], key
    assert (got["ring_radius"] is None) == (want["ring_radius"] is None)
    for key in ("T_eps", "t_stop", "sup_stop", "singularities", "ring_radius",
                "peak_trajectory", "sup_history", "dt_history"):
        g, w = _flat(got[key]), _flat(want[key])
        assert len(g) == len(w), key
        floor = 1.0 if key in COORDINATE_KEYS else 0.0
        for a, b in zip(g, w):
            if b is None or (isinstance(b, float) and math.isnan(b)):
                assert a is None or math.isnan(a), key
            else:
                assert abs(a - b) <= RTOL * max(abs(b), floor), (key, a, b)


FAST_RTOL = 1e-9


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_fast_solver_matches_reference(name):
    """solve() on FastDiagCN against the sparse LU / CG reference run.

    The peak trajectory is left out: on the symmetric rect4 case, which
    of several equally long tracks is the main one is decided by rounding."""
    got = record(solve(case_config(name)))
    want = record(run_case(name))
    for key in ("stop_reason", "multiplicity", "steps", "dt_history"):
        assert got[key] == want[key], key
    for key in ("T_eps", "sup_stop", "sup_history", "singularities"):
        g, w = _flat(got[key]), _flat(want[key])
        assert len(g) == len(w), key
        floor = 1.0 if key in COORDINATE_KEYS else 0.0
        for a, b in zip(g, w):
            assert abs(a - b) <= FAST_RTOL * max(abs(b), floor), (key, a, b)


if __name__ == "__main__":
    out = {name: record(run_case(name)) for name in sorted(CASES)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
