"""Command-line front end.

Verbs: profile, predict, solve (also named sweep), compare. Exit codes:
0 success, 2 config error, 3 numerical failure, 4 no blow-up detected.
CSV files are the data contract; SVG plots are a convenience. Identical
configs (same seed) produce byte-identical CSVs: fileio.write_csv writes
floats with repr, and every merge is sorted. Every output file is
written through atomic_open, so a failed run leaves earlier files whole.
A numerical failure of one eps, in a --threads worker too, exits 3 and
names that eps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import dump_config, load_config
from .errors import (BlowupLabError, ConfigError, ConvergenceError, DivergenceError,
                     RangeError)
from .fileio import atomic_open, cell, read_csv, write_csv
from .geometry import compute_skeleton, omega_set
from .predictor import (Prediction, predict_fourth_2d, predict_second_2d,
                        predict_1d_fourth, skeleton_arrival_time)
from .profiles import OMEGA, get_correction, get_profile4, second_order_profile
from .reaction import ReactionSolution, TABLE_DELTA
from .solvers import solve as run_solver

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_BLOWUP = 4


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def cmd_profile(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.order == 4:
        prof = get_profile4()
        summary = [
            f"order=4",
            f"eta0={prof.eta0!r}",
            f"v_peak={prof.v_peak!r}",
            f"omega={OMEGA!r}",
            f"tail_amplitude={prof.amplitude!r}",
            f"tail_phase={prof.phase!r}",
            f"eta_max={prof.eta_max!r}",
        ]
        name = "profile4"
    else:
        prof = second_order_profile()
        summary = [f"order=2", f"eta_max={prof.eta_max!r}",
                   "monotone=true (no interior peak)"]
        name = "profile2"
    prof.to_csv(os.path.join(args.out, f"{name}.csv"))
    corr = get_correction(args.order)
    write_csv(os.path.join(args.out, f"{name}_correction.csv"), ("eta", "vbar1"),
              np.column_stack([corr.eta, corr.values]))
    with atomic_open(os.path.join(args.out, f"{name}_summary.txt")) as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"wrote {name}.csv, {name}_correction.csv, {name}_summary.txt in {args.out}")
    return EXIT_OK


def _measured_T(out, rs):
    """Measured blow-up times from a prior solve in the same out dir,
    read from the `eps` and `T_eps` columns of sweep_summary.csv; a
    malformed summary is a config error."""
    path = os.path.join(out, "sweep_summary.csv")
    if not os.path.exists(path):
        return {}
    try:
        _, header, rows = read_csv(path)
        if not {"eps", "T_eps"} <= set(header):
            raise ValueError("no eps and T_eps columns")
        pairs = [(float(row["eps"]), float(row["T_eps"])) for row in rows]
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return {eps: T for eps, T in pairs if np.isfinite(T) and 0.0 < T < rs.T0}


def _svg(cfg, path, title, *series):
    """Scatter plot of point series, when the config asks for SVG."""
    if "svg" in cfg.formats:
        from .svgplot import svg_scatter
        svg_scatter(path, list(series), title=title)


def cmd_predict(cfg, out) -> int:
    """Predicted singularity sets, one per eps. The strip is predicted in
    1D; any other geometry needs a 2D domain, so the cube fails before
    any output, and so do eps 0 (the reaction limit, which only solve
    runs) and a skeleton resolution too coarse to find the skeleton.
    Second order predicts the point furthest from the boundary, the same
    for every eps."""
    if min(cfg.eps_values) <= 0:
        raise ConfigError("predict needs experiment.eps > 0; eps 0 is the "
                          "reaction limit, which only solve runs")
    strip = cfg.geometry == "strip"
    dom = None if strip else cfg.domain()
    rs = ReactionSolution(cfg.nonlinearity_obj())
    T_of = _measured_T(out, rs)
    T_fallback = rs.T0 * (1.0 - TABLE_DELTA)
    if not strip:
        res = cfg.solver_overrides.get("skeleton_resolution")
        try:
            skel = compute_skeleton(dom, 0.01 if res is None else float(res))
        except RangeError as e:
            raise ConfigError(f"solver.skeleton_resolution: {e}") from None
        max_depth = float(np.max(skel.s_values()))
    os.makedirs(out, exist_ok=True)
    _write_echo(dump_config(cfg), out)
    if not strip:
        skel.to_csv(os.path.join(out, "skeleton.csv"))
    if cfg.order == 2:
        pred = (Prediction("distance-argmax", np.zeros((1, 1)),
                           dict(order=2, distance=1.0)) if strip
                else predict_second_2d(dom, skeleton=skel))
    rows = []
    for eps in sorted(cfg.eps_values):
        tag = _eps_tag(eps)
        T_eps = T_of.get(eps, T_fallback)
        if cfg.order == 4:
            pred = (predict_1d_fourth(rs, eps, T_eps) if strip
                    else predict_fourth_2d(dom, skel, rs, eps, T_eps))
            pred.metadata["T_eps_source"] = ("measured" if eps in T_of
                                             else "reaction-fallback")
        if cfg.order == 4 and not strip:
            level = min(pred.metadata["level"], 0.999 * max_depth)
            try:
                loops = (pred.omega_loops if pred.regime == "omega-set"
                         and level == pred.metadata["level"]
                         else omega_set(dom, level))
                _write_loops(os.path.join(out, f"omega_eps{tag}.csv"), loops)
            except BlowupLabError:
                pass
        pred.to_csv(os.path.join(out, f"prediction_eps{tag}.csv"))
        rows.append((eps, pred.regime, pred.multiplicity))
        if not strip and pred.points.size:
            _svg(cfg, os.path.join(out, f"prediction_eps{tag}.svg"),
                 f"prediction eps={eps:g}", dict(points=pred.points, label="predicted"))
    write_csv(os.path.join(out, "predictions_summary.csv"),
              ("eps", "regime", "multiplicity"), rows)
    if not strip:
        T_S = skeleton_arrival_time(skel, rs, min(cfg.eps_values), get_profile4().eta0)
        print(f"skeleton: {len(skel.samples)} samples, s_min={skel.s_min:g}, "
              f"T_S(eps={min(cfg.eps_values):g})={T_S:g}")
    return EXIT_OK


def _write_loops(path, loops):
    write_csv(path, ("x", "y", "loop"),
              [(x, y, k) for k, loop in enumerate(loops) for x, y in loop.tolist()])


def _write_echo(echo, out):
    with atomic_open(os.path.join(out, "config_echo.yaml")) as fh:
        fh.write(echo)


def _solve_one(cfg, eps, out, echo):
    try:
        report = run_solver(cfg.solver_config(eps))
    except (ConvergenceError, DivergenceError) as e:
        raise type(e)(f"eps={eps:g}: {e}") from e
    _write_report(report, cfg, eps, out, echo)
    detected = report.blowup_detected or report.stop_reason == "t-end"
    return (eps, report.T_eps, report.multiplicity, report.stop_reason,
            report.sup_stop, detected)


def _write_report(report, cfg, eps, out, echo):
    tag = _eps_tag(eps)
    axes = ("x", "y", "z")[:len(report.grid)]
    write_csv(os.path.join(out, f"singularities_eps{tag}.csv"), (*axes, "value"),
              [(*coords, val) for coords, val in report.singularities])
    write_csv(os.path.join(out, f"trajectory_eps{tag}.csv"), ("t", *axes),
              [(t, *loc) for t, loc in report.peak_trajectory])
    dts = [""] + list(report.diagnostics["dt_history"])
    write_csv(os.path.join(out, f"diagnostics_eps{tag}.csv"), ("t", "sup", "dt"),
              [(t, s, d) for (t, s), d in zip(report.diagnostics["sup_history"], dts)])
    with atomic_open(os.path.join(out, f"report_eps{tag}.txt")) as fh:
        fh.write(f"T_eps={report.T_eps!r}\n"
                 f"t_stop={report.t_stop!r}\n"
                 f"sup_stop={report.sup_stop!r}\n"
                 f"stop_reason={report.stop_reason}\n"
                 f"multiplicity={report.multiplicity}\n")
        for key in ("steps", "solves", "factorizations", "cg_iterations"):
            fh.write(f"{key}={report.diagnostics[key]}\n")
        fh.write("--- config ---\n")
        fh.write(echo)
    if "csv" in cfg.formats:
        _write_field(report, os.path.join(out, f"field_eps{tag}.csv"))
    if len(report.grid) == 2 and len(report.singularities):
        _svg(cfg, os.path.join(out, f"singularities_eps{tag}.svg"),
             f"singularities eps={eps:g}", dict(points=report.singularity_points(),
                                                marker="x", color="#c23", label="computed"))


def _write_field(report, path):
    """One CSV line per node in grid order; the cube stores its max-z slice."""
    grid, field, comments = report.grid, report.final_field, ()
    if len(grid) == 3:  # too large to dump fully
        k = int(np.argmax(field.max(axis=(0, 1))))
        comments = (f"z-slice k={k} z={cell(grid[2][k])}",)
        grid, field = grid[:2], field[:, :, k]
    nodes = np.meshgrid(*grid, indexing="ij")
    write_csv(path, ("x", "y")[:len(grid)] + ("u",),
              np.column_stack([*(g.ravel() for g in nodes), field.ravel()]), comments)


def cmd_solve(cfg, out, threads) -> int:
    eps_list = sorted(cfg.eps_values)
    for e in eps_list:  # bad geometry or solver settings fail before any output
        cfg.solver_config(e)
    os.makedirs(out, exist_ok=True)
    echo = dump_config(cfg)
    _write_echo(echo, out)
    try:
        if threads > 1 and len(eps_list) > 1:
            # imported here: multiprocessing costs every start-up otherwise
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_solve_one, cfg, e, out, echo) for e in eps_list]
                results = [f.result() for f in futures]
        else:
            results = [_solve_one(cfg, e, out, echo) for e in eps_list]
    except (ConvergenceError, DivergenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_csv(os.path.join(out, "sweep_summary.csv"),
              ("eps", "T_eps", "multiplicity", "stop_reason", "sup_stop"),
              [r[:5] for r in results])
    for eps, T, mult, reason, _, _ in results:
        print(f"eps={eps:g}: T_eps={T:.6g} multiplicity={mult} [{reason}]")
    return EXIT_OK if all(r[5] for r in results) else EXIT_NO_BLOWUP


def _read_points_csv(path):
    """Coordinate rows (columns x, y, z as present) of a points CSV,
    without the rows not selected when there is a `selected` column; a
    malformed file is a config error."""
    try:
        _, header, rows = read_csv(path)
        axes = [c for c in ("x", "y", "z") if c in header]
        pts = [[float(row[c]) for c in axes]
               for row in rows if row.get("selected") in (None, "1")]
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return np.array(pts) if pts else np.zeros((0, 2))


def _assign(D):
    """Rows and columns of a minimum-cost assignment in the cost matrix D,
    rows sorted: scipy's linear_sum_assignment, a shortest augmenting path
    method (Crouse, IEEE TAES 52, 2016), followed step for step so that
    ties resolve as in scipy. NaN, -inf or no finite assignment raise
    ValueError."""
    C = np.asarray(D, dtype=float)
    tall = C.shape[1] < C.shape[0]
    if tall:
        C = C.T
    if np.isnan(C).any() or (C == -np.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = C.shape
    cost = C.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # filled in reverse, so a constant matrix gives the identity
        remaining = list(range(nc - 1, -1, -1))
        spc = [math.inf] * nc
        seen_rows, seen_cols = set(), set()
        i, sink, low = cur, -1, 0.0
        while sink < 0:
            seen_rows.add(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = low + cost[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                # on equal path costs prefer a free column: it ends the path
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] < 0):
                    lowest, index = spc[j], it
            low = lowest
            if low == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols.add(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += low
        for i in seen_rows - {cur}:
            u[i] += low - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= low - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    cols = np.array(col4row, dtype=np.intp)
    if tall:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr), cols


def cmd_compare(cfg, out) -> int:
    cfg.solver_geometry()  # compare reads solver outputs
    echo_path = os.path.join(out, "config_echo.yaml")
    if not os.path.exists(echo_path):
        print("no prior outputs to compare against (missing config_echo.yaml)",
              file=sys.stderr)
        return EXIT_CONFIG
    with open(echo_path, "r", encoding="utf-8") as fh:
        if fh.read() != dump_config(cfg):
            print("config mismatch: outputs in --out were produced by a "
                  "different configuration", file=sys.stderr)
            return EXIT_CONFIG
    sets = []
    for eps in sorted(cfg.eps_values):
        if eps == 0:
            print("eps=0 skipped: the reaction limit has no prediction to "
                  "compare with", file=sys.stderr)
            continue
        paths = [os.path.join(out, f"{kind}_eps{_eps_tag(eps)}.csv")
                 for kind in ("prediction", "singularities")]
        if not all(map(os.path.exists, paths)):
            print(f"missing prediction/solve outputs for eps={eps:g}",
                  file=sys.stderr)
            return EXIT_CONFIG
        sets.append((eps, *map(_read_points_csv, paths)))
    if not sets:
        print("nothing to compare: the sweep holds only eps 0", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for eps, pred, comp in sets:
        counts = (len(pred), len(comp), int(len(pred) == len(comp)))
        if len(pred) and len(comp):
            d = min(pred.shape[1], comp.shape[1])
            D = np.linalg.norm(pred[:, None, :d] - comp[None, :, :d], axis=2)
            ri, ci = _assign(D)
            # x and y of each matched pair, a 1D point with y = 0
            xy = np.zeros((len(ri), 4))
            k = min(d, 2)
            xy[:, :k], xy[:, 2:2 + k] = pred[ri, :k], comp[ci, :k]
            rows += [(eps, *p, D[a, b], *counts) for p, a, b in zip(xy, ri, ci)]
        else:
            rows.append((eps, *([np.nan] * 5), *counts))
        if pred.shape[1] >= 2 and comp.shape[1] >= 2:
            _svg(cfg, os.path.join(out, f"comparison_eps{_eps_tag(eps)}.svg"),
                 f"predicted vs computed, eps={eps:g}",
                 dict(points=pred[:, :2], label="asymptotic"),
                 dict(points=comp[:, :2], marker="x", color="#c23", label="numerical"))
    write_csv(os.path.join(out, "comparison.csv"),
              ("eps", "pred_x", "pred_y", "comp_x", "comp_y", "distance",
               "pred_multiplicity", "comp_multiplicity", "multiplicity_agree"), rows)
    agree = all(r[-1] == 1 for r in rows)
    print(f"comparison.csv written ({len(rows)} matched rows); "
          f"multiplicity agreement: {agree}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="blowup-lab",
        description="Blow-up simulation and prediction laboratory for "
                    "second- and fourth-order semilinear parabolic problems.")
    p.add_argument("--config", help="experiment YAML", default=None)
    p.add_argument("--out", help="output directory (overrides config)", default=None)
    p.add_argument("--seed", type=int, default=None, help="noise seed override")
    p.add_argument("--threads", type=int, default=1, help="sweep worker count")
    sub = p.add_subparsers(dest="verb", required=True)
    sp = sub.add_parser("profile", help="solve and export a layer profile")
    sp.add_argument("--order", type=int, choices=(2, 4), default=4)
    for verb in ("predict", "solve", "sweep", "compare"):
        sub.add_parser(verb)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "profile":
            args.out = args.out or "out"
            return cmd_profile(args)
        if args.config is None:
            print("--config is required for this verb", file=sys.stderr)
            return EXIT_CONFIG
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out = args.out or cfg.output_dir
        if args.verb == "predict":
            return cmd_predict(cfg, out)
        if args.verb == "compare":
            return cmd_compare(cfg, out)
        return cmd_solve(cfg, out, args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, DivergenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
