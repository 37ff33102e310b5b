"""Per-layer tracing of blowuplab from outside the package.

The tracer wraps public callables of each layer and records one span
(name, start, end, parent, pass id) per call, plus counts of the work
done (factorizations, steps, points, iterations). Modules import by
name (`from .geometry import omega_set`), so a hook replaces every
binding of the target in the loaded blowuplab modules, and class
attributes for methods. Hooks are removed by `uninstall`; a target that
no longer exists is recorded in `missing` and the metrics that depend
only on it come out as None instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

import numpy as np

HOOK_MARK = "__perfbench_hook__"


def _npoints(arg):
    return len(np.atleast_2d(np.asarray(arg, dtype=float)))


def _points_arg(args, kwargs, result, name="points", index=1):
    return _npoints(kwargs[name] if name in kwargs else args[index])


# (group, module, attribute or Class.method, count of work per call or None)
# The group is the span name. A count function gets (args, kwargs, result).
SPAN_HOOKS = [
    ("solvers.solve", "blowuplab.solvers", "solve", None),
    ("solvers.factor", "blowuplab.solvers.common", "splu", None),
    ("solvers.apply", "blowuplab.solvers.common", "BandedCN.apply", None),
    ("solvers.apply", "blowuplab.solvers.common", "SparseLUCN.apply", None),
    ("solvers.apply", "blowuplab.solvers.common", "ConjugateGradientCN.apply", None),
    ("solvers.stepper", "blowuplab.solvers.common", "run_stepper",
     lambda a, k, r: r["steps"]),
    ("solvers.extract", "blowuplab.solvers.common", "extract_singularities", None),
    ("solvers.extract", "blowuplab.solvers.common", "track_peaks", None),
    ("solvers.assembly", "blowuplab.solvers.rect2d", "rect_operator", None),
    ("solvers.assembly", "blowuplab.solvers.cube3d", "cube_operator", None),
    ("solvers.assembly", "blowuplab.solvers.one_dim", "fourth_derivative_clamped", None),
    ("solvers.assembly", "blowuplab.solvers.one_dim", "second_derivative_dirichlet", None),
    ("solvers.assembly", "blowuplab.solvers.radial", "radial_biharmonic", None),
    ("solvers.assembly", "blowuplab.solvers.radial", "radial_laplacian_dirichlet", None),
    ("reaction.flow", "blowuplab.reaction", "ReactionSolution.flow", None),
    ("stencils.fd_weights", "blowuplab.stencils", "fd_weights", None),
    ("profiles.profile4", "blowuplab.profiles", "solve_profile4", None),
    ("profiles.correction", "blowuplab.profiles", "solve_curvature_correction", None),
    ("geometry.skeleton", "blowuplab.geometry", "compute_skeleton", None),
    ("geometry.radius", "blowuplab.geometry", "SmoothPolarDomain.radius", None),
    ("geometry.radius", "blowuplab.geometry", "SmoothPolarDomain.radius_d1", None),
    ("geometry.radius", "blowuplab.geometry", "SmoothPolarDomain.radius_d2", None),
    ("geometry.nearest", "blowuplab.geometry", "SmoothPolarDomain.signed_distance",
     _points_arg),
    ("geometry.nearest", "blowuplab.geometry", "SmoothPolarDomain.nearest_feet_grid",
     functools.partial(_points_arg, name="pts")),
    ("geometry.nearest", "blowuplab.geometry", "RectangleDomain.signed_distance",
     _points_arg),
    ("geometry.feet", "blowuplab.geometry", "SmoothPolarDomain.feet_batch",
     functools.partial(_points_arg, name="pts")),
    ("geometry.feet", "blowuplab.geometry", "RectangleDomain.feet_batch",
     functools.partial(_points_arg, name="pts")),
    ("geometry.omega", "blowuplab.geometry", "omega_set", None),
    ("geometry.argmax", "blowuplab.geometry", "max_distance_point", None),
    ("predictor.predict4", "blowuplab.predictor", "predict_fourth_2d", None),
    ("predictor.predict4", "blowuplab.predictor", "predict_1d_fourth", None),
    ("cli.solve", "blowuplab.cli", "cmd_solve", None),
    ("cli.predict", "blowuplab.cli", "cmd_predict", None),
    ("cli.compare", "blowuplab.cli", "cmd_compare", None),
]

def _count_cg_iterations(tracer, group, fn):
    def hooked(*args, callback=None, **kwargs):
        def counting(xk):
            tracer.add(group, 1)
            if callback is not None:
                callback(xk)
        return fn(*args, callback=counting, **kwargs)
    return hooked


def _count_evaluations(tracer, group, fn):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.add(group, int(result.nfev))
        return result
    return hooked


def _count_uniform_points(tracer, group, fn):
    def hooked(*args, **kwargs):
        tracer.add(group, _points_arg(args, kwargs, None, index=4))
        return fn(*args, **kwargs)
    return hooked


# Count-only hooks, (group, module, attribute, wrapper factory): they open
# no span, so the caller's self time keeps their cost.
COUNT_HOOKS = [
    ("solvers.cg", "scipy.sparse.linalg", "cg", _count_cg_iterations),
    ("geometry.argmax_evals", "blowuplab.geometry", "minimize", _count_evaluations),
    ("predictor.uniform", "blowuplab.predictor", "uniform_2d", _count_uniform_points),
]

# (metric, unit, groups, field), summed over the groups. Fields: calls =
# spans of the group, work = summed count of the group, total = time of
# outermost spans of the group (nested spans of the same group are not
# counted twice), self = span time minus the time of its direct children.
PER_LAYER = [
    ("solvers.linear_factorizations", "count", "solvers.factor", "calls"),
    ("solvers.linear_factor_s", "s", "solvers.factor", "total"),
    ("solvers.linear_apply_calls", "count", "solvers.apply", "calls"),
    ("solvers.linear_apply_s", "s", "solvers.apply", "self"),
    ("solvers.cg_iterations", "count", "solvers.cg", "work"),
    ("solvers.steps", "count", "solvers.stepper", "work"),
    ("solvers.stepper_self_s", "s", "solvers.stepper", "self"),
    ("solvers.assembly_s", "s", "solvers.assembly", "total"),
    ("solvers.extract_calls", "count", "solvers.extract", "calls"),
    ("solvers.extract_s", "s", "solvers.extract", "total"),
    ("reaction.flow_calls", "count", "reaction.flow", "calls"),
    ("reaction.flow_s", "s", "reaction.flow", "total"),
    ("stencils.fd_weights_calls", "count", "stencils.fd_weights", "calls"),
    ("stencils.fd_weights_s", "s", "stencils.fd_weights", "total"),
    ("profiles.profile4_s", "s", "profiles.profile4", "total"),
    ("profiles.correction_s", "s", "profiles.correction", "total"),
    ("geometry.skeleton_potato_s", "s", "geometry.skeleton_potato", "total"),
    ("geometry.skeleton_ellipse_s", "s", "geometry.skeleton_ellipse", "total"),
    ("geometry.radius_calls", "count", "geometry.radius", "calls"),
    ("geometry.radius_s", "s", "geometry.radius", "total"),
    ("geometry.nearest_points", "count", "geometry.nearest", "work"),
    ("geometry.nearest_s", "s", "geometry.nearest", "total"),
    ("geometry.feet_points", "count", "geometry.feet", "work"),
    ("geometry.feet_s", "s", "geometry.feet", "total"),
    ("geometry.omega_s", "s", "geometry.omega", "total"),
    ("geometry.argmax_s", "s", "geometry.argmax", "total"),
    ("geometry.argmax_evals", "count", "geometry.argmax_evals", "work"),
    ("predictor.predict4_s", "s", "predictor.predict4", "self"),
    ("predictor.uniform_points", "count", "predictor.uniform", "work"),
    ("cli.self_s", "s", ("cli.solve", "cli.predict", "cli.compare"), "self"),
    ("cli.solve_s", "s", "cli.solve", "total"),
    ("cli.predict_s", "s", "cli.predict", "total"),
]

# Spans the workloads open themselves around library calls; they exist
# whenever the workload runs, so they never count as missing hooks.
BENCH_GROUPS = {"geometry.skeleton_potato", "geometry.skeleton_ellipse"}


class Tracer:
    """Spans and counts in memory; hooks installed on demand."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, pass id, outermost]
        self.work = {}       # (pass id, group) -> summed count
        self.pass_id = 0
        self.missing = []    # "module:attr" of hooks whose target is gone
        self._stack = []
        self._open = {}      # group -> spans of it currently open
        self._patches = []   # (owner, attr, original)
        self._groups = set(BENCH_GROUPS)

    # -- spans and counts ----------------------------------------------------
    def _enter(self, name):
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.pass_id, depth == 0])
        self._stack.append(i)
        return i

    def _exit(self, i):
        span = self.spans[i]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def span(self, name):
        return _Span(self, name)

    def add(self, group, n):
        key = (self.pass_id, group)
        self.work[key] = self.work.get(key, 0) + n

    # -- hooks -----------------------------------------------------------------
    def install(self):
        for group, module, attr, count in SPAN_HOOKS:
            self._hook(group, module, attr, self._span_wrapper(group, count))
        for group, module, attr, count in COUNT_HOOKS:
            self._hook(group, module, attr, self._count_wrapper(group, count))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook(self, group, module, attr, make_wrapper):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}:{attr}")
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(original):
                self.missing.append(f"{module}:{attr}")
                return
            self._patch(cls, meth, make_wrapper(original))
        else:
            original = getattr(mod, attr, None)
            if not callable(original):
                self.missing.append(f"{module}:{attr}")
                return
            wrapper = make_wrapper(original)
            owners = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "blowuplab"
                                            or name.startswith("blowuplab."))]
            if mod not in owners:
                owners.append(mod)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
        self._groups.add(group)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, group, count):
        def make(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                i = self._enter(group)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(i)
                if count is not None:
                    self.add(group, count(args, kwargs, result))
                return result
            setattr(hooked, HOOK_MARK, True)
            return hooked
        return make

    def _count_wrapper(self, group, count):
        def make(fn):
            hooked = functools.wraps(fn)(count(self, group, fn))
            setattr(hooked, HOOK_MARK, True)
            return hooked
        return make

    # -- results -----------------------------------------------------------------
    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def group_stats(self, pass_id):
        """{group: {calls, total, self}} over the spans of one pass."""
        stats = {}
        for span, self_t in zip(self.spans, self.self_times()):
            name, t0, t1, _, pid, outermost = span
            if pid != pass_id:
                continue
            g = stats.setdefault(name, dict(calls=0, total=0.0, self=0.0))
            g["calls"] += 1
            g["self"] += self_t
            if outermost:
                g["total"] += t1 - t0
        return stats

    def layer_metrics(self, pass_id):
        """Per-layer metric values of one pass; None when the hook is gone."""
        stats = self.group_stats(pass_id)
        out = {}
        for metric, unit, groups, fld in PER_LAYER:
            groups = (groups,) if isinstance(groups, str) else groups
            if not any(g in self._groups for g in groups):
                value = None
            elif fld == "work":
                value = sum(self.work.get((pass_id, g), 0) for g in groups)
            else:
                value = sum(stats.get(g, {}).get(fld, 0) for g in groups)
            out[metric] = (value, unit)
        return out

    def write(self, path):
        """Write every span with its self time as gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,pass,name,start,end,parent,self\n")
            for i, (span, self_t) in enumerate(zip(self.spans, self.self_times())):
                name, t0, t1, parent, pid, _ = span
                fh.write(f"{i},{pid},{name},{t0!r},{t1!r},{parent},{self_t!r}\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.i)
        return False
