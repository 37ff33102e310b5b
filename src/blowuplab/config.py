"""Experiment configuration: YAML documents with strict schema validation.

A config has four sections; only `experiment` is required:

    experiment:
      nonlinearity: exp            # exp | pow:<p> | <registered custom>
      order: 4
      geometry: square:1           # strip | square:L | rect:a,b | disc |
                                   # radial-disc | polar:c0,a1,b1,... | cube:L
      eps: [0.1, 0.2]              # scalar or non-empty sweep list
    solver:                        # optional SolverConfig overrides
      nx: 201
      threshold: 10
    outputs:
      directory: runs/square
      snapshot_stride: 0           # field every n-th step (0: off); outputs only
      formats: [csv]               # csv (contract), svg (convenience)
    seed: 0

Unknown keys are rejected with the offending key path and, when it can
be located, the line in the source file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import yaml

from .errors import ConfigError
from .geometry import PlanarDomain, RectangleDomain
from .reaction import Nonlinearity
from .solvers import SolverConfig

_SOLVER_KEYS = {
    "nx": int, "ny": int, "grading": float,
    "dt_init": float, "dt_min": float, "dt_max": float,
    "safety": float, "growth_target": float, "threshold": float,
    "max_steps": int, "t_end": float, "theta": float,
    "noise_amplitude": float,
    "check_supersolution": bool, "max_unknowns": int,
    "skeleton_resolution": float,  # consumed by the predict command
}
_OUTPUT_KEYS = {"directory": str, "snapshot_stride": int, "formats": list}
_EXPERIMENT_KEYS = {"name": str, "nonlinearity": str, "order": int,
                    "geometry": str, "eps": object}


@dataclass
class ExperimentConfig:
    name: str
    nonlinearity: str
    order: int
    geometry: str
    eps_values: list
    solver_overrides: dict = field(default_factory=dict)
    output_dir: str = "out"
    snapshot_stride: int = 0
    formats: tuple = ("csv",)
    seed: int = 0
    source_path: str = ""

    def nonlinearity_obj(self) -> Nonlinearity:
        return Nonlinearity.from_spec(self.nonlinearity)

    def domain(self) -> PlanarDomain:
        """2D geometric domain for prediction commands."""
        g = self.geometry
        if g.startswith(("strip", "cube", "radial-disc")):
            if g == "radial-disc":
                return PlanarDomain.from_spec("disc")
            raise ConfigError(f"geometry {self.geometry!r} has no 2D domain")
        if g.startswith(("square:", "rect:")):
            return RectangleDomain.centered(*self.half_widths)
        return PlanarDomain.from_spec(g)

    @cached_property
    def half_widths(self) -> tuple:
        """Box half-widths, parsed once: (L, L) of square:L, (a, b) of
        rect:a,b, (L,) of cube:L or plain cube (L = 1), () of the other
        geometries. ConfigError unless each is finite and positive."""
        g = "cube:1" if self.geometry == "cube" else self.geometry
        kind, _, args = g.partition(":")
        arity = {"square": 1, "rect": 2, "cube": 1}.get(kind)
        if arity is None:
            return ()
        try:
            vals = [float(s) for s in args.split(",")]
        except ValueError:
            vals = []
        if len(vals) != arity or not all(0 < v < math.inf for v in vals):
            raise ConfigError(f"geometry {self.geometry!r} needs {arity} finite "
                              "positive half-width(s)")
        return tuple(vals * 2 if kind == "square" else vals)

    def solver_geometry(self) -> str:
        g = self.geometry
        if g == "strip":
            return "strip"
        if g in ("disc", "radial-disc"):
            return "radial-disc"
        if g.startswith(("square:", "rect:")):
            return "rect"
        if g == "cube" or g.startswith("cube:"):
            return "cube"
        raise ConfigError(f"no solver supports geometry {self.geometry!r}")

    def solver_config(self, eps: float) -> SolverConfig:
        geo = self.solver_geometry()
        kw = dict(order=self.order, nonlinearity=self.nonlinearity_obj(),
                  eps=eps, geometry=geo, seed=self.seed,
                  snapshot_stride=self.snapshot_stride)
        if geo == "rect":
            a, b = self.half_widths
            kw.update(half_width_x=a, half_width_y=b, nx=201, ny=None)
        elif geo == "cube":
            kw.update(half_width_x=self.half_widths[0], nx=41)
        elif geo == "radial-disc":
            kw.update(nx=1000)
        overrides = dict(self.solver_overrides)
        overrides.pop("skeleton_resolution", None)
        kw.update(overrides)
        if geo == "rect" and not kw.get("ny"):
            a, b = kw["half_width_x"], kw["half_width_y"]
            kw["ny"] = max(5, int(round((kw["nx"] - 1) * b / a)) + 1)
        kw = {k: v for k, v in kw.items() if v is not None}
        return SolverConfig(**kw)


def _reject_unknown(section: dict, allowed: dict, where: str, raw: str):
    for key in section:
        if key not in allowed:
            line = _find_line(raw, key)
            loc = f" (line {line})" if line else ""
            raise ConfigError(f"unknown key {where}.{key}{loc}")


def _find_line(raw: str, key: str):
    for i, line in enumerate(raw.splitlines(), start=1):
        if line.strip().startswith(f"{key}:"):
            return i
    return None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"config parse error in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    for key in doc:
        if key not in ("experiment", "solver", "outputs", "seed"):
            line = _find_line(raw, key)
            raise ConfigError(
                f"unknown section {key!r}" + (f" (line {line})" if line else ""))
    exp = doc.get("experiment")
    if not isinstance(exp, dict):
        raise ConfigError("missing required section 'experiment'")
    _reject_unknown(exp, _EXPERIMENT_KEYS, "experiment", raw)
    for req in ("nonlinearity", "order", "geometry", "eps"):
        if req not in exp:
            raise ConfigError(f"experiment.{req} is required")
    eps = exp["eps"]
    if isinstance(eps, (int, float)):
        eps_values = [float(eps)]
    elif isinstance(eps, list) and eps:
        eps_values = [float(e) for e in eps]
    else:
        raise ConfigError("experiment.eps must be a number or non-empty list")
    if any(e < 0 for e in eps_values):
        raise ConfigError("experiment.eps values must be >= 0")
    order = exp["order"]
    if order not in (2, 4):
        raise ConfigError(f"experiment.order must be 2 or 4, got {order!r}")

    solver = doc.get("solver", {}) or {}
    _reject_unknown(solver, _SOLVER_KEYS, "solver", raw)
    outputs = doc.get("outputs", {}) or {}
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs", raw)
    formats = tuple(outputs.get("formats", ["csv"]))
    for f in formats:
        if f not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {f!r}")

    cfg = ExperimentConfig(
        name=exp.get("name", "experiment"),
        nonlinearity=str(exp["nonlinearity"]),
        order=int(order),
        geometry=str(exp["geometry"]),
        eps_values=eps_values,
        solver_overrides=dict(solver),
        output_dir=str(outputs.get("directory", "out")),
        snapshot_stride=int(outputs.get("snapshot_stride", 0)),
        formats=formats,
        seed=int(doc.get("seed", 0)),
        source_path=str(path),
    )
    # fail fast on malformed nonlinearity/geometry tokens
    try:
        cfg.nonlinearity_obj()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _ = cfg.half_widths  # parsed once here, read again by solver_config
    # a geometry must be solvable or predictable; the verb decides which
    try:
        cfg.solver_geometry()
    except ConfigError as unsolvable:
        try:
            cfg.domain()
        except ValueError as e:
            raise ConfigError(f"{unsolvable}, and it is no 2D domain: {e}") from None
    return cfg


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML echo of a config (round-trips through load)."""
    doc = {
        "experiment": {
            "name": cfg.name,
            "nonlinearity": cfg.nonlinearity,
            "order": cfg.order,
            "geometry": cfg.geometry,
            "eps": cfg.eps_values if len(cfg.eps_values) > 1 else cfg.eps_values[0],
        },
        "solver": dict(cfg.solver_overrides),
        "outputs": {
            "directory": cfg.output_dir,
            "snapshot_stride": cfg.snapshot_stride,
            "formats": list(cfg.formats),
        },
        "seed": cfg.seed,
    }
    if not doc["solver"]:
        del doc["solver"]
    return yaml.safe_dump(doc, sort_keys=True)
