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
      snapshot_stride: 0           # peak track sampled every n-th step (0: off)
      formats: [csv]               # csv (contract), svg (convenience)
    seed: 0

Unknown keys and values of the wrong type are rejected with the
offending key path and, when it can be located, the line in the source
file. Values are kept as written: `threshold: 8` stays the int 8.

`outputs.snapshot_stride` writes no field snapshot, and the solver keeps
none: at every n-th step it links the field's peaks into tracks at once,
and the main track is the path that `solve` writes to
trajectory_eps*.csv. At 0 that file holds only its header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import yaml

from .errors import ConfigError
from .geometry import RectangleDomain, SmoothPolarDomain
from .reaction import Nonlinearity
from .solvers import SolverConfig

# Section -> key -> type; seed is a top-level scalar. An int passes for a
# float, a bool only for a bool; null keeps a solver key's default.
_SCHEMA = {
    "experiment": {"name": str, "nonlinearity": str, "order": int,
                   "geometry": str, "eps": object},  # eps: checked by load_config
    "solver": {
        "nx": int, "ny": int, "grading": float,
        "dt_init": float, "dt_max": float, "growth_target": float,
        "threshold": float, "max_steps": int, "t_end": float,
        "noise_amplitude": float,
        "check_supersolution": bool, "max_unknowns": int,
        "skeleton_resolution": float,  # consumed by the predict command
    },
    "outputs": {"directory": str, "snapshot_stride": int, "formats": list},
    "seed": int,
}

# Geometry token kind -> (half-widths given, box dimension, solver
# geometry). Kinds ending in a colon take arguments: the half-width of
# every axis (square:, cube:) or of each axis (rect:), or the radius
# coefficients of polar:, which no solver covers. A box token without
# half-widths has half-width 1: the strip [-1, 1] and plain cube, cube:1.
_GEOMETRIES = {
    "strip": (0, 1, "strip"), "cube": (0, 3, "cube"), "cube:": (1, 3, "cube"),
    "square:": (1, 2, "rect"), "rect:": (2, 2, "rect"), "disc": (0, 0, "radial-disc"),
    "radial-disc": (0, 0, "radial-disc"), "polar:": (0, 0, None),
}
# Grid nodes per axis of a solver geometry, unless solver.nx sets them;
# the strip keeps SolverConfig's.
_DEFAULT_NX = {"rect": 201, "cube": 41, "radial-disc": 1000}


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

    def nonlinearity_obj(self) -> Nonlinearity:
        return Nonlinearity.from_spec(self.nonlinearity)

    def _token(self) -> tuple:
        """(_GEOMETRIES key, the comma-separated numbers after the colon)
        of the geometry token; the numbers are [] when one is none."""
        head, colon, args = self.geometry.partition(":")
        if head + colon not in _GEOMETRIES:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        try:
            return head + colon, [float(s) for s in args.split(",")]
        except ValueError:
            return head + colon, []

    def domain(self):
        """The domain of the geometry token, on which predict dispatches:
        the centred box of half_widths (the strip [-1, 1], square:, rect:,
        cube), the unit disc, or the polar: region."""
        kind, vals = self._token()
        if kind == "polar:":
            if len(vals) % 2 == 0:
                raise ConfigError("polar: takes c0 and (cos, sin) coefficient pairs")
            return SmoothPolarDomain(vals[0], vals[1::2], vals[2::2])
        if self.half_widths:
            return RectangleDomain.centered(*self.half_widths)
        return SmoothPolarDomain(1.0)

    @cached_property
    def half_widths(self) -> tuple:
        """Box half-widths, one per axis, parsed once: (1,) of the strip,
        (L, L) of square:L, (a, b) of rect:a,b, (L, L, L) of cube:L or
        plain cube (L = 1), () of the other geometries. ConfigError unless
        each is finite and positive."""
        kind, vals = self._token()
        count, dim, _ = _GEOMETRIES[kind]
        if not count:
            return (1.0,) * dim
        if len(vals) != count or not all(0 < v < math.inf for v in vals):
            raise ConfigError(f"geometry {self.geometry!r} needs {count} finite "
                              "positive half-width(s)")
        return tuple(vals * (dim // count))

    def solver_geometry(self) -> str:
        solver = _GEOMETRIES[self._token()[0]][2]
        if solver is None:
            raise ConfigError(f"no solver supports geometry {self.geometry!r}")
        return solver

    def solver_config(self, eps: float) -> SolverConfig:
        geo = self.solver_geometry()
        kw = dict(order=self.order, nonlinearity=self.nonlinearity_obj(),
                  eps=eps, geometry=geo, seed=self.seed,
                  snapshot_stride=self.snapshot_stride, nx=_DEFAULT_NX.get(geo))
        # a box's first two half-widths; the strip and the cube read x only
        kw.update(zip(("half_width_x", "half_width_y"), self.half_widths))
        # a null override keeps the default, so ny is derived from a real nx
        kw.update((k, v) for k, v in self.solver_overrides.items()
                  if v is not None and k != "skeleton_resolution")
        if geo == "rect" and not kw.get("ny"):
            a, b = kw["half_width_x"], kw["half_width_y"]
            kw["ny"] = max(5, int(round((kw["nx"] - 1) * b / a)) + 1)
        kw = {k: v for k, v in kw.items() if v is not None}
        return SolverConfig(**kw)


def _at(raw: str, path: str) -> str:
    """' (line n)' of the line of raw that sets the dotted key path, each
    key searched from the line of its section on; '' if none does."""
    lines, n = raw.splitlines(), 0
    for key in path.split("."):
        n = next((i for i in range(n, len(lines))
                  if lines[i].strip().startswith(f"{key}:")), None)
        if n is None:
            return ""
    return f" (line {n + 1})"


def _is(value, typ) -> bool:
    """isinstance, but an int passes for a float and a bool only for a bool."""
    if isinstance(value, bool):
        return typ in (bool, object)
    return isinstance(value, (int, float) if typ is float else typ)


def _check(section: dict, schema: dict, where: str, raw: str):
    """Reject the keys of section that schema lacks and the values of the
    wrong type; a nested schema is a section, which may be null."""
    for key, value in section.items():
        path, typ = f"{where}{key}", schema.get(key)
        if typ is None:
            raise ConfigError(f"unknown key {path}{_at(raw, path)}")
        if isinstance(typ, dict):
            if not isinstance(value, (dict, type(None))):
                raise ConfigError(f"{path} must be a mapping{_at(raw, path)}")
            _check(value or {}, typ, f"{path}.", raw)
        elif not (_is(value, typ) or value is None and where == "solver."):
            raise ConfigError(f"{path} must be {typ.__name__}, got {value!r}"
                              f"{_at(raw, path)}")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"config parse error in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check(doc, _SCHEMA, "", raw)
    exp = doc.get("experiment")
    if exp is None:
        raise ConfigError("missing required section 'experiment'")
    for req in ("nonlinearity", "order", "geometry", "eps"):
        if req not in exp:
            raise ConfigError(f"experiment.{req} is required")
    eps_values = exp["eps"] if isinstance(exp["eps"], list) else [exp["eps"]]
    if not eps_values or not all(_is(e, float) for e in eps_values):
        raise ConfigError("experiment.eps must be a number or a non-empty list "
                          f"of numbers, got {exp['eps']!r}{_at(raw, 'experiment.eps')}")
    eps_values = [float(e) for e in eps_values]
    if not all(0 <= e < math.inf for e in eps_values):
        raise ConfigError("experiment.eps values must be finite and >= 0")
    if exp["order"] not in (2, 4):
        raise ConfigError(f"experiment.order must be 2 or 4, got {exp['order']!r}")
    res = (doc.get("solver") or {}).get("skeleton_resolution")
    if res is not None and not 0 < res < math.inf:
        raise ConfigError("solver.skeleton_resolution must be finite and positive, "
                          f"got {res!r}{_at(raw, 'solver.skeleton_resolution')}")

    outputs = doc.get("outputs") or {}
    formats = tuple(outputs.get("formats", ["csv"]))
    for f in formats:
        if f not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {f!r}")

    cfg = ExperimentConfig(
        name=exp.get("name", "experiment"),
        nonlinearity=exp["nonlinearity"],
        order=exp["order"],
        geometry=exp["geometry"],
        eps_values=eps_values,
        solver_overrides=dict(doc.get("solver") or {}),
        output_dir=outputs.get("directory", "out"),
        snapshot_stride=outputs.get("snapshot_stride", 0),
        formats=formats,
        seed=doc.get("seed", 0),
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
            raise ConfigError(f"{unsolvable}, and it is no domain: {e}") from None
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
