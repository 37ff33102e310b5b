from .common import (BlowupReport, Snapshot, SolverConfig,
                     extract_singularities, solve_problem, track_peaks)
from .cube3d import build_cube
from .one_dim import build_strip, strip_grid
from .radial import build_disc, mark_ring
from .rect2d import build_rect

BUILDERS = {
    "strip": build_strip,
    "radial-disc": build_disc,
    "rect": build_rect,
    "cube": build_cube,
}


def solve(cfg: SolverConfig) -> BlowupReport:
    """Build the geometry's problem and run the shared pipeline on it."""
    try:
        build = BUILDERS[cfg.geometry]
    except KeyError:
        raise ValueError(f"no solver for geometry {cfg.geometry!r}") from None
    report = solve_problem(cfg, *build(cfg))
    return mark_ring(report) if cfg.geometry == "radial-disc" else report

__all__ = [
    "BlowupReport", "Snapshot", "SolverConfig", "extract_singularities",
    "track_peaks", "solve", "solve_problem", "strip_grid", "BUILDERS",
]
