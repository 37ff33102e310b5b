
import functools
import multiprocessing
import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from blowuplab import cli
from blowuplab.cli import _read_points_csv, build_parser, main
from blowuplab.config import dump_config, load_config
from blowuplab.errors import ConfigError, ConvergenceError
from blowuplab.fileio import atomic_open, read_csv
from blowuplab.geometry import omega_set

STRIP_CFG = """
experiment:
  name: strip-mini
  nonlinearity: exp
  order: 4
  geometry: strip
  eps: [0.2]
solver:
  nx: 401
  grading: 2.0
  threshold: 8
outputs:
  directory: {out}
  formats: [csv]
"""

SQUARE_CFG = """
experiment:
  name: square-mini
  nonlinearity: exp
  order: 4
  geometry: square:1
  eps: 0.2
solver:
  nx: 61
  ny: 61
  threshold: 8
  skeleton_resolution: 0.05
outputs:
  directory: {out}
  formats: [csv, svg]
"""


def write_cfg(tmp_path, text, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text.format(out=str(tmp_path / "out")))
    return str(p)


# -- config loading ---------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    cfg = load_config(path)
    assert cfg.order == 4
    assert cfg.eps_values == [0.2]
    assert cfg.solver_overrides["nx"] == 401
    echo = dump_config(cfg)
    p2 = tmp_path / "echo.yaml"
    p2.write_text(echo)
    cfg2 = load_config(str(p2))
    assert dump_config(cfg2) == echo


def test_unknown_key_rejected(tmp_path):
    bad = STRIP_CFG.replace("  grading: 2.0", "  graddding: 2.0")
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError, match="graddding"):
        load_config(path)
    # nz and a solver-side snapshot_stride were once accepted and ignored
    # or overridden, and theta, safety and dt_min were never set to another
    # value than their default; they are unknown keys now
    for key in ("nz: 7", "snapshot_stride: 3", "theta: 0.5", "safety: 0.9",
                "dt_min: 0.0"):
        path = write_cfg(tmp_path, STRIP_CFG.replace("  grading: 2.0", "  " + key))
        name = key.split(":")[0]
        with pytest.raises(ConfigError,
                           match=rf"unknown key solver\.{name} \(line 10\)"):
            load_config(path)
        assert main(["--config", path, "solve"]) == 2


def test_solver_schema_matches_solver_config():
    """The solver: section declares every SolverConfig knob with its type:
    the fields, less those the experiment, the geometry token and the
    outputs set, plus skeleton_resolution, which predict reads."""
    import dataclasses

    from blowuplab.config import _SCHEMA
    from blowuplab.solvers import SolverConfig
    set_elsewhere = {"order", "nonlinearity", "eps", "geometry", "half_width_x",
                     "half_width_y", "snapshot_times", "snapshot_stride", "seed"}
    fields = {f.name: f.type for f in dataclasses.fields(SolverConfig)
              if f.name not in set_elsewhere}
    schema = dict(_SCHEMA["solver"])
    assert schema.pop("skeleton_resolution") is float
    assert set(schema) == set(fields)
    for key, typ in schema.items():
        # annotations are strings; an optional knob is declared by its type
        assert fields[key] in (typ.__name__, f"Optional[{typ.__name__}]"), key


def test_readme_lists_every_solver_key():
    from blowuplab.config import _SCHEMA
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        section = fh.read().split("### Experiment configs", 1)[1]
    table = section.split("| `solver:` key |", 1)[1].split("\n\n", 1)[0]
    listed = [row.split("`")[1] for row in table.splitlines()[2:]]
    assert sorted(listed) == sorted(_SCHEMA["solver"])


def test_unknown_key_reports_line(tmp_path):
    bad = STRIP_CFG.replace("  grading: 2.0", "  graddding: 2.0")
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_empty_sweep_rejected(tmp_path):
    bad = STRIP_CFG.replace("eps: [0.2]", "eps: []")
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError, match="eps"):
        load_config(path)


def test_bad_order_rejected(tmp_path):
    bad = STRIP_CFG.replace("order: 4", "order: 3")
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError, match="order"):
        load_config(path)


def test_bad_nonlinearity_rejected(tmp_path):
    bad = STRIP_CFG.replace("nonlinearity: exp", "nonlinearity: cubic")
    path = write_cfg(tmp_path, bad)
    with pytest.raises(ConfigError):
        load_config(path)


def test_registered_custom_in_config(tmp_path):
    from blowuplab.reaction import register_nonlinearity
    register_nonlinearity("sqcfg", lambda u: (1.0 + u) ** 2)
    path = write_cfg(tmp_path, STRIP_CFG.replace("nonlinearity: exp",
                                                 "nonlinearity: sqcfg"))
    cfg = load_config(path)
    assert cfg.nonlinearity_obj().kind == "custom"


def test_rect_geometry_solver_config(tmp_path):
    path = write_cfg(tmp_path, SQUARE_CFG)
    cfg = load_config(path)
    scfg = cfg.solver_config(0.2)
    assert scfg.geometry == "rect"
    assert scfg.nx == scfg.ny == 61
    assert scfg.half_width_x == scfg.half_width_y == 1.0


@pytest.mark.parametrize("geometry, nx, ny", [
    ("strip", 2001, 0), ("rect:1,0.5", 201, 101), ("cube:1", 41, 0), ("disc", 1000, 0)])
def test_null_nx_keeps_the_geometrys_default(tmp_path, geometry, nx, ny):
    """`nx: null` keeps the default nx, and the rectangle's ny follows it
    (ny 0, SolverConfig's default, is unused off the rectangle)."""
    text = (STRIP_CFG.replace("geometry: strip", f"geometry: {geometry}")
            .replace("nx: 401", "nx: null"))
    scfg = load_config(write_cfg(tmp_path, text)).solver_config(0.2)
    assert (scfg.nx, scfg.ny) == (nx, ny)


@pytest.mark.parametrize("geometry, order, solver", [
    ("square:1", 4, "nx: 4001"),    # exceeds max_unknowns
    ("strip", 4, "nx: 3"),
    ("strip", 4, "dt_init: 1.0"),   # above dt_max
    ("cube:1", 2, "nx: 9"),         # the cube is fourth order only
    ("rect:1,0.5", 4, "nx: 21\n  ny: 1"),   # ny below nx's floor of 5
    ("rect:1,0.5", 4, "nx: 21\n  ny: 2"),
    ("rect:1,0.5", 4, "nx: 21\n  ny: 4"),
    ("rect:1,0.5", 4, "nx: 21\n  ny: -5"),
    ("strip", 4, "nx: 41\n  growth_target: 0.0"),
    ("strip", 4, "nx: 41\n  growth_target: -1.0"),
    ("strip", 4, "nx: 41\n  max_steps: -1"),
    ("strip", 4, "nx: 41\n  max_steps: 0"),
    ("strip", 4, "nx: 41\n  t_end: -1.0"),
    ("strip", 4, "nx: 41\n  t_end: 0.0"),
    ("strip", 4, "nx: 41\n  threshold: .nan"),
    ("strip", 4, "nx: 41\n  threshold: .inf"),
    ("strip", 4, "nx: 41\n  grading: -1.0"),
    ("strip", 4, "nx: 41\n  grading: .nan"),
    ("strip", 4, "nx: 41\n  noise_amplitude: -1.0"),
    ("strip", 4, "nx: 41\n  noise_amplitude: .nan"),
    ("strip", 4, "nx: 2000003"),    # 2000001 unknowns, over max_unknowns
    ("disc", 4, "nx: 2000001"),
])
def test_bad_solver_input_exits_2_without_output(tmp_path, capsys, geometry,
                                                 order, solver):
    # a key the case sets replaces the config's own line
    keys = {line.split(":")[0].strip() for line in solver.splitlines()} - {"nx"}
    base = "".join(line for line in STRIP_CFG.splitlines(True)
                   if line.split(":")[0].strip() not in keys)
    text = (base.replace("geometry: strip", f"geometry: {geometry}")
            .replace("order: 4", f"order: {order}")
            .replace("nx: 401", solver))
    _assert_solve_exits_2_without_output(tmp_path, capsys, text)


@pytest.mark.parametrize("verb", ["solve", "predict"])
@pytest.mark.parametrize("eps", ["-0.1", ".nan", ".inf", "[0.2, .nan]"])
def test_bad_eps_exits_2_without_output(tmp_path, capsys, verb, eps):
    path = write_cfg(tmp_path, SQUARE_CFG.replace("eps: 0.2", f"eps: {eps}"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), verb]) == 2
    assert "experiment.eps values must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [False, True])
def test_negative_seed_exits_2_without_output(tmp_path, capsys, override):
    text = STRIP_CFG.replace("grading: 2.0", "grading: 2.0\n  noise_amplitude: 0.001")
    if not override:
        text += "seed: -1\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    argv = ["--config", path, "--out", str(out)] + ["--seed", "-1"] * override
    assert main(argv + ["solve"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_snapshot_stride_exits_2_without_output(tmp_path, capsys):
    text = STRIP_CFG.replace("formats: [csv]", "formats: [csv]\n  snapshot_stride: -1")
    _assert_solve_exits_2_without_output(tmp_path, capsys, text)


def _assert_solve_exits_2_without_output(tmp_path, capsys, text):
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "solve"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("verb", ["solve", "sweep", "predict", "compare", "profile"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_1_exits_2_without_output(tmp_path, capsys, verb, threads):
    path = write_cfg(tmp_path, STRIP_CFG.replace("eps: [0.2]", "eps: [0.2, 0.25]"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--threads", threads, verb]) == 2
    assert f"config error: --threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["solve", "predict"])
@pytest.mark.parametrize("geometry", ["rect:1", "rect:1,x", "square:", "cube:abc",
                                      "rect:0,1", "square:-1"])
def test_malformed_geometry_exits_2_without_output(tmp_path, capsys, verb, geometry):
    path = write_cfg(tmp_path, SQUARE_CFG.replace("square:1", f"'{geometry}'"))
    with pytest.raises(ConfigError, match="half-width"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), verb]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geometry, half_widths", [
    ("strip", (1.0,)), ("square:0.75", (0.75, 0.75)), ("rect:1,0.5", (1.0, 0.5)),
    ("cube", (1.0, 1.0, 1.0)), ("cube:0.5", (0.5, 0.5, 0.5))])
def test_box_geometries_give_their_box(tmp_path, geometry, half_widths):
    """The box tokens give the centred box of their half-widths, in as
    many dimensions as the solver's geometry has."""
    dom = load_config(write_cfg(tmp_path, SQUARE_CFG.replace("square:1", geometry))).domain()
    assert dom.dim == len(half_widths)
    assert dom.hi.tolist() == list(half_widths)
    assert dom.lo.tolist() == [-h for h in half_widths]


# -- verbs --------------------------------------------------------------------------

def test_profile_cmd_deterministic(tmp_path):
    out = str(tmp_path / "prof")
    assert main(["--out", out, "profile", "--order", "4"]) == 0
    first = (tmp_path / "prof" / "profile4.csv").read_bytes()
    summary = (tmp_path / "prof" / "profile4_summary.txt").read_text()
    assert "eta0=" in summary
    assert main(["--out", out, "profile", "--order", "4"]) == 0
    assert (tmp_path / "prof" / "profile4.csv").read_bytes() == first
    assert main(["--out", out, "profile", "--order", "2"]) == 0
    assert (tmp_path / "prof" / "profile2.csv").exists()


def test_solve_predict_compare_flow(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    out = str(tmp_path / "out")
    assert main(["--config", path, "--out", out, "solve"]) == 0
    assert main(["--config", path, "--out", out, "predict"]) == 0
    assert main(["--config", path, "--out", out, "compare"]) == 0
    comparison = (tmp_path / "out" / "comparison.csv").read_text()
    assert "multiplicity_agree" in comparison
    # prediction used the measured blow-up time
    pred = (tmp_path / "out" / "prediction_eps0p2.csv").read_text()
    assert "T_eps_source='measured'" in pred


def test_config_echo_revalidates(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    out = str(tmp_path / "out")
    assert main(["--config", path, "--out", out, "solve"]) == 0
    echo = load_config(str(tmp_path / "out" / "config_echo.yaml"))
    assert dump_config(echo) == dump_config(load_config(path))
    # the echoed config reproduces the run
    out2 = str(tmp_path / "out2")
    assert main(["--config", str(tmp_path / "out" / "config_echo.yaml"),
                 "--out", out2, "solve"]) == 0
    assert (tmp_path / "out" / "singularities_eps0p2.csv").read_bytes() == \
        (tmp_path / "out2" / "singularities_eps0p2.csv").read_bytes()


def test_compare_without_outputs_is_config_error(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    assert main(["--config", path, "--out", str(tmp_path / "empty"),
                 "compare"]) == 2


def test_compare_config_mismatch(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    out = str(tmp_path / "out")
    assert main(["--config", path, "--out", out, "solve"]) == 0
    other = write_cfg(tmp_path, STRIP_CFG.replace("eps: [0.2]", "eps: [0.25]"),
                      name="other.yaml")
    assert main(["--config", other, "--out", out, "compare"]) == 2


def test_malformed_config_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("experiment:\n  geometry: strip\n")
    assert main(["--config", str(p), "solve"]) == 2


def test_no_blowup_exit_code(tmp_path):
    cfg = STRIP_CFG.replace("eps: [0.2]", "eps: [5.0]").replace(
        "  threshold: 8", "  threshold: 1000\n  max_steps: 800")
    path = write_cfg(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "solve"]) == 4


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = STRIP_CFG.replace("eps: [0.2]", "eps: [0.2, 0.25]")
    p1 = write_cfg(tmp_path, cfg, name="a.yaml")
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "parallel")
    assert main(["--config", p1, "--out", out1, "sweep"]) == 0
    assert main(["--config", p1, "--out", out2, "--threads", "2", "sweep"]) == 0
    s1 = (tmp_path / "serial" / "sweep_summary.csv").read_bytes()
    s2 = (tmp_path / "parallel" / "sweep_summary.csv").read_bytes()
    assert s1 == s2


def test_each_verb_formats_the_config_echo_once(tmp_path, monkeypatch):
    """solve, predict and compare each dump the config once; every
    report_eps*.txt ends with the text of config_echo.yaml."""
    import blowuplab.cli as cli
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return dump_config(cfg)

    monkeypatch.setattr(cli, "dump_config", counting)
    path = write_cfg(tmp_path, STRIP_CFG.replace("eps: [0.2]", "eps: [0.2, 0.25]"))
    out = tmp_path / "out"
    for verb in ("solve", "predict", "compare"):
        del calls[:]
        assert main(["--config", path, "--out", str(out), verb]) == 0
        assert len(calls) == 1, verb
    echo = (out / "config_echo.yaml").read_text()
    for tag in ("0p2", "0p25"):
        report = (out / f"report_eps{tag}.txt").read_text()
        assert report.endswith("--- config ---\n" + echo)


def test_solve_byte_identical_reruns(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    assert main(["--config", path, "--out", out1, "solve"]) == 0
    assert main(["--config", path, "--out", out2, "solve"]) == 0
    for name in ("sweep_summary.csv", "singularities_eps0p2.csv",
                 "field_eps0p2.csv", "diagnostics_eps0p2.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes(), name


def test_predict_square_writes_skeleton_and_svg(tmp_path):
    path = write_cfg(tmp_path, SQUARE_CFG.replace("eps: 0.2", "eps: [0.1, 0.2]"))
    out = str(tmp_path / "out")
    assert main(["--config", path, "--out", out, "predict"]) == 0
    assert (tmp_path / "out" / "skeleton.csv").exists()
    assert (tmp_path / "out" / "prediction_eps0p2.csv").exists()
    # at eps=0.2 the layer level exceeds the inradius: no omega curve, but
    # the eps=0.1 one must be there
    assert (tmp_path / "out" / "omega_eps0p1.csv").exists()
    svg = (tmp_path / "out" / "prediction_eps0p2.svg")
    assert svg.exists() and svg.read_text().startswith("<svg")
    summary = (tmp_path / "out" / "predictions_summary.csv").read_text()
    lines = summary.strip().splitlines()
    assert lines[1].endswith("4")  # eps=0.1: four diagonal points
    assert lines[2].endswith("1")  # eps=0.2: origin


POTATO_CFG = """
experiment:
  name: potato-mini
  nonlinearity: exp
  order: 4
  geometry: polar:1,0.3,0,0,0,0,-0.3
  eps: [0.03, 0.1]
solver:
  skeleton_resolution: 0.05
outputs:
  directory: {out}
  formats: [csv]
"""


def test_predict_polar_domain(tmp_path):
    path = write_cfg(tmp_path, POTATO_CFG)
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for out in runs:
        assert main(["--config", path, "--out", str(out), "predict"]) == 0
    out = runs[0]
    for name in ("skeleton.csv", "prediction_eps0p03.csv", "prediction_eps0p1.csv"):
        assert (out / name).exists(), name
    summary = (out / "predictions_summary.csv").read_text()
    assert "omega-set" in summary and "skeleton-points" in summary
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == sorted(p.name for p in runs[1].glob("*.csv"))
    for name in csvs:
        assert (out / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_predict_makes_one_omega_set_per_eps(tmp_path, monkeypatch):
    import blowuplab.cli as cli
    import blowuplab.predictor as predictor
    levels = []

    def counting(dom, level, resolution=None):
        levels.append(level)
        return omega_set(dom, level, resolution)

    monkeypatch.setattr(cli, "omega_set", counting)
    monkeypatch.setattr(predictor, "omega_set", counting)
    path = write_cfg(tmp_path, POTATO_CFG.replace("eps: [0.03, 0.1]", "eps: 0.03"))
    assert main(["--config", path, "--out", str(tmp_path / "out"), "predict"]) == 0
    assert "omega-set" in (tmp_path / "out" / "predictions_summary.csv").read_text()
    # the predictor's level curve is the one written to omega_eps0p03.csv
    assert len(levels) == 1
    cli._write_loops(str(tmp_path / "ref.csv"),
                     omega_set(load_config(path).domain(), levels[0]))
    assert (tmp_path / "out" / "omega_eps0p03.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("verb", ["solve", "compare"])
def test_polar_domain_has_no_solver(tmp_path, capsys, verb):
    path = write_cfg(tmp_path, POTATO_CFG)
    assert main(["--config", path, "--out", str(tmp_path / "out"), verb]) == 2
    assert "no solver supports geometry" in capsys.readouterr().err


def test_unknown_geometry_rejected_at_load(tmp_path):
    path = write_cfg(tmp_path, POTATO_CFG.replace("polar:1,0.3,0,0,0,0,-0.3",
                                                  "polar:1,0.3"))
    with pytest.raises(ConfigError, match="no solver supports geometry"):
        load_config(path)


def test_square_solve_and_compare_multiplicity(tmp_path):
    path = write_cfg(tmp_path, SQUARE_CFG)
    out = str(tmp_path / "out")
    assert main(["--config", path, "--out", out, "solve"]) == 0
    assert main(["--config", path, "--out", out, "predict"]) == 0
    assert main(["--config", path, "--out", out, "compare"]) == 0
    rows = (tmp_path / "out" / "comparison.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[-1] == "1"  # multiplicity agreement at eps=0.2


def test_compare_skips_the_eps_0_row(tmp_path, capsys):
    """A sweep that holds eps 0, the reaction limit, which predict refuses:
    compare joins the other rows, as on the sweep without 0, and says that
    it skipped eps 0; a sweep of eps 0 alone has nothing to compare."""
    out = str(tmp_path / "out")
    without = write_cfg(tmp_path, SQUARE_CFG, name="without.yaml")
    for verb in ("solve", "predict", "compare"):
        assert main(["--config", without, "--out", out, verb]) == 0, verb
    joined = (tmp_path / "out" / "comparison.csv").read_bytes()
    sweep = write_cfg(tmp_path, SQUARE_CFG.replace("eps: 0.2", "eps: [0, 0.2]"))
    assert main(["--config", sweep, "--out", out, "solve"]) == 0
    capsys.readouterr()
    assert main(["--config", sweep, "--out", out, "compare"]) == 0
    assert "eps=0 skipped" in capsys.readouterr().err
    assert (tmp_path / "out" / "comparison.csv").read_bytes() == joined

    only = write_cfg(tmp_path, SQUARE_CFG.replace("eps: 0.2", "eps: 0"), name="only.yaml")
    assert main(["--config", only, "--out", out, "solve"]) == 0
    assert main(["--config", only, "--out", out, "compare"]) == 2
    assert "nothing to compare" in capsys.readouterr().err


def test_measured_T_read_by_header(tmp_path):
    from blowuplab.cli import _measured_T
    from blowuplab.reaction import Nonlinearity, ReactionSolution
    rs = ReactionSolution(Nonlinearity.exponential())
    (tmp_path / "sweep_summary.csv").write_text(
        "stop_reason,sup_stop,T_eps,multiplicity,eps\n"
        "threshold,8.0,0.75,1,0.2\n"
        "threshold,8.0,0.5,2,0.1\n"
        "t-end,1.0,inf,0,0.05\n")
    assert _measured_T(str(tmp_path), rs) == {0.2: 0.75, 0.1: 0.5}


def test_predict_uses_reordered_summary_and_rejects_headless(tmp_path, capsys):
    path = write_cfg(tmp_path, STRIP_CFG)
    out = tmp_path / "out"
    out.mkdir()
    summary = out / "sweep_summary.csv"
    summary.write_text("multiplicity,T_eps,eps\n1,0.75,0.2\n")
    assert main(["--config", path, "--out", str(out), "predict"]) == 0
    pred = (out / "prediction_eps0p2.csv").read_text()
    assert "T_eps_source='measured'" in pred
    summary.write_text("0.2,0.75,1,threshold,8.0\n")
    assert main(["--config", path, "--out", str(out), "predict"]) == 2
    assert "no eps and T_eps columns" in capsys.readouterr().err
    # a non-number or a short row exits 2 too, not with a traceback
    for text, msg in [("eps,T_eps\n0.2,abc\n", "could not convert"),
                      ("eps,T_eps\n0.2\n", "line 2: 1 cells")]:
        summary.write_text(text)
        assert main(["--config", path, "--out", str(out), "predict"]) == 2
        assert msg in capsys.readouterr().err


def test_order2_predict_solves_once_for_all_eps(tmp_path, monkeypatch):
    import blowuplab.cli as cli
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return predict_second_2d(*args, **kwargs)

    predict_second_2d = cli.predict_second_2d
    monkeypatch.setattr(cli, "predict_second_2d", counting)
    cfg = POTATO_CFG.replace("order: 4", "order: 2")
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "predict"]) == 0
    assert len(calls) == 1
    first = (out / "prediction_eps0p03.csv").read_bytes()
    assert first == (out / "prediction_eps0p1.csv").read_bytes()
    assert b"distance-argmax" in first


def test_profile_correction_csv_has_plain_numbers(tmp_path):
    out = str(tmp_path / "prof")
    assert main(["--out", out, "profile", "--order", "2"]) == 0
    lines = (tmp_path / "prof" / "profile2_correction.csv").read_text().splitlines()
    assert lines[0] == "eta,vbar1"
    eta, vbar = (float(t) for t in lines[1].split(","))
    assert (eta, vbar) == (0.0, 0.0)
    _assert_plain_csvs(tmp_path / "prof")



@pytest.mark.parametrize("geometry, solver", [
    ("strip", "nx: 401"), ("radial-disc", "nx: 200"), ("rect:1,0.5", "nx: 31"),
    ("cube:1", "nx: 11")])
def test_solve_csvs_hold_plain_numbers(tmp_path, geometry, solver):
    text = (STRIP_CFG.replace("geometry: strip", f"geometry: {geometry}")
            .replace("nx: 401", solver).replace("  grading: 2.0\n", ""))
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "solve"]) == 0
    _assert_plain_csvs(out)
    lines = (out / "field_eps0p2.csv").read_text().splitlines()
    if geometry.startswith("cube"):
        assert -1.0 < float(lines.pop(0).split("z=")[1]) < 1.0
    assert lines[0] in ("x,u", "x,y,u")
    cells = [c for ln in lines[1:] for c in ln.split(",")]
    assert len(cells) == (len(lines) - 1) * len(lines[0].split(","))
    assert all(np.isfinite(float(c)) for c in cells)


@pytest.mark.parametrize("geometry, solver", [("strip", "nx: 401"), ("cube:1", "nx: 11")])
def test_report_lists_the_linear_solver_work(tmp_path, geometry, solver):
    """report_eps*.txt gives the run's steps, solves, factorizations (or
    setups) and PCG iterations, as the report's diagnostics count them."""
    text = (STRIP_CFG.replace("geometry: strip", f"geometry: {geometry}")
            .replace("nx: 401", solver).replace("  grading: 2.0\n", ""))
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "solve"]) == 0
    head = (out / "report_eps0p2.txt").read_text().split("--- config ---")[0]
    fields = dict(line.split("=", 1) for line in head.splitlines())
    assert list(fields) == ["T_eps", "t_stop", "sup_stop", "stop_reason", "multiplicity",
                            "steps", "solves", "factorizations", "cg_iterations"]
    work = {key: int(fields[key]) for key in list(fields)[5:]}
    assert work["solves"] == work["steps"] > work["factorizations"] > 0
    assert (work["cg_iterations"] > 0) == geometry.startswith("cube")


def test_order2_prediction_csv_holds_plain_numbers(tmp_path):
    path = write_cfg(tmp_path, POTATO_CFG.replace("order: 4", "order: 2"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "predict"]) == 0
    _assert_plain_csvs(out)
    head = (out / "prediction_eps0p1.csv").read_text().splitlines()
    assert float(next(ln for ln in head if ln.startswith("# distance="))[11:]) > 0.0


def _assert_plain_csvs(out):
    """Every CSV in `out` reads back through read_csv, and each cell
    outside the text columns is empty (the first dt of a diagnostics
    file) or a plain number that float() parses."""
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for p in csvs:
        assert "np." not in p.read_text(), p.name
        _, header, rows = read_csv(p)
        assert header, p.name
        for row in rows:
            for k, v in row.items():
                if k not in ("regime", "stop_reason") and v:
                    float(v)


# -- numerical failures and atomic outputs ------------------------------------

def _fail_at_eps(monkeypatch, eps):
    import blowuplab.cli as cli
    solve = cli.run_solver

    def failing(scfg):
        if scfg.eps == eps:
            raise ConvergenceError("PCG did not converge in 2000 iterations")
        return solve(scfg)

    monkeypatch.setattr(cli, "run_solver", failing)


@pytest.mark.parametrize("threads", [1, 2])
def test_numerical_failure_exits_3_and_names_eps(tmp_path, monkeypatch, capsys,
                                                 threads):
    import concurrent.futures
    _fail_at_eps(monkeypatch, 0.25)
    # forked workers inherit the failing solver; cmd_solve imports the pool
    # from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context("fork")))
    path = write_cfg(tmp_path, STRIP_CFG.replace("eps: [0.2]", "eps: [0.2, 0.25]"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "--threads", str(threads),
                 "solve"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: eps=0.25: PCG did not converge" in err
    assert not (out / "sweep_summary.csv").exists()


def test_state_below_the_reaction_table_exits_3(tmp_path, capsys):
    """Noise below u0(-T0) = -1/2 of the tabulated (1+u)^2 flow stops the
    run with exit 3 and no summary, not with a silently clamped state."""
    from blowuplab.reaction import register_nonlinearity
    register_nonlinearity("sqlow", lambda u: (1.0 + u) ** 2)
    text = STRIP_CFG.replace("nonlinearity: exp", "nonlinearity: sqlow")
    path = write_cfg(tmp_path, text.replace("threshold: 8",
                                            "threshold: 8\n  noise_amplitude: 0.9"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "solve"]) == 3
    assert "below the tabulated range" in capsys.readouterr().err
    assert not (out / "sweep_summary.csv").exists()


def test_atomic_open_keeps_previous_file_on_error(tmp_path):
    path = tmp_path / "sweep_summary.csv"
    path.write_text("eps,T_eps\n0.1,0.9\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("eps,T_eps\n0.1,")
            raise RuntimeError("interrupted mid-write")
    assert path.read_text() == "eps,T_eps\n0.1,0.9\n"
    assert os.listdir(tmp_path) == ["sweep_summary.csv"]
    with atomic_open(path) as fh:
        fh.write("eps,T_eps\n0.2,0.8\n")
    assert path.read_text() == "eps,T_eps\n0.2,0.8\n"
    assert os.listdir(tmp_path) == ["sweep_summary.csv"]


def test_every_cli_output_is_written_atomically(tmp_path, monkeypatch):
    """Each file solve, predict, compare and profile leave behind was moved
    into place by atomic_open's os.replace, and every CSV among them
    holds plain numbers."""
    replaced = set()
    real_replace = os.replace

    def recording(src, dst):
        replaced.add(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    for verb in ("solve", "predict", "compare"):
        assert main(["--config", path, "--out", str(out), verb]) == 0
    assert main(["--out", str(out), "profile", "--order", "2"]) == 0
    written = set(os.listdir(out))
    assert {"comparison.csv", "field_eps0p2.csv", "config_echo.yaml",
            "prediction_eps0p2.csv", "singularities_eps0p2.svg"} <= written
    assert written == replaced
    _assert_plain_csvs(out)


# -- the assignment ------------------------------------------------------------------

@pytest.mark.parametrize("nr", range(1, 9))
def test_assign_equals_linear_sum_assignment(nr):
    """compare's assignment gives scipy's rows and columns on every shape
    up to 8x8, wide and tall; half the matrices have integer costs with ties."""
    rng = np.random.default_rng(nr)
    for nc in range(1, 9):
        for k in range(20):
            D = rng.integers(0, 4, (nr, nc)).astype(float) if k % 2 else rng.random((nr, nc))
            got, ref = cli.linear_sum_assignment(D), linear_sum_assignment(D)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), D


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_assign_rejects_invalid_entries(bad):
    D = np.ones((3, 2))
    D[1, 0] = bad
    with pytest.raises(ValueError):
        linear_sum_assignment(D)
    with pytest.raises(ValueError):
        cli.linear_sum_assignment(D)


def test_read_points_csv_skips_comments_and_unselected(tmp_path):
    pred = tmp_path / "prediction.csv"
    pred.write_text("# regime=skeleton-points\n# span=(0.5, 1.5)\n\n"
                    "x,y,selected\n0.25,-0.5,1\n1.0,2.0,0\n-0.75,0.125,1\n")
    assert _read_points_csv(pred).tolist() == [[0.25, -0.5], [-0.75, 0.125]]
    sing = tmp_path / "singularities.csv"
    sing.write_text("x,value\n0.5,3.0\n")
    assert _read_points_csv(sing).tolist() == [[0.5]]
    sing.write_text("x,y,value\n")
    assert _read_points_csv(sing).shape == (0, 2)
    for bad in ("x,value\n0.5,3.0,1\n", "x,value\nnan?,3.0\n"):
        sing.write_text(bad)
        with pytest.raises(ConfigError, match="singularities.csv"):
            _read_points_csv(sing)


def compare_by_hand(tmp_path, geometry, prediction, singularities):
    """comparison.csv's rows, as floats, after compare joins the given
    prediction and singularities CSV texts at eps 0.2; no solve runs."""
    path = write_cfg(tmp_path, STRIP_CFG.replace("geometry: strip", f"geometry: {geometry}"))
    out = tmp_path / "out"
    out.mkdir()
    (out / "config_echo.yaml").write_text(dump_config(load_config(path)))
    (out / "prediction_eps0p2.csv").write_text(prediction)
    (out / "singularities_eps0p2.csv").write_text(singularities)
    assert main(["--config", path, "compare"]) == 0
    _, header, rows = read_csv(out / "comparison.csv")
    assert header == ["eps", "pred_x", "pred_y", "comp_x", "comp_y", "distance",
                      "pred_multiplicity", "comp_multiplicity", "multiplicity_agree"]
    return [[float(row[c]) for c in header] for row in rows]


# nearest-first from the top row would pair (0, 0.25) with (0.375, 0.25),
# for a total distance of 0.375 + 2 against the minimum 1 + 0.625
TWO_POINTS = "x,y,selected\n0.0,0.25,1\n1.0,0.25,1\n"
THREE_POINTS = "x,y,value\n0.375,0.25,9.0\n-1.0,0.25,9.0\n3.0,0.25,9.0\n"


def test_compare_pairs_points_by_minimum_total_distance(tmp_path):
    assert compare_by_hand(tmp_path, "rect:1,0.5", TWO_POINTS, THREE_POINTS) == [
        [0.2, 0.0, 0.25, -1.0, 0.25, 1.0, 2, 3, 0],
        [0.2, 1.0, 0.25, 0.375, 0.25, 0.625, 2, 3, 0]]


def test_compare_pairs_fewer_computed_than_predicted_points(tmp_path):
    """Each computed point is matched once; rows follow the prediction."""
    prediction = THREE_POINTS.replace("value", "selected").replace("9.0", "1")
    singularities = TWO_POINTS.replace("selected", "value")
    assert compare_by_hand(tmp_path, "rect:1,0.5", prediction, singularities) == [
        [0.2, 0.375, 0.25, 1.0, 0.25, 0.625, 3, 2, 0],
        [0.2, -1.0, 0.25, 0.0, 0.25, 1.0, 3, 2, 0]]


def test_compare_pads_strip_points_with_y_0(tmp_path):
    rows = compare_by_hand(tmp_path, "strip", "x\n-0.5\n0.5\n", "x,value\n0.625,9.0\n-0.375,9.0\n")
    assert rows == [[0.2, -0.5, 0.0, -0.375, 0.0, 0.125, 2, 2, 1],
                    [0.2, 0.5, 0.0, 0.625, 0.0, 0.125, 2, 2, 1]]


def test_compare_writes_a_nan_row_for_an_empty_prediction(tmp_path):
    (row,) = compare_by_hand(tmp_path, "rect:1,0.5", "x,y,selected\n", "x,y,value\n0.0,0.0,9.0\n")
    assert row[0] == 0.2 and np.isnan(row[1:6]).all()
    assert row[6:] == [0, 1, 0]


@pytest.mark.xfail(strict=True, reason="compare joins the disc's ring radius on x alone: "
                   "the centre against the ring at r = 0.5617 reads distance 0.5617 and "
                   "multiplicity_agree 1 (ROADMAP item 2)")
def test_compare_does_not_agree_a_centre_with_a_ring(tmp_path):
    (row,) = compare_by_hand(tmp_path, "disc", "x,y,selected\n0.0,0.0,1\n",
                             "x,value\n0.5617,30.0\n")
    assert row[-1] == 0


# -- one config schema, one load per verb ------------------------------------------

def test_order2_strip_predicts_the_centre(tmp_path):
    """Second order blows up at the point furthest from the boundary:
    x = 0 on the strip, as a single peak in the solver too."""
    path = write_cfg(tmp_path, STRIP_CFG.replace("order: 4", "order: 2"))
    out = tmp_path / "out"
    for verb in ("solve", "predict", "compare"):
        assert main(["--config", path, "--out", str(out), verb]) == 0, verb
    head = (out / "prediction_eps0p2.csv").read_text().splitlines()
    assert head[0] == "# regime=distance-argmax" and "# order=2" in head
    assert head[-1] == "0.0,1"
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[-1] == "1"


def test_seed_override_is_recorded(tmp_path):
    path = write_cfg(tmp_path, STRIP_CFG)
    out = str(tmp_path / "out")
    for verb in ("solve", "predict"):
        assert main(["--config", path, "--out", out, "--seed", "7", verb]) == 0
    assert "seed: 7" in (tmp_path / "out" / "config_echo.yaml").read_text()
    assert "seed: 7" in (tmp_path / "out" / "report_eps0p2.txt").read_text()
    assert main(["--config", path, "--out", out, "--seed", "7", "compare"]) == 0
    # the outputs are of seed 7, not of the config's seed 0
    assert main(["--config", path, "--out", out, "compare"]) == 2


MALFORMED = [
    ("  nx: 401", "  nx: abc", "solver.nx"),
    ("  nx: 401", "  nx: true", "solver.nx"),
    ("  threshold: 8", "  threshold: hello", "solver.threshold"),
    ("  threshold: 8", "  threshold: 1e3", "solver.threshold"),
    ("  threshold: 8", "  threshold: 8\n  dt_max: [1, 2]", "solver.dt_max"),
    ("  threshold: 8", "  threshold: 8\n  check_supersolution: maybe",
     "solver.check_supersolution"),
    ("eps: [0.2]", "eps: [a]", "experiment.eps"),
    ("  formats: [csv]", "  formats: [csv]\nseed: abc", "seed"),
    ("  formats: [csv]", "  formats: [csv]\n  snapshot_stride: x",
     "outputs.snapshot_stride"),
    ("  formats: [csv]", "  formats: csv", "outputs.formats"),
]


@pytest.mark.parametrize("old, new, key", MALFORMED,
                         ids=[new.split("\n")[-1].strip() for _, new, _ in MALFORMED])
def test_malformed_value_exits_2_without_output(tmp_path, capsys, old, new, key):
    path = write_cfg(tmp_path, STRIP_CFG.replace(old, new))
    with pytest.raises(ConfigError, match=rf"{key} .*\(line \d+\)"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "solve"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_bad_key_line_is_searched_within_its_section(tmp_path):
    # solver.threshold sets line 11; the misplaced key is on line 15
    path = write_cfg(tmp_path, STRIP_CFG.replace("  formats: [csv]",
                                                 "  formats: [csv]\n  threshold: 3"))
    with pytest.raises(ConfigError, match=r"unknown key outputs\.threshold \(line 15\)"):
        load_config(path)


def test_predict_on_the_cube_exits_2_without_output(tmp_path, capsys):
    path = write_cfg(tmp_path, STRIP_CFG.replace("geometry: strip", "geometry: cube:1"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "predict"]) == 2
    assert ("config error: predict has no predictor on the 3-D box of geometry "
            "'cube:1'; only solve runs it") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geometry, resolution, msg", [
    ("rect:1,0.5", "0", "finite and positive"),
    ("rect:1,0.5", "-0.01", "finite and positive"),
    ("polar:1,0.3,0,0,0,0,-0.3", ".inf", "finite and positive"),
    ("polar:1,0.3,0,0,0,0,-0.3", ".nan", "finite and positive"),
    ("polar:1,0.3,0,0,0,0,-0.3", "5.0", "no skeleton detections"),
])
def test_bad_skeleton_resolution_exits_2_without_output(tmp_path, capsys, geometry,
                                                        resolution, msg):
    path = write_cfg(tmp_path, POTATO_CFG.replace("polar:1,0.3,0,0,0,0,-0.3", geometry)
                     .replace("skeleton_resolution: 0.05",
                              f"skeleton_resolution: {resolution}"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "predict"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "skeleton_resolution" in err and msg in err
    if msg != "no skeleton detections":
        assert "(line 9)" in err
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["strip", "square", "potato"])
@pytest.mark.parametrize("value", ["0", "[0.0, 0.2]"])
def test_predict_at_eps_0_exits_2_without_output(tmp_path, capsys, geometry, value):
    config, eps = {"strip": (STRIP_CFG, "eps: [0.2]"), "square": (SQUARE_CFG, "eps: 0.2"),
                   "potato": (POTATO_CFG, "eps: [0.03, 0.1]")}[geometry]
    path = write_cfg(tmp_path, config.replace(eps, f"eps: {value}"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "predict"]) == 2
    assert "predict needs experiment.eps > 0" in capsys.readouterr().err
    assert not out.exists()


def test_svg_output_leaves_csvs_unchanged(tmp_path):
    """solve, predict and compare with and without SVG: equal CSVs, and
    every SVG parses as XML."""
    import xml.etree.ElementTree as ET
    outs = {}
    for formats in ("[csv, svg]", "[csv]"):
        path = write_cfg(tmp_path, SQUARE_CFG.replace("[csv, svg]", formats))
        outs[formats] = out = tmp_path / formats.strip("[]").replace(", ", "-")
        for verb in ("solve", "predict", "compare"):
            assert main(["--config", path, "--out", str(out), verb]) == 0, verb
    with_svg, without = outs.values()
    csvs = sorted(p.name for p in with_svg.glob("*.csv"))
    assert csvs == sorted(p.name for p in without.glob("*.csv"))
    for name in csvs:
        assert (with_svg / name).read_bytes() == (without / name).read_bytes(), name
    assert not list(without.glob("*.svg"))
    for kind in ("singularities", "prediction", "comparison"):
        svg = with_svg / f"{kind}_eps0p2.svg"
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg", kind


def test_svg_scatter_with_every_series_empty(tmp_path):
    import xml.etree.ElementTree as ET
    from blowuplab.svgplot import svg_scatter
    path = tmp_path / "empty.svg"
    svg_scatter(path, [dict(points=np.zeros((0, 2)), label="predicted"),
                       dict(points=[], marker="x", label="computed")], title="none")
    root = ET.parse(path).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    ns = {"svg": "http://www.w3.org/2000/svg"}
    assert not root.findall("svg:circle", ns) and not root.findall("svg:path", ns)
    assert [t.text for t in root.findall("svg:text", ns)] == ["none", "predicted", "computed"]


def test_readme_config_example_loads(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("### Experiment configs", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "example.yaml").write_text(example)
    cfg = load_config(str(tmp_path / "example.yaml"))
    assert cfg.formats == ("csv", "svg") and cfg.solver_overrides["threshold"] == 10


def test_readme_cli_examples_parse():
    """Every `blowup-lab ...` line of README's CLI block is a valid command
    line: the global options come before the verb."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].split() for ln in block.splitlines()]
    lines = [ln[1:] for ln in lines if ln and ln[0] == "blowup-lab"]
    assert len(lines) == 5
    for argv in lines:
        build_parser().parse_args(argv)
