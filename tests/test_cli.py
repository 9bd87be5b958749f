"""Batch front-end: config validation, case execution, report artifacts."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import phs_siting as ps
from phs_siting.cli import _load_terrain, load_case_config, main, run_batch, validate_config

from conftest import RIVER_ELEVATION


def _write_micro_dem(path):
    # river band two cells wide so it survives the factor-2 zoom case
    elev = np.full((8, 8), 600.0)
    elev[:, 0:2] = RIVER_ELEVATION
    elev[3, 4] = 470.0
    elev[3, 5] = 500.0
    elev[4, 4] = 500.0
    ps.write_esri_ascii(path, elev, 34.0, value_format="{:.6g}")


CONFIG = """\
[dem]
path = dem.asc
format = esri_ascii
lower_by_elevation = 385
lower_tolerance = 0.5

[project]
power_mw = 1.2
efficiency = 0.667

[strategy]
ladder = none, hv_planes, hv_diag_planes, tsp
zoom_factors = 2, 1

[solver]
time_limit_s = 60

[output]
directory = out

[case.1]
head_m = 165
operation_h = 3
zoom = no

[case.2]
head_m = 165
operation_h = 3
zoom = yes
"""


# Solver choice and seed are no longer settable; an old case file that still
# sets them must fail validation instead of being silently accepted.
STALE_SOLVER_KEYS = ("time_limit_s = 60", "backend = highs\nseed = 3\ntime_limit_s = 60")


@pytest.fixture()
def micro_config(tmp_path):
    _write_micro_dem(tmp_path / "dem.asc")
    config_path = tmp_path / "cases.ini"
    config_path.write_text(CONFIG)
    return config_path


def test_validate_clean_config(micro_config):
    assert validate_config(micro_config) == []
    assert main(["validate", str(micro_config)]) == 0


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (("head_m = 165", "head_m = -20"), "case.1.head_m"),
        (("operation_h = 3\nzoom = no", "operation_h = 0\nzoom = no"), "case.1.operation_h"),
        (STALE_SOLVER_KEYS, "solver.backend"),
        (("path = dem.asc", "path = missing.asc"), "dem.path"),
        (("lower_by_elevation = 385", "oops_key = 1"), "dem.oops_key"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nperimeter_min_neighbors = 2"),
         "strategy: perimeter_min_neighbors"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nclip_margin = -1"), "strategy: clip_margin"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nperimeter_min_neighbors = 0"),
         "strategy: perimeter_min_neighbors"),
        (("time_limit_s = 60", "time_limit_s = 60\nworkers = 0"), "solver.workers"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nclip_margin = 2.7"),
         "strategy.clip_margin: not an integer (2.7)"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nperimeter_min_neighbors = 3.5"),
         "strategy.perimeter_min_neighbors: not an integer (3.5)"),
        (("time_limit_s = 60", "time_limit_s = 60\nworkers = 1.9"),
         "solver.workers: not an integer (1.9)"),
        (("time_limit_s = 60", "time_limit_s = 60\ngap_target = -0.5"), "solver.gap_target"),
        (("time_limit_s = 60", "time_limit_s = 60\ngap_target = 1.5"), "solver.gap_target"),
        (("time_limit_s = 60", "time_limit_s = nan"), "solver.time_limit_s: not a finite number"),
        (("head_m = 165", "head_m = nan"), "case.1.head_m: not a finite number"),
        (("power_mw = 1.2", "power_mw = inf"), "project.power_mw: not a finite number"),
    ],
)
def test_validate_reports_field_paths(micro_config, mutation, needle):
    broken = micro_config.read_text().replace(*mutation)
    micro_config.write_text(broken)
    diags = validate_config(micro_config)
    assert any(needle in d for d in diags), diags
    assert main(["validate", str(micro_config)]) == 1


@pytest.mark.parametrize(
    "mutation,expected",
    [
        (("power_mw = 1.2", "power_mw = inf"), ["project.power_mw: not a finite number (inf)"]),
        (("head_m = 165", "head_m = nan"),
         [f"case.{k}.head_m: not a finite number (nan)" for k in (1, 2)]),
        (("operation_h = 3", "operation_h = abc"),
         [f"case.{k}.operation_h: not a number ('abc')" for k in (1, 2)]),
        (("zoom = no", "zoom = no\npower_mw = -inf"), ["case.1.power_mw: not a finite number (-inf)"]),
        (("lower_by_elevation = 385", "lower_by_elevation = low"),
         ["dem.lower_by_elevation: not a number ('low')"]),
        (("power_mw = 1.2\n", ""), ["project.power_mw: required"]),
        (("power_mw = 1.2", "power_mw = -1"), ["project.power_mw: must be positive, got -1.0"]),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\ndistance_metric = euclid"),
         ["strategy.distance_metric: must be horizontal or slant, got 'euclid'"]),
    ],
)
def test_validate_reports_one_line_per_rejected_value(micro_config, mutation, expected):
    micro_config.write_text(micro_config.read_text().replace(*mutation))
    assert validate_config(micro_config) == expected


def test_validate_rejects_stale_solver_keys(micro_config):
    micro_config.write_text(micro_config.read_text().replace(*STALE_SOLVER_KEYS))
    diags = validate_config(micro_config)
    assert "solver.backend: unknown key" in diags
    assert "solver.seed: unknown key" in diags


def _exclude(config_path, shape, cell):
    """Point the case file at a 0/1 excluded-cell raster barring one cell."""
    values = np.zeros(shape)
    values[cell] = 1
    ps.write_esri_ascii(config_path.parent / "no.asc", values, 34.0, value_format="{:.0f}")
    config_path.write_text(config_path.read_text().replace(
        "lower_tolerance = 0.5", "lower_tolerance = 0.5\nexcluded_mask_file = no.asc"))


def test_excluded_mask_bars_its_cells(micro_config):
    _exclude(micro_config, (8, 8), (3, 4))
    assert validate_config(micro_config) == []
    _, excluded = _load_terrain(load_case_config(micro_config))
    assert excluded.shape == (8, 8) and np.argwhere(excluded).tolist() == [[3, 4]]


def test_excluded_mask_of_wrong_shape_is_reported(micro_config, tmp_path, capsys):
    # a 4x6 mask on the 8x8 DEM: once read as (i, j) pairs, now refused
    _exclude(micro_config, (4, 6), (3, 5))
    diags = validate_config(micro_config)
    assert len(diags) == 1 and diags[0].startswith("dem.excluded_mask_file: mask shape (4, 6)")
    assert main(["validate", str(micro_config)]) == 1
    assert main(["run", str(micro_config)]) == 2
    assert "dem.excluded_mask_file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_excluded_mask_with_nodata_is_reported(micro_config):
    _exclude(micro_config, (8, 8), (3, 4))
    mask = micro_config.parent / "no.asc"
    lines = mask.read_text().splitlines()
    lines[-2] = " ".join(["-9999"] + lines[-2].split()[1:])  # row 6, col 0
    mask.write_text("\n".join(lines) + "\n")
    assert validate_config(micro_config) == [
        f"dem.excluded_mask_file: mask value -9999 at (row, col) (6, 0) is not 0 or 1 in {mask}"]


def test_run_batch_produces_artifacts(micro_config, tmp_path):
    config = load_case_config(micro_config)
    assert run_batch(config) == 0
    out = tmp_path / "out"
    for name in ("report_physical.csv", "report_costs.csv", "report_solver.csv",
                 "case_1_mask.asc", "case_2_mask.asc", "trace_1.log", "trace_2.log"):
        assert (out / name).exists(), name
    # 60 s split over the four rungs of the direct case; the zoom case gives
    # each of its two stages 30 s, all to the coarse rung, a quarter per native rung
    assert "limit=15.00s" in (out / "trace_1.log").read_text().splitlines()[0]
    assert all(" nnz=" in line and " nodes=" in line
               for line in (out / "trace_1.log").read_text().splitlines())
    assert all(" bound=" in line and " build=" in line
               for line in (out / "trace_1.log").read_text().splitlines())
    zoom_limits = [line.split(" limit=")[1].split()[0]
                   for line in (out / "trace_2.log").read_text().splitlines()]
    assert zoom_limits[:2] == ["30.00s", "7.50s"]

    with open(out / "report_physical.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case"] for r in rows] == ["1", "2"]
    assert all(r["status"] == "optimal" for r in rows)
    assert all(r["valid"] == "True" for r in rows)

    # the mask raster round-trips and the storage column is recomputable
    mask_grid = ps.load_grid(out / "case_1_mask.asc", "esri_ascii", ps.ByElevation(0.0, 0.25))
    roles = mask_grid.elevations
    assert set(np.unique(roles)) <= {0.0, 1.0, 2.0}
    dem = ps.load_grid(tmp_path / "dem.asc", "esri_ascii", ps.ByElevation(385.0, 0.5))
    interior = roles == 2.0
    spec = ps.SitingSpec.from_engineering(1.2, 165.0, 3.0, 385.0, 0.667)
    stored = float(np.where(interior, spec.water_elevation - dem.elevations, 0.0).sum()) * dem.cell_area
    assert stored / 1e6 == pytest.approx(float(rows[0]["storage_hm3"]), abs=0.01)

    with open(out / "report_costs.csv") as fh:
        cost_rows = list(csv.DictReader(fh))
    exact = float(cost_rows[0]["total_usd"])
    rounded = int(cost_rows[0]["total_musd"])
    assert rounded == round(exact / 1e6)

    with open(out / "report_solver.csv") as fh:
        solver_rows = list(csv.DictReader(fh))
    assert int(solver_rows[0]["n_variables"]) > 0
    assert solver_rows[0]["backend"] == "highs"


def test_run_batch_deterministic_reports(micro_config, tmp_path):
    config = load_case_config(micro_config)
    run_batch(config)
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("report_physical.csv", "report_costs.csv", "case_1_mask.asc")
    }
    run_batch(config)
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_run_batch_reports_failed_case_without_fatal_exit(micro_config, tmp_path):
    # a volume target beyond the terrain's capacity: the case row carries a
    # dash status, the batch still exits cleanly
    text = micro_config.read_text().replace("power_mw = 1.2", "power_mw = 500")
    micro_config.write_text(text)
    config = load_case_config(micro_config)
    assert run_batch(config) == 0
    with open(tmp_path / "out" / "report_physical.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["status"] == "-" for r in rows)


def test_export_subcommand(micro_config, tmp_path):
    out = tmp_path / "model.lp"
    assert main(["export", str(micro_config), "--case", "1", "--format", "lp",
                 "-o", str(out)]) == 0
    parsed = ps.read_problem_file(out)
    assert parsed.num_variables > 0
    assert main(["export", str(micro_config), "--case", "1", "--format", "mps_fixed",
                 "-o", str(tmp_path / "model.mps"), "--level", "tsp"]) == 0


def test_oracle_subcommand(micro_config, capsys):
    assert main(["oracle", str(micro_config), "--case", "1"]) == 0
    out = capsys.readouterr().out
    assert "optimal cost" in out


def test_unknown_case_is_reported(micro_config):
    assert main(["export", str(micro_config), "--case", "9", "--format", "lp"]) == 2


def test_workers_parallel_run(micro_config, tmp_path):
    text = micro_config.read_text().replace("time_limit_s = 60", "time_limit_s = 60\nworkers = 2")
    micro_config.write_text(text)
    config = load_case_config(micro_config)
    assert config.workers == 2
    assert run_batch(config) == 0
    assert (tmp_path / "out" / "report_physical.csv").exists()


def test_demo_batch_same_with_two_workers(tmp_path):
    # both demo cases share one grid, and with it its coarse grid and distance field
    demo = load_case_config(Path(__file__).resolve().parents[1] / "configs" / "demo.ini")
    outs = []
    for workers in (1, 2):
        config = dataclasses.replace(demo, workers=workers, output_dir=tmp_path / f"w{workers}")
        assert run_batch(config) == 0
        outs.append(config.output_dir)
    for name in ("case_1_mask.asc", "case_2_mask.asc", "report_physical.csv", "report_costs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    solver = []
    for out in outs:
        with open(out / "report_solver.csv") as fh:
            solver.append([{k: v for k, v in row.items() if k != "time_s"} for row in csv.DictReader(fh)])
    assert solver[0] == solver[1]


def test_demo_trace_marks_certified_rung(tmp_path):
    # demo case 1 floods a natural basin: level 0's all-ones point is proved optimal
    demo = load_case_config(Path(__file__).resolve().parents[1] / "configs" / "demo.ini")
    config = dataclasses.replace(demo, output_dir=tmp_path)
    assert run_batch(config) == 0
    [line] = [line for line in (tmp_path / "trace_1.log").read_text().splitlines()
              if " level=0 " in line]
    assert " path=certified " in line and " status=optimal " in line and " nodes=0 " in line
