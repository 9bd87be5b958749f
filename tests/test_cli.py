"""Batch front-end: config validation, case execution, report artifacts."""

import csv
import dataclasses
import threading
from pathlib import Path

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import terrain
from phs_siting.cli import (
    _load_terrain,
    _parse_config,
    _trace_line,
    load_case_config,
    main,
    run_batch,
    validate_config,
)

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
         "strategy.perimeter_min_neighbors: must be 1 or 3"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nclip_margin = -1"),
         "strategy.clip_margin: must be >= 0"),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nperimeter_min_neighbors = 0"),
         "strategy.perimeter_min_neighbors: must be 1 or 3"),
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
         ["strategy.distance_metric: must be 'horizontal' or 'slant', got 'euclid'"]),
        (("time_limit_s = 60", "time_limit_s = -1"), ["solver.time_limit_s: must be > 0, got -1.0"]),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nclip_margin = -3\nperimeter_min_neighbors = 2"),
         ["strategy.perimeter_min_neighbors: must be 1 or 3", "strategy.clip_margin: must be >= 0"]),
        (("zoom_factors = 2, 1", "zoom_factors = 2, 1\nbudget = total"), ["strategy.budget: unknown key"]),
        (("efficiency = 0.667", "efficiency = 1.5"), ["project.efficiency: must be in (0, 1], got 1.5"]),
        (("head_m = 165", "head_m = -20"),
         [f"case.{k}.head_m: must be positive, got -20.0" for k in (1, 2)]),
        (("operation_h = 3\nzoom = no", "operation_h = 0\nzoom = no"),
         ["case.1.operation_h: must be positive, got 0.0"]),
        (("zoom = no", "zoom = no\npower_mw = -5"), ["case.1.power_mw: must be positive, got -5.0"]),
        (("head_m = 165\noperation_h = 3\nzoom = no", "operation_h = 3\nzoom = no"),
         ["case.1.head_m: required"]),
    ],
)
def test_validate_reports_one_line_per_rejected_value(micro_config, mutation, expected):
    micro_config.write_text(micro_config.read_text().replace(*mutation))
    assert validate_config(micro_config) == expected


def test_readme_case_file_example_reads(tmp_path):
    # Drift guard: the README's example names only keys the reader knows, so
    # its one diagnostic is the DEM file it names, which does not ship.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = tmp_path / "cases.ini"
    example.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert _parse_config(example)[1] == [f"dem.path: file not found ({tmp_path / 'river.asc'})"]


# Each value is read as its key's type before any check: a boolean or a
# lower_elevation that does not read is reported once, never raised or ignored.
# pad_nonsquare is gone, so an old file that sets it names an unknown key.
@pytest.mark.parametrize(
    "mutation,expected",
    [
        (("zoom = yes", "zoom = maybe"), "case.2.zoom: not a boolean ('maybe')"),
        (("lower_tolerance = 0.5", "lower_tolerance = 0.5\npad_nonsquare = perhaps"),
         "dem.pad_nonsquare: unknown key"),
        (("lower_tolerance = 0.5", "lower_tolerance = 0.5\nlower_elevation = abc"),
         "dem.lower_elevation: not a number ('abc')"),
        (("lower_tolerance = 0.5", "lower_tolerance = 0.5\nlower_elevation = inf"),
         "dem.lower_elevation: not a finite number (inf)"),
    ],
)
def test_validate_reports_a_value_that_does_not_read(micro_config, capsys, mutation, expected):
    micro_config.write_text(micro_config.read_text().replace(*mutation))
    assert validate_config(micro_config) == [expected]
    assert main(["validate", str(micro_config)]) == 1
    assert capsys.readouterr().out == expected + "\n"


# A list value is read even when empty, as text is; it never falls back to a default.
@pytest.mark.parametrize(
    "mutation,expected",
    [
        (("ladder = none, hv_planes, hv_diag_planes, tsp", "ladder ="),
         "strategy.ladder: must name at least one defense level"),
        (("zoom_factors = 2, 1", "zoom_factors ="),
         "strategy.zoom_factors: must be strictly decreasing and end at 1"),
    ],
)
def test_an_empty_list_value_is_given(micro_config, mutation, expected):
    micro_config.write_text(micro_config.read_text().replace(*mutation))
    assert validate_config(micro_config) == [expected]


def test_a_repeated_case_index_is_reported(micro_config):
    # case.1 and case.01 would write one trace and one mask, the second's
    micro_config.write_text(micro_config.read_text().replace("[case.2]", "[case.01]"))
    assert validate_config(micro_config) == ["case.01: repeats the case index of [case.1]"]


def _csv_dem(config_path, meta):
    """Point the case file at the micro DEM as a CSV grid with sidecar ``meta``."""
    dem = ps.load_grid(config_path.parent / "dem.asc", "esri_ascii", ps.ByElevation(385.0, 0.5))
    np.savetxt(config_path.parent / "dem.csv", dem.elevations, fmt="%g", delimiter=",")
    (config_path.parent / "dem.csv.meta").write_text(meta)
    config_path.write_text(config_path.read_text().replace(
        "path = dem.asc\nformat = esri_ascii", "path = dem.csv\nformat = csv"))
    return config_path.parent / "dem.csv"


# A DEM that reads but fails a grid check is a diagnostic naming the file, not a traceback.
@pytest.mark.parametrize(
    "edit,check",
    [
        (lambda text: text.replace("cellsize 34.000000", "cellsize 0"), "cell_length must be positive, got 0.0"),
        (lambda text: text.replace("cellsize 34.000000", "cellsize -34"),
         "cell_length must be positive, got -34.0"),
        (lambda text: text.replace("385 385 600", "385 385 nan", 1), "non-NODATA elevations must be finite"),
        (lambda text: text.replace("385 385 600", "nan 385 600", 1), "non-NODATA elevations must be finite"),
        (lambda text: "ncols 2\nnrows 2\ncellsize 34\n385 600\n385 600\n", "grid side must be >= 3, got (2, 2)"),
        (None, "cell_length must be positive, got 0.0"),
    ],
    ids=["cellsize-0", "cellsize-negative", "nan-value", "nan-first-value", "side-2", "csv-cell_length-0"],
)
def test_a_dem_failing_a_grid_check_is_reported(micro_config, tmp_path, capsys, edit, check):
    if edit is None:
        dem = _csv_dem(micro_config, "cell_length=0\n")
    else:
        dem = tmp_path / "dem.asc"
        dem.write_text(edit(dem.read_text()))
    assert validate_config(micro_config) == [f"{dem}: {check}"]
    assert main(["run", str(micro_config)]) == 2
    assert capsys.readouterr().err == f"error: {dem}: {check}\n"
    assert not (tmp_path / "out").exists()


def test_a_csv_dem_reads(micro_config):
    _csv_dem(micro_config, "cell_length=34\n")
    assert validate_config(micro_config) == []


def test_a_zoom_factor_too_coarse_for_the_dem_is_reported(micro_config, tmp_path, capsys):
    # factor 4 makes the 8x8 DEM 2x2; only a case that zooms uses the factors
    micro_config.write_text(micro_config.read_text().replace("zoom_factors = 2, 1", "zoom_factors = 4, 1"))
    expected = "strategy.zoom_factors: factor 4 collapses the grid below 3 cells per side"
    assert validate_config(micro_config) == [expected]
    assert main(["run", str(micro_config)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()
    micro_config.write_text(micro_config.read_text().replace("zoom = yes", "zoom = no"))
    assert validate_config(micro_config) == []


def test_booleans_and_lower_elevation_are_read(micro_config):
    micro_config.write_text(micro_config.read_text()
                            .replace("zoom = no", "zoom = on")
                            .replace("lower_tolerance = 0.5",
                                     "lower_tolerance = 0.5\nlower_elevation = 385.25"))
    config = load_case_config(micro_config)
    assert [case.zoom for case in config.cases] == [True, True]
    assert config.lower_elevation == 385.25


def _with_costs(config_path, lines):
    config_path.write_text(config_path.read_text().replace("[strategy]", f"[costs]\n{lines}\n\n[strategy]"))


@pytest.mark.parametrize(
    "lines,expected",
    [
        ("foo = 1", ["costs.foo: unknown cost parameter"]),
        ("em_b = -1", ["costs.em_b: must be positive, got -1.0"]),
        ("em_a = 3068\nslope_hv = 0", ["costs.slope_hv: must be positive, got 0.0"]),
        ("em_a = abc", ["costs.em_a: not a number ('abc')"]),
        ("em_b = -1\nslope_hv = 0", ["costs.slope_hv: must be positive, got 0.0",
                                     "costs.em_b: must be positive, got -1.0"]),
    ],
)
def test_validate_reports_bad_cost_parameters(micro_config, lines, expected):
    _with_costs(micro_config, lines)
    assert validate_config(micro_config) == expected
    assert main(["validate", str(micro_config)]) == 1


def test_cost_override_changes_the_reported_total(micro_config, tmp_path):
    totals = []
    for lines in ("", "em_a = 6136"):
        _with_costs(micro_config, lines)
        config = dataclasses.replace(load_case_config(micro_config), output_dir=tmp_path / f"out{len(totals)}")
        assert run_batch(config) == 0
        with open(config.output_dir / "report_costs.csv") as fh:
            totals.append(next(csv.DictReader(fh)))
        micro_config.write_text(CONFIG)
    default, doubled = totals
    assert load_case_config(micro_config).cost_params == ps.CostParams()
    assert float(doubled["equipment_usd"]) > float(default["equipment_usd"])
    # the site is the same, so only the equipment line moves the total
    for key in ("embankment_usd", "conveyance_excavation_usd", "conveyance_lining_usd"):
        assert doubled[key] == default[key], key
    assert float(doubled["total_usd"]) - float(default["total_usd"]) == pytest.approx(
        float(doubled["equipment_usd"]) - float(default["equipment_usd"]), abs=0.02)


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


def test_nonsquare_dem_takes_masks_of_its_own_shape(micro_config, tmp_path):
    # the top six rows of the micro DEM load as they are, 6x8, and the masks
    # read and the rasters written have that shape and the file's top edge
    dem = ps.load_grid(tmp_path / "dem.asc", "esri_ascii", ps.ByElevation(385.0, 0.5))
    ps.write_esri_ascii(tmp_path / "dem.asc", dem.elevations[:6], 34.0, value_format="{:.6g}")
    _exclude(micro_config, (6, 8), (0, 7))
    assert validate_config(micro_config) == []
    config = load_case_config(micro_config)
    grid, excluded = _load_terrain(config)
    assert grid.shape == (6, 8) and not grid.nodata.any()
    assert excluded.shape == (6, 8) and np.argwhere(excluded).tolist() == [[0, 7]]
    assert grid.yllcorner + grid.nrows * grid.cell_length == 6 * 34.0
    assert run_batch(config) == 0
    for k in (1, 2):
        mask = ps.load_grid(tmp_path / "out" / f"case_{k}_mask.asc", "esri_ascii", ps.ByElevation(0.0, 0.25))
        assert mask.shape == (6, 8)
        assert mask.yllcorner + mask.nrows * mask.cell_length == 6 * 34.0


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
    # its coarse stage half, all to its one rung, and the native stage what is
    # left, a quarter of it to its first rung
    assert "limit=15.00s" in (out / "trace_1.log").read_text().splitlines()[0]
    assert all(" nnz=" in line and " nodes=" in line
               for line in (out / "trace_1.log").read_text().splitlines())
    assert all(" bound=" in line and " build=" in line
               for line in (out / "trace_1.log").read_text().splitlines())
    zoom_limits = [float(line.split(" limit=")[1].split("s")[0])
                   for line in (out / "trace_2.log").read_text().splitlines()]
    assert zoom_limits[0] == pytest.approx(30.0, abs=0.01)
    assert zoom_limits[1] == pytest.approx(15.0, abs=0.1)

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

    # each row names how the rung that produced its site was solved; a
    # certified rung builds no model, so its row reports none
    with open(out / "report_solver.csv") as fh:
        solver_rows = list(csv.DictReader(fh))
    trace_paths = [{line.split(" path=")[1].split()[0]
                    for line in (out / f"trace_{k}.log").read_text().splitlines()} for k in (1, 2)]
    for row, paths in zip(solver_rows, trace_paths):
        assert row["path"] in paths, (row, paths)
        if row["path"] == "highs":
            assert int(row["n_variables"]) > 0, row
        else:
            assert row["path"] == "certified" and int(row["n_variables"]) == 0, row


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


def test_oracle_refuses_a_search_over_its_ceiling(capsys):
    # the demo's 54 candidates once asked for 2^54-word arrays and died on the allocation
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.ini"
    assert main(["oracle", str(demo), "--case", "1", "--max-cells", "60"]) == 2
    assert capsys.readouterr().err == (
        "error: search space too large: 54 candidate cells exceed the oracle's ceiling of 24\n")


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


def test_the_cli_builds_only_the_direct_cases_field_before_the_run(tmp_path, monkeypatch):
    # the DEM's own field, which the direct case reads, is built once on the
    # main thread; the zoom case's stages build only their windows' fields
    # (from the coarse lower cells), and no coarse grid of the whole DEM is kept
    fields, coarse, compute, coarsen = [], [], terrain._distance_field, terrain._coarsen

    def counted(grid, metric, lower_cells=None):
        on_main = threading.current_thread() is threading.main_thread()
        fields.append((grid.shape, lower_cells is None, on_main))
        return compute(grid, metric, lower_cells)

    def counted_coarsen(grid, factor, window=None):
        coarse.append(window)
        return coarsen(grid, factor, window)

    monkeypatch.setattr(terrain, "_distance_field", counted)
    monkeypatch.setattr(terrain, "_coarsen", counted_coarsen)
    demo = load_case_config(Path(__file__).resolve().parents[1] / "configs" / "demo.ini")
    assert run_batch(dataclasses.replace(demo, workers=2, output_dir=tmp_path)) == 0
    assert [f for f in fields if f[1]] == [((16, 16), True, True)]
    assert [f[1:] for f in fields if not f[1]] == [(False, False)] * 2  # the zoom's two stages
    assert coarse == [(0, 8, 0, 8)]  # the factor-2 stage's window, the whole coarse extent


def test_validate_reports_a_lower_body_that_vanishes_at_a_zoom_factor(tmp_path, capsys):
    # the demo river is two cells wide: a 4x4 block on it is half river, no strict majority
    configs = Path(__file__).resolve().parents[1] / "configs"
    text = ((configs / "demo.ini").read_text()
            .replace("path = demo_dem.asc", f"path = {configs / 'demo_dem.asc'}")
            .replace("zoom_factors = 2, 1", "zoom_factors = 4, 2, 1")
            .replace("directory = ../out/demo", "directory = out"))
    config_path = tmp_path / "demo.ini"
    config_path.write_text(text)
    expected = ("strategy.zoom_factors: the lower body vanished at aggregation factor 4 "
                "(strict-majority rule); use smaller zoom factors or a wider lower body")
    assert validate_config(config_path) == [expected]
    assert main(["run", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()
    config_path.write_text(text.replace("zoom = yes", "zoom = no"))
    assert validate_config(config_path) == []


def test_demo_trace_marks_certified_rung(tmp_path):
    # demo case 1 floods a natural basin: level 0's all-ones point is proved optimal
    demo = load_case_config(Path(__file__).resolve().parents[1] / "configs" / "demo.ini")
    config = dataclasses.replace(demo, output_dir=tmp_path)
    assert run_batch(config) == 0
    [line] = [line for line in (tmp_path / "trace_1.log").read_text().splitlines()
              if " level=0 " in line]
    assert " path=certified " in line and " status=optimal " in line and " nodes=0 " in line
    assert " vars=0 rows=0 nnz=0 " in line and " build=0.000s " in line
    with open(tmp_path / "report_solver.csv") as fh:
        row = next(csv.DictReader(fh))
    assert (row["case"], row["path"], row["n_variables"], row["n_constraints"]) == ("1", "certified", "0", "0")


def test_trace_line_marks_a_rung_over_its_limit():
    entry = ps.TraceEntry("ladder", 1, 2, "time_limit", None, None, None, None, 10, 20, 1.25,
                          time_limit_s=0.5)
    assert " limit=0.50s over_limit" in _trace_line(entry)
    for wall, limit in ((0.5, 0.5), (0.25, 0.5), (9.0, None)):
        line = _trace_line(dataclasses.replace(entry, wall_time_s=wall, time_limit_s=limit))
        assert "over_limit" not in line, line
