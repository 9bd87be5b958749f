"""Batch front-end: config validation, case execution, report artifacts."""

import csv

import numpy as np
import pytest

import phs_siting as ps
from phs_siting.cli import load_case_config, main, run_batch, validate_config

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
    ],
)
def test_validate_reports_field_paths(micro_config, mutation, needle):
    broken = micro_config.read_text().replace(*mutation)
    micro_config.write_text(broken)
    diags = validate_config(micro_config)
    assert any(needle in d for d in diags), diags
    assert main(["validate", str(micro_config)]) == 1


def test_validate_rejects_stale_solver_keys(micro_config):
    micro_config.write_text(micro_config.read_text().replace(*STALE_SOLVER_KEYS))
    diags = validate_config(micro_config)
    assert "solver.backend: unknown key" in diags
    assert "solver.seed: unknown key" in diags


def test_run_batch_produces_artifacts(micro_config, tmp_path):
    config = load_case_config(micro_config)
    assert run_batch(config) == 0
    out = tmp_path / "out"
    for name in ("report_physical.csv", "report_costs.csv", "report_solver.csv",
                 "case_1_mask.asc", "case_2_mask.asc", "trace_1.log", "trace_2.log"):
        assert (out / name).exists(), name

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
