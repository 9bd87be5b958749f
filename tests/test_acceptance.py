"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS line per
criterion. Criteria 1-4 pin the published formula values; 5-9 are property
checks against independent oracles at their stated tolerances; 10 ships the
full case-study configuration and runs it only when the real DEM is present.
"""

from pathlib import Path

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import Level, StrategyConfig
from phs_siting.cli import _parse_config

from conftest import (
    highs_file_optimum,
    micro_case,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    river_grid,
    solve_at_level,
    spec_for_volume,
    RIVER_ELEVATION,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SOBRADINHO_CONFIG = REPO_ROOT / "configs" / "sobradinho.ini"
SOBRADINHO_DEM = REPO_ROOT / "data" / "sobradinho.asc"


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number} [PASS]: {text}")


# --------------------------------------------------------------------------- #
# Shared random micro suite (criteria 5-7 reuse these runs)                    #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def micro_suite():
    records = []
    for seed in range(25):
        case = micro_case(seed)
        if case is None:
            continue
        grid, spec = case
        oracle = ps.oracle_enumerate(grid, spec)
        _, res, tsp_solution = solve_at_level(grid, spec, 3)
        assert res.status is ps.SolveStatus.OPTIMAL
        ladder_solution = ps.run_ladder(grid, spec)
        records.append((grid, spec, oracle, tsp_solution, ladder_solution))
    assert len(records) >= 20, "generator must yield at least 20 usable micro terrains"
    return records


def test_criterion_1_sizing_reproduction():
    table = [
        (150.0, 3.0, 5.50), (175.0, 3.0, 4.72), (200.0, 3.0, 4.13),
        (150.0, 3.0, 5.50), (175.0, 3.0, 4.72), (200.0, 3.0, 4.13),
        (150.0, 12.0, 22.02), (175.0, 12.0, 18.87), (200.0, 12.0, 16.51),
    ]
    for head, hours, target in table:
        got = ps.required_volume(500.0, head, hours, efficiency=0.667) / 1e6
        assert abs(got - target) / target <= 0.01, (head, hours, got, target)
    _report(1, "required_volume at eta=0.667 matches all 9 storage targets within 1%")


def test_criterion_2_equipment_cost_reproduction():
    for head, target in ((150.0, 134), (175.0, 125), (200.0, 117)):
        musd = round(ps.equipment_cost(head, 500.0) / 1e6)
        assert abs(musd - target) <= 1, (head, musd, target)
    _report(2, "E&M cost reproduces 134/125/117 $M for heads 150/175/200 at 500 MW")


def test_criterion_3_embankment_cross_table():
    volumes_and_costs = {
        1: (2.02, 10), 2: (0.26, 1), 3: (0.53, 3), 4: (9.51, 48),
        5: (11.76, 59), 7: (6.30, 31), 8: (0.56, 3), 9: (1.55, 8),
    }
    unit = ps.CostParams().embankment_unit
    for case, (volume_hm3, cost_musd) in volumes_and_costs.items():
        implied = volume_hm3 * 1e6 * unit / 1e6
        assert abs(implied - cost_musd) <= 1.0, (case, implied, cost_musd)
    _report(3, "embankment volumes x $5/m^3 match the cost column within 1 $M (8 cases)")


def test_criterion_4_conveyance_constants():
    params = ps.CostParams()
    assert params.excavation_coefficient() == 10.0
    lining = params.lining_coefficient()
    assert abs(lining - 190.0) / 190.0 <= 0.01, lining
    _report(4, f"composed defaults give 10.0 exact (excavation) and {lining:.2f} (lining)")


def test_criterion_5_oracle_equivalence(micro_suite):
    for grid, spec, oracle, tsp_solution, _ in micro_suite:
        rel = abs(tsp_solution.costs.total - oracle.cost) / oracle.cost
        assert rel <= 1e-6, (rel, oracle.cost, tsp_solution.costs.total)
        # masks are cost-equivalent: both totals are recomputed from masks
    _report(5, f"tour-constrained optimum equals the exhaustive oracle on "
               f"{len(micro_suite)} random micro terrains (1e-6 relative)")


def test_criterion_6_connectivity_guarantee(
    micro_suite, two_basin_levels, diagonal_blob_levels
):
    checked = 0
    for grid, spec, _, _, ladder_solution in micro_suite:
        if ladder_solution.valid:
            comps = ps.connected_components(ladder_solution.reservoir_mask, "four")
            assert len(comps) == 1
            checked += 1
    assert checked >= 20

    grid, spec, levels = two_basin_levels
    assert levels[0].n_components == 2  # level 0 provably fragments
    two_basin_ladder = ps.run_ladder(grid, spec)
    assert two_basin_ladder.valid and two_basin_ladder.level >= 1

    grid, spec, levels = diagonal_blob_levels
    assert levels[0].n_components == 2
    assert levels[1].n_components == 2  # H/V planes pass the split
    diagonal_ladder = ps.run_ladder(grid, spec)
    assert diagonal_ladder.valid and diagonal_ladder.level >= 2

    _report(6, f"every valid ladder solution is one 4-connected reservoir "
               f"({checked} random + 2 constructed); two-basin needs level 1, "
               f"diagonal blobs need level 2")


def test_criterion_7_volume_feasibility(
    micro_suite, two_basin_levels, diagonal_blob_levels
):
    solutions = [(g, s, rec) for g, s, _, rec, _ in micro_suite]
    solutions += [(g, s, lad) for g, s, _, _, lad in micro_suite]
    grid, spec, levels = two_basin_levels
    solutions += [(grid, spec, sol) for sol in levels.values()]
    grid, spec, levels = diagonal_blob_levels
    solutions += [(grid, spec, sol) for sol in levels.values()]
    for grid, spec, solution in solutions:
        stored = float(
            np.where(solution.interior_mask, spec.water_elevation - grid.elevations, 0.0).sum()
        ) * grid.cell_area
        assert stored >= spec.vol_min * (1 - 1e-6), (stored, spec.vol_min)
    _report(7, f"all {len(solutions)} returned solutions store at least "
               f"VolMin(1 - 1e-6), recomputed from masks")


def test_criterion_8_zoom_soundness():
    # micro equality: the heuristic is exact when every stage solves to
    # optimality and the window never clips the optimum
    elev = np.full((12, 12), 600.0)
    elev[:, 0:2] = RIVER_ELEVATION
    elev[6, 6], elev[6, 7], elev[7, 6] = 500.0, 505.0, 505.0
    grid = river_grid(elev)
    spec = spec_for_volume(100_000.0)
    direct = ps.run_ladder(grid, spec)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert zoomed.valid
    assert abs(zoomed.costs.total - direct.costs.total) <= 1e-9 * direct.costs.total

    # mid-size directional check under a tight shared budget
    grid, spec = midsize_grid(), midsize_spec()
    budget = 0.5
    direct_cfg = StrategyConfig(ladder=(Level.NONE,), time_limit_s=budget)
    zoom_cfg = StrategyConfig(ladder=(Level.NONE,), time_limit_s=budget, zoom_factors=(4, 2, 1))
    zoomed_mid = ps.run_zoom_in(grid, spec, config=zoom_cfg)
    assert zoomed_mid.valid and zoomed_mid.connected
    try:
        direct_mid = ps.run_ladder(grid, spec, config=direct_cfg)
        assert zoomed_mid.costs.total <= direct_mid.costs.total * (1 + 1e-9)
        note = (f"zoom ${zoomed_mid.costs.total / 1e6:.1f}M <= direct incumbent "
                f"${direct_mid.costs.total / 1e6:.1f}M at {budget}s")
    except ps.NoIncumbentError:
        note = f"zoom found ${zoomed_mid.costs.total / 1e6:.1f}M; direct had no incumbent at {budget}s"
    _report(8, f"zoom-in equals the direct optimum on micro instances; {note}")


def test_criterion_9_export_round_trip(tmp_path):
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    internal = ps.solve(sp.mip, "highs")
    for fmt in ("mps_free", "mps_fixed", "lp"):
        path = tmp_path / ("m.lp" if fmt == "lp" else f"m_{fmt}.mps")
        ps.export_problem(sp.mip, fmt, path)
        back = ps.read_problem_file(path)
        assert ps.problems_structurally_equal(sp.mip, back, tol=1e-9) == []
        external = highs_file_optimum(path)
        assert abs(external - internal.objective) <= 1e-9 * abs(internal.objective)
    _report(9, "export/parse preserves structure at 1e-9; HiGHS's own reader solves "
               "every exported file to the internal optimum")


def test_criterion_10_case_study_configuration(tmp_path):
    assert SOBRADINHO_CONFIG.exists(), "the shipped case-study config is part of the repo"
    text = SOBRADINHO_CONFIG.read_text()
    for needle in ("head_m = 150", "head_m = 175", "head_m = 200",
                   "power_mw = 500", "time_limit_s = 3600"):
        assert needle in text
    assert text.count("[case.") == 9
    # drift guard: away from its DEM, the file's one diagnostic is the DEM path
    copy = tmp_path / "cases" / SOBRADINHO_CONFIG.name
    copy.parent.mkdir()
    copy.write_text(text)
    assert _parse_config(copy)[1] == [
        f"dem.path: file not found ({copy.parent / '../data/sobradinho.asc'})"]
    if not SOBRADINHO_DEM.exists():
        _report(10, "case-study config ships with the repo (9 cases, 1 h budget); "
                    "full reproduction SKIPPED: DEM not present under data/")
        pytest.skip("Sobradinho DEM not available; full-scale run skipped")

    # Full-scale assertions, only with the real DEM present: the zoom cases
    # terminate optimal with storage at or above their targets, and a direct
    # full-resolution solve still carries a nonzero gap at the limit.
    from phs_siting.cli import _load_terrain, load_case_config

    config = load_case_config(SOBRADINHO_CONFIG)
    grid, _ = _load_terrain(config)
    targets = {1: 5.50e6, 2: 4.72e6, 3: 4.13e6}
    zoom_solutions = {}
    for case in config.cases:
        if case.index not in (1, 2, 3, 9):
            continue
        spec = ps.SitingSpec.from_engineering(
            case.power_mw, case.head_m, case.hours, grid.lower_elevation, config.efficiency
        )
        zoom_solutions[case.index] = ps.run_zoom_in(
            grid, spec, config.cost_params, config.strategy
        )
    for index, target in targets.items():
        solution = zoom_solutions[index]
        assert solution.status == "optimal", index
        assert solution.storage_m3 >= target * (1 - 1e-6)

    # incremental storage between the 12 h and 3 h runs at 200 m head should
    # land within an order of magnitude of ~$0.24 per m^3
    extra_cost = zoom_solutions[9].costs.total - zoom_solutions[3].costs.total
    extra_storage = zoom_solutions[9].storage_m3 - zoom_solutions[3].storage_m3
    assert extra_storage > 0
    assert 0.024 <= extra_cost / extra_storage <= 2.4

    direct_case = next(c for c in config.cases if c.index == 4)
    spec = ps.SitingSpec.from_engineering(
        direct_case.power_mw, direct_case.head_m, direct_case.hours,
        grid.lower_elevation, config.efficiency,
    )
    solution = ps.run_ladder(grid, spec, config.cost_params, config.strategy)
    assert solution.gap is not None and solution.gap > 0
    _report(10, "case-study cases 1-3 optimal with storage at target; direct case gapped; "
                "incremental storage cost in range")
