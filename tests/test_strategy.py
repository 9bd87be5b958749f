"""Escalation ladder and zoom-in heuristic behavior."""

import importlib

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import Level, StrategyConfig

from conftest import (
    CELL,
    RIVER_ELEVATION,
    FailingHighs,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    river_grid,
    spec_for_volume,
)


def test_config_validation():
    with pytest.raises(ValueError, match="at least one"):
        StrategyConfig(ladder=())
    with pytest.raises(ValueError, match="escalating"):
        StrategyConfig(ladder=(Level.TSP, Level.NONE))
    with pytest.raises(ValueError, match="end at 1"):
        StrategyConfig(zoom_factors=(8, 4, 2))
    with pytest.raises(ValueError, match="per_level"):
        StrategyConfig(budget="sometimes")
    with pytest.raises(ValueError, match="1 or 3"):
        StrategyConfig(perimeter_min_neighbors=2)
    with pytest.raises(ValueError, match="clip_margin"):
        StrategyConfig(clip_margin=-1)
    for gap in (-0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match="gap_target"):
            StrategyConfig(gap_target=gap)


def test_ladder_stops_at_level_zero_on_pit():
    sol = ps.run_ladder(pit_grid(), pit_spec())
    assert sol.level == 0 and sol.valid and sol.connected
    assert [t.level for t in sol.trace] == [0]


def test_ladder_two_basin_requires_level_one(two_basin_levels):
    grid, spec, levels = two_basin_levels
    assert levels[0].n_components == 2  # unconstrained optimum splits
    sol = ps.run_ladder(grid, spec)
    assert sol.level == 1 and sol.valid and sol.connected
    assert [t.level for t in sol.trace] == [0, 1]
    assert sol.objective_value > levels[0].objective_value


def test_two_basin_claims_verified_by_oracle(two_basin_levels):
    """The constructed terrain really rewards the split: exhaustive
    enumeration confirms the fragmented optimum beats every connected one."""
    grid, spec, levels = two_basin_levels
    unrestricted = ps.oracle_enumerate(grid, spec, require_connected=False, max_cells=21)
    connected = ps.oracle_enumerate(grid, spec, require_connected=True, max_cells=21)
    verdict = ps.connectivity_verdict(unrestricted.reservoir_mask)
    assert not verdict.connected and verdict.n_components == 2
    assert unrestricted.cost < connected.cost - 1e-6
    assert levels[0].costs.total == pytest.approx(unrestricted.cost, rel=1e-6)


def test_ladder_diagonal_blob_requires_level_two(diagonal_blob_levels):
    grid, spec, levels = diagonal_blob_levels
    sol = ps.run_ladder(grid, spec)
    assert sol.level == 2 and sol.valid and sol.connected
    assert [t.level for t in sol.trace] == [0, 1, 2]
    assert [t.n_components for t in sol.trace] == [2, 2, 1]


def test_ladder_exhausted_returns_flagged_incumbent(two_basin_levels):
    grid, spec, _ = two_basin_levels
    sol = ps.run_ladder(grid, spec, config=StrategyConfig(ladder=(Level.NONE,)))
    assert not sol.valid and not sol.connected
    assert sol.n_components == 2


def test_ladder_solutions_recheck_volume_and_shape(two_basin_levels):
    grid, spec, _ = two_basin_levels
    sol = ps.run_ladder(grid, spec)
    cands = ps.candidate_sets(grid, spec.water_elevation)
    assert ps.verify_masks(grid, cands, spec, sol) == []
    stored = float(
        np.where(sol.interior_mask, spec.water_elevation - grid.elevations, 0.0).sum()
    ) * grid.cell_area
    assert stored >= spec.vol_min * (1 - 1e-6)


def test_ladder_infeasible_capacity_fails_fast():
    with pytest.raises(ps.InfeasibleProblemError, match="below the volume target"):
        ps.run_ladder(pit_grid(), spec_for_volume(1e6))


def test_ladder_stops_on_solver_error(monkeypatch):
    import phs_siting.strategy as strategy

    monkeypatch.setattr(importlib.import_module("phs_siting.solve"), "_Highs", FailingHighs)
    builds = []
    original = strategy.build_siting_problem

    def counting(*args, **kwargs):
        builds.append(kwargs["level"])
        return original(*args, **kwargs)

    monkeypatch.setattr(strategy, "build_siting_problem", counting)
    with pytest.raises(ps.NoIncumbentError) as info:
        ps.run_ladder(pit_grid(), pit_spec())
    assert builds == [0]  # no escalation past an error
    [entry] = info.value.trace
    assert (entry.level, entry.status, entry.objective) == (0, "error", None)
    assert entry.note == "HiGHS run() failed (Not Set)"


def test_ladder_aggregates_problem_size_and_time(two_basin_levels):
    grid, spec, _ = two_basin_levels
    sol = ps.run_ladder(grid, spec)
    assert sol.n_variables == max(t.n_variables for t in sol.trace)
    assert sol.wall_time_s == pytest.approx(sum(t.wall_time_s for t in sol.trace))


# --------------------------------------------------------------------------- #
# Zoom-in                                                                      #
# --------------------------------------------------------------------------- #


def _zoomable_pit_grid():
    """12x12 pit terrain that stays visible after aggregation by 2.

    The pit occupies one aggregation block (cells 6-7 x 6-7), so the coarse
    super-cell mean (527.5 m) is still below the water level.
    """
    elev = np.full((12, 12), 600.0)
    elev[:, 0:2] = RIVER_ELEVATION
    elev[6, 6] = 500.0
    elev[6, 7] = 505.0
    elev[7, 6] = 505.0
    return river_grid(elev)


def test_zoom_equals_direct_on_micro_instance():
    grid = _zoomable_pit_grid()
    spec = spec_for_volume(100_000.0)
    direct = ps.run_ladder(grid, spec)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert zoomed.valid and zoomed.connected
    assert zoomed.costs.total == pytest.approx(direct.costs.total, rel=1e-9)
    assert zoomed.trace[0].zoom_factor == 2
    assert zoomed.trace[-1].zoom_factor == 1


def test_zoom_masks_live_in_full_frame():
    grid = _zoomable_pit_grid()
    spec = spec_for_volume(100_000.0)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert zoomed.perimeter_mask.shape == grid.shape
    cands = ps.candidate_sets(grid, spec.water_elevation)
    assert ps.verify_masks(grid, cands, spec, zoomed) == []


def test_zoom_adversarial_margin_documented_failure_mode():
    # margin 0 may clip away the refined optimum; the heuristic is not exact
    # by construction, so the only guarantee is cost >= the direct optimum
    grid = _zoomable_pit_grid()
    spec = spec_for_volume(100_000.0)
    direct = ps.run_ladder(grid, spec)
    zoomed = ps.run_zoom_in(
        grid, spec, config=StrategyConfig(zoom_factors=(2, 1), clip_margin=0)
    )
    assert zoomed.costs.total >= direct.costs.total * (1 - 1e-9)


def test_zoom_aborts_when_coarse_level_infeasible():
    # the single deep cell averages away at factor 2, so the coarse level
    # cannot reach the volume target and the heuristic gives up with a trace
    elev = np.full((12, 12), 600.0)
    elev[:, 0:2] = RIVER_ELEVATION
    elev[6, 7] = 480.0
    grid = river_grid(elev)
    spec = spec_for_volume(57_800.0 * 1.2)
    with pytest.raises((ps.NoIncumbentError, ps.InfeasibleProblemError)):
        ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))


def test_zoom_rejects_vanishing_lower_body():
    elev = np.full((12, 12), 600.0)
    elev[:, 0] = RIVER_ELEVATION  # one column: lost in any 2x2 majority vote
    elev[6, 7] = 480.0
    grid = river_grid(elev)
    spec = spec_for_volume(50_000.0)
    with pytest.raises(ps.InfeasibleProblemError, match="lower body vanished"):
        ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))


def test_zoom_beats_or_ties_direct_under_tight_budget():
    grid, spec = midsize_grid(), midsize_spec()
    budget = 0.5
    config = StrategyConfig(
        ladder=(Level.NONE,), time_limit_s=budget, budget="total"
    )
    direct = ps.run_ladder(grid, spec, config=config)
    zoom_config = StrategyConfig(
        ladder=(Level.NONE,), time_limit_s=budget, budget="per_level",
        zoom_factors=(4, 2, 1),
    )
    zoomed = ps.run_zoom_in(grid, spec, config=zoom_config)
    assert zoomed.valid and zoomed.connected
    assert zoomed.costs.total <= direct.costs.total * (1 + 1e-9)


def test_zoom_trace_reports_windows_and_sizes():
    grid = _zoomable_pit_grid()
    spec = spec_for_volume(100_000.0)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert all(t.window is not None for t in zoomed.trace)
    assert zoomed.n_variables == max(t.n_variables for t in zoomed.trace)
    assert zoomed.wall_time_s == pytest.approx(sum(t.wall_time_s for t in zoomed.trace))


def _coarse_split_grid():
    """8x14 terrain, 17 m cells, whose two pits are apart at factor 2 only.

    A shallow channel (545 m, one fine row) joins the pits at native
    resolution. Aggregated by 2, each channel block averages 555 m, above the
    550 m water level, so the coarse reservoirs cannot touch: the first rung
    fragments, and planes are infeasible there. Both pits are needed for the
    volume, and at native resolution flooding the channel avoids wet dams.
    """
    elev = np.full((8, 14), 565.0)
    elev[6:, :] = RIVER_ELEVATION
    elev[2:4, 2:4] = 500.0
    elev[2:4, 10:12] = 500.0
    elev[2, 4:10] = 545.0
    return river_grid(elev, CELL / 2)


def test_zoom_coarse_stage_solves_first_rung_only(monkeypatch):
    import phs_siting.strategy as strategy

    grid, spec = _coarse_split_grid(), spec_for_volume(100_000.0)
    config = StrategyConfig(zoom_factors=(2, 1), clip_margin=0)
    stages = []
    original = strategy.run_ladder

    def recording(*args, **kwargs):
        sol = original(*args, **kwargs)
        stages.append((kwargs["zoom_factor"], sol))
        return sol

    monkeypatch.setattr(strategy, "run_ladder", recording)
    zoomed = ps.run_zoom_in(grid, spec, config=config)

    coarse = [t for t in zoomed.trace if t.zoom_factor > 1]
    assert [(t.zoom_factor, t.level) for t in coarse] == [(2, int(config.ladder[0]))]
    assert coarse[0].n_components == 2  # the coarse incumbent really fragments

    # the native window covers both coarse components, not just the larger one
    (factor, coarse_sol), _ = stages
    r0, c0 = coarse[0].window[:2]
    fine = [t for t in zoomed.trace if t.zoom_factor == 1]
    wr, wc, wn, wm = fine[0].window
    for i, j in np.argwhere(coarse_sol.reservoir_mask):
        top, left = r0 + i * factor, c0 + j * factor
        assert wr <= top and top + factor <= wr + wn
        assert wc <= left and left + factor <= wc + wm

    assert zoomed.valid and zoomed.connected
    cands = ps.candidate_sets(grid, spec.water_elevation)
    assert ps.verify_masks(grid, cands, spec, zoomed) == []
    assert zoomed.costs.total == pytest.approx(ps.run_ladder(grid, spec).costs.total, rel=1e-9)


def test_zoom_failure_keeps_stage_trace():
    # a pit on the top edge counts as capacity but can never be flooded, so
    # the coarse rung is proved infeasible; its trace entry survives the raise
    elev = np.full((8, 8), 600.0)
    elev[6:, :] = RIVER_ELEVATION
    elev[0:2, 4:6] = 500.0
    grid = river_grid(elev, CELL / 2)
    with pytest.raises(ps.NoIncumbentError, match="factor 2") as info:
        ps.run_zoom_in(grid, spec_for_volume(50_000.0), config=StrategyConfig(zoom_factors=(2, 1)))
    [entry] = info.value.trace
    assert (entry.stage, entry.zoom_factor, entry.status) == ("zoom", 2, "infeasible")
    assert entry.window == (0, 0, 8, 8)
