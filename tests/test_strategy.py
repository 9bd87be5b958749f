"""Escalation ladder and zoom-in heuristic behavior."""

import importlib
import math

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import Level, StrategyConfig
from phs_siting.model import all_ones_optimum

from conftest import (
    CELL,
    RIVER_ELEVATION,
    FailingHighs,
    diagonal_blob_grid,
    diagonal_blob_spec,
    micro_case,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    river_grid,
    spec_for_volume,
    two_basin_grid,
    two_basin_spec,
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
    with pytest.raises(ValueError, match="distance_metric must be 'horizontal' or 'slant', got 'euclid'"):
        StrategyConfig(distance_metric="euclid")
    for gap in (-0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match="gap_target"):
            StrategyConfig(gap_target=gap)
    for limit in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="time_limit_s"):
            StrategyConfig(time_limit_s=limit)


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
    # the two-basin shelf's all-ones point is not feasible, so level 0 reaches HiGHS
    with pytest.raises(ps.NoIncumbentError) as info:
        ps.run_ladder(two_basin_grid(), two_basin_spec())
    assert builds == [0]  # no escalation past an error
    [entry] = info.value.trace
    assert (entry.level, entry.status, entry.objective) == (0, "error", None)
    assert entry.note == "HiGHS run() failed (Not Set)"


def test_ladder_aggregates_problem_size_and_time(two_basin_levels):
    grid, spec, _ = two_basin_levels
    sol = ps.run_ladder(grid, spec)
    assert sol.n_variables == max(t.n_variables for t in sol.trace)
    assert sol.wall_time_s == pytest.approx(sum(t.wall_time_s for t in sol.trace))


def test_trace_records_each_rungs_time_limit():
    # "per_level" hands each of the four rungs a quarter of the cap; "total"
    # hands each the time left, so the limits never grow. The pit stops at
    # level 0, the two-basin shelf escalates once.
    for grid, spec in ((pit_grid(), pit_spec()), (two_basin_grid(), two_basin_spec())):
        per_level = ps.run_ladder(grid, spec, config=StrategyConfig(time_limit_s=40.0))
        assert [t.time_limit_s for t in per_level.trace] == [10.0] * len(per_level.trace)
        total = ps.run_ladder(grid, spec,
                              config=StrategyConfig(time_limit_s=40.0, budget="total"))
        limits = [t.time_limit_s for t in total.trace]
        assert 0.0 < limits[-1] and limits[0] <= 40.0
        assert limits == sorted(limits, reverse=True)
    assert len(total.trace) == 2
    assert ps.run_ladder(pit_grid(), pit_spec()).trace[0].time_limit_s is None


# --------------------------------------------------------------------------- #
# Certified level 0                                                            #
# --------------------------------------------------------------------------- #


def _all_ones_point(sp) -> np.ndarray:
    """Every z and y at 1, and the kept l of lowest cost at 1."""
    sv, cost = sp.variables, sp.mip.cost_vector()
    x = np.zeros(sp.mip.num_variables)
    x[sv.ids("z")] = x[sv.ids("y")] = 1.0
    links = sv.ids("l")
    if len(links):
        x[links[cost[links].argmin()]] = 1.0
    return x


_LEVEL0_CASES = {
    "pit": lambda: (pit_grid(), pit_spec()),
    "two_basin": lambda: (two_basin_grid(), two_basin_spec()),
    "diagonal_blob": lambda: (diagonal_blob_grid(), diagonal_blob_spec()),
    "midsize_grid": lambda: (midsize_grid(), midsize_spec()),
    **{f"micro{seed}": (lambda seed=seed: micro_case(seed)) for seed in range(40)},
}


def test_certified_level_zero_agrees_with_highs():
    certified = set()
    for name, make in _LEVEL0_CASES.items():
        case = make()
        if case is None:  # micro_case skips uninteresting seeds
            continue
        grid, spec = case
        sp = ps.build_siting_problem(grid, spec, level=0)
        found = all_ones_optimum(sp)
        if found is None:
            continue
        certified.add(name)
        x, objective = found
        highs = ps.solve(sp.mip)
        assert highs.status is ps.SolveStatus.OPTIMAL, name
        assert objective == pytest.approx(highs.objective, rel=1e-9), name
        assert ps.verify_solution(sp.mip, x) == [], name
        [entry] = ps.run_ladder(grid, spec, config=StrategyConfig(ladder=(Level.NONE,))).trace
        assert (entry.path, entry.status, entry.nodes, entry.gap) == ("certified", "optimal", 0, 0.0)
        assert entry.bound == entry.objective == objective, name
    assert {"pit", "midsize_grid"} <= certified
    assert not certified & {"two_basin", "diagonal_blob"}
    assert len(certified) >= 30  # of the 40 micro seeds, those micro_case keeps


class _NoHighs:
    def __init__(self):
        raise AssertionError("HiGHS was constructed")


def test_certified_pit_runs_no_highs(monkeypatch):
    monkeypatch.setattr(importlib.import_module("phs_siting.solve"), "_Highs", _NoHighs)
    sol = ps.run_ladder(pit_grid(), pit_spec())
    assert sol.level == 0 and sol.valid and sol.connected
    [entry] = sol.trace
    assert (entry.path, entry.status, entry.nodes) == ("certified", "optimal", 0)
    assert entry.bound == entry.objective == sol.objective_value
    cands = ps.candidate_sets(pit_grid(), pit_spec().water_elevation)
    assert ps.verify_masks(pit_grid(), cands, pit_spec(), sol) == []


def test_broken_contact_row_goes_to_highs():
    # three reservoir neighbours per perimeter cell: the all-ones plus shape has one
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0, perimeter_min_neighbors=3)
    assert all_ones_optimum(sp) is None
    issues = ps.verify_solution(sp.mip, _all_ones_point(sp))
    assert issues and all(issue.startswith("row contact_") for issue in issues)
    with pytest.raises(ps.NoIncumbentError) as info:
        ps.run_ladder(grid, spec, config=StrategyConfig(perimeter_min_neighbors=3))
    [entry] = info.value.trace
    assert (entry.path, entry.status) == ("highs", "infeasible")


def test_cheapest_link_blocked_by_linkx_goes_to_highs():
    # a two-cell pit whose deep cell, an interior and a perimeter candidate,
    # is given the shortest conveyance: its link needs x = z - y = 1 there
    elev = np.full((5, 7), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[2, 3], elev[2, 4] = 500.0, 505.0
    grid, spec = river_grid(elev), pit_spec()
    full = ps.distance_field(grid)
    values = full.values.copy()
    values[2, 3] = 0.0
    dist = ps.DistanceField(values, full.cell_length, full.metric)
    assert all_ones_optimum(ps.build_siting_problem(grid, spec, level=0)) is not None
    sp = ps.build_siting_problem(grid, spec, level=0, dist=dist)
    assert all_ones_optimum(sp) is None
    assert ps.verify_solution(sp.mip, _all_ones_point(sp)) == ["row linkx_2_3: 1.0 > 0.0"]
    sol = ps.run_ladder(grid, spec, dist=dist)
    [entry] = sol.trace
    assert (entry.path, entry.status) == ("highs", "optimal")
    assert entry.objective == pytest.approx(ps.solve(sp.mip).objective, rel=1e-9)


def test_costed_unpaired_z_goes_to_highs():
    # a cost on a z without a y partner (the builder writes none: a wet cell
    # is an interior candidate) keeps the all-ones point feasible, but it no
    # longer attains the bound
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    assert all_ones_optimum(sp) is not None
    ys = {tuple(cell) for cell in sp.variables.cells["y"].tolist()}
    zid = next(vid for cell, vid in zip(sp.variables.cells["z"].tolist(), sp.variables.ids("z"))
               if tuple(cell) not in ys)
    sp.mip.set_objective({**sp.mip.objective, int(zid): 1.0}, sp.mip.objective_constant)
    assert ps.verify_solution(sp.mip, _all_ones_point(sp)) == []
    assert all_ones_optimum(sp) is None
    # the two-basin shelf is turned away by its rows instead
    sp = ps.build_siting_problem(two_basin_grid(), two_basin_spec(), level=0)
    assert all_ones_optimum(sp) is None
    assert any(v.startswith("row inter_") for v in ps.verify_solution(sp.mip, _all_ones_point(sp)))


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
    assert all(t.n_nonzeros > 0 and t.nodes >= 0 for t in zoomed.trace)
    assert all(t.build_s > 0.0 for t in zoomed.trace)
    # every rung solved to optimality, so its bound reaches its objective
    assert all(t.status == "optimal" and t.bound == pytest.approx(t.objective, rel=1e-6)
               for t in zoomed.trace)
    # the native entry reports the size of the model built on its window
    native = zoomed.trace[-1]
    r0, c0, nr, nc = native.window
    window = np.zeros(grid.shape, dtype=bool)
    window[r0 : r0 + nr, c0 : c0 + nc] = True
    sub, (sr, sc) = ps.clip(grid, window, 0)
    dist = ps.DistanceField(ps.distance_field(grid).values[sr : sr + sub.nrows, sc : sc + sub.ncols],
                            sub.cell_length)
    sp = ps.build_siting_problem(sub, spec, dist=dist, level=native.level)
    assert (native.n_variables, native.n_constraints, native.n_nonzeros) == (
        sp.mip.num_variables, sp.mip.num_constraints, sp.mip.matrix.nnz)


def test_total_budget_after_an_overrun(monkeypatch):
    import phs_siting.strategy as strategy

    # four solves share 8 s; the first takes 5 s, well over its 2 s share,
    # and the third ends after the deadline
    clock = iter([100.0, 100.0, 105.0, 106.5, 110.0])
    monkeypatch.setattr(strategy.time, "perf_counter", lambda: next(clock))
    assert list(strategy._budgets(8.0, "total", 4)) == [8.0, 3.0, 1.5, 1e-3]
    # per_level hands out equal shares whatever the clock says
    assert list(strategy._budgets(8.0, "per_level", 4)) == [2.0] * 4
    assert next(clock, None) is None


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


def _coarse_stage_floods(cell, trace, stages) -> list[bool]:
    """Per coarse stage: whether its reservoir holds the super-cell of ``cell``."""
    coarse = [t for t in trace if t.zoom_factor > 1]
    floods = []
    for entry, (factor, sol) in zip(coarse, [s for s in stages if s[0] > 1]):
        i = cell[0] // factor - entry.window[0] // factor
        j = cell[1] // factor - entry.window[1] // factor
        shape = sol.reservoir_mask.shape
        floods.append(0 <= i < shape[0] and 0 <= j < shape[1] and bool(sol.reservoir_mask[i, j]))
    return floods


def test_zoom_keeps_excluded_cells_dry_at_every_stage(monkeypatch):
    import phs_siting.strategy as strategy

    # a broad basin next to the river, with room to move the dam off one cell
    elev = np.full((12, 12), 600.0)
    elev[:, 0:2] = RIVER_ELEVATION
    elev[2:10, 4:10] = 520.0
    grid, spec = river_grid(elev), spec_for_volume(200_000.0)
    config = StrategyConfig(zoom_factors=(2, 1))
    stages = []
    original = strategy.run_ladder

    def recording(*args, **kwargs):
        sol = original(*args, **kwargs)
        stages.append((kwargs["zoom_factor"], sol))
        return sol

    monkeypatch.setattr(strategy, "run_ladder", recording)
    cell = (1, 4)
    free = ps.run_zoom_in(grid, spec, config=config)
    assert free.reservoir_mask[cell]
    assert _coarse_stage_floods(cell, free.trace, stages) == [True]

    stages.clear()
    excluded = np.zeros(grid.shape, dtype=bool)
    excluded[cell] = True
    site = ps.run_zoom_in(grid, spec, config=config, excluded=excluded)
    assert site.valid and site.connected
    cands = ps.candidate_sets(grid, spec.water_elevation, excluded)
    assert ps.verify_masks(grid, cands, spec, site) == []
    assert not (site.reservoir_mask & excluded).any()
    assert _coarse_stage_floods(cell, site.trace, stages) == [False]
