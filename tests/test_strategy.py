"""Escalation ladder and zoom-in heuristic behavior."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import Level, StrategyConfig, strategy, terrain
from phs_siting.model import certify_level_zero
from reference_model import all_ones_optimum

from conftest import (
    CELL,
    RIVER_ELEVATION,
    FailingHighs,
    binding_with,
    bowl_basin_dem,
    bowl_dem,
    diagonal_blob_grid,
    diagonal_blob_spec,
    micro_case,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    river_grid,
    scipy_matrix,
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
    # every failed check is named, one per line
    with pytest.raises(ValueError) as info:
        StrategyConfig(clip_margin=-3, perimeter_min_neighbors=2, time_limit_s=-1.0, gap_target=2.0)
    assert str(info.value).splitlines() == [
        "perimeter_min_neighbors must be 1 or 3", "clip_margin must be >= 0",
        "time_limit_s must be > 0, got -1.0", "gap_target must be in [0, 1), got 2.0"]


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

    monkeypatch.setattr(importlib.import_module("phs_siting.solve"), "_highs",
                        lambda: binding_with(_Highs=FailingHighs))
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
    # The first rung gets a quarter of the 40 s and the next a third of what
    # is left, which the first rung's fraction of a second barely dents. The
    # pit stops at level 0, the two-basin shelf escalates once.
    for grid, spec in ((pit_grid(), pit_spec()), (two_basin_grid(), two_basin_spec())):
        solution = ps.run_ladder(grid, spec, config=StrategyConfig(time_limit_s=40.0))
        limits = [t.time_limit_s for t in solution.trace]
        assert limits[0] == pytest.approx(10.0, abs=0.05)
        for k, limit in enumerate(limits[1:], 1):
            spent = sum(t.wall_time_s for t in solution.trace[:k])
            assert limit == pytest.approx((40.0 - spent) / (4 - k), abs=0.05)
    assert len(solution.trace) == 2
    assert ps.run_ladder(pit_grid(), pit_spec()).trace[0].time_limit_s is None


# --------------------------------------------------------------------------- #
# Certified level 0                                                            #
# --------------------------------------------------------------------------- #


def _all_ones_point(sp, link=None) -> np.ndarray:
    """Every z and y of a level-0 model at 1, and one l at 1: that of
    ``link`` if it has a column, else (no ``link``) the kept l of lowest cost."""
    sv, cost = sp.variables, sp.mip.cost_vector()
    x = np.zeros(sp.mip.num_variables)
    x[sv.ids("z")] = x[sv.ids("y")] = 1.0
    links = sv.ids("l")
    if link is not None:
        x[links[(sv.cells["l"] == link).all(axis=1)]] = 1.0
    elif len(links):
        x[links[cost[links].argmin()]] = 1.0
    return x


def _certify(grid, spec, *, dist=None, perimeter_min_neighbors=1):
    """``certify_level_zero`` with the arguments ``run_ladder`` gives it."""
    return certify_level_zero(grid, spec, ps.CostParams(),
                              cands=ps.candidate_sets(grid, spec.water_elevation),
                              dist=dist or ps.distance_field(grid),
                              perimeter_min_neighbors=perimeter_min_neighbors)


def _no_build(*args, **kwargs):
    raise AssertionError("a model was built")


_LEVEL0_CASES = {
    "pit": lambda: (pit_grid(), pit_spec()),
    "two_basin": lambda: (two_basin_grid(), two_basin_spec()),
    "diagonal_blob": lambda: (diagonal_blob_grid(), diagonal_blob_spec()),
    "midsize_grid": lambda: (midsize_grid(), midsize_spec()),
    **{f"micro{seed}": (lambda seed=seed: micro_case(seed)) for seed in range(40)},
}


def _level0_instances(monkeypatch):
    """(name, grid, spec, arguments) of each level-0 rung to compare: every
    stage of a zoom run over the bowl basin, as ``run_ladder`` calls the
    certificate, then the fixtures and micro seeds at both contact rules."""
    import phs_siting.strategy as strategy

    stages = []
    original = strategy.certify_level_zero

    def recording(grid, spec, params, **kwargs):
        stages.append((f"bowl-stage{len(stages)}", grid, spec, kwargs))
        return original(grid, spec, params, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(strategy, "certify_level_zero", recording)
        ps.run_zoom_in(*bowl_basin_dem(), config=StrategyConfig(zoom_factors=(8, 4, 2, 1)))
    assert len(stages) == 4
    yield from stages
    for name, make in _LEVEL0_CASES.items():
        case = make()
        if case is None:  # micro_case skips uninteresting seeds
            continue
        grid, spec = case
        for m in (1, 3):
            yield (f"{name}-m{m}", grid, spec,
                   {"cands": ps.candidate_sets(grid, spec.water_elevation),
                    "dist": ps.distance_field(grid), "perimeter_min_neighbors": m})


def test_certified_level_zero_agrees_with_highs(monkeypatch):
    """The raster certificate fires exactly where the model-level one of
    ``reference_model`` fires on the built level-0 model, with the same
    point and objective, and its site is that point's extraction."""
    fired = set()
    for name, grid, spec, kwargs in _level0_instances(monkeypatch):
        sp = ps.build_siting_problem(grid, spec, level=0, **kwargs)
        reference = all_ones_optimum(sp)
        site = certify_level_zero(grid, spec, ps.CostParams(), **kwargs)
        assert (site is None) == (reference is None), name
        if site is None:
            continue
        fired.add(name)
        x, bound = reference
        point = _all_ones_point(sp, site.link_cell)
        assert np.array_equal(point, x), name
        outside, fractional, _, violated = sp.mip.violations(point, 0.0)
        assert not (outside.any() or fractional.any() or violated.any()), name
        assert site.objective_value == bound, name
        assert (site.status, site.gap, site.level, site.n_variables, site.n_constraints) == (
            "optimal", 0.0, 0, 0, 0), name
        highs = ps.solve(sp.mip)
        assert highs.status is ps.SolveStatus.OPTIMAL, name
        assert site.objective_value == pytest.approx(highs.objective, rel=1e-9), name
        extracted = ps.extract_solution(sp, x, objective_value=bound, gap=0.0)
        for field in ("perimeter_mask", "interior_mask", "reservoir_mask"):
            assert np.array_equal(getattr(site, field), getattr(extracted, field)), (name, field)
        for field in ("link_cell", "costs", "storage_m3", "embankment_length_diag_m", "n_components"):
            assert getattr(site, field) == getattr(extracted, field), (name, field)
        if name.endswith("-m1") and not name.startswith("bowl"):
            [entry] = ps.run_ladder(grid, spec, config=StrategyConfig(ladder=(Level.NONE,))).trace
            assert (entry.path, entry.status, entry.nodes, entry.gap) == ("certified", "optimal", 0, 0.0)
            assert entry.bound == entry.objective == bound, name
    assert {f"bowl-stage{k}" for k in range(4)} | {"pit-m1", "midsize_grid-m1"} <= fired
    assert not fired & {"two_basin-m1", "diagonal_blob-m1"}
    assert not any(name.endswith("-m3") for name in fired)
    assert sum(name.startswith("micro") for name in fired) >= 30  # of the 40 seeds


class _NoHighs:
    def __init__(self):
        raise AssertionError("HiGHS was constructed")


def test_certified_pit_runs_no_highs(monkeypatch):
    import phs_siting.strategy as strategy

    monkeypatch.setattr(importlib.import_module("phs_siting.solve"), "_highs",
                        lambda: binding_with(_Highs=_NoHighs))
    monkeypatch.setattr(strategy, "build_siting_problem", _no_build)
    sol = ps.run_ladder(pit_grid(), pit_spec())
    assert sol.level == 0 and sol.valid and sol.connected
    [entry] = sol.trace
    assert (entry.path, entry.status, entry.nodes) == ("certified", "optimal", 0)
    assert (entry.n_variables, entry.n_constraints, entry.n_nonzeros, entry.build_s) == (0, 0, 0, 0.0)
    assert (sol.n_variables, sol.n_constraints) == (0, 0)
    assert entry.bound == entry.objective == sol.objective_value
    cands = ps.candidate_sets(pit_grid(), pit_spec().water_elevation)
    assert ps.verify_masks(pit_grid(), cands, pit_spec(), sol) == []


def test_broken_contact_row_goes_to_highs():
    # three reservoir neighbours per perimeter cell: the all-ones plus shape has one
    grid, spec = pit_grid(), pit_spec()
    assert _certify(grid, spec, perimeter_min_neighbors=3) is None
    sp = ps.build_siting_problem(grid, spec, level=0, perimeter_min_neighbors=3)
    assert all_ones_optimum(sp) is None
    issues = ps.verify_solution(sp.mip, _all_ones_point(sp))
    assert issues and all(issue.startswith("row contact_") for issue in issues)
    with pytest.raises(ps.NoIncumbentError) as info:
        ps.run_ladder(grid, spec, config=StrategyConfig(perimeter_min_neighbors=3))
    [entry] = info.value.trace
    assert (entry.path, entry.status) == ("highs", "infeasible")
    assert entry.n_variables == sp.mip.num_variables and entry.n_nonzeros == sp.mip.nnz


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
    assert _certify(grid, spec) is not None
    assert all_ones_optimum(ps.build_siting_problem(grid, spec, level=0)) is not None
    assert _certify(grid, spec, dist=dist) is None
    sp = ps.build_siting_problem(grid, spec, level=0, dist=dist)
    assert all_ones_optimum(sp) is None
    assert ps.verify_solution(sp.mip, _all_ones_point(sp)) == ["row linkx_2_3: 1.0 > 0.0"]
    sol = ps.run_ladder(grid, spec, dist=dist)
    [entry] = sol.trace
    assert (entry.path, entry.status) == ("highs", "optimal")
    assert entry.objective == pytest.approx(ps.solve(sp.mip).objective, rel=1e-9)


@pytest.mark.parametrize("where", ["grid_edge", "blocked_cell"])
def test_interior_cell_without_four_candidates_goes_to_highs(where):
    # a two-cell pit: one deep cell on the top edge of the grid, or next to
    # an excluded cell, cannot be interior, so the pit needs a wet dam there
    elev = np.full((5, 7), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    excluded = None
    if where == "grid_edge":
        elev[0, 3] = elev[1, 3] = 500.0
    else:
        elev[2, 3] = elev[2, 4] = 500.0
        excluded = [(2, 5)]
    grid, spec = dataclasses.replace(river_grid(elev), excluded=excluded), pit_spec()
    assert _certify(grid, spec) is None
    sp = ps.build_siting_problem(grid, spec, level=0)
    assert all_ones_optimum(sp) is None
    issues = ps.verify_solution(sp.mip, _all_ones_point(sp))
    assert issues == [{"grid_edge": "row inter_0_3_up: 1.0 > 0.0",
                       "blocked_cell": "row inter_2_4_right: 1.0 > 0.0"}[where]]
    sol = ps.run_ladder(grid, spec)
    assert sol.valid and sol.costs.embankment > 0
    [entry] = sol.trace
    assert (entry.path, entry.status) == ("highs", "optimal")
    assert entry.objective == pytest.approx(ps.solve(sp.mip).objective, rel=1e-9)


def test_costed_unpaired_z_cannot_arise():
    # The model-level certificate also turned a point away when a z without
    # a y partner carried a cost. The builder writes no such cost: a wet
    # perimeter candidate lies below the water level and is not blocked, so
    # it is an interior candidate. Checked on the fixtures, the micro seeds
    # and random terrains with NODATA and excluded cells.
    rng = np.random.default_rng(18)
    cases = [case for case in (make() for make in _LEVEL0_CASES.values()) if case is not None]
    for _ in range(20):
        elev = rng.uniform(520.0, 580.0, (8, 9))
        elev[:, 0] = RIVER_ELEVATION
        nodata = rng.random(elev.shape) < 0.1
        nodata[:, 0] = False
        elev[nodata] = np.nan
        grid = ps.TerrainGrid(elev, CELL, elev == RIVER_ELEVATION, nodata, RIVER_ELEVATION,
                              excluded=rng.random(elev.shape) < 0.1)
        cases.append((grid, spec_for_volume(10_000.0)))
    checked = 0
    for grid, spec in cases:
        cands = ps.candidate_sets(grid, spec.water_elevation)
        ground = np.where(cands.perimeter_ok, grid.elevations, spec.water_elevation)
        embankment = ps.embankment_cell_cost(grid.cell_length, spec.water_elevation, ground)[0]
        assert not (cands.perimeter_ok & (embankment != 0) & ~cands.interior_ok).any()
        for m in (1, 3):
            try:
                sp = ps.build_siting_problem(grid, spec, level=0, perimeter_min_neighbors=m)
            except ps.InfeasibleProblemError:
                continue
            cost, sv = sp.mip.cost_vector(), sp.variables
            net = np.zeros(grid.shape)
            for family in "zy":
                cells = sv.cells[family]
                net[cells[:, 0], cells[:, 1]] += cost[sv.ids(family)]
            assert not net.any()
            checked += 1
    assert checked >= 100


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


def test_zoom_exclusions_reach_every_stage(monkeypatch):
    grid, spec = _zoomable_pit_grid(), spec_for_volume(100_000.0)
    config = StrategyConfig(zoom_factors=(2, 1))
    plain = ps.run_zoom_in(grid, spec, config=config)
    masks = []
    with monkeypatch.context() as patch:  # a repeated zoom builds no exclusion mask
        patch.setattr(terrain, "cells_to_mask", lambda cells, shape: masks.append(shape))
        again = ps.run_zoom_in(grid, spec, config=config)
    assert masks == [] and again.costs == plain.costs
    for excluded in (np.zeros(grid.shape, dtype=bool), [(0, 11)]):
        same = ps.run_zoom_in(dataclasses.replace(grid, excluded=excluded), spec, config=config)
        assert np.array_equal(same.interior_mask, plain.interior_mask)
        assert same.costs == plain.costs
    # one excluded pit cell takes its whole factor-2 super-cell off limits
    with pytest.raises(ps.NoIncumbentError, match=r"factor 2\) produced no incumbent"):
        ps.run_zoom_in(dataclasses.replace(grid, excluded=[(6, 7)]), spec, config=config)


def test_zoom_masks_live_in_full_frame():
    grid = _zoomable_pit_grid()
    spec = spec_for_volume(100_000.0)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert zoomed.perimeter_mask.shape == grid.shape
    cands = ps.candidate_sets(grid, spec.water_elevation)
    assert ps.verify_masks(grid, cands, spec, zoomed) == []


def test_zoom_flags_a_site_that_fails_the_full_grid_check(monkeypatch, caplog):
    import phs_siting.strategy as strategy

    monkeypatch.setattr(strategy, "verify_masks", lambda *args: ["stub violation"])
    with caplog.at_level("WARNING", logger="phs_siting.strategy"):
        zoomed = ps.run_zoom_in(_zoomable_pit_grid(), spec_for_volume(100_000.0),
                                config=StrategyConfig(zoom_factors=(2, 1)))
    assert zoomed.connected and not zoomed.valid
    assert "stub violation" in caplog.text


def test_window_check_equals_full_grid_check():
    """``run_zoom_in`` checks the final site on its window grown by one cell;
    on random sites and mutated ones, in windows inside the grid and at its
    edges, that gives exactly the full-grid check's violations."""
    import phs_siting.strategy as strategy

    rng = np.random.default_rng(41)
    elev = rng.uniform(520.0, 580.0, (14, 16))
    elev[:, 0] = RIVER_ELEVATION
    nodata = rng.random(elev.shape) < 0.05
    nodata[:, 0] = False
    elev[nodata] = np.nan
    grid = ps.TerrainGrid(elev, CELL, elev == RIVER_ELEVATION, nodata, RIVER_ELEVATION,
                          excluded=rng.random(elev.shape) < 0.05)
    spec = spec_for_volume(20_000.0)
    cands = ps.candidate_sets(grid, spec.water_elevation)
    base = ps.run_ladder(pit_grid(), pit_spec())
    seen = {"clean": 0, "faulty": 0, "grid_edge": 0, "window_edge": 0}
    for _ in range(400):
        r0, c0 = (int(rng.integers(0, n - 2)) for n in grid.shape)
        nr = int(rng.integers(3, grid.nrows - r0 + 1))
        nc = int(rng.integers(3, grid.ncols - c0 + 1))
        window = (slice(r0, r0 + nr), slice(c0, c0 + nc))
        # a site: interior candidates of the window that keep their four
        # neighbors in it, the neighbors as perimeter, then mutated at random
        y = cands.interior_ok[window] & (rng.random((nr, nc)) < 0.6)
        y[[0, -1], :] = y[:, [0, -1]] = False
        z = y.copy()
        z[1:] |= y[:-1]
        z[:-1] |= y[1:]
        z[:, 1:] |= y[:, :-1]
        z[:, :-1] |= y[:, 1:]
        if rng.random() < 0.4:
            flip = rng.random((nr, nc)) < 0.03
            (y if rng.random() < 0.5 else z)[flip] ^= True
        x = z & ~y if rng.random() < 0.95 else z.copy()
        sites = np.argwhere(x) if x.any() else np.argwhere(np.ones((nr, nc)))
        link = tuple(int(v) for v in sites[rng.integers(0, len(sites))])
        site = dataclasses.replace(base, perimeter_mask=x, interior_mask=y, reservoir_mask=z,
                                   link_cell=link)
        full = ps.verify_masks(grid, cands, spec, site.with_origin((r0, c0), grid.shape))
        assert strategy._window_violations(grid, spec, site, (r0, c0)) == full
        seen["faulty" if full else "clean"] += 1
        seen["grid_edge"] += r0 == 0 or c0 == 0 or r0 + nr == grid.nrows or c0 + nc == grid.ncols
        seen["window_edge"] += bool(z[[0, -1], :].any() or z[:, [0, -1]].any())
    assert min(seen.values()) >= 20, seen


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


def test_a_first_zoom_builds_no_field_of_the_whole_dem(monkeypatch):
    """Each stage hands the EDT its window's reach box alone: all four stages
    of a first zoom on the 256x256 bowl DEM feed it fewer cells than the
    DEM holds, and the outputs are those of the whole-grid fields."""
    grid, _ = bowl_dem()
    spec = ps.SitingSpec.from_engineering(100.0, 80.0, 3.0, RIVER_ELEVATION, 0.667)  # the bowl alone
    inputs, edt = [], terrain._feature_transform

    def counted(mask, *args, **kwargs):
        inputs.append(mask.size)
        return edt(mask, *args, **kwargs)

    monkeypatch.setattr(terrain, "_feature_transform", counted)
    zoomed = ps.run_zoom_in(grid, spec)
    assert zoomed.valid and len(inputs) == 4 and sum(inputs) < grid.nrows * grid.ncols
    assert ("aggregate", 2) not in grid._derived and ("distance_field", "horizontal") not in grid._derived
    link = zoomed.link_cell
    assert zoomed.distance_m == ps.distance_field(grid).values[link]


def test_zoom_rejects_vanishing_lower_body():
    elev = np.full((12, 12), 600.0)
    elev[:, 0] = RIVER_ELEVATION  # one column: lost in any 2x2 majority vote
    elev[6, 7] = 480.0
    grid = river_grid(elev)
    spec = spec_for_volume(50_000.0)
    with pytest.raises(ps.InfeasibleProblemError, match="lower body vanished"):
        ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))


def _padded_square(grid):
    """``grid`` padded with NODATA rows at the bottom and columns at the right."""
    side = max(grid.shape)
    rows, cols = grid.shape
    elev = np.full((side, side), np.nan)
    nodata = np.ones((side, side), dtype=bool)
    lower = np.zeros((side, side), dtype=bool)
    elev[:rows, :cols] = grid.elevations
    nodata[:rows, :cols] = grid.nodata
    lower[:rows, :cols] = grid.lower_mask
    return ps.TerrainGrid(elev, grid.cell_length, lower, nodata, grid.lower_elevation)


@pytest.mark.parametrize("how", ["ladder", "zoom"])
def test_a_nonsquare_grid_sites_as_its_nodata_padded_square(how):
    # A rectangle is taken as it is: padding it to a square with NODATA, as
    # the loader once did, changes no site. The ladder escalates to level 2 on
    # the 10x13 blob; the blob's one-row river vanishes at factor 2, so the
    # zoom runs on the blob with a second river row (11x13) and a smaller target.
    grid, spec = diagonal_blob_grid(), diagonal_blob_spec()
    if how == "zoom":
        grid = river_grid(np.vstack([grid.elevations, np.full((1, 13), RIVER_ELEVATION)]))
        spec = spec_for_volume(500_000.0)

    def run(g):
        if how == "ladder":
            return ps.run_ladder(g, spec)
        return ps.run_zoom_in(g, spec, config=StrategyConfig(zoom_factors=(2, 1)))

    rect, square = run(grid), run(_padded_square(grid))
    rows, cols = grid.shape
    for name in ("perimeter_mask", "interior_mask", "reservoir_mask"):
        mask = getattr(square, name)
        assert np.array_equal(mask[:rows, :cols], getattr(rect, name)), name
        assert not mask[rows:].any() and not mask[:, cols:].any(), name
    assert rect.link_cell == square.link_cell
    assert rect.costs.total == square.costs.total and rect.valid and square.valid
    assert [t.objective for t in rect.trace] == [t.objective for t in square.trace]
    assert [(t.zoom_factor, t.level) for t in rect.trace] == [(t.zoom_factor, t.level) for t in square.trace]
    if how == "ladder":
        assert rect.level == 2
    else:
        assert [t.zoom_factor for t in rect.trace] == [2, 1]


def test_zoom_beats_or_ties_direct_under_tight_budget():
    grid, spec = midsize_grid(), midsize_spec()
    budget = 0.5
    config = StrategyConfig(ladder=(Level.NONE,), time_limit_s=budget)
    direct = ps.run_ladder(grid, spec, config=config)
    zoom_config = StrategyConfig(
        ladder=(Level.NONE,), time_limit_s=budget, zoom_factors=(4, 2, 1),
    )
    zoomed = ps.run_zoom_in(grid, spec, config=zoom_config)
    assert zoomed.valid and zoomed.connected
    assert zoomed.costs.total <= direct.costs.total * (1 + 1e-9)


def _edge_pond(grid: ps.TerrainGrid, rows: slice, cols: slice) -> ps.TerrainGrid:
    """``grid`` with a deep pond on its edge: an interior candidate there
    cannot be interior, so no rung is certified and every rung reaches HiGHS."""
    elev = grid.elevations.copy()
    elev[rows, cols] = 500.0
    return river_grid(elev, grid.cell_length)


_PONDS = {"_zoomable_pit_grid": (slice(10, 12), slice(10, 12)),
          "_coarse_split_grid": (slice(0, 2), slice(12, 14))}


def test_zoom_trace_reports_windows_and_sizes(monkeypatch):
    import phs_siting.strategy as strategy

    grid = _edge_pond(_zoomable_pit_grid(), *_PONDS["_zoomable_pit_grid"])
    spec = spec_for_volume(100_000.0)
    zoomed = ps.run_zoom_in(grid, spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert all(t.window is not None for t in zoomed.trace)
    assert all(t.path == "highs" for t in zoomed.trace)
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
        sp.mip.num_variables, sp.mip.num_constraints, scipy_matrix(sp.mip).nnz)

    # without the pond every stage is certified: no model is built, and the
    # entries report no model, with the same windows and the same site
    monkeypatch.setattr(strategy, "build_siting_problem", _no_build)
    certified = ps.run_zoom_in(_zoomable_pit_grid(), spec, config=StrategyConfig(zoom_factors=(2, 1)))
    assert [t.window for t in certified.trace] == [t.window for t in zoomed.trace]
    for t in certified.trace:
        assert (t.path, t.status, t.gap, t.bound) == ("certified", "optimal", 0.0, t.objective)
        assert (t.n_variables, t.n_constraints, t.n_nonzeros, t.nodes, t.build_s) == (0, 0, 0, 0, 0.0)
    assert (certified.n_variables, certified.n_constraints) == (0, 0)
    assert certified.costs.total == zoomed.costs.total
    assert np.array_equal(certified.reservoir_mask, zoomed.reservoir_mask)


@pytest.mark.parametrize("make", ["_zoomable_pit_grid", "_coarse_split_grid", "two_basin_grid"])
def test_trace_nonzeros_are_each_models_matrix_nnz(monkeypatch, make):
    """Zoom runs with an edge pond, so that every rung reaches HiGHS, and a
    ladder that escalates past level 0 (its plane rows arrive unsorted)."""
    import phs_siting.strategy as strategy

    built = []
    original = strategy.build_siting_problem

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(strategy, "build_siting_problem", recording)
    grid = globals()[make]()
    if make == "two_basin_grid":
        solution = ps.run_ladder(grid, two_basin_spec())
        assert solution.level >= 1
    else:
        solution = ps.run_zoom_in(_edge_pond(grid, *_PONDS[make]), spec_for_volume(100_000.0),
                                  config=StrategyConfig(zoom_factors=(2, 1)))
    assert [t.path for t in solution.trace] == ["highs"] * len(built)
    for entry, sp in zip(solution.trace, built):
        assert entry.n_nonzeros == sp.mip.nnz == scipy_matrix(sp.mip).nnz
        assert entry.n_nonzeros == sum(len(row.coeffs) for row in sp.mip.rows)


def _scripted_rungs(monkeypatch, durations, run_rung=True):
    """Run each rung on a fake clock that stands still, except that rung k
    takes ``durations[k]`` seconds; returns the list of the limits handed out.
    Without ``run_rung``, a rung builds nothing and ends on its time limit."""
    import phs_siting.strategy as strategy

    clock, limits = [100.0], []
    original = strategy._rung

    def scripted(*args):
        limits.append(args[-1])
        if run_rung:
            result = original(*args)
        else:
            result = None, strategy.TraceEntry("ladder", 1, 0, "time_limit", None, None, None,
                                               None, 0, 0, 0.0, time_limit_s=args[-1])
        clock[0] += durations[len(limits) - 1]
        return result

    monkeypatch.setattr(strategy.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(strategy, "_rung", scripted)
    return limits


def test_time_shares_after_an_overrun(monkeypatch):
    # A direct case: four rungs share 8 s. The first takes 5 s, well over its
    # 2 s share, so the next three split the 3 s left; the third rung ends
    # after the deadline, and the last gets the 1 ms floor.
    limits = _scripted_rungs(monkeypatch, [5.0, 1.5, 3.5, 1.0], run_rung=False)
    with pytest.raises(ps.NoIncumbentError) as info:
        ps.run_ladder(pit_grid(), pit_spec(), config=StrategyConfig(time_limit_s=8.0))
    assert limits == [2.0, 1.0, 0.75, 1e-3]
    assert [t.time_limit_s for t in info.value.trace] == limits

    # A zoom case: two stages share 12 s, and the coarse stage's one rung
    # gets its stage's 6 s. It takes 9 s, so the native stage has 3 s left,
    # a quarter of it for its first rung.
    monkeypatch.undo()
    limits = _scripted_rungs(monkeypatch, [9.0, 1.0])
    zoomed = ps.run_zoom_in(_zoomable_pit_grid(), spec_for_volume(100_000.0),
                            config=StrategyConfig(zoom_factors=(2, 1), time_limit_s=12.0))
    assert limits == [6.0, 0.75]
    assert [(t.zoom_factor, t.time_limit_s) for t in zoomed.trace] == [(2, 6.0), (1, 0.75)]


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
    original = strategy._run_stage

    def recording(*args):
        sol = original(*args)
        stages.append((round(args[0].cell_length / grid.cell_length), sol))
        return sol

    monkeypatch.setattr(strategy, "_run_stage", recording)
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
    original = strategy._run_stage

    def recording(*args):
        sol = original(*args)
        stages.append((round(args[0].cell_length / grid.cell_length), sol))
        return sol

    monkeypatch.setattr(strategy, "_run_stage", recording)
    cell = (1, 4)
    free = ps.run_zoom_in(grid, spec, config=config)
    assert free.reservoir_mask[cell]
    assert _coarse_stage_floods(cell, free.trace, stages) == [True]

    stages.clear()
    grid = dataclasses.replace(grid, excluded=[cell])
    site = ps.run_zoom_in(grid, spec, config=config)
    assert site.valid and site.connected
    cands = ps.candidate_sets(grid, spec.water_elevation)
    assert ps.verify_masks(grid, cands, spec, site) == []
    assert not (site.reservoir_mask & grid.excluded).any()
    assert _coarse_stage_floods(cell, site.trace, stages) == [False]
