"""Separating planes, perimeter tour constraints, and the flood-fill verdict."""

import numpy as np
import pytest

import phs_siting as ps
from phs_siting.connectivity import Level, add_tour_constraints, connectivity_verdict, parse_level
from phs_siting.model import Sense

from conftest import (
    RIVER_ELEVATION,
    add_row,
    cell_ids,
    named_vector,
    pit_grid,
    pit_spec,
    river_grid,
    solve_at_level,
    spec_for_volume,
    two_basin_grid,
    two_basin_spec,
)


def _fix_interior_pattern(sp, pattern_cells):
    """Pin the interior binaries to a pattern and relax the volume row."""
    prob = sp.mip
    for cell, vid in cell_ids(sp.variables, "y").items():
        value = 1.0 if cell in pattern_cells else 0.0
        add_row(prob, f"fix_y_{cell[0]}_{cell[1]}", [(vid, 1.0)], Sense.EQ, value)
    return prob


def _band_grid():
    """A 7x7 shelf (every land cell floodable) to host arbitrary y patterns."""
    elev = np.full((7, 7), 545.0)
    elev[6, :] = RIVER_ELEVATION
    return river_grid(elev)


def test_planes_cut_interior_row_gap():
    # interior rows 1-2 occupied, row 3 empty, row 4 occupied: no up/down
    # assignment exists, so the plane-constrained model is infeasible
    grid = _band_grid()
    spec = spec_for_volume(20_000.0)
    pattern = {(1, 2), (1, 3), (2, 2), (2, 3), (4, 2), (4, 3)}
    sp = ps.build_siting_problem(grid, spec, level=1)
    _fix_interior_pattern(sp, pattern)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.INFEASIBLE
    # the same pattern satisfies the base model
    sp0 = ps.build_siting_problem(grid, spec, level=0)
    _fix_interior_pattern(sp0, pattern)
    assert ps.solve(sp0.mip, "highs").status is ps.SolveStatus.OPTIMAL


def test_planes_accept_contiguous_band():
    grid = _band_grid()
    spec = spec_for_volume(20_000.0)
    pattern = {(2, 2), (2, 3), (3, 2), (3, 3)}
    sp = ps.build_siting_problem(grid, spec, level=1)
    _fix_interior_pattern(sp, pattern)
    assert ps.solve(sp.mip, "highs").status is ps.SolveStatus.OPTIMAL


def test_plane_feasible_solution_has_interval_support():
    grid, spec = two_basin_grid(), two_basin_spec()
    _, res, sol = solve_at_level(grid, spec, 1)
    rows = sorted({int(i) for i, _ in np.argwhere(sol.interior_mask)})
    cols = sorted({int(j) for _, j in np.argwhere(sol.interior_mask)})
    assert rows == list(range(rows[0], rows[-1] + 1))
    assert cols == list(range(cols[0], cols[-1] + 1))


def test_planes_necessary_but_not_sufficient(diagonal_blob_levels):
    # the diagonal-blob terrain passes rows/columns bands yet flood fill
    # still finds two reservoirs; this is why the ladder keeps escalating
    _, _, levels = diagonal_blob_levels
    assert levels[1].n_components == 2
    assert not levels[1].connected


def test_diagonal_planes_cut_diagonal_split(diagonal_blob_levels):
    grid, spec, levels = diagonal_blob_levels
    assert levels[0].n_components == 2
    assert levels[2].connected
    assert levels[2].objective_value > levels[0].objective_value


def test_restriction_monotone_in_level(diagonal_blob_levels):
    _, _, levels = diagonal_blob_levels
    assert (
        levels[0].objective_value
        <= levels[1].objective_value + 1e-9
        <= levels[2].objective_value + 2e-9
    )


def test_tour_single_cycle_on_pit():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 3)
    assert res.status is ps.SolveStatus.OPTIMAL
    # walk the active arcs: they must form one directed cycle over all x = z - y = 1
    values = dict(zip(sp.mip.variable_names(), res.x))
    succ = {}
    for name, value in values.items():
        if name.startswith("w_") and value > 0.5:
            i, j, h, k = map(int, name[2:].split("_"))
            assert (i, j) not in succ
            succ[(i, j)] = (h, k)
    active = {(i, j) for i, j in cell_ids(sp.variables, "l")
              if values[f"z_{i}_{j}"] - values.get(f"y_{i}_{j}", 0.0) > 0.5}
    assert set(succ) == active
    start = next(iter(active))
    seen = [start]
    while True:
        nxt = succ[seen[-1]]
        if nxt == start:
            break
        seen.append(nxt)
    assert set(seen) == active  # a single cycle covers every perimeter cell


def test_tour_forbids_disjoint_rings():
    # two pits too far apart to share any reservoir cell, with a volume
    # target needing both: every solution is two 4-cycles, so the tour
    # constraints make the model infeasible
    elev = np.full((5, 10), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[2, 2] = 500.0
    elev[2, 7] = 500.0
    grid = river_grid(elev)
    spec = spec_for_volume(100_000.0)  # needs both pits (57,800 each)
    sp0, res0, sol0 = solve_at_level(grid, spec, 0)
    assert res0.status is ps.SolveStatus.OPTIMAL
    assert sol0.n_components == 2
    sp3 = ps.build_siting_problem(grid, spec, level=3)
    res3 = ps.solve(sp3.mip, "highs")
    assert res3.status is ps.SolveStatus.INFEASIBLE
    # from level 1 on the planes alone rule out both rings, so add the tour
    # alone to the level-0 model: it must make that model infeasible
    sp = ps.build_siting_problem(grid, spec, level=0)
    add_tour_constraints(sp.mip, sp.variables, ps.candidate_sets(grid, spec.water_elevation))
    assert ps.solve(sp.mip, "highs").status is ps.SolveStatus.INFEASIBLE


def _cycle(*cells):
    return list(zip(cells, cells[1:] + cells[:1]))


# On the two-basin shelf every land cell is an interior candidate, hence also a
# perimeter candidate: a ring round the west pit holds the volume, and a 2x2
# block of perimeter cells on the saddle side is a second closed walk with no
# interior of its own, which no separating plane sees.
_PIT_RING = _cycle((0, 1), (1, 2), (2, 1), (1, 0))
_BLOCK_RING = _cycle((0, 3), (0, 4), (1, 4), (1, 3))


@pytest.mark.parametrize("arcs, link, status", [
    (_PIT_RING, None, ps.SolveStatus.OPTIMAL),
    (_PIT_RING + _BLOCK_RING, None, ps.SolveStatus.INFEASIBLE),
    (_BLOCK_RING, (0, 1), ps.SolveStatus.INFEASIBLE),
], ids=["one-cycle-through-link", "two-cycles", "cycle-avoids-link"])
def test_continuous_ranks_eliminate_subtours(arcs, link, status):
    # With the arcs w fixed to cycles, only a single cycle through the link
    # cell is a tour; with continuous ranks the mtz rows still rule out the rest.
    sp = ps.build_siting_problem(two_basin_grid(), spec_for_volume(50_000.0), level=3)
    ids = {name: vid for vid, name in enumerate(sp.mip.variable_names())}
    for (i, j), (h, k) in arcs:
        add_row(sp.mip, f"fix_w_{i}_{j}_{h}_{k}", [(ids[f"w_{i}_{j}_{h}_{k}"], 1.0)],
                Sense.EQ, 1.0)
    if link is not None:
        add_row(sp.mip, "fix_link", [(ids[f"l_{link[0]}_{link[1]}"], 1.0)], Sense.EQ, 1.0)
    assert ps.solve(sp.mip).status is status


def test_tour_constraints_hold_for_all_zero():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    zeros = dict.fromkeys(sp.mip.variable_names(), 0.0)
    tsp_rows = [r for r in sp.mip.rows if r.name.startswith(("deg_", "rank_", "mtz_"))]
    vec = named_vector(sp.mip, zeros)
    for row in tsp_rows:
        activity = sum(c * vec[vid] for vid, c in row.coeffs)
        if row.sense is Sense.LE:
            assert activity <= row.rhs + 1e-9
        elif row.sense is Sense.GE:
            assert activity >= row.rhs - 1e-9
        else:
            assert abs(activity - row.rhs) <= 1e-9


def test_rank_cap_rows_carry_repaired_coefficient():
    # u <= (S-1)x with S perimeter candidates and x = z - y: -(S-1) on z and
    # +(S-1) on y; u <= x would leave the 4-cell perimeter tour of the pit
    # unrankable. The pit's perimeter is dry (no y); the shelf's is wet.
    for grid, spec in ((pit_grid(), pit_spec()), (_band_grid(), spec_for_volume(20_000.0))):
        sp = ps.build_siting_problem(grid, spec, level=3)
        z, y = cell_ids(sp.variables, "z"), cell_ids(sp.variables, "y")
        perimeter = cell_ids(sp.variables, "l")
        s_bound = len(perimeter)
        caps = {r.name: dict(r.coeffs) for r in sp.mip.rows if r.name.startswith("rank_cap_")}
        assert len(caps) == s_bound
        for i, j in perimeter:
            cap = caps[f"rank_cap_{i}_{j}"]
            assert cap[z[(i, j)]] == -(s_bound - 1)
            assert cap.get(y.get((i, j))) == (s_bound - 1 if (i, j) in y else None)
    assert any(cell in y for cell in perimeter)


def test_tour_needs_three_perimeter_candidates():
    # a corner pit has only two in-grid neighbors, hence two perimeter
    # candidates: too few for any closed tour
    elev = np.full((4, 4), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[0, 3] = 500.0
    grid = river_grid(elev)
    spec = spec_for_volume(10_000.0)
    with pytest.raises(ValueError, match="at least 3 perimeter"):
        ps.build_siting_problem(grid, spec, level=3)


def test_verdict_counts_components():
    one = np.zeros((4, 4), bool)
    one[1, 1] = one[1, 2] = True
    assert connectivity_verdict(one).connected
    two = one.copy()
    two[3, 3] = True
    verdict = connectivity_verdict(two)
    assert not verdict.connected and verdict.n_components == 2
    assert str(verdict) == "fragmented(2)"


def test_verdict_ring_with_hole_is_connected():
    ring = np.zeros((5, 5), bool)
    ring[1:4, 1:4] = True
    ring[2, 2] = False
    assert connectivity_verdict(ring).connected


def test_parse_level():
    assert parse_level("tsp") is Level.TSP
    assert parse_level(2) is Level.HV_DIAG_PLANES
    assert parse_level("hv_planes") is Level.HV_PLANES
    with pytest.raises(ValueError):
        parse_level("bogus")
