"""Base formulation: shape rules, volume row, link rows, objective, extraction."""

import itertools
import math
import types
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize._highspy import _core as core

import phs_siting as ps
from phs_siting import Level, StrategyConfig, model
from phs_siting.model import CellNames, Sense, VarKind, _drop_spare_components, diag_corrected_length
from phs_siting.solve import _configured, _pass_model
from phs_siting.terrain import FOUR_NEIGHBORS, connected_components

from conftest import (
    RIVER_ELEVATION,
    WATER,
    bowl_window,
    cell_ids,
    diagonal_blob_grid,
    diagonal_blob_spec,
    micro_case,
    midsize_grid,
    midsize_spec,
    named_vector,
    pit_grid,
    pit_spec,
    river_grid,
    scipy_matrix,
    solve_at_level,
    spec_for_volume,
    two_basin_grid,
    two_basin_spec,
)
from reference_model import (
    build_reference,
    build_reference_integer_ranks,
    build_reference_xyz,
    drop_spare_components_reference,
)


def _block_pit_grid():
    """The pit grown to a 2x2 block of deep cells: each is both a perimeter
    and an interior candidate, so its role row reads y <= z."""
    grid = pit_grid()
    elev = grid.elevations.copy()
    elev[2:4, 3:5] = 500.0
    return river_grid(elev)


def _accepted_sites(problem) -> list[set]:
    """Every 0/1 assignment of the z and y binaries that the shape rows accept,
    as the set of (family, cell) pairs it sets to 1. Where the problem has x
    columns (the paper's program), x is set to z - y, and an assignment that
    makes it negative is rejected."""
    ids = {(name[0], tuple(map(int, name[2:].split("_")))): vid
           for vid, name in enumerate(problem.variable_names()) if name[0] in "xyz"}
    keys = [key for key in ids if key[0] != "x"]
    bits = np.array(list(itertools.product((0, 1), repeat=len(keys))), dtype=float)
    bit = dict(zip(keys, bits.T))
    vec = np.zeros((len(bits), problem.num_variables))
    for (family, cell), vid in ids.items():
        vec[:, vid] = bit[("z", cell)] - bit.get(("y", cell), 0.0) if family == "x" else bit[(family, cell)]
    shape = [r for r, name in enumerate(problem.row_names())
             if name.startswith(("cover_", "role_", "contact_", "inter_"))]
    activity = (scipy_matrix(problem)[shape] @ vec.T).T
    lo, hi = (bound[shape] for bound in problem.row_bounds())
    ok = (vec.min(axis=1) >= 0) & np.all((activity >= lo - 1e-9) & (activity <= hi + 1e-9), axis=1)
    return [{key for key, b in zip(keys, row) if b} for row in bits[ok]]


def test_shape_constraints_exhaustive_on_plus_instance():
    """Enumerate every 0/1 assignment of the 6 binaries (5 z, 1 y) on the
    5-cell pit instance.

    The shape rows alone must admit exactly the assignments where the flooded
    set is a legal reservoir: the empty set, perimeter-only clumps with mutual
    support, and the full plus; they must reject any interior cell missing a
    neighbor; and they must accept the same reservoirs as the paper's rows
    over x, y and z, here and on a pit of 2x2 deep cells (16 binaries).
    """
    grid, spec = pit_grid(), pit_spec()
    prob = ps.build_siting_problem(grid, spec, level=0).mip
    assert sum(name[0] in "zy" for name in prob.variable_names()) == 6
    feasible = _accepted_sites(prob)
    for terrain in (grid, _block_pit_grid()):
        # the tour rung keeps every column; below it the builder fixes z = 1
        # on the block pit's dry ring, and then accepts exactly the paper's
        # sites that hold the ring
        ours = _accepted_sites(ps.build_siting_problem(terrain, spec, level=3).mip)
        paper = _accepted_sites(build_reference_xyz(terrain, spec))
        assert sorted(map(sorted, ours)) == sorted(map(sorted, paper))
        sp = ps.build_siting_problem(terrain, spec, level=0)
        ring = {("z", cell) for cell in map(tuple, sp.variables.fixed["z"].tolist())}
        fixed = [site | ring for site in _accepted_sites(sp.mip)]
        assert sorted(map(sorted, fixed)) == sorted(sorted(site) for site in paper if ring <= site)

    center, arms = (2, 3), [(1, 3), (3, 3), (2, 2), (2, 4)]
    plus = {("z", c) for c in [center, *arms]} | {("y", center)}
    assert set() in feasible and plus in feasible
    # interior on, one supporting neighbor off -> must be infeasible
    assert plus - {("z", (1, 3))} not in feasible

    # every feasible assignment keeps y supported, x = z - y binary and x in contact
    for site in feasible:
        z = {c for k, c in site if k == "z"}
        y = {c for k, c in site if k == "y"}
        assert y <= z
        for c in y:
            assert all((c[0] + di, c[1] + dj) in z for di, dj in FOUR_NEIGHBORS)
        for c in z - y:
            assert any((c[0] + di, c[1] + dj) in z for di, dj in FOUR_NEIGHBORS)


def test_volume_coefficient_and_fail_fast():
    elev = np.full((3, 4), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[1, 2] = WATER - 20.0
    grid = river_grid(elev)
    ok_spec = spec_for_volume(20_000.0)
    sp = ps.build_siting_problem(grid, ok_spec, level=0)
    volume_row = next(row for row in sp.mip.rows if row.name == "volume")
    (vid, coef), = volume_row.coeffs
    assert coef == pytest.approx(20.0 * 34.0**2)  # 23,120
    assert volume_row.rhs == pytest.approx(20_000.0)

    with pytest.raises(ps.InfeasibleProblemError, match="below the volume target"):
        ps.build_siting_problem(grid, spec_for_volume(30_000.0), level=0)


def test_link_cardinality_and_dominance():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    values = dict(zip(sp.mip.variable_names(), res.x))
    # duplicate link -> cardinality row violated
    other = next(name for name in values if name.startswith("l_") and values[name] < 0.5)
    values[other] = 1.0
    assert any("link_sum" in v for v in ps.verify_solution(sp.mip, named_vector(sp.mip, values)))
    # link kept on a cell whose perimeter indicator z - y is forced off -> dominance row
    values = dict(zip(sp.mip.variable_names(), res.x))
    chosen = next(name for name in values if name.startswith("l_") and values[name] > 0.5)
    values["z_" + chosen[2:]] = 0.0
    assert any("linkx" in v for v in ps.verify_solution(sp.mip, named_vector(sp.mip, values)))


def test_optimal_link_minimizes_conveyance():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    cands = sp.cands
    dist = sp.dist
    coef = lambda cell: sum(ps.conveyance_cost(spec.flow, float(dist.values[cell])))
    best = min(cands.perimeter_cells(), key=coef)
    assert sol.link_cell == best == (2, 2)  # the arm nearest the river
    assert sol.distance_m == pytest.approx(dist.values[best])


def test_dry_perimeter_cells_cost_exactly_zero():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    z, y = cell_ids(sp.variables, "z"), cell_ids(sp.variables, "y")
    dry = [cell for cell in cell_ids(sp.variables, "l")
           if grid.elevations[cell] >= spec.water_elevation]
    assert dry
    cost = sp.mip.cost_vector()
    for cell in dry:
        # x = z on a dry cell, which has no y
        assert cell not in y and cost[z[cell]] == 0.0


def test_objective_reconstruction_from_masks():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    assert abs(sol.costs.total - res.objective) <= 1e-9 * abs(res.objective)


def test_extract_rejects_fractional_values():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    values = dict(zip(sp.mip.variable_names(), res.x))
    name = next(n for n in values if n.startswith("y_"))
    values[name] = 0.4
    with pytest.raises(ps.IntegralityError, match="fractional"):
        ps.extract_solution(sp, named_vector(sp.mip, values))


def test_extract_rejects_empty_reservoir():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    values = {name: 0.0 for name in sp.mip.variable_names()}
    with pytest.raises(ps.InfeasibleProblemError, match="floods no interior"):
        ps.extract_solution(sp, named_vector(sp.mip, values))


def test_extract_physical_metrics():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    assert sol.storage_m3 == pytest.approx(50.0 * 34.0**2)  # one 50 m deep cell
    assert sol.area_ha == pytest.approx(34.0**2 / 1e4)
    # the pit's ring stands on dry ground: no embankment at all
    assert sol.embankment_length_m == 0.0
    assert sol.embankment_volume_m3 == 0.0
    assert sol.costs.embankment == 0.0
    assert sol.connected and sol.valid
    assert ps.verify_masks(grid, sp.cands, spec, sol) == []


def test_extract_embankment_metrics_with_wet_perimeter():
    # the wet cell sits on the grid edge, so it can never flood itself and
    # must carry a 10 m dam instead
    elev = np.full((5, 5), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[1, 2] = 500.0
    elev[0, 2] = 540.0
    grid = river_grid(elev)
    spec = spec_for_volume(50_000.0)
    sp, res, sol = solve_at_level(grid, spec, 0)
    assert sol.interior_mask[1, 2] and sol.perimeter_mask[0, 2]
    assert sol.embankment_length_m == pytest.approx(34.0)
    assert sol.embankment_volume_m3 == pytest.approx(10_200.0)
    assert sol.costs.embankment == pytest.approx(51_000.0)


def test_extract_adds_embankment_cells_left_to_right():
    """The embankment cost and volume are the one-cell costs added in
    row-major order, bit for bit, as a loop adds them."""
    grid, spec, kwargs = bowl_window(level=3)  # level 3 keeps every column
    sp = ps.build_siting_problem(grid, spec, **kwargs)
    sv, interior = sp.variables, sp.cands.interior_ok
    # a disc of interior candidates: its rim is perimeter and stands in the water
    yy, xx = np.mgrid[0 : grid.nrows, 0 : grid.ncols]
    disc = interior & ((yy - 18) ** 2 + (xx - 18) ** 2 <= 36)
    inner = disc & np.roll(disc, 1, 0) & np.roll(disc, -1, 0) & np.roll(disc, 1, 1) & np.roll(disc, -1, 1)
    rim = np.argwhere(disc & ~inner)
    vec = np.zeros(sp.mip.num_variables)
    for family, on in (("z", disc), ("y", inner)):
        cells = sv.cells[family]
        vec[sv.ids(family)[on[cells[:, 0], cells[:, 1]]]] = 1.0
    link = np.flatnonzero((sv.cells["l"] == rim[0]).all(axis=1))
    vec[sv.ids("l")[link]] = 1.0
    sol = ps.extract_solution(sp, vec)

    cost = volume = 0.0
    for i, j in np.argwhere(sol.perimeter_mask & (grid.elevations < spec.water_elevation)):
        c, v = ps.embankment_cell_cost(grid.cell_length, spec.water_elevation, float(grid.elevations[i, j]))
        cost += c
        volume += v
    assert len(rim) >= 16 and sol.embankment_length_m == len(rim) * grid.cell_length
    assert sol.costs.embankment == cost and sol.embankment_volume_m3 == volume


# Pit A is the pit-grid site; basins B and C are room for extra components.
PIT_A, PIT_A_RING = [(2, 3)], [(1, 3), (3, 3), (2, 2), (2, 4)]
BASIN_B, BASIN_B_RING = [(4, 7), (4, 8)], [(3, 7), (3, 8), (5, 7), (5, 8), (4, 6), (4, 9)]
BASIN_C, BASIN_C_RING = [(7, 3), (7, 4)], [(6, 3), (6, 4), (8, 3), (8, 4), (7, 2), (7, 5)]
DRY_CLUMP = [(8, 3), (8, 4)]  # two dry perimeter cells backing each other
CELL_M3 = 34.0**2


def _three_basin_grid():
    elev = np.full((9, 11), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[2, 3] = 500.0  # A stores 50 m per cell
    for cell in BASIN_B:
        elev[cell] = 520.0  # B stores 30 m per cell
    for cell in BASIN_C:
        elev[cell] = 540.0  # C stores 10 m per cell
    return river_grid(elev)


def _hand_values(sp, perimeter, interior, link):
    """Name -> value of a hand-made site; a cell whose ``z`` or ``l`` the
    builder fixed on has no column, so its name is left out. ``named_vector``
    turns it into the solution vector."""
    fixed_on = {(family, tuple(cell)) for family, cells in sp.variables.fixed.items()
                for cell in cells.tolist()}
    values = dict.fromkeys(sp.mip.variable_names(), 0.0)
    for family, cell in ([("z", c) for c in perimeter + interior] + [("y", c) for c in interior]
                         + [("l", link)]):
        if (family, cell) not in fixed_on:
            values["{}_{}_{}".format(family, *cell)] = 1.0
    return values


@pytest.mark.parametrize(
    "spare_perimeter, spare_interior",
    [(BASIN_B_RING, BASIN_B), (DRY_CLUMP, [])],
    ids=["pond", "clump"],
)
def test_extract_drops_spare_component(spare_perimeter, spare_interior):
    grid, spec = _three_basin_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    site = ps.extract_solution(sp, named_vector(sp.mip, _hand_values(sp, PIT_A_RING, PIT_A, (2, 2))))
    padded = ps.extract_solution(sp, named_vector(
        sp.mip, _hand_values(sp, PIT_A_RING + spare_perimeter, PIT_A + spare_interior, (2, 2))
    ))
    assert padded.costs.total == site.costs.total
    assert padded.connected and padded.n_components == 1
    for mask in ("perimeter_mask", "interior_mask", "reservoir_mask"):
        assert np.array_equal(getattr(padded, mask), getattr(site, mask))
    assert padded.storage_m3 == pytest.approx(50.0 * CELL_M3)
    assert ps.verify_masks(grid, sp.cands, spec, padded) == []


def test_extract_keeps_component_the_volume_needs():
    # A alone stores 57,800 m^3: the target also needs B (69,360 m^3), the
    # larger of the two other basins, and then C (23,120 m^3) is spare
    grid, spec = _three_basin_grid(), spec_for_volume(100_000.0)
    sp = ps.build_siting_problem(grid, spec, level=0)
    sol = ps.extract_solution(sp, named_vector(sp.mip, _hand_values(
        sp, PIT_A_RING + BASIN_B_RING + BASIN_C_RING, PIT_A + BASIN_B + BASIN_C, (2, 2)
    )))
    assert not sol.connected and sol.n_components == 2
    assert sol.storage_m3 == pytest.approx((50.0 + 2 * 30.0) * CELL_M3)
    assert sol.reservoir_mask[BASIN_B[0]] and not sol.reservoir_mask[BASIN_C[0]]
    assert ps.verify_masks(grid, sp.cands, spec, sol) == []


def test_extract_keeps_dry_link_component():
    # a link outpost: the link sits on a dry clump that floods nothing, apart
    # from the pond that holds the volume; both stay, so the ladder escalates.
    # Below level 3 the builder fixes l = 0 on the clump, so build the tour rung
    grid, spec = _three_basin_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    sol = ps.extract_solution(
        sp, named_vector(sp.mip, _hand_values(sp, PIT_A_RING + DRY_CLUMP, PIT_A, (8, 3)))
    )
    assert not sol.connected and sol.n_components == 2
    assert sol.link_cell == (8, 3)
    assert sol.perimeter_mask[8, 3] and sol.perimeter_mask[8, 4]
    assert sol.storage_m3 == pytest.approx(50.0 * CELL_M3)


def _blocks_case(shape, blocks, link, vol_min):
    """(depth, y, z, link, vol_min): each block (rows, cols, depth) an
    interior basin of that depth, with the cells around it as its perimeter."""
    depth, y = np.zeros(shape), np.zeros(shape, dtype=bool)
    for rows, cols, d in blocks:
        depth[rows, cols], y[rows, cols] = d, True
    z = y.copy()
    z[1:] |= y[:-1]
    z[:-1] |= y[1:]
    z[:, 1:] |= y[:, :-1]
    z[:, :-1] |= y[:, 1:]
    return depth, y, z, link, vol_min


# Cells of 2 m, so a cell 1 m deep stores 4 m^3. Three spare basins store
# 8 m^3 each: one cell 2 m deep first in row-major order, then two of two
# cells 1 m deep. The larger goes first, then the first in row-major order.
# The link sits on the perimeter of a basin of 4 m^3, and the target needs
# one spare basin more.
_EQUAL_STORAGE_TIES = _blocks_case((7, 11), [(np.s_[1], np.s_[1], 2.0), (np.s_[1], np.s_[7:9], 1.0),
                                             (np.s_[5], np.s_[1:3], 1.0), (np.s_[5], np.s_[8], 1.0)],
                                   (5, 9), 10.0)
# The link sits on the perimeter of the smallest basin (4 m^3); the volume
# needs the 36 m^3 basin too, and the 8 m^3 one is spare.
_SECOND_BASIN = _blocks_case((9, 11), [(np.s_[1:4], np.s_[1:4], 1.0), (np.s_[7], np.s_[1:3], 1.0),
                                       (np.s_[7], np.s_[8], 1.0)], (7, 9), 30.0)


@st.composite
def _prune_cases(draw):
    """(depth, y, z, link, vol_min): random interior cells 1 or 2 m deep (so
    equal storages are common), a reservoir holding them and a few more
    cells, a link anywhere or in the smallest or the largest component, and a
    volume target from none to more than the whole reservoir stores."""
    shape = (draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = rng.choice([1.0, 2.0], size=shape)
    y = rng.random(shape) < draw(st.sampled_from([0.15, 0.3, 0.5]))
    z = y | (rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.3])))
    components = connected_components(z, "four")
    where = draw(st.sampled_from(["anywhere", "smallest", "largest"]))
    if where == "anywhere" or not components:
        link = tuple(int(v) for v in rng.integers(0, shape))
    else:
        cells = components[-1 if where == "smallest" else 0]
        link = tuple(cells[rng.integers(len(cells))].tolist())
    stored = float((depth * y).sum()) * 4.0
    return depth, y, z, link, draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.5])) * stored


def _prune_both(depth, y, z, link, vol_min):
    """The masks and count that ``_drop_spare_components`` leaves, and the
    masks and kept components that the reference leaves."""
    grid = ps.TerrainGrid(WATER - depth, 2.0, np.zeros(depth.shape, bool), np.zeros(depth.shape, bool),
                          RIVER_ELEVATION)
    spec = types.SimpleNamespace(water_elevation=WATER, vol_min=vol_min)  # all the prune reads
    masks = (z & ~y, y.copy(), z.copy())
    count = _drop_spare_components(masks, link, grid, spec)
    reference = (z & ~y, y.copy(), z.copy())
    cell_storage = np.where(y, WATER - grid.elevations, 0.0) * grid.cell_area
    kept = drop_spare_components_reference(reference, link, cell_storage, vol_min)
    return masks, count, reference, kept


@given(_prune_cases())
@example(_EQUAL_STORAGE_TIES)
@example(_SECOND_BASIN)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_prune_keeps_what_the_list_based_prune_kept(case):
    """One labelling and per-label sums drop exactly the components that the
    list of components and its stable sort dropped."""
    masks, count, reference, kept = _prune_both(*case)
    assert count == len(kept)
    for got, want in zip(masks, reference):
        assert np.array_equal(got, want)


def test_prune_breaks_storage_ties_and_keeps_a_needed_second_basin():
    masks, count, _, _ = _prune_both(*_EQUAL_STORAGE_TIES)
    interior = masks[1]
    assert count == 2 and interior.sum() == 3 and interior[1, 7:9].all() and interior[5, 8]

    _, _, z, link, _ = _SECOND_BASIN
    sizes = [len(c) for c in connected_components(z, "four")]
    assert sizes == [21, 8, 5] and z[link]  # the link's basin is the smallest
    masks, count, _, _ = _prune_both(*_SECOND_BASIN)
    interior = masks[1]
    assert count == 2 and interior[1:4, 1:4].all() and interior[7, 8] and not interior[7, 1:3].any()


def test_extract_rejects_a_value_for_a_column_fixed_out():
    # level 0 fixes l = 0 on the dry clump and leaves l_8_3 out of the model:
    # a hand solution that sets it has one value more than the problem has
    # columns, and a vector of any length but the column count is refused
    grid, spec = _three_basin_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    assert "l_8_3" not in sp.mip.variable_names()
    values = _hand_values(sp, PIT_A_RING + DRY_CLUMP, PIT_A, (8, 3))
    link = values.pop("l_8_3")
    n = sp.mip.num_variables
    for x in (np.append(named_vector(sp.mip, values), link), np.zeros(n - 1)):
        wrong_length = rf"has {n} variables, got a vector of shape \({len(x)},\)"
        with pytest.raises(ValueError, match=wrong_length):
            ps.extract_solution(sp, x)
        with pytest.raises(ValueError, match=wrong_length):
            ps.verify_solution(sp.mip, x)


def test_direct_level_zero_midsize_solve_is_connected():
    grid, spec = midsize_grid(), midsize_spec()
    sol = ps.run_ladder(grid, spec, config=StrategyConfig(ladder=(Level.NONE,)))
    assert sol.valid and sol.connected and len(sol.trace) == 1
    assert ps.verify_masks(grid, ps.candidate_sets(grid, spec.water_elevation), spec, sol) == []


def test_variable_naming_scheme():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    names = set(sp.mip.variable_names())
    assert "y_2_3" in names and "z_2_3" in names
    assert "z_2_2" in names and "l_2_2" in names
    assert not any(n.startswith("x_") for n in names)  # x = z - y has no column
    assert "u_2_2" in names
    assert any(n.startswith("w_") for n in names)


def _coded_problem(kind, sense):
    prob = ps.MipProblem("codes")
    prob.add_variables(["a", "b", "c"], kind, [0.0, -1.0, 0.0], [1.0, 5.0, 3.5])
    prob.add_rows(CellNames(("r{}_lo", "r{}_eq"), np.array([[0], [1]])),
                  [0, 1, 2, 3], [0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], sense, [1.0, 2.0])
    return prob


def _coo_block(rng, n_rows, n_cols):
    """Unsorted COO triplets with explicit zeros, an empty last row (given two
    or more rows) and repeated (row, col) pairs: one holding a term and its
    negative, and one of seven or more terms, which SciPy adds left to right."""
    n = int(rng.integers(1, 3 * n_rows + 1))
    rows = rng.integers(0, max(n_rows - 1, 1), n)
    cols = rng.integers(0, n_cols, n)
    vals = rng.choice([0.0, 1.0, -2.5, 0.1, 1e-17, 3.0], n)
    rows = np.concatenate([rows, rows[:1], np.full(6, rows[-1])])
    cols = np.concatenate([cols, cols[:1], np.full(6, cols[-1])])
    vals = np.concatenate([vals, -vals[:1], rng.choice([-2.5, 0.1, 0.3], 6)])
    return rows, cols, vals


def test_canonical_csr_is_scipys():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_cols = int(rng.integers(1, 9))
        prob = ps.MipProblem()
        prob.add_variables([f"v{j}" for j in range(n_cols)], VarKind.CONTINUOUS, -5.0, 5.0)
        all_rows, all_cols, all_vals = [], [], []
        for block in range(int(rng.integers(1, 4))):
            n_rows = int(rng.integers(1, 7))
            rows, cols, vals = _coo_block(rng, n_rows, n_cols)
            prob.add_rows([f"r{block}_{i}" for i in range(n_rows)], rows, cols, vals, Sense.LE, 1.0)
            all_rows.append(rows + prob.num_constraints - n_rows)
            all_cols.append(cols)
            all_vals.append(vals)
        want = sparse.csr_array((np.concatenate(all_vals), (np.concatenate(all_rows),
                                 np.concatenate(all_cols))), shape=(prob.num_constraints, n_cols))
        indptr, indices, data = prob.csr
        assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
        assert data.tobytes() == want.data.tobytes()
        assert prob.nnz == want.nnz == scipy_matrix(prob).nnz
        x = rng.uniform(-5.0, 5.0, n_cols)
        assert prob.violations(x, 0.0)[2].tobytes() == (want @ x).tobytes()


def test_add_rows_rejects_rows_outside_the_block():
    prob = ps.MipProblem()
    prob.add_variables(["a", "b"])
    with pytest.raises(ValueError, match="outside the block"):
        prob.add_rows(["r"], [0, 1], [0, 1], [1.0, 1.0], Sense.LE)


@pytest.mark.parametrize("level", range(4))
def test_violations_activity_is_the_matvec_bit_for_bit(level):
    rng = np.random.default_rng(level)
    for grid, spec in (micro_case(seed) for seed in _micro_seeds(10)):
        mip = ps.build_siting_problem(grid, spec, level=level).mip
        for x in (rng.random(mip.num_variables), rng.integers(0, 2, mip.num_variables) * 1.0):
            assert mip.violations(x, 0.0)[2].tobytes() == (scipy_matrix(mip) @ x).tobytes()


def test_kinds_and_senses_are_their_codes():
    by_member = _coded_problem([VarKind.BINARY, VarKind.INTEGER, VarKind.CONTINUOUS],
                               [Sense.LE, Sense.EQ])
    by_code = _coded_problem(np.array([0, 1, 2], dtype=np.int8), np.array([0, 2]))
    for a, b in ((by_member.kinds, by_code.kinds), (by_member.lb, by_code.lb),
                 (by_member.ub, by_code.ub), (by_member.senses, by_code.senses),
                 (by_member.rhs, by_code.rhs)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert by_member.kinds.tolist() == [0, 1, 2] and by_member.senses.tolist() == [0, 2, 0, 2]
    assert [row.sense.name for row in by_code.rows] == ["LE", "EQ"] * 2  # members, not ints
    one = _coded_problem(VarKind.INTEGER, Sense.GE)
    assert one.kinds.tolist() == [1] * 3 and one.senses.tolist() == [1] * 4

    for kind, sense in (([0, 7, 2], [0, 2]), (VarKind.BINARY, [0, 7]), ([-1], [0]), (0, [3, 0])):
        with pytest.raises(ValueError, match="is not a valid (VarKind|Sense) code"):
            _coded_problem(kind, sense)


def test_diag_corrected_length():
    # plus-arm ring: four cells pairwise diagonal; a spanning walk needs
    # three diagonal steps
    mask = np.zeros((3, 3), bool)
    mask[0, 1] = mask[1, 0] = mask[1, 2] = mask[2, 1] = True
    corrected = diag_corrected_length(mask, 34.0)
    assert corrected == pytest.approx(4 * 34.0 + 3 * (math.sqrt(2) - 1) * 34.0)
    # straight run: no diagonal steps
    straight = np.zeros((3, 4), bool)
    straight[1, :] = True
    assert diag_corrected_length(straight, 34.0) == pytest.approx(4 * 34.0)


def test_diag_corrected_length_counts_only_needed_diagonals():
    # an orthogonally connected L needs no diagonal step
    ell = np.zeros((2, 2), bool)
    ell[0, 0] = ell[0, 1] = ell[1, 1] = True
    assert diag_corrected_length(ell, 1.0) == pytest.approx(3.0)
    # an orthogonal staircase needs none; a diagonal one needs one per step
    stairs = np.zeros((4, 4), bool)
    for k in range(3):
        stairs[k, k] = stairs[k, k + 1] = True
    assert diag_corrected_length(stairs, 1.0) == pytest.approx(6.0)
    assert diag_corrected_length(np.eye(4, dtype=bool), 1.0) == pytest.approx(4 + 3 * (math.sqrt(2) - 1))


def _min_diagonal_links(mask) -> int:
    """Weight of a Kruskal minimum spanning forest of the 8-neighbor graph of
    ``mask``, orthogonal edges weighing 0 and diagonal edges 1."""
    cells = [tuple(c) for c in np.argwhere(mask).tolist()]
    parent = {c: c for c in cells}

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    edges = sorted(
        (abs(di) + abs(dj) - 1, c, (c[0] + di, c[1] + dj))
        for c in cells
        for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1))
        if (c[0] + di, c[1] + dj) in parent
    )
    weight = 0
    for w, a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            weight += w
    return weight


def test_diag_corrected_length_matches_minimum_spanning_forest():
    rng = np.random.default_rng(11)
    for _ in range(300):
        mask = rng.random((6, 6)) < rng.uniform(0.2, 0.7)
        want = mask.sum() + (math.sqrt(2) - 1) * _min_diagonal_links(mask)
        assert diag_corrected_length(mask, 1.0) == pytest.approx(want)


def test_with_origin_embeds_masks():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    moved = sol.with_origin((3, 2), (10, 10))
    assert moved.perimeter_mask.shape == (10, 10)
    assert moved.interior_mask[2 + 3, 3 + 2]
    assert moved.link_cell == (sol.link_cell[0] + 3, sol.link_cell[1] + 2)


def test_read_out_carries_every_site_field():
    """A solution is its site read out: ``ReservoirSolution`` adds only the
    readout and run fields to ``Site``, the site's fields pass through, and
    an objective of None reads as the total cost."""
    assert issubclass(ps.ReservoirSolution, model.Site)
    site_fields = {f.name for f in fields(model.Site)}
    assert not site_fields & set(vars(ps.ReservoirSolution)["__annotations__"])
    assert "connected" not in {f.name for f in fields(ps.ReservoirSolution)}
    grid, spec = two_basin_grid(), two_basin_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    res = ps.solve(sp.mip, "highs")
    for objective in (None, 123.5):
        site = model.extract_site(sp, res.x, status="time_limit", objective_value=objective, gap=0.25)
        site.n_components = 2
        sol = model.read_out(grid, spec, sp.cost_params, sp.dist, site, wall_time_s=1.0,
                             n_variables=7, n_constraints=5)
        for name in site_fields - {"objective_value"}:
            assert getattr(sol, name) is getattr(site, name), name
        assert sol.objective_value == (sol.costs.total if objective is None else objective)
        assert (sol.connected, sol.valid) == (False, False)
        assert (sol.wall_time_s, sol.n_variables, sol.n_constraints) == (1.0, 7, 5)


def test_perimeter_min_neighbors_three_restricts():
    grid, spec = pit_grid(), pit_spec()
    # in the plus shape every perimeter cell touches exactly one reservoir
    # cell, so requiring three makes the instance infeasible
    sp = ps.build_siting_problem(grid, spec, level=0, perimeter_min_neighbors=3)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.INFEASIBLE


def test_solver_incumbent_verifies_cleanly():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 3)
    assert ps.verify_solution(sp.mip, res.x) == []


_REFERENCE_CASES = {
    **{f"pit-l{lv}": (lambda lv=lv: (pit_grid(), pit_spec(), {"level": lv})) for lv in range(4)},
    **{f"two_basin-l{lv}": (lambda lv=lv: (two_basin_grid(), two_basin_spec(), {"level": lv}))
       for lv in range(4)},
    **{f"diagonal_blob-l{lv}": (lambda lv=lv: (diagonal_blob_grid(), diagonal_blob_spec(),
                                               {"level": lv})) for lv in range(4)},
    **{f"micro{seed}-l{lv}": (lambda seed=seed, lv=lv: (*micro_case(seed), {"level": lv}))
       for seed in (0, 4) for lv in (0, 3)},
    "pit-pmn3-l3": lambda: (pit_grid(), pit_spec(), {"level": 3, "perimeter_min_neighbors": 3}),
    "two_basin-pmn3": lambda: (two_basin_grid(), two_basin_spec(),
                               {"perimeter_min_neighbors": 3}),
    "midsize-pmn1-l1": lambda: (midsize_grid(), midsize_spec(), {"level": 1}),
    "midsize-l3": lambda: (midsize_grid(), midsize_spec(), {"level": 3}),
    "midsize-pmn3": lambda: (midsize_grid(), midsize_spec(), {"perimeter_min_neighbors": 3}),
    "two_basin-excluded-l1": lambda: (replace(two_basin_grid(), excluded=[(1, 2), (2, 5)]),
                                      two_basin_spec(), {"level": 1}),
    "midsize-excluded": lambda: (replace(midsize_grid(), excluded=[(46, 16), (45, 16)]),
                                 midsize_spec(), {}),
    "bowl-window": bowl_window,
    "bowl-window-l1": lambda: bowl_window(level=1),
    "bowl-window-l2": lambda: bowl_window(level=2),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_array_build_matches_per_row_reference(case):
    """The block build gives the per-row builder's problem, bit for bit, and
    spells every variable and row name once."""
    grid, spec, kwargs = _REFERENCE_CASES[case]()
    built = ps.build_siting_problem(grid, spec, **kwargs).mip
    ref = build_reference(grid, spec, **kwargs)
    for names in (built.variable_names(), built.row_names()):
        assert len(set(names)) == len(names)
    ref_rows = list(ref.rows)
    n = len(ref_rows)
    assert len(built.rows) == built.num_constraints == n
    assert built.rows[n // 2 :] == ref_rows[n // 2 :] and built.rows[-1] == ref_rows[-1]
    assert built.variable_names() == ref.variable_names()  # kinds and bounds: the arrays below
    assert list(built.rows) == ref_rows  # names, order, coefficients, senses, rhs
    assert list(built.objective.items()) == list(ref.objective.items())
    assert built.objective_constant == ref.objective_constant
    for a, b in ((scipy_matrix(built), scipy_matrix(ref)), (built.cost_vector(), ref.cost_vector()),
                 (built.lb, ref.lb), (built.ub, ref.ub), (built.kinds, ref.kinds),
                 (built.senses, ref.senses), (built.rhs, ref.rhs)):
        if not isinstance(a, np.ndarray):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            a, b = a.data, b.data
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for write in (lambda p: ps.write_mps(p, "free"), lambda p: ps.write_mps(p, "fixed"),
                  ps.write_lp):
        assert write(built) == write(ref)


def _micro_seeds(n: int) -> list[int]:
    """The first ``n`` seeds whose micro case exists and can hold a tour."""
    seeds, seed = [], 0
    while len(seeds) < n:
        case = micro_case(seed)
        if case and len(ps.candidate_sets(case[0], case[1].water_elevation).perimeter_cells()) >= 3:
            seeds.append(seed)
        seed += 1
    return seeds


def _lp_optimum(problem):
    """The LP-relaxation optimum of ``problem``, or None if it has none."""
    highs = _configured(ps.SolveLimits())
    assert highs.setOptionValue("solve_relaxation", True) == core.HighsStatus.kOk
    assert _pass_model(highs, problem) == core.HighsStatus.kOk
    assert highs.run() == core.HighsStatus.kOk
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        return None
    return highs.getInfo().objective_function_value + problem.objective_constant


def _optima(problem):
    """(MIP status, MIP optimum, LP-relaxation optimum) of ``problem``."""
    mip = ps.solve(problem)
    return mip.status, mip.objective, _lp_optimum(problem)


_EQUIVALENCE_CASES = {
    **{f"micro{seed}": lambda seed=seed: (*micro_case(seed), range(4)) for seed in _micro_seeds(40)},
    "pit": lambda: (pit_grid(), pit_spec(), range(3)),
    "two_basin": lambda: (two_basin_grid(), two_basin_spec(), range(3)),
    "diagonal_blob": lambda: (diagonal_blob_grid(), diagonal_blob_spec(), range(3)),
}


@pytest.mark.parametrize("case", list(_EQUIVALENCE_CASES))
def test_model_matches_paper_program_optima(case):
    """The model over z and y has the MIP optimum and the LP-relaxation bound
    of the paper's program over x, y and z, at every level."""
    grid, spec, levels = _EQUIVALENCE_CASES[case]()
    for level in levels:
        new = _optima(ps.build_siting_problem(grid, spec, level=level).mip)
        paper = _optima(build_reference_xyz(grid, spec, level=level))
        assert new[0] is paper[0], (level, new, paper)
        for a, b in zip(new[1:], paper[1:]):
            assert (a is None and b is None) or math.isclose(a, b, rel_tol=1e-9), (level, new, paper)


_FULL_BAND_CASES = {
    **{f"two_basin-l{lv}": (lambda lv=lv: (two_basin_grid(), two_basin_spec(), lv)) for lv in (1, 2, 3)},
    **{f"diagonal_blob-l{lv}": (lambda lv=lv: (diagonal_blob_grid(), diagonal_blob_spec(), lv))
       for lv in (1, 2, 3)},
    **{f"midsize-l{lv}": (lambda lv=lv: (midsize_grid(), midsize_spec(), lv)) for lv in (1, 2)},
    **{f"micro{seed}-l3": (lambda seed=seed: (*micro_case(seed), 3)) for seed in range(6)},
}


#: Cases whose two branch-and-bound solves take tens of seconds: their MIP
#: optima are left to the structural test, which proves them equal.
_LP_ONLY = {"diagonal_blob-l3"}


@pytest.mark.parametrize("case", list(_FULL_BAND_CASES))
def test_span_bands_match_full_bands_optima(case):
    """Band rows only inside the span of interior candidates give the MIP
    optimum and the LP-relaxation bound of bands over every slice."""
    grid, spec, level = _FULL_BAND_CASES[case]()
    trimmed = ps.build_siting_problem(grid, spec, level=level).mip
    full = build_reference(grid, spec, level=level, full_bands=True)
    assert full.num_variables > trimmed.num_variables and full.nnz > trimmed.nnz
    if case in _LP_ONLY:
        new, old = _lp_optimum(trimmed), _lp_optimum(full)
        assert new is not None and math.isclose(new, old, rel_tol=1e-9), (new, old)
        return
    new, old = _optima(trimmed), _optima(full)
    assert new[0] is old[0] is ps.SolveStatus.OPTIMAL, (new, old)
    for a, b in zip(new[1:], old[1:]):
        assert math.isclose(a, b, rel_tol=1e-9), (new, old)


def _named_rows(problem):
    """Row name -> (sorted (column name, coefficient) pairs, sense, rhs)."""
    names = problem.variable_names()
    return {row.name: (tuple(sorted((names[vid], c) for vid, c in row.coeffs)), row.sense, row.rhs)
            for row in problem.rows}


@pytest.mark.parametrize("case", list(_FULL_BAND_CASES))
def test_span_bands_are_full_bands_with_outer_switches_fixed(case):
    """The trimmed model is the full-band model with the switches outside the
    span fixed, so both have the same MIP optimum and LP bound.

    (a) Every column and row of the trimmed model is one of the full-band
    model, with the same kind, bounds and cost, and the same name,
    coefficients, sense and rhs; the other columns cost nothing. (b) Fix each
    other column at 1 when some other row reads it alone (a switch whose
    slices hold no interior candidate) and at 0 otherwise: then every other
    row holds over the whole box of the trimmed columns, by interval
    arithmetic. So every point of the trimmed model, integral or not, is a
    point of the full-band model at the same cost, and by (a) the converse.
    """
    grid, spec, level = _FULL_BAND_CASES[case]()
    trimmed = ps.build_siting_problem(grid, spec, level=level).mip
    full = build_reference(grid, spec, level=level, full_bands=True)

    # (a) columns, objective and rows
    names, full_names = trimmed.variable_names(), full.variable_names()
    at = {name: vid for vid, name in enumerate(full_names)}
    shared = np.array([at[name] for name in names])
    for mine, theirs in ((trimmed.kinds, full.kinds), (trimmed.lb, full.lb), (trimmed.ub, full.ub),
                         (trimmed.cost_vector(), full.cost_vector())):
        assert np.array_equal(mine, theirs[shared])
    extra = np.setdiff1d(np.arange(full.num_variables), shared)
    assert len(extra) and not full.cost_vector()[extra].any()
    assert trimmed.objective_constant == full.objective_constant
    rows, full_rows = _named_rows(trimmed), _named_rows(full)
    assert all(full_rows.get(name) == row for name, row in rows.items())
    other = [row for name, row in full_rows.items() if name not in rows]
    assert other

    # (b) the interval check, the other columns fixed
    lo, hi = dict(zip(full_names, full.lb.tolist())), dict(zip(full_names, full.ub.tolist()))
    alone = {coeffs[0][0] for coeffs, _, _ in other if len(coeffs) == 1}
    for vid in extra.tolist():
        lo[full_names[vid]] = hi[full_names[vid]] = float(full_names[vid] in alone)
    for coeffs, sense, rhs in other:
        low = sum(min(c * lo[name], c * hi[name]) for name, c in coeffs)
        high = sum(max(c * lo[name], c * hi[name]) for name, c in coeffs)
        if sense is Sense.LE:
            assert high <= rhs, (coeffs, sense, rhs)
        elif sense is Sense.GE:
            assert low >= rhs, (coeffs, sense, rhs)
        else:
            assert low == high == rhs, (coeffs, sense, rhs)


#: (variables, rows, nonzeros) of the midsize model per level, band rows only
#: inside the span of interior candidates; bands over every slice give
#: (852, 1945, 40400), (1328, 2659, 112038) and (5133, 7923, 135390) at levels 1-3.
_MIDSIZE_SIZES = {0: (612, 1585, 4280), 1: (782, 1840, 29865), 2: (1008, 2179, 63878),
                  3: (4813, 7443, 87230)}


@pytest.mark.parametrize("level", sorted(_MIDSIZE_SIZES))
def test_midsize_model_size(level):
    mip = ps.build_siting_problem(midsize_grid(), midsize_spec(), level=level).mip
    assert (mip.num_variables, mip.num_constraints, mip.nnz) == _MIDSIZE_SIZES[level]


_TOUR_CASES = {
    **{f"micro{seed}": lambda seed=seed: (*micro_case(seed), {}) for seed in _micro_seeds(40)},
    "pit": lambda: (pit_grid(), pit_spec(), {}),
    "pit-pmn3": lambda: (pit_grid(), pit_spec(), {"perimeter_min_neighbors": 3}),
    "two_basin": lambda: (two_basin_grid(), two_basin_spec(), {}),
}


@pytest.mark.parametrize("case", list(_TOUR_CASES))
def test_continuous_ranks_match_integer_ranks_optima(case):
    """Continuous MTZ ranks give the tour rung the MIP optimum of integer ranks."""
    grid, spec, kwargs = _TOUR_CASES[case]()
    continuous = ps.solve(ps.build_siting_problem(grid, spec, level=3, **kwargs).mip)
    integer = ps.solve(build_reference_integer_ranks(grid, spec, level=3, **kwargs))
    assert continuous.status is integer.status, (continuous.status, integer.status)
    if integer.has_incumbent:
        assert math.isclose(continuous.objective, integer.objective, rel_tol=1e-9)
