"""Base formulation: shape rules, volume row, link rows, objective, extraction."""

import itertools
import math

import numpy as np
import pytest

import phs_siting as ps
from phs_siting import Level, StrategyConfig
from phs_siting.model import Sense, diag_corrected_length

from conftest import (
    RIVER_ELEVATION,
    WATER,
    bowl_window,
    diagonal_blob_grid,
    diagonal_blob_spec,
    micro_case,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    river_grid,
    solve_at_level,
    spec_for_volume,
    two_basin_grid,
    two_basin_spec,
)
from reference_model import build_reference


def _shape_rows(problem):
    prefixes = ("cover_", "role_", "contact_", "inter_")
    return [row for row in problem.rows if row.name.startswith(prefixes)]


def _row_holds(row, vec) -> bool:
    activity = sum(coef * vec[vid] for vid, coef in row.coeffs)
    if row.sense is Sense.LE:
        return activity <= row.rhs + 1e-9
    if row.sense is Sense.GE:
        return activity >= row.rhs - 1e-9
    return abs(activity - row.rhs) <= 1e-9


def test_shape_constraints_exhaustive_on_plus_instance():
    """Enumerate every 0/1 assignment on the 5-cell pit instance.

    The shape rows alone must admit exactly the assignments where the flooded
    set is a legal reservoir: the empty set, perimeter-only clumps with mutual
    support, and the full plus; and they must reject any interior cell missing
    a neighbor.
    """
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    prob = sp.mip
    cells = sp.variables
    binaries = (
        [("z", c, vid) for c, vid in cells.z.items()]
        + [("x", c, vid) for c, vid in cells.x.items()]
        + [("y", c, vid) for c, vid in cells.y.items()]
    )
    shape_rows = _shape_rows(prob)
    assert len(binaries) == 10  # 5 z, 4 x, 1 y

    feasible = []
    for bits in itertools.product((0, 1), repeat=len(binaries)):
        vec = np.zeros(prob.num_variables)
        for (_, _, vid), b in zip(binaries, bits):
            vec[vid] = b
        if all(_row_holds(row, vec) for row in shape_rows):
            feasible.append(bits)

    def assignment(**cells_set):
        values = {}
        for kind, cell, vid in binaries:
            values[(kind, cell)] = 0
        for key, val in cells_set.items():
            values[key] = val
        return tuple(values[(kind, cell)] for kind, cell, _ in binaries)

    all_zero = tuple(0 for _ in binaries)
    assert all_zero in feasible

    plus = {}
    for kind, cell, vid in binaries:
        if kind == "z":
            plus[(kind, cell)] = 1
        elif kind == "x":
            plus[(kind, cell)] = 1
        else:
            plus[(kind, cell)] = 1
    full_plus = tuple(plus[(kind, cell)] for kind, cell, _ in binaries)
    assert full_plus in feasible

    # interior on, one supporting neighbor off -> must be infeasible
    broken = dict(plus)
    broken[("z", (1, 3))] = 0
    broken[("x", (1, 3))] = 0
    assert tuple(broken[(k, c)] for k, c, _ in binaries) not in feasible

    # every feasible assignment keeps y supported and x in contact
    for bits in feasible:
        state = {(k, c): b for (k, c, _), b in zip(binaries, bits)}
        for (k, c), b in state.items():
            if k == "y" and b:
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    assert state.get(("z", (c[0] + di, c[1] + dj)), 0) == 1
            if k == "x" and b:
                assert any(
                    state.get(("z", (c[0] + di, c[1] + dj)), 0) == 1
                    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
                )
            if k == "z" and b:
                assert state.get(("x", c), 0) + state.get(("y", c), 0) == 1


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
    values = dict(res.values)
    # duplicate link -> cardinality row violated
    other = next(name for name in values if name.startswith("l_") and values[name] < 0.5)
    values[other] = 1.0
    assert any("link_sum" in v for v in ps.verify_solution(sp.mip, values))
    # link kept on a cell whose perimeter binary is forced off -> dominance row
    values = dict(res.values)
    chosen = next(name for name in values if name.startswith("l_") and values[name] > 0.5)
    values["x_" + chosen[2:]] = 0.0
    assert any("linkx" in v for v in ps.verify_solution(sp.mip, values))


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
    dry = [vid for cell, vid in sp.variables.x.items()
           if grid.elevations[cell] >= spec.water_elevation]
    assert dry
    for vid in dry:
        assert sp.mip.objective[vid] == 0.0


def test_objective_reconstruction_from_masks():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    assert abs(sol.costs.total - res.objective) <= 1e-9 * abs(res.objective)


def test_extract_rejects_fractional_values():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    values = dict(res.values)
    name = next(n for n in values if n.startswith("y_"))
    values[name] = 0.4
    with pytest.raises(ps.IntegralityError, match="fractional"):
        ps.extract_solution(sp, values)


def test_extract_rejects_empty_reservoir():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    values = {name: 0.0 for name in res.values}
    with pytest.raises(ps.InfeasibleProblemError, match="floods no interior"):
        ps.extract_solution(sp, values)


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
    values = {v.name: 0.0 for v in sp.mip.variables}
    for i, j in perimeter:
        values[f"x_{i}_{j}"] = values[f"z_{i}_{j}"] = 1.0
    for i, j in interior:
        values[f"y_{i}_{j}"] = values[f"z_{i}_{j}"] = 1.0
    values["l_{}_{}".format(*link)] = 1.0
    return values


@pytest.mark.parametrize(
    "spare_perimeter, spare_interior",
    [(BASIN_B_RING, BASIN_B), (DRY_CLUMP, [])],
    ids=["pond", "clump"],
)
def test_extract_drops_spare_component(spare_perimeter, spare_interior):
    grid, spec = _three_basin_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    site = ps.extract_solution(sp, _hand_values(sp, PIT_A_RING, PIT_A, (2, 2)))
    padded = ps.extract_solution(
        sp, _hand_values(sp, PIT_A_RING + spare_perimeter, PIT_A + spare_interior, (2, 2))
    )
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
    sol = ps.extract_solution(sp, _hand_values(
        sp, PIT_A_RING + BASIN_B_RING + BASIN_C_RING, PIT_A + BASIN_B + BASIN_C, (2, 2)
    ))
    assert not sol.connected and sol.n_components == 2
    assert sol.storage_m3 == pytest.approx((50.0 + 2 * 30.0) * CELL_M3)
    assert sol.reservoir_mask[BASIN_B[0]] and not sol.reservoir_mask[BASIN_C[0]]
    assert ps.verify_masks(grid, sp.cands, spec, sol) == []


def test_extract_keeps_dry_link_component():
    # a link outpost: the link sits on a dry clump that floods nothing, apart
    # from the pond that holds the volume; both stay, so the ladder escalates
    grid, spec = _three_basin_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    sol = ps.extract_solution(sp, _hand_values(sp, PIT_A_RING + DRY_CLUMP, PIT_A, (8, 3)))
    assert not sol.connected and sol.n_components == 2
    assert sol.link_cell == (8, 3)
    assert sol.perimeter_mask[8, 3] and sol.perimeter_mask[8, 4]
    assert sol.storage_m3 == pytest.approx(50.0 * CELL_M3)


def test_direct_level_zero_midsize_solve_is_connected():
    grid, spec = midsize_grid(), midsize_spec()
    sol = ps.run_ladder(grid, spec, config=StrategyConfig(ladder=(Level.NONE,)))
    assert sol.valid and sol.connected and len(sol.trace) == 1
    assert ps.verify_masks(grid, ps.candidate_sets(grid, spec.water_elevation), spec, sol) == []


def test_variable_naming_scheme():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    names = {v.name for v in sp.mip.variables}
    assert "y_2_3" in names and "z_2_3" in names
    assert "x_2_2" in names and "l_2_2" in names
    assert "u_2_2" in names
    assert any(n.startswith("w_") for n in names)


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


def test_with_origin_embeds_masks():
    grid, spec = pit_grid(), pit_spec()
    sp, res, sol = solve_at_level(grid, spec, 0)
    moved = sol.with_origin((3, 2), (10, 10))
    assert moved.perimeter_mask.shape == (10, 10)
    assert moved.interior_mask[2 + 3, 3 + 2]
    assert moved.link_cell == (sol.link_cell[0] + 3, sol.link_cell[1] + 2)


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
    assert ps.verify_solution(sp.mip, res.values) == []


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
    "midsize-pmn3": lambda: (midsize_grid(), midsize_spec(), {"perimeter_min_neighbors": 3}),
    "two_basin-excluded-l1": lambda: (two_basin_grid(), two_basin_spec(),
                                      {"level": 1, "excluded": [(1, 2), (2, 5)]}),
    "midsize-excluded": lambda: (midsize_grid(), midsize_spec(),
                                 {"excluded": [(46, 16), (45, 16)]}),
    "bowl-window": bowl_window,
    "bowl-window-l1": lambda: bowl_window(level=1),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_array_build_matches_per_row_reference(case):
    """The block build gives the per-row builder's problem, bit for bit."""
    grid, spec, kwargs = _REFERENCE_CASES[case]()
    built = ps.build_siting_problem(grid, spec, **kwargs).mip
    ref = build_reference(grid, spec, **kwargs)
    ref_rows = list(ref.rows)
    n = len(ref_rows)
    assert len(built.rows) == built.num_constraints == n
    assert built.rows[n // 2 :] == ref_rows[n // 2 :] and built.rows[-1] == ref_rows[-1]
    assert built.variables == ref.variables  # names, order, kinds, bounds
    assert list(built.rows) == ref_rows  # names, order, coefficients, senses, rhs
    assert list(built.objective.items()) == list(ref.objective.items())
    assert built.objective_constant == ref.objective_constant
    for a, b in ((built.matrix, ref.matrix), (built.cost_vector(), ref.cost_vector()),
                 (built.lb, ref.lb), (built.ub, ref.ub), (built.kinds, ref.kinds),
                 (built.senses, ref.senses), (built.rhs, ref.rhs)):
        if not isinstance(a, np.ndarray):
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            a, b = a.data, b.data
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for write in (lambda p: ps.write_mps(p, "free"), lambda p: ps.write_mps(p, "fixed"),
                  ps.write_lp):
        assert write(built) == write(ref)
