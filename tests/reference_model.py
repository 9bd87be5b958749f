"""Per-row reference for the siting model build.

This is the builder the package used before it assembled the base formulation
from whole-array row blocks: one ``add_variable`` per variable and one
``add_row`` per row, over cell -> id dicts. ``test_model`` requires the
array build to produce exactly the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from phs_siting import connectivity
from phs_siting.costing import CostParams, conveyance_cost, embankment_cell_cost, equipment_cost
from phs_siting.errors import InfeasibleProblemError
from phs_siting.model import MipProblem, Sense
from phs_siting.terrain import FOUR_NEIGHBORS, candidate_sets, distance_field

Cell = tuple[int, int]
DIRECTIONS = ("up", "down", "left", "right")


@dataclass
class CellVariables:
    x: dict[Cell, int] = field(default_factory=dict)
    y: dict[Cell, int] = field(default_factory=dict)
    z: dict[Cell, int] = field(default_factory=dict)
    link: dict[Cell, int] = field(default_factory=dict)


def _declare_cell_variables(prob, cands) -> CellVariables:
    sv = CellVariables()
    for i, j in cands.reservoir_cells():
        sv.z[(i, j)] = prob.add_variable(f"z_{i}_{j}")
    for i, j in cands.perimeter_cells():
        sv.x[(i, j)] = prob.add_variable(f"x_{i}_{j}")
    for i, j in cands.interior_cells():
        sv.y[(i, j)] = prob.add_variable(f"y_{i}_{j}")
    return sv


def _add_shape_constraints(prob, sv, perimeter_min_neighbors) -> None:
    def neighbor(cell, d):
        di, dj = FOUR_NEIGHBORS[d]
        return (cell[0] + di, cell[1] + dj)

    for cell, zid in sv.z.items():
        i, j = cell
        for d, dname in enumerate(DIRECTIONS):
            coeffs = [(zid, 1.0)]
            if cell in sv.x:
                coeffs.append((sv.x[cell], -1.0))
            nbr = neighbor(cell, d)
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
            prob.add_row(f"cover_{i}_{j}_{dname}", coeffs, Sense.LE, 0.0)
        coeffs = [(zid, 1.0)]
        if cell in sv.x:
            coeffs.append((sv.x[cell], -1.0))
        if cell in sv.y:
            coeffs.append((sv.y[cell], -1.0))
        prob.add_row(f"role_{i}_{j}", coeffs, Sense.EQ, 0.0)

    for cell, xid in sv.x.items():
        i, j = cell
        coeffs = [(xid, float(perimeter_min_neighbors))]
        for d in range(4):
            nbr = neighbor(cell, d)
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
        prob.add_row(f"contact_{i}_{j}", coeffs, Sense.LE, 0.0)

    for cell, yid in sv.y.items():
        i, j = cell
        for d, dname in enumerate(DIRECTIONS):
            coeffs = [(yid, 1.0)]
            nbr = neighbor(cell, d)
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
            prob.add_row(f"inter_{i}_{j}_{dname}", coeffs, Sense.LE, 0.0)


def _add_volume_constraint(prob, sv, cands, grid, spec) -> None:
    coeffs = {
        (i, j): (spec.water_elevation - float(grid.elevations[i, j])) * grid.cell_area
        for i, j in cands.interior_cells()
    }
    if sum(coeffs.values()) < spec.vol_min:
        raise InfeasibleProblemError("total storable capacity is below the volume target")
    prob.add_row("volume", [(sv.y[cell], coef) for cell, coef in coeffs.items()],
                 Sense.GE, spec.vol_min)


def _add_link_constraints(prob, sv) -> None:
    if not sv.x:
        raise InfeasibleProblemError("no perimeter candidates; cannot place a conveyance link")
    for cell, xid in sv.x.items():
        i, j = cell
        lid = prob.add_variable(f"l_{i}_{j}")
        sv.link[cell] = lid
        prob.add_row(f"linkx_{i}_{j}", [(lid, 1.0), (xid, -1.0)], Sense.LE, 0.0)
    prob.add_row("link_sum", [(lid, 1.0) for lid in sv.link.values()], Sense.EQ, 1.0)


def _set_siting_objective(prob, sv, grid, spec, params, dist) -> None:
    coeffs: dict[int, float] = {}
    for (i, j), xid in sv.x.items():
        cost, _ = embankment_cell_cost(
            grid.cell_length, spec.water_elevation, float(grid.elevations[i, j]), params
        )
        coeffs[xid] = cost
    for (i, j), lid in sv.link.items():
        excavation, lining = conveyance_cost(spec.flow, float(dist.values[i, j]), params)
        coeffs[lid] = excavation + lining
    prob.set_objective(coeffs, equipment_cost(spec.head_m, spec.power_mw, params))


def build_reference(grid, spec, cost_params=None, *, cands=None, dist=None, level=0,
                    excluded=None, perimeter_min_neighbors=1) -> MipProblem:
    """The siting MIP, built row by row; same arguments as ``build_siting_problem``."""
    params = cost_params or CostParams()
    if cands is None:
        cands = candidate_sets(grid, spec.water_elevation, excluded)
    if dist is None:
        dist = distance_field(grid)
    prob = MipProblem()
    sv = _declare_cell_variables(prob, cands)
    _add_shape_constraints(prob, sv, perimeter_min_neighbors)
    _add_volume_constraint(prob, sv, cands, grid, spec)
    _add_link_constraints(prob, sv)
    _set_siting_objective(prob, sv, grid, spec, params, dist)
    if level >= 1:
        connectivity.add_separating_planes(prob, sv, cands, include_diagonals=level >= 2)
    if level >= 3:
        connectivity.add_tour_constraints(prob, sv, cands)
    return prob
