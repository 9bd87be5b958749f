"""Integer-programming core: problem container and the base siting formulation.

Variables follow the naming scheme ``x_i_j`` (perimeter), ``y_i_j`` (interior),
``z_i_j`` (reservoir), ``l_i_j`` (conveyance link); the scheme is stable and is
what the file exporters emit. Neighbor variables that fall outside the grid or
outside a candidate set are treated as constant zero, which makes the shape
rules well defined at grid edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .costing import (
    CostBreakdown,
    CostParams,
    conveyance_cost,
    embankment_cell_cost,
    equipment_cost,
)
from .errors import InfeasibleProblemError, IntegralityError
from .sizing import SitingSpec
from .terrain import (
    FOUR_NEIGHBORS,
    CandidateSets,
    DistanceField,
    TerrainGrid,
    connected_components,
)

Cell = tuple[int, int]

#: Relative slack on the volume target when storage is recomputed from masks.
VOLUME_RTOL = 1e-6

_DIRECTIONS = ("up", "down", "left", "right")


class VarKind(Enum):
    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VarKind
    lb: float
    ub: float


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: Sense
    rhs: float


class MipProblem:
    """Sparse mixed-integer linear program with named variables and rows."""

    def __init__(self, name: str = "siting"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self.objective: dict[int, float] = {}
        self.objective_constant: float = 0.0
        self._var_index: dict[str, int] = {}
        self._row_names: set[str] = set()

    # -- construction -------------------------------------------------------

    def add_variable(
        self,
        name: str,
        kind: VarKind = VarKind.BINARY,
        lb: float | None = None,
        ub: float | None = None,
    ) -> int:
        if name in self._var_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind is VarKind.BINARY:
            lb, ub = 0.0, 1.0
        else:
            lb = 0.0 if lb is None else float(lb)
            ub = math.inf if ub is None else float(ub)
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        vid = len(self.variables)
        self.variables.append(Variable(name, kind, lb, ub))
        self._var_index[name] = vid
        return vid

    def add_row(
        self, name: str, coeffs: Iterable[tuple[int, float]], sense: Sense, rhs: float
    ) -> int:
        if name in self._row_names:
            raise ValueError(f"duplicate row name {name!r}")
        merged: dict[int, float] = {}
        for vid, coef in coeffs:
            if not 0 <= vid < len(self.variables):
                raise ValueError(f"row {name!r} references unknown variable id {vid}")
            if not math.isfinite(coef):
                raise ValueError(f"row {name!r} has non-finite coefficient on {vid}")
            merged[vid] = merged.get(vid, 0.0) + coef
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r} has non-finite rhs")
        self.rows.append(Row(name, tuple(sorted(merged.items())), sense, float(rhs)))
        self._row_names.add(name)
        return len(self.rows) - 1

    def set_objective(self, coeffs: Mapping[int, float], constant: float = 0.0) -> None:
        for vid, coef in coeffs.items():
            if not 0 <= vid < len(self.variables):
                raise ValueError(f"objective references unknown variable id {vid}")
            if not math.isfinite(coef):
                raise ValueError(f"objective has non-finite coefficient on {vid}")
        if not math.isfinite(constant):
            raise ValueError("objective constant must be finite")
        self.objective = dict(sorted(coeffs.items()))
        self.objective_constant = float(constant)

    # -- queries ------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    def variable_id(self, name: str) -> int:
        return self._var_index[name]

    def values_vector(self, values: Mapping[str, float]) -> np.ndarray:
        """Order a name->value mapping into the internal variable order."""
        vec = np.zeros(len(self.variables))
        for name, value in values.items():
            if name in self._var_index:
                vec[self._var_index[name]] = value
        return vec


@dataclass
class SitingVariables:
    """Cell-indexed handles into the variable families of a siting problem."""

    x: dict[Cell, int] = field(default_factory=dict)
    y: dict[Cell, int] = field(default_factory=dict)
    z: dict[Cell, int] = field(default_factory=dict)
    link: dict[Cell, int] = field(default_factory=dict)


def declare_cell_variables(prob: MipProblem, cands: CandidateSets) -> SitingVariables:
    sv = SitingVariables()
    for i, j in cands.reservoir_cells():
        sv.z[(i, j)] = prob.add_variable(f"z_{i}_{j}")
    for i, j in cands.perimeter_cells():
        sv.x[(i, j)] = prob.add_variable(f"x_{i}_{j}")
    for i, j in cands.interior_cells():
        sv.y[(i, j)] = prob.add_variable(f"y_{i}_{j}")
    return sv


def add_shape_constraints(
    prob: MipProblem,
    sv: SitingVariables,
    cands: CandidateSets,
    perimeter_min_neighbors: int = 1,
) -> None:
    """Reservoir shape rules over the 4-neighborhood.

    Per reservoir cell and direction: z <= x + z_neighbor (a reservoir cell is
    perimeter or is backed by reservoir on every side). Per perimeter cell:
    min_neighbors * x <= sum of neighbor z. Role split z = x + y. Per interior
    cell and direction: y <= z_neighbor.
    """
    if perimeter_min_neighbors not in (1, 3):
        raise ValueError("perimeter_min_neighbors must be 1 (as per the base model) or 3")

    def neighbor(cell: Cell, d: int) -> Cell:
        di, dj = FOUR_NEIGHBORS[d]
        return (cell[0] + di, cell[1] + dj)

    for cell, zid in sv.z.items():
        i, j = cell
        for d, dname in enumerate(_DIRECTIONS):
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
        for d, dname in enumerate(_DIRECTIONS):
            coeffs = [(yid, 1.0)]
            nbr = neighbor(cell, d)
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
            prob.add_row(f"inter_{i}_{j}_{dname}", coeffs, Sense.LE, 0.0)


def volume_coefficients(
    cands: CandidateSets, grid: TerrainGrid, spec: SitingSpec
) -> dict[Cell, float]:
    """Stored volume (m^3) contributed by each interior candidate when flooded."""
    area = grid.cell_area
    return {
        (i, j): (spec.water_elevation - float(grid.elevations[i, j])) * area
        for i, j in cands.interior_cells()
    }


def add_volume_constraint(
    prob: MipProblem,
    sv: SitingVariables,
    cands: CandidateSets,
    grid: TerrainGrid,
    spec: SitingSpec,
) -> None:
    coeffs = volume_coefficients(cands, grid, spec)
    capacity = sum(coeffs.values())
    if capacity < spec.vol_min:
        raise InfeasibleProblemError(
            f"total storable capacity {capacity:.3e} m^3 over {len(coeffs)} interior "
            f"candidates is below the volume target {spec.vol_min:.3e} m^3"
        )
    prob.add_row(
        "volume",
        [(sv.y[cell], coef) for cell, coef in coeffs.items()],
        Sense.GE,
        spec.vol_min,
    )


def add_link_constraints(prob: MipProblem, sv: SitingVariables, cands: CandidateSets) -> None:
    """One conveyance link cell, chosen among active perimeter cells."""
    if not sv.x:
        raise InfeasibleProblemError("no perimeter candidates; cannot place a conveyance link")
    for cell, xid in sv.x.items():
        i, j = cell
        lid = prob.add_variable(f"l_{i}_{j}")
        sv.link[cell] = lid
        prob.add_row(f"linkx_{i}_{j}", [(lid, 1.0), (xid, -1.0)], Sense.LE, 0.0)
    prob.add_row("link_sum", [(lid, 1.0) for lid in sv.link.values()], Sense.EQ, 1.0)


def set_siting_objective(
    prob: MipProblem,
    sv: SitingVariables,
    grid: TerrainGrid,
    spec: SitingSpec,
    params: CostParams,
    dist: DistanceField,
) -> None:
    """Minimize embankment on active perimeter cells plus conveyance at the link.

    Dry perimeter cells cost nothing. The E&M equipment cost is a constant for
    a given (head, capacity) pair and enters as the objective offset.
    """
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


@dataclass
class SitingProblem:
    """A fully built model together with everything needed to interpret it."""

    mip: MipProblem
    variables: SitingVariables
    grid: TerrainGrid
    cands: CandidateSets
    spec: SitingSpec
    cost_params: CostParams
    dist: DistanceField
    level: int


def build_siting_problem(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    *,
    cands: CandidateSets | None = None,
    dist: DistanceField | None = None,
    level: int = 0,
    excluded=None,
    perimeter_min_neighbors: int = 1,
    literal_u_bound: bool = False,
) -> SitingProblem:
    """Assemble the siting MIP at a given connectivity-defense level.

    Levels: 0 none, 1 horizontal/vertical separating planes, 2 planes plus
    diagonals, 3 perimeter tour (TSP) constraints.
    """
    from . import connectivity as _connectivity
    from . import terrain as _terrain

    params = cost_params or CostParams()
    if cands is None:
        cands = _terrain.candidate_sets(grid, spec.water_elevation, excluded)
    if dist is None:
        dist = _terrain.distance_field(grid)
    if dist.values.shape != grid.shape:
        raise ValueError("distance field shape does not match the grid")

    prob = MipProblem()
    sv = declare_cell_variables(prob, cands)
    add_shape_constraints(prob, sv, cands, perimeter_min_neighbors)
    add_volume_constraint(prob, sv, cands, grid, spec)
    add_link_constraints(prob, sv, cands)
    set_siting_objective(prob, sv, grid, spec, params, dist)

    if level >= 1:
        _connectivity.add_separating_planes(prob, sv, cands, include_diagonals=level >= 2)
    if level >= 3:
        _connectivity.add_tour_constraints(prob, sv, cands, literal_u_bound=literal_u_bound)

    return SitingProblem(prob, sv, grid, cands, spec, params, dist, int(level))


# ---------------------------------------------------------------------------
# Solution extraction
# ---------------------------------------------------------------------------


@dataclass
class ReservoirSolution:
    """Physical reading of an incumbent, recomputed from the cell masks."""

    perimeter_mask: np.ndarray
    interior_mask: np.ndarray
    reservoir_mask: np.ndarray
    link_cell: Cell
    storage_m3: float
    area_ha: float
    embankment_length_m: float
    embankment_length_diag_m: float
    embankment_volume_m3: float
    distance_m: float
    costs: CostBreakdown
    objective_value: float
    gap: float | None
    wall_time_s: float
    status: str
    level: int
    n_variables: int
    n_constraints: int
    connected: bool
    n_components: int
    valid: bool = True
    origin: Cell = (0, 0)
    trace: tuple = ()

    def with_origin(self, origin: Cell, full_shape: tuple[int, int]) -> "ReservoirSolution":
        """Re-embed the masks of a clipped window into the full grid frame."""
        r0, c0 = origin
        out = []
        for mask in (self.perimeter_mask, self.interior_mask, self.reservoir_mask):
            full = np.zeros(full_shape, dtype=bool)
            full[r0 : r0 + mask.shape[0], c0 : c0 + mask.shape[1]] = mask
            out.append(full)
        return replace(
            self,
            perimeter_mask=out[0],
            interior_mask=out[1],
            reservoir_mask=out[2],
            link_cell=(self.link_cell[0] + r0, self.link_cell[1] + c0),
            origin=(0, 0),
        )


def _round_binary(name: str, value: float, tol: float) -> bool:
    if abs(value) <= tol:
        return False
    if abs(value - 1.0) <= tol:
        return True
    raise IntegralityError(f"variable {name} = {value} is fractional beyond tolerance {tol}")


def diag_corrected_length(emb_mask: np.ndarray, cell_length: float) -> float:
    """Embankment length with diagonal runs weighted sqrt(2).

    Walks a deterministic spanning tree of each 8-connected embankment
    component, preferring orthogonal steps, and adds (sqrt(2)-1)*Lc per
    unavoidable diagonal tree edge. Reporting estimate only.
    """
    base = float(np.count_nonzero(emb_mask)) * cell_length
    extra_steps = 0
    for comp in connected_components(emb_mask, "eight"):
        cells = set(map(tuple, comp))
        start = min(cells)
        visited = {start}
        stack = [start]
        while stack:
            i, j = stack.pop()
            for di, dj, diagonal in (
                (-1, 0, False), (1, 0, False), (0, -1, False), (0, 1, False),
                (-1, -1, True), (-1, 1, True), (1, -1, True), (1, 1, True),
            ):
                nbr = (i + di, j + dj)
                if nbr in cells and nbr not in visited:
                    visited.add(nbr)
                    stack.append(nbr)
                    extra_steps += diagonal
    return base + (math.sqrt(2) - 1) * cell_length * extra_steps


def _drop_spare_components(
    masks: tuple[np.ndarray, np.ndarray, np.ndarray],
    link: Cell,
    cell_storage: np.ndarray,
    vol_min: float,
) -> list[np.ndarray]:
    """Clear the reservoir components that neither the link nor the volume needs.

    Keeps the 4-connected component of the reservoir mask that holds the link,
    then adds the others in descending order of stored volume until storage
    reaches ``vol_min`` (within ``VOLUME_RTOL``). Every remaining component is
    cleared from the (perimeter, interior, reservoir) masks in place. Dropped
    components touch no kept cell, so the shape rules still hold, and
    embankment cost is never negative, so the cost cannot rise. Returns the
    kept components in ``connected_components`` order.
    """
    components = connected_components(masks[2], "four")
    if len(components) < 2:
        return components
    holds_link = [bool(np.any((c[:, 0] == link[0]) & (c[:, 1] == link[1]))) for c in components]
    stored = [float(cell_storage[c[:, 0], c[:, 1]].sum()) for c in components]
    order = sorted(range(len(components)), key=lambda k: (not holds_link[k], -stored[k]))
    kept: list[int] = []
    total = 0.0
    for k in order:
        if not holds_link[k] and total >= vol_min * (1 - VOLUME_RTOL):
            break
        kept.append(k)
        total += stored[k]
    for k, comp in enumerate(components):
        if k not in kept:
            for mask in masks:
                mask[comp[:, 0], comp[:, 1]] = False
    return [components[k] for k in sorted(kept)]


def extract_solution(
    sp: SitingProblem,
    values: Mapping[str, float],
    *,
    status: str = "optimal",
    objective_value: float | None = None,
    gap: float | None = None,
    wall_time_s: float = 0.0,
    tolerance: float = 1e-6,
) -> ReservoirSolution:
    """Turn solver values into masks and physically recomputed metrics.

    Reservoir components the solution does not need are dropped first (see
    ``_drop_spare_components``); the connectivity verdict, storage, area,
    embankment and costs are then all rebuilt from the kept masks and the
    terrain, never read back from the solver objective.
    """
    grid, spec, params = sp.grid, sp.spec, sp.cost_params
    shape = grid.shape
    x_mask = np.zeros(shape, dtype=bool)
    y_mask = np.zeros(shape, dtype=bool)
    z_mask = np.zeros(shape, dtype=bool)
    link_cells: list[Cell] = []
    for mask, cells, family in (
        (x_mask, sp.variables.x, "x"),
        (y_mask, sp.variables.y, "y"),
        (z_mask, sp.variables.z, "z"),
    ):
        for i, j in cells:
            name = f"{family}_{i}_{j}"
            mask[i, j] = _round_binary(name, values.get(name, 0.0), tolerance)
    for i, j in sp.variables.link:
        name = f"l_{i}_{j}"
        if _round_binary(name, values.get(name, 0.0), tolerance):
            link_cells.append((i, j))

    if not np.any(y_mask):
        raise InfeasibleProblemError("incumbent floods no interior cell; volume target cannot hold")
    if len(link_cells) != 1:
        raise IntegralityError(f"expected exactly one link cell, found {len(link_cells)}")
    link = link_cells[0]

    water = spec.water_elevation
    depth = np.where(y_mask, water - grid.elevations, 0.0)
    components = _drop_spare_components(
        (x_mask, y_mask, z_mask), link, depth * grid.cell_area, spec.vol_min
    )
    storage = float(np.where(y_mask, depth, 0.0).sum()) * grid.cell_area
    area_ha = float(np.count_nonzero(y_mask)) * grid.cell_area / 1e4

    with np.errstate(invalid="ignore"):
        emb_mask = x_mask & (grid.elevations < water)
    emb_cost = 0.0
    emb_volume = 0.0
    for i, j in np.argwhere(emb_mask):
        cost, vol = embankment_cell_cost(grid.cell_length, water, float(grid.elevations[i, j]), params)
        emb_cost += cost
        emb_volume += vol

    excavation, lining = conveyance_cost(spec.flow, float(sp.dist.values[link]), params)
    costs = CostBreakdown(
        embankment=emb_cost,
        conveyance_excavation=excavation,
        conveyance_lining=lining,
        equipment=equipment_cost(spec.head_m, spec.power_mw, params),
    )

    return ReservoirSolution(
        perimeter_mask=x_mask,
        interior_mask=y_mask,
        reservoir_mask=z_mask,
        link_cell=link,
        storage_m3=storage,
        area_ha=area_ha,
        embankment_length_m=float(np.count_nonzero(emb_mask)) * grid.cell_length,
        embankment_length_diag_m=diag_corrected_length(emb_mask, grid.cell_length),
        embankment_volume_m3=emb_volume,
        distance_m=float(sp.dist.values[link]),
        costs=costs,
        objective_value=costs.total if objective_value is None else objective_value,
        gap=gap,
        wall_time_s=wall_time_s,
        status=status,
        level=sp.level,
        n_variables=sp.mip.num_variables,
        n_constraints=sp.mip.num_constraints,
        connected=len(components) == 1,
        n_components=len(components),
        valid=len(components) == 1,
    )


def verify_masks(
    grid: TerrainGrid,
    cands: CandidateSets,
    spec: SitingSpec,
    solution: ReservoirSolution,
    vol_tol: float = VOLUME_RTOL,
) -> list[str]:
    """Check the mask-level feasibility semantics of the base model.

    Returns human-readable violation strings; an empty list means the solution
    satisfies the shape rules and the volume target on this grid.
    """
    x, y, z = solution.perimeter_mask, solution.interior_mask, solution.reservoir_mask
    problems: list[str] = []
    if np.any(x & y):
        problems.append("perimeter and interior masks overlap")
    if not np.array_equal(z, x | y):
        problems.append("reservoir mask is not the union of perimeter and interior")
    if np.any(x & ~cands.perimeter_ok):
        problems.append("perimeter cell outside the perimeter candidate set")
    if np.any(y & ~cands.interior_ok):
        problems.append("interior cell outside the interior candidate set")

    nr, nc = grid.shape
    padded = np.zeros((nr + 2, nc + 2), dtype=bool)
    padded[1:-1, 1:-1] = z
    nbr_count = (
        padded[:-2, 1:-1].astype(int)
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
    )
    all_four = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    if np.any(x & (nbr_count < 1)):
        problems.append("perimeter cell with no reservoir neighbor")
    if np.any(y & ~all_four):
        problems.append("interior cell not surrounded by reservoir cells")

    storage = float(np.where(y, spec.water_elevation - grid.elevations, 0.0).sum()) * grid.cell_area
    if storage < spec.vol_min * (1 - vol_tol):
        problems.append(f"stored volume {storage:.6e} below target {spec.vol_min:.6e}")

    if not cands.perimeter_ok[solution.link_cell]:
        problems.append("link cell is not a perimeter candidate")
    if not x[solution.link_cell]:
        problems.append("link cell is not an active perimeter cell")
    return problems
