"""Per-row references for the siting model build.

``build_reference`` is the builder the package used before it assembled the
base formulation and the connectivity rows from whole-array blocks: one
variable and one row at a time, over cell -> id dicts (each added through the
block methods as a block of one), for the model over z and y in which the
perimeter indicator is the expression x = z - y. Below level 3, with
``perimeter_min_neighbors`` 1, it applies the builder's column fixing one cell
at a time: z = 1 on the dry perimeter candidates that back each other, the
link only on the cheapest of those and on cheaper cells, and the rows these
fixings satisfy left out, and it writes band rows only for the slices
strictly between the first and the last that hold an interior candidate.
``test_model`` requires the array build to produce exactly the same problem.
With ``full_bands=True`` every slice of the grid gets its band switches and
rows, as the package wrote them before; ``test_model`` requires the same MIP
optimum and LP relaxation bound from both forms.

``build_reference_xyz`` builds the paper's own program with a perimeter column
x per perimeter candidate, the cover rows z <= x + z_neighbor and the role
rows z = x + y, keeps every column and writes every band slice.
``test_model`` requires both programs to have the same MIP optimum and the
same LP relaxation bound.

Both builders give the tour ranks u the kind the package uses, continuous.
``build_reference_integer_ranks`` is the z/y model with the integer ranks the
package used before; ``test_model`` requires the same MIP optimum from both.

``all_ones_optimum`` is the level-0 certificate the package read off a built
model; ``test_strategy`` requires the raster certificate to agree with it.

``oracle_reference`` is the exhaustive oracle the package ran before it
enumerated subsets as bit words with whole-word perimeter tests: a dozen
numpy passes per candidate cell over every subset, then a per-subset Python
loop for connectivity, the link and the winner. ``test_solve`` requires
``oracle_enumerate`` to return exactly its result.

``coarsen_reference`` is the coarse grid as the package built it before it
summed blocks with strided slices: numpy's ``sum(axis=(1, 3))`` over a
(rows, factor, cols, factor) view of the padded grid. ``distance_reference``
is the distance field as scipy's ``distance_transform_edt`` returns it.
``test_terrain`` requires ``aggregate`` and ``distance_field`` to match them
byte for byte.

``drop_spare_components_reference`` is the prune of spare reservoir
components as the package ran it before it labelled the reservoir once: a
list of components from ``connected_components``, one stable sort of them by
(holds the link, stored volume), and per dropped component a clear of its
cells. ``test_model`` requires ``_drop_spare_components`` to leave the same
masks and to keep as many components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from phs_siting.costing import CostParams, conveyance_cost, embankment_cell_cost, equipment_cost
from phs_siting.errors import InfeasibleProblemError
from phs_siting.model import VOLUME_RTOL, MipProblem, Sense, VarKind
from phs_siting.solve import OracleResult
from phs_siting.terrain import (EIGHT_NEIGHBORS, FOUR_NEIGHBORS, TerrainGrid, candidate_sets,
                                connected_components, distance_field)

from conftest import add_row, add_variable

Cell = tuple[int, int]
DIRECTIONS = ("up", "down", "left", "right")


@dataclass
class CellVariables:
    perimeter: list[Cell]
    x: dict[Cell, int] = field(default_factory=dict)  # the paper's program only
    y: dict[Cell, int] = field(default_factory=dict)
    z: dict[Cell, int] = field(default_factory=dict)
    link: dict[Cell, int] = field(default_factory=dict)
    on: set[Cell] = field(default_factory=set)  # z fixed at 1, no column
    links: list[Cell] = field(default_factory=list)  # cells with an l column
    fixed_link: Cell | None = None  # l fixed at 1, no column

    def px(self, cell: Cell, coef: float) -> list[tuple[int, float]]:
        """``coef`` times the perimeter indicator of ``cell``: x, or z - y."""
        if self.x:
            return [(self.x[cell], coef)]
        return [(self.z[cell], coef)] + ([(self.y[cell], -coef)] if cell in self.y else [])


def _neighbor(cell, d):
    di, dj = FOUR_NEIGHBORS[d]
    return (cell[0] + di, cell[1] + dj)


def _conveyance(spec, params, dist, cell) -> float:
    excavation, lining = conveyance_cost(spec.flow, float(dist.values[cell]), params)
    return excavation + lining


def _column_fixing(sv, grid, spec, cands, params, dist) -> None:
    """D: the dry perimeter candidates (no y, no embankment cost) with a dry
    perimeter 4-neighbor, whose z is 1; the link may sit only on c*, the cell
    of D with the cheapest conveyance (the first in row-major order on ties),
    or on a cell whose conveyance is cheaper still. If c* is left alone, the
    link is fixed there."""
    interior = set(cands.interior_cells())
    dry = {
        cell for cell in sv.perimeter if cell not in interior
        and embankment_cell_cost(grid.cell_length, spec.water_elevation,
                                 float(grid.elevations[cell]), params)[0] == 0.0
    }
    sv.on = {cell for cell in dry if any(_neighbor(cell, d) in dry for d in range(4))}
    if not sv.on:
        return
    cost = {cell: _conveyance(spec, params, dist, cell) for cell in sv.perimeter}
    best = min(sorted(sv.on), key=cost.__getitem__)
    sv.links = [cell for cell in sv.perimeter if cell == best or cost[cell] < cost[best]]
    if sv.links == [best]:
        sv.links, sv.fixed_link = [], best


def _declare_cell_variables(prob, sv, cands, xyz: bool) -> None:
    for i, j in cands.reservoir_cells():
        if (i, j) not in sv.on:
            sv.z[(i, j)] = add_variable(prob, f"z_{i}_{j}")
    if xyz:
        for i, j in sv.perimeter:
            sv.x[(i, j)] = add_variable(prob, f"x_{i}_{j}")
    for i, j in cands.interior_cells():
        sv.y[(i, j)] = add_variable(prob, f"y_{i}_{j}")


def _add_cover_and_role_rows(prob, sv) -> None:
    """The paper's rows per reservoir cell: z <= x + z_neighbor, z = x + y."""
    for cell, zid in sv.z.items():
        i, j = cell
        x = [(sv.x[cell], -1.0)] if cell in sv.x else []
        for d, dname in enumerate(DIRECTIONS):
            nbr = _neighbor(cell, d)
            coeffs = [(zid, 1.0)] + x + ([(sv.z[nbr], -1.0)] if nbr in sv.z else [])
            add_row(prob, f"cover_{i}_{j}_{dname}", coeffs, Sense.LE, 0.0)
        coeffs = [(zid, 1.0)] + x + ([(sv.y[cell], -1.0)] if cell in sv.y else [])
        add_row(prob, f"role_{i}_{j}", coeffs, Sense.EQ, 0.0)


def _add_role_rows(prob, sv) -> None:
    """x = z - y >= 0 per interior cell, and x = 0 where it is no perimeter cell."""
    perimeter = set(sv.perimeter)
    for cell, yid in sv.y.items():
        i, j = cell
        sense = Sense.LE if cell in perimeter else Sense.EQ
        add_row(prob, f"role_{i}_{j}", [(yid, 1.0), (sv.z[cell], -1.0)], sense, 0.0)


def _add_shape_constraints(prob, sv, perimeter_min_neighbors) -> None:
    if sv.x:
        _add_cover_and_role_rows(prob, sv)
    else:
        _add_role_rows(prob, sv)

    for cell in sv.perimeter:
        i, j = cell
        if any(_neighbor(cell, d) in sv.on for d in range(4)):
            continue  # a neighbor z is 1: the row reads z - y <= 1
        coeffs = sv.px(cell, float(perimeter_min_neighbors))
        for d in range(4):
            nbr = _neighbor(cell, d)
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
        add_row(prob, f"contact_{i}_{j}", coeffs, Sense.LE, 0.0)

    for cell, yid in sv.y.items():
        i, j = cell
        for d, dname in enumerate(DIRECTIONS):
            coeffs = [(yid, 1.0)]
            nbr = _neighbor(cell, d)
            if nbr in sv.on:
                continue  # y <= 1
            if nbr in sv.z:
                coeffs.append((sv.z[nbr], -1.0))
            add_row(prob, f"inter_{i}_{j}_{dname}", coeffs, Sense.LE, 0.0)


def _add_volume_constraint(prob, sv, cands, grid, spec) -> None:
    coeffs = {
        (i, j): (spec.water_elevation - float(grid.elevations[i, j])) * grid.cell_area
        for i, j in cands.interior_cells()
    }
    if sum(coeffs.values()) < spec.vol_min:
        raise InfeasibleProblemError("total storable capacity is below the volume target")
    add_row(prob, "volume", [(sv.y[cell], coef) for cell, coef in coeffs.items()],
                 Sense.GE, spec.vol_min)


def _add_link_constraints(prob, sv) -> None:
    if not sv.perimeter:
        raise InfeasibleProblemError("no perimeter candidates; cannot place a conveyance link")
    if sv.fixed_link is not None:
        return
    for cell in sv.links:
        i, j = cell
        lid = add_variable(prob, f"l_{i}_{j}")
        sv.link[cell] = lid
        if cell not in sv.on:
            add_row(prob, f"linkx_{i}_{j}", [(lid, 1.0)] + sv.px(cell, -1.0), Sense.LE, 0.0)
    add_row(prob, "link_sum", [(lid, 1.0) for lid in sv.link.values()], Sense.EQ, 1.0)


def _set_siting_objective(prob, sv, grid, spec, params, dist) -> None:
    """Embankment on x, conveyance on l; the z/y program lists only wet cells."""
    coeffs: dict[int, float] = {}
    for (i, j) in sv.perimeter:
        cost, _ = embankment_cell_cost(
            grid.cell_length, spec.water_elevation, float(grid.elevations[i, j]), params
        )
        if sv.x or cost != 0.0:
            coeffs.update(sv.px((i, j), cost))
    for cell, lid in sv.link.items():
        coeffs[lid] = _conveyance(spec, params, dist, cell)
    constant = equipment_cost(spec.head_m, spec.power_mw, params)
    if sv.fixed_link is not None:
        constant += _conveyance(spec, params, dist, sv.fixed_link)
    prob.set_objective(coeffs, constant)


def _add_band_constraints(
    prob: MipProblem,
    tag: str,
    before_name: str,
    after_name: str,
    slices: list[list[int]],
    big_m: float,
    full: bool,
) -> None:
    """One contiguity band over an ordered family of slices of y-variables.

    Per slice s: (1 - sum_s y) <= before_s + after_s, with before_s = 1
    forbidding any y in earlier slices and after_s = 1 forbidding any y in
    later slices (big-M switched). Only the slices strictly between the first
    and the last non-empty one get switches and rows, unless ``full``.
    """
    occupied = [s for s, members in enumerate(slices) if members] or [0]
    span = range(len(slices)) if full else range(occupied[0] + 1, occupied[-1])
    before = {s: add_variable(prob, f"{before_name}_{s}") for s in span}
    after = {s: add_variable(prob, f"{after_name}_{s}") for s in span}
    flat: list[int] = []
    offsets: list[int] = []
    for members in slices:
        offsets.append(len(flat))
        flat.extend(members)
    for s in span:
        coeffs = [(vid, 1.0) for vid in slices[s]]
        coeffs += [(before[s], 1.0), (after[s], 1.0)]
        add_row(prob, f"{tag}gap_{s}", coeffs, Sense.GE, 1.0)
        earlier = flat[: offsets[s]]
        later = flat[offsets[s] + len(slices[s]) :]
        add_row(
            prob,
            f"{tag}pre_{s}",
            [(vid, 1.0) for vid in earlier] + [(before[s], big_m)],
            Sense.LE,
            big_m,
        )
        add_row(
            prob,
            f"{tag}post_{s}",
            [(vid, 1.0) for vid in later] + [(after[s], big_m)],
            Sense.LE,
            big_m,
        )


def add_separating_planes(prob, sv, cands, include_diagonals: bool = False, full: bool = False) -> None:
    """Row/column (and optionally diagonal) contiguity bands on interior cells;
    ``full`` gives every slice of the grid its switches and rows."""
    nr, nc = cands.shape
    big_m = max(1.0, float(len(sv.y)))

    rows: list[list[int]] = [[] for _ in range(nr)]
    cols: list[list[int]] = [[] for _ in range(nc)]
    for (i, j), vid in sv.y.items():
        rows[i].append(vid)
        cols[j].append(vid)
    _add_band_constraints(prob, "row", "up", "down", rows, big_m, full)
    _add_band_constraints(prob, "col", "right", "left", cols, big_m, full)

    if include_diagonals:
        anti: list[list[int]] = [[] for _ in range(nr + nc - 1)]
        main: list[list[int]] = [[] for _ in range(nr + nc - 1)]
        for (i, j), vid in sv.y.items():
            anti[i + j].append(vid)
            main[i - j + nc - 1].append(vid)
        _add_band_constraints(prob, "adg", "adg_b", "adg_a", anti, big_m, full)
        _add_band_constraints(prob, "mdg", "mdg_b", "mdg_a", main, big_m, full)


def add_tour_constraints(prob, sv, cands, rank_kind=VarKind.CONTINUOUS) -> None:
    """Single closed perimeter tour via rank (MTZ-style) ordering."""
    cells = sorted(sv.perimeter)
    perimeter = set(cells)
    if len(cells) < 3:
        raise ValueError(f"perimeter tour needs at least 3 perimeter candidates, got {len(cells)}")
    s_bound = float(len(cells))

    arcs: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    out_arcs: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    in_arcs: dict[tuple[int, int], list[int]] = {c: [] for c in cells}
    for (i, j) in cells:
        for di, dj in EIGHT_NEIGHBORS:
            nbr = (i + di, j + dj)
            if nbr in perimeter:
                wid = add_variable(prob, f"w_{i}_{j}_{nbr[0]}_{nbr[1]}")
                arcs[((i, j), nbr)] = wid
                out_arcs[(i, j)].append(wid)
                in_arcs[nbr].append(wid)

    rank: dict[tuple[int, int], int] = {}
    for (i, j) in cells:
        rank[(i, j)] = add_variable(prob, f"u_{i}_{j}", rank_kind, lb=0.0, ub=s_bound - 1.0)

    for cell in cells:
        i, j = cell
        add_row(
            prob,
            f"deg_out_{i}_{j}",
            [(wid, 1.0) for wid in out_arcs[cell]] + sv.px(cell, -1.0),
            Sense.EQ,
            0.0,
        )
        add_row(
            prob,
            f"deg_in_{i}_{j}",
            [(wid, 1.0) for wid in in_arcs[cell]] + sv.px(cell, -1.0),
            Sense.EQ,
            0.0,
        )
        add_row(
            prob, f"rank_cap_{i}_{j}", [(rank[cell], 1.0)] + sv.px(cell, 1.0 - s_bound),
            Sense.LE, 0.0
        )
        add_row(
            prob,
            f"rank_root_{i}_{j}",
            [(rank[cell], 1.0), (sv.link[cell], s_bound - 1.0)],
            Sense.LE,
            s_bound - 1.0,
        )

    for (a, b), wid in arcs.items():
        add_row(
            prob,
            f"mtz_{a[0]}_{a[1]}_{b[0]}_{b[1]}",
            [(rank[a], 1.0), (rank[b], -1.0), (wid, s_bound), (sv.link[b], -s_bound)],
            Sense.LE,
            s_bound - 1.0,
        )


def _build(grid, spec, xyz, cost_params=None, *, cands=None, dist=None, level=0,
           perimeter_min_neighbors=1,
           rank_kind=VarKind.CONTINUOUS, full_bands=False) -> MipProblem:
    params = cost_params or CostParams()
    if cands is None:
        cands = candidate_sets(grid, spec.water_elevation)
    if dist is None:
        dist = distance_field(grid)
    prob = MipProblem()
    sv = CellVariables(cands.perimeter_cells())
    sv.links = sv.perimeter
    if not xyz and level <= 2 and perimeter_min_neighbors == 1:
        _column_fixing(sv, grid, spec, cands, params, dist)
    _declare_cell_variables(prob, sv, cands, xyz)
    _add_shape_constraints(prob, sv, perimeter_min_neighbors)
    _add_volume_constraint(prob, sv, cands, grid, spec)
    _add_link_constraints(prob, sv)
    _set_siting_objective(prob, sv, grid, spec, params, dist)
    if level >= 1:
        add_separating_planes(prob, sv, cands, include_diagonals=level >= 2,
                              full=full_bands)
    if level >= 3:
        add_tour_constraints(prob, sv, cands, rank_kind)
    return prob


def build_reference(grid, spec, **kwargs) -> MipProblem:
    """The siting MIP over z and y, built row by row; same arguments as
    ``build_siting_problem``."""
    return _build(grid, spec, False, **kwargs)


def build_reference_xyz(grid, spec, **kwargs) -> MipProblem:
    """The paper's program: perimeter columns x, cover rows and z = x + y, and
    switches and rows for every slice of every band."""
    return _build(grid, spec, True, full_bands=True, **kwargs)


def build_reference_integer_ranks(grid, spec, **kwargs) -> MipProblem:
    """The siting MIP over z and y with integer tour ranks u."""
    return _build(grid, spec, False, rank_kind=VarKind.INTEGER, **kwargs)


def all_ones_optimum(sp) -> tuple[np.ndarray, float] | None:
    """The model-level level-0 certificate the package used before it decided
    the same question from the candidate rasters (``certify_level_zero``).

    Given a built level-0 model, it sets every ``z`` and ``y`` column to 1
    and, if ``l`` columns are left, the kept ``l`` of lowest cost (the first
    on ties) to 1. It returns that point and the bound ``objective_constant``
    plus that lowest ``l`` cost, or the constant alone, when every cell's
    ``z`` and ``y`` costs sum to 0 and ``MipProblem.violations`` finds no
    bound, integrality or row broken at tolerance 0; else None. Such a point
    attains a lower bound on every feasible point, so it is optimal.
    """
    if sp.level != 0:
        return None
    mip, sv = sp.mip, sp.variables
    cost = mip.cost_vector()
    net = np.zeros(sp.cands.shape)
    for family in "zy":
        cells = sv.cells[family]
        net[cells[:, 0], cells[:, 1]] += cost[sv.ids(family)]
    if net.any():
        return None
    x = np.zeros(mip.num_variables)
    x[sv.ids("z")] = x[sv.ids("y")] = 1.0
    bound = mip.objective_constant
    links = sv.ids("l")
    if len(links):
        best = links[cost[links].argmin()]
        x[best] = 1.0
        bound += float(cost[best])
    outside, fractional, _, violated = mip.violations(x, 0.0)
    if outside.any() or fractional.any() or violated.any():
        return None
    return x, bound


def oracle_reference(
    grid,
    spec,
    cost_params=None,
    *,
    max_cells: int = 18,
    require_connected: bool = True,
) -> OracleResult:
    """``oracle_enumerate`` as the package ran it per subset: same arguments,
    same ``OracleResult``, the first subset in index order whose cost beats
    the running best by 1e-12 wins."""
    params = cost_params or CostParams()
    cands = candidate_sets(grid, spec.water_elevation)
    dist = distance_field(grid)

    cells = cands.reservoir_cells()
    m = len(cells)
    if m == 0:
        raise InfeasibleProblemError("no reservoir candidates to enumerate")
    if m > max_cells:
        raise ValueError(
            f"search space too large: {m} candidate cells exceed max_cells={max_cells}"
        )
    index = {cell: k for k, cell in enumerate(cells)}

    y_ok = np.zeros(m, dtype=bool)
    req4_ok = np.zeros(m, dtype=bool)
    x_ok = np.zeros(m, dtype=bool)
    req4_mask = np.zeros(m, dtype=np.int64)
    adj4_mask = np.zeros(m, dtype=np.int64)
    vol = np.zeros(m)
    emb = np.zeros(m)
    conv = np.full(m, np.inf)
    for k, (i, j) in enumerate(cells):
        y_ok[k] = cands.interior_ok[i, j]
        x_ok[k] = cands.perimeter_ok[i, j]
        nbr_bits = 0
        nbr_count = 0
        for di, dj in FOUR_NEIGHBORS:
            nbr = (i + di, j + dj)
            if nbr in index:
                nbr_bits |= 1 << index[nbr]
                nbr_count += 1
        adj4_mask[k] = nbr_bits
        req4_mask[k] = nbr_bits
        req4_ok[k] = nbr_count == 4
        if y_ok[k]:
            vol[k] = (spec.water_elevation - float(grid.elevations[i, j])) * grid.cell_area
    i, j = np.array(cells).T
    emb[x_ok] = embankment_cell_cost(grid.cell_length, spec.water_elevation,
                                     grid.elevations[i, j][x_ok], params)[0]
    excavation, lining = conveyance_cost(spec.flow, dist.values[i, j][x_ok], params)
    conv[x_ok] = excavation + lining
    equip = equipment_cost(spec.head_m, spec.power_mw, params)

    n_subsets = (1 << m) - 1
    subsets = np.arange(1, n_subsets + 1, dtype=np.int64)

    # Interior assignment is greedy-maximal: it never hurts cost or volume.
    y_bits = np.zeros_like(subsets)
    for k in range(m):
        if y_ok[k] and req4_ok[k]:
            member = (subsets >> k) & 1
            covered = (subsets & req4_mask[k]) == req4_mask[k]
            y_bits |= (member & covered) << k
    x_bits = subsets & ~y_bits

    feasible = np.ones(n_subsets, dtype=bool)
    volume = np.zeros(n_subsets)
    emb_total = np.zeros(n_subsets)
    for k in range(m):
        x_member = ((x_bits >> k) & 1).astype(bool)
        if not x_ok[k]:
            feasible &= ~x_member
        else:
            feasible &= ~(x_member & ((subsets & adj4_mask[k]) == 0))
            emb_total += emb[k] * x_member
        volume += vol[k] * ((y_bits >> k) & 1)
    feasible &= x_bits != 0
    feasible &= volume >= spec.vol_min * (1 - 1e-9)

    adj_bits = [int(v) for v in adj4_mask]

    def connected(bits: int) -> bool:
        start = bits & -bits
        visited = start
        frontier = start
        while frontier:
            grow = 0
            f = frontier
            while f:
                lsb = f & -f
                grow |= adj_bits[lsb.bit_length() - 1]
                f ^= lsb
            frontier = grow & bits & ~visited
            visited |= frontier
        return visited == bits

    best_cost = math.inf
    best = None
    n_feasible = 0
    for idx in np.flatnonzero(feasible):
        s = int(subsets[idx])
        if require_connected and not connected(s):
            continue
        n_feasible += 1
        xb = int(x_bits[idx])
        link_k = None
        link_cost = math.inf
        b = xb
        while b:
            lsb = b & -b
            k = lsb.bit_length() - 1
            if conv[k] < link_cost:
                link_cost = conv[k]
                link_k = k
            b ^= lsb
        cost = float(emb_total[idx]) + link_cost + equip
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (s, int(y_bits[idx]), xb, link_k)

    if best is None:
        raise InfeasibleProblemError("oracle found no feasible configuration")

    s, yb, xb, link_k = best
    shape = grid.shape
    x_mask = np.zeros(shape, dtype=bool)
    y_mask = np.zeros(shape, dtype=bool)
    z_mask = np.zeros(shape, dtype=bool)
    for k, cell in enumerate(cells):
        if (s >> k) & 1:
            z_mask[cell] = True
        if (yb >> k) & 1:
            y_mask[cell] = True
        if (xb >> k) & 1:
            x_mask[cell] = True
    return OracleResult(
        cost=best_cost,
        perimeter_mask=x_mask,
        interior_mask=y_mask,
        reservoir_mask=z_mask,
        link_cell=cells[link_k],
        n_enumerated=n_subsets,
        n_feasible=n_feasible,
    )


def _blocks(values: np.ndarray, factor: int, fill) -> np.ndarray:
    """``values`` padded with ``fill`` at the bottom and right to whole
    factor x factor blocks, as a (rows, factor, cols, factor) array whose entry
    [i, :, j, :] holds the children of super-cell (i, j)."""
    nr, nc = values.shape
    padded = np.pad(values, ((0, -nr % factor), (0, -nc % factor)), constant_values=fill)
    return padded.reshape(padded.shape[0] // factor, factor, padded.shape[1] // factor, factor)


def coarsen_reference(grid: TerrainGrid, factor: int) -> TerrainGrid:
    nr, nc = grid.shape
    valid = ~_blocks(grid.nodata, factor, True)
    counts = valid.sum(axis=(1, 3))
    sums = np.where(valid, _blocks(grid.elevations, factor, np.nan), 0.0).sum(axis=(1, 3))
    lower_counts = _blocks(grid.lower_mask, factor, False).sum(axis=(1, 3))
    excluded = _blocks(grid.excluded, factor, False).any(axis=(1, 3))

    new_nodata = counts == 0
    with np.errstate(invalid="ignore"):
        new_elev = np.where(new_nodata, np.nan, sums / np.maximum(counts, 1))
    new_lower = (2 * lower_counts > counts) & ~new_nodata
    return TerrainGrid(
        new_elev,
        grid.cell_length * factor,
        new_lower,
        new_nodata,
        grid.lower_elevation,
        grid.xllcorner,
        grid.yllcorner - (new_elev.shape[0] * factor - nr) * grid.cell_length,
        excluded,
    )


def distance_reference(grid: TerrainGrid, metric: str) -> np.ndarray:
    length = grid.cell_length
    horizontal = ndimage.distance_transform_edt(~grid.lower_mask, sampling=(length, length))
    if metric == "horizontal":
        return horizontal
    drop = np.abs(grid.elevations - grid.lower_elevation)
    return np.hypot(horizontal, np.where(np.isfinite(drop), drop, 0.0))


def drop_spare_components_reference(masks, link, cell_storage, vol_min) -> list[np.ndarray]:
    """Clear the reservoir components of ``masks`` (perimeter, interior,
    reservoir) that neither ``link`` nor ``vol_min`` needs, in place; returns
    the kept components."""
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
