"""Shared terrain builders and case fixtures.

The constructed terrains here are the workhorses of the suite: a single-pit
micro instance, a randomized micro-terrain generator small enough for the
exhaustive oracle, and the two counterexample landscapes that exercise the
connectivity-defense ladder (side-by-side basins caught by row/column planes,
and diagonally interlocked basins that only diagonal planes catch).
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy import _core as core

import phs_siting as ps
from phs_siting.model import Sense, VarKind

CELL = 34.0
RIVER_ELEVATION = 385.0
WATER = 550.0
HEAD = WATER - RIVER_ELEVATION  # 165 m
ETA = 0.667


def add_variable(prob: ps.MipProblem, name: str, kind=VarKind.BINARY, lb=0.0, ub=np.inf) -> int:
    """Declare one variable through the block method; returns its id."""
    return int(prob.add_variables([name], kind, lb, ub)[0])


def add_row(prob: ps.MipProblem, name: str, coeffs, sense: Sense, rhs: float) -> None:
    """Append one row, given as (variable id, coefficient) pairs, through the block method."""
    coeffs = list(coeffs)
    prob.add_rows([name], np.zeros(len(coeffs), dtype=np.int64), [vid for vid, _ in coeffs],
                  [coef for _, coef in coeffs], sense, rhs)


def cell_ids(sv, family: str) -> dict[tuple[int, int], int]:
    """Cell -> variable id of one family (``z``, ``y`` or ``l``) of a siting problem."""
    return dict(zip(map(tuple, sv.cells[family].tolist()), sv.ids(family).tolist()))


def scipy_matrix(prob: ps.MipProblem) -> sparse.csr_array:
    """A SciPy view of ``prob.csr``; it shares the arrays, so mutating it mutates the problem."""
    indptr, indices, data = prob.csr
    return sparse.csr_array((data, indices, indptr), shape=(prob.num_constraints, prob.num_variables))


def named_vector(prob: ps.MipProblem, values) -> np.ndarray:
    """A name -> value mapping as a solution vector in ``prob``'s column
    order; names not given read 0, and a name ``prob`` lacks raises KeyError."""
    position = {name: vid for vid, name in enumerate(prob.variable_names())}
    vec = np.zeros(prob.num_variables)
    for name, value in values.items():
        vec[position[name]] = value
    return vec


def river_grid(elev: np.ndarray, cell_length: float = CELL) -> ps.TerrainGrid:
    elev = np.asarray(elev, dtype=float)
    return ps.TerrainGrid(
        elev,
        cell_length,
        elev == RIVER_ELEVATION,
        np.zeros(elev.shape, dtype=bool),
        RIVER_ELEVATION,
    )


def spec_for_volume(vol_min: float, hours: float = 3.0) -> ps.SitingSpec:
    """Back-solve the capacity that makes the volume target exactly vol_min."""
    power = vol_min * 1000 * 9.81 * ETA * HEAD / (1e6 * hours * 3600)
    return ps.SitingSpec.from_engineering(power, HEAD, hours, RIVER_ELEVATION, ETA)


def pit_grid() -> ps.TerrainGrid:
    """River column plus one deep pit in a high ridge; the canonical micro case."""
    elev = np.full((5, 6), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[2, 3] = 500.0
    return river_grid(elev)


def pit_spec() -> ps.SitingSpec:
    # pit stores 50 m * 34 m * 34 m = 57,800 m^3; ask for a bit less
    return spec_for_volume(50_000.0)


def micro_terrain(seed: int, side: int = 6) -> ps.TerrainGrid:
    """Randomized pit-like micro terrain with at most ~18 candidate cells."""
    rng = np.random.default_rng(seed)
    elev = np.full((side, side), 600.0) + rng.uniform(0, 40, (side, side))
    elev[:, 0] = RIVER_ELEVATION
    n_deep = rng.integers(1, 4)
    r0 = int(rng.integers(1, side - 2))
    c0 = int(rng.integers(2, side - 2))
    cells = {(r0, c0)}
    while len(cells) < n_deep:
        r, c = list(cells)[rng.integers(0, len(cells))]
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[rng.integers(0, 4)]
        rr, cc = r + dr, c + dc
        if 1 <= rr < side - 1 and 2 <= cc < side - 1:
            cells.add((rr, cc))
    for r, c in cells:
        elev[r, c] = rng.uniform(470, 520)
    for r, c in list(cells):
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            rr, cc = r + dr, c + dc
            if 1 <= rr < side - 1 and 1 <= cc < side - 1 and (rr, cc) not in cells:
                if rng.random() < 0.5:
                    elev[rr, cc] = rng.uniform(535, 565)
    return river_grid(elev)


def micro_case(seed: int, fill_fraction: float = 0.6):
    """(grid, spec) for a random micro terrain, or None when uninteresting."""
    grid = micro_terrain(seed)
    try:
        cands = ps.candidate_sets(grid, WATER)
    except ps.InfeasibleProblemError:
        return None
    if len(cands.reservoir_cells()) > 18:
        return None
    capacity = sum(
        (WATER - grid.elevations[i, j]) * grid.cell_area for i, j in cands.interior_cells()
    )
    if capacity <= 0:
        return None
    return grid, spec_for_volume(fill_fraction * capacity)


def two_basin_grid() -> ps.TerrainGrid:
    """Two deep pits in a shallow shelf, saddle between them.

    Flooding both pits separately is cheaper than the single shelf-wide
    reservoir, but the interior columns of the split straddle empty columns,
    so row/column separating planes already cut it (ladder level 1).
    """
    elev = np.full((4, 7), 540.0)
    elev[3, :] = RIVER_ELEVATION
    elev[1, 1] = 500.0
    elev[1, 5] = 500.0
    elev[1, 2:5] = 545.0
    return river_grid(elev)


def two_basin_spec() -> ps.SitingSpec:
    # both pits together store 115,600 m^3; one pit plus the saddle cannot
    return spec_for_volume(115_000.0)


def diagonal_blob_grid() -> ps.TerrainGrid:
    """Interlocked L-shaped basins separated by a deep moat.

    The split floods both Ls: its interior rows and columns are contiguous
    (planes pass) but its anti-diagonals have a gap, so only diagonal planes
    cut it; connecting through the moat costs several tall dams.
    """
    elev = np.full((10, 13), 520.0)
    elev[9, :] = RIVER_ELEVATION
    blob_a = [(r, 1) for r in range(1, 5)] + [(1, c) for c in range(2, 7)]
    blob_b = [(r, 11) for r in range(4, 8)] + [(7, c) for c in range(6, 11)]
    deep = np.zeros((10, 13), dtype=bool)
    for cell in blob_a + blob_b:
        deep[cell] = True
        elev[cell] = 500.0
    collar = np.zeros_like(deep)
    collar[:-1, :] |= deep[1:, :]
    collar[1:, :] |= deep[:-1, :]
    collar[:, :-1] |= deep[:, 1:]
    collar[:, 1:] |= deep[:, :-1]
    collar &= ~deep
    collar[9, :] = False
    elev[collar] = 549.0
    return river_grid(elev)


def diagonal_blob_spec() -> ps.SitingSpec:
    # the 18 deep cells store 1,040,400 m^3; force essentially all of them
    return spec_for_volume(1_040_000.0)


def midsize_grid(side: int = 60) -> ps.TerrainGrid:
    """Rolling 60x60 terrain with several bowls; the best one is deep and
    close to the river, so localization pays off under a tight time budget."""
    rng = np.random.default_rng(23)
    yy, xx = np.mgrid[0:side, 0:side]
    elev = np.full((side, side), 600.0)
    elev += 12 * np.sin(xx / 6.0) * np.cos(yy / 8.0)

    def bowl(r, c, depth, radius):
        d2 = (yy - r) ** 2 + (xx - c) ** 2
        return depth * np.exp(-d2 / (2 * radius**2))

    elev -= bowl(46, 16, 95, 5.0)
    elev -= bowl(10, 44, 70, 4.5)
    elev -= bowl(22, 48, 80, 5.0)
    elev -= bowl(34, 30, 65, 4.5)
    elev -= bowl(52, 36, 60, 4.0)
    elev += rng.uniform(0, 3, elev.shape)
    elev[:, :8] = RIVER_ELEVATION
    return river_grid(elev)


def midsize_spec() -> ps.SitingSpec:
    return ps.SitingSpec.from_engineering(60.0, HEAD, 3.0, RIVER_ELEVATION, ETA)


def bowl_dem():
    """(grid, spec): a 256x256 DEM, a river band and a slope with one deep bowl."""
    yy, xx = np.mgrid[0:256, 0:256].astype(float)
    elev = 450.0 + 2.5 * xx + np.random.default_rng(11).uniform(0, 2, (256, 256))
    elev -= 195.0 * np.exp(-((yy - 128) ** 2 + (xx - 48) ** 2) / (2 * 6.5**2))
    elev[:, :8] = RIVER_ELEVATION
    return river_grid(elev), ps.SitingSpec.from_engineering(500.0, 175.0, 3.0, RIVER_ELEVATION, 0.667)


def bowl_window(**kwargs):
    """A native-resolution window around the main bowl of ``bowl_dem``."""
    grid, spec = bowl_dem()
    window = np.zeros(grid.shape, dtype=bool)
    window[110:147, 30:67] = True
    sub, (r0, c0) = ps.clip(grid, window, 0)
    full = ps.distance_field(grid)
    dist = ps.DistanceField(full.values[r0 : r0 + sub.nrows, c0 : c0 + sub.ncols],
                            sub.cell_length, full.metric)
    return sub, spec, {"dist": dist, **kwargs}


def bowl_basin_dem():
    """(grid, spec): the main bowl of ``bowl_window`` on a 128x128 DEM whose
    slope stands above the water level, so that the bowl is a natural basin."""
    yy, xx = np.mgrid[0:128, 0:128].astype(float)
    elev = 600.0 + 0.4 * xx + np.random.default_rng(11).uniform(0, 2, (128, 128))
    elev -= 195.0 * np.exp(-((yy - 64) ** 2 + (xx - 48) ** 2) / (2 * 6.5**2))
    elev[:, :8] = RIVER_ELEVATION
    return river_grid(elev), ps.SitingSpec.from_engineering(500.0, 175.0, 3.0, RIVER_ELEVATION, 0.667)


def solve_at_level(grid, spec, level, time_limit=None, **kwargs):
    """Build at one defense level, solve with HiGHS, extract the solution."""
    sp = ps.build_siting_problem(grid, spec, level=level, **kwargs)
    res = ps.solve(sp.mip, "highs", ps.SolveLimits(time_limit_s=time_limit))
    if not res.has_incumbent:
        return sp, res, None
    sol = ps.extract_solution(
        sp,
        res.x,
        status=res.status.value,
        objective_value=res.objective,
        gap=res.gap,
        wall_time_s=res.wall_time_s,
    )
    return sp, res, sol


def binding_with(**names) -> types.SimpleNamespace:
    """SciPy's HiGHS binding with ``names`` replaced: what a test patches a
    module's ``_highs`` accessor to return."""
    return types.SimpleNamespace(**{**vars(core), **names})


class FailingHighs(core._Highs):
    """A HiGHS object whose ``run()`` returns kError, as HiGHS's own can."""

    def run(self):
        return core.HighsStatus.kError


def highs_file_optimum(path) -> float:
    """Objective of an exported model file, parsed and solved by HiGHS itself.

    HiGHS's own MPS/LP reader is independent of ``phs_siting.formats``, so this
    checks the writers against an outside parser. The reader comes from SciPy's
    bundled HiGHS binding, the one the solver uses.
    """
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == core.HighsStatus.kOk
    assert highs.run() == core.HighsStatus.kOk
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
    return highs.getInfo().objective_function_value


@pytest.fixture(scope="session")
def two_basin_levels():
    """Level 0 and level 1 solutions of the two-basin terrain (solved once)."""
    grid, spec = two_basin_grid(), two_basin_spec()
    out = {}
    for level in (0, 1):
        _, res, sol = solve_at_level(grid, spec, level)
        assert res.status is ps.SolveStatus.OPTIMAL
        out[level] = sol
    return grid, spec, out


@pytest.fixture(scope="session")
def diagonal_blob_levels():
    """Levels 0-2 of the diagonal-blob terrain (solved once; level 2 is slow)."""
    grid, spec = diagonal_blob_grid(), diagonal_blob_spec()
    out = {}
    for level in (0, 1, 2):
        _, res, sol = solve_at_level(grid, spec, level)
        assert res.status is ps.SolveStatus.OPTIMAL
        out[level] = sol
    return grid, spec, out
