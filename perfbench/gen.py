"""Seeded input generators for the siting benchmark.

Every generator draws from the ``numpy.random.Generator`` it is given, so one
``--seed`` fixes every input of a run. The program under test only receives
the resulting grids and specs. The seed moves bowls, pits and noise by small
amounts: each family keeps its shape, and with it the work a case costs.
"""

from __future__ import annotations

import numpy as np

import phs_siting as ps

CELL = 34.0  # m, the Sobradinho DEM cell size
RIVER = 385.0  # m, lower-body water level
POWER_MW = 500.0
ETA = 0.667
WATER = 550.0  # water level of the micro family
MICRO_MAX_CANDIDATES = 18


def river_grid(elev: np.ndarray) -> ps.TerrainGrid:
    elev = np.asarray(elev, dtype=float)
    return ps.TerrainGrid(elev, CELL, elev == RIVER, np.zeros(elev.shape, dtype=bool), RIVER)


def spec_for_volume(vol_min: float) -> ps.SitingSpec:
    """Back-solve the 3 h capacity whose volume target at ``WATER`` is exactly ``vol_min``."""
    head = WATER - RIVER
    power = vol_min * 1000 * 9.81 * ETA * head / (1e6 * 3.0 * 3600)
    return ps.SitingSpec.from_engineering(power, head, 3.0, RIVER, ETA)


def engineering_spec(head: float, hours: float) -> ps.SitingSpec:
    return ps.SitingSpec.from_engineering(POWER_MW, head, hours, RIVER, ETA)


def _gauss(yy, xx, r, c, depth, radius):
    return depth * np.exp(-((yy - r) ** 2 + (xx - c) ** 2) / (2 * radius**2))


def bowl_dem(rng: np.random.Generator, side: int = 256) -> ps.TerrainGrid:
    """Sobradinho-scale DEM: river band, a slope rising away from it, bowls.

    One deep main bowl near the river; two bowls farther out compete with it.
    Compact bowls keep the clipped zoom windows small, so most rungs finish
    far below their time limit. Bowl depths, radii and columns are fixed; the
    seed moves bowls along the river and draws the noise, so each case costs
    about the same work on every seed.
    """
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    elev = _slope(rng, yy, xx)
    elev -= _gauss(yy, xx, rng.uniform(100, 156), 48.0, 195.0, 6.5)
    for r, c in ((32, 150.0), (side - 32, 190.0)):
        elev -= _gauss(yy, xx, r + rng.uniform(-6, 6), c, 180.0, 6.0)
    return _finish(rng, elev)


def _slope(rng, yy, xx):
    elev = 600.0 + 0.4 * xx
    return elev + 6 * np.sin(xx / 9.0 + rng.uniform(0, 6)) * np.cos(yy / 11.0 + rng.uniform(0, 6))


def _finish(rng, elev):
    elev = elev + rng.uniform(0, 2, elev.shape)
    elev[:, :8] = RIVER
    return river_grid(elev)


def micro(rng: np.random.Generator, side: int = 6) -> tuple[ps.TerrainGrid, ps.SitingSpec] | None:
    """Pit-like micro terrain small enough for the exhaustive oracle, or None."""
    elev = 600.0 + rng.uniform(0, 40, (side, side))
    elev[:, 0] = RIVER
    n_deep = int(rng.integers(1, 4))
    cells = {(int(rng.integers(1, side - 2)), int(rng.integers(2, side - 2)))}
    while len(cells) < n_deep:
        r, c = sorted(cells)[int(rng.integers(0, len(cells)))]
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[int(rng.integers(0, 4))]
        if 1 <= r + dr < side - 1 and 2 <= c + dc < side - 1:
            cells.add((r + dr, c + dc))
    for cell in sorted(cells):
        elev[cell] = rng.uniform(470, 520)
    for r, c in sorted(cells):
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nbr = (r + dr, c + dc)
            if 1 <= nbr[0] < side - 1 and 1 <= nbr[1] < side - 1 and nbr not in cells:
                if rng.random() < 0.5:
                    elev[nbr] = rng.uniform(535, 565)
    grid = river_grid(elev)
    cands = ps.candidate_sets(grid, WATER)
    if len(cands.reservoir_cells()) > MICRO_MAX_CANDIDATES or len(cands.perimeter_cells()) < 3:
        return None
    capacity = sum((WATER - grid.elevations[c]) * grid.cell_area for c in cands.interior_cells())
    return grid, spec_for_volume(0.6 * capacity)
