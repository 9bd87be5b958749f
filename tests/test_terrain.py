"""Terrain loading, aggregation, clipping, candidates, distances, flood fill."""

import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phs_siting as ps
from phs_siting import terrain
from phs_siting.model import diag_corrected_length
from phs_siting.terrain import cells_to_mask, count_components

from conftest import RIVER_ELEVATION, WATER, diagonal_blob_grid, pit_grid, river_grid, two_basin_grid
from reference_model import coarsen_reference, distance_reference

# --------------------------------------------------------------------------- #
# Loading                                                                      #
# --------------------------------------------------------------------------- #

UNIFORM_ASC = """\
ncols 3
nrows 3
xllcorner 0.0
yllcorner 0.0
cellsize 34.0
NODATA_value -9999
385 385 385
385 385 385
385 385 385
"""


def test_uniform_grid_all_lower(tmp_path):
    path = tmp_path / "flat.asc"
    path.write_text(UNIFORM_ASC)
    grid = ps.load_grid(path, "esri_ascii", ps.ByElevation(385.0, 0.5))
    assert grid.lower_mask.all()
    assert grid.cell_length == 34.0
    assert grid.lower_elevation == 385.0


def test_inconsistent_row_length_rejected(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 4\nnrows 2\ncellsize 1\n1 2 3 4\n1 2 3 4 5\n")
    with pytest.raises(ps.GridFormatError, match="inconsistent row length"):
        ps.load_grid(path, "esri_ascii", ps.ByElevation(1.0))


def test_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 3\nnrows 1\ncellsize 1\n1 x 3\n")
    with pytest.raises(ps.GridFormatError, match="non-numeric"):
        ps.load_grid(path, "esri_ascii", ps.ByElevation(1.0))


def test_unknown_header_key_rejected(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 3\nnrows 3\nfoo 1\ncellsize 1\n" + "1 1 1\n" * 3)
    with pytest.raises(ps.GridFormatError, match="unknown header key"):
        ps.load_grid(path, "esri_ascii", ps.ByElevation(1.0))


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_a_count_that_is_not_a_finite_integer_is_refused(tmp_path, token):
    # nan once raised a bare ValueError, inf and 1e400 an OverflowError
    path = tmp_path / "bad.asc"
    for key in ("ncols", "nrows"):
        path.write_text(UNIFORM_ASC.replace(f"{key} 3", f"{key} {token}"))
        refused = re.escape(f"non-integer ncols/nrows in {path}")
        with pytest.raises(ps.GridFormatError, match=refused):
            ps.load_grid(path, "esri_ascii", ps.ByElevation(385.0))
        with pytest.raises(ps.GridFormatError, match=refused):
            ps.load_mask(path, (3, 3))


@pytest.mark.parametrize("reader", ["esri_ascii", "csv"])
@pytest.mark.parametrize(
    "key,value,check",
    [
        ("cellsize", "inf", "cell_length inf gives no finite positive cell area"),
        ("cellsize", "1e308", "cell_length 1e+308 gives no finite positive cell area"),
        ("cellsize", "1e200", "cell_length 1e+200 gives no finite positive cell area"),
        ("cellsize", "1e-320", "cell_length 1e-320 gives no finite positive cell area"),
        ("xllcorner", "inf", "xllcorner/yllcorner must be finite, got inf, 0.0"),
        ("yllcorner", "nan", "xllcorner/yllcorner must be finite, got 0.0, nan"),
        ("yllcorner", "-inf", "xllcorner/yllcorner must be finite, got 0.0, -inf"),
    ],
    ids=["cellsize-inf", "cellsize-1e308", "cellsize-1e200", "cellsize-1e-320",
         "xllcorner-inf", "yllcorner-nan", "yllcorner-minus-inf"],
)
def test_a_cell_size_or_corner_that_makes_no_grid_is_refused(tmp_path, reader, key, value, check):
    # each once loaded: an infinite, overflowing or zero cell area, or a
    # corner written back into every mask header
    if reader == "esri_ascii":
        path = tmp_path / "dem.asc"
        path.write_text(re.sub(rf"(?m)^{key} .*$", f"{key} {value}", UNIFORM_ASC))
    else:
        path = tmp_path / "dem.csv"
        path.write_text("385,385,385\n385,385,385\n385,385,385\n")
        meta = {"cell_length": "34", "xllcorner": "0", "yllcorner": "0"}
        meta["cell_length" if key == "cellsize" else key] = value
        (tmp_path / "dem.csv.meta").write_text("".join(f"{k} = {v}\n" for k, v in meta.items()))
    with pytest.raises(ps.GridFormatError, match=re.escape(f"{path}: {check}")):
        ps.load_grid(path, reader, ps.ByElevation(385.0))


@pytest.mark.parametrize("repeat,key", [("cellsize 1\ncellsize 50", "cellsize"),
                                        ("cellsize 1\nNODATA_value -1\nnodata_value -9999", "nodata_value")],
                         ids=["cellsize", "nodata_value"])
def test_repeated_header_key_rejected(tmp_path, repeat, key):
    # a second value of one key does not silently win
    path = tmp_path / "bad.asc"
    path.write_text(f"ncols 3\nnrows 3\n{repeat}\n" + "1 1 1\n" * 3)
    with pytest.raises(ps.GridFormatError, match=re.escape(f"repeated header key '{key}' in {path}")):
        ps.load_grid(path, "esri_ascii", ps.ByElevation(1.0))


def test_empty_lower_mask_rejected(tmp_path):
    path = tmp_path / "dry.asc"
    path.write_text("ncols 3\nnrows 3\ncellsize 1\n" + "700 700 700\n" * 3)
    with pytest.raises(ps.InfeasibleProblemError, match="lower-body mask is empty"):
        ps.load_grid(path, "esri_ascii", ps.ByElevation(385.0, 0.5))


@pytest.mark.parametrize("file_shape", [(4, 6), (6, 4)])
def test_a_rectangular_dem_loads_as_it_is(tmp_path, file_shape):
    # no padding: the grid has the file's shape and corners, and a lower
    # mask of that shape marks the river column
    elev = np.full(file_shape, 600.0)
    elev[:, 0] = 385.0
    ps.write_esri_ascii(tmp_path / "dem.asc", elev, 34.0, xllcorner=1000.0, yllcorner=2000.0)
    ps.write_esri_ascii(tmp_path / "lower.asc", (elev == 385.0).astype(float), 34.0, value_format="{:.0f}")
    for lower in (ps.ByElevation(385.0, 0.5), ps.MaskFile(tmp_path / "lower.asc")):
        grid = ps.load_grid(tmp_path / "dem.asc", "esri_ascii", lower)
        assert grid.shape == file_shape and not grid.nodata.any()
        assert (grid.xllcorner, grid.yllcorner) == (1000.0, 2000.0)
        assert np.array_equal(grid.lower_mask, elev == 385.0)
    with pytest.raises(TypeError):
        ps.load_grid(tmp_path / "dem.asc", "esri_ascii", ps.ByElevation(385.0), pad_nonsquare=True)


@pytest.mark.parametrize("file_shape", [(4, 6), (6, 4)])
def test_masks_must_have_the_dems_shape(tmp_path, file_shape):
    elev = np.full(file_shape, 600.0)
    elev[:, 0] = 385.0
    ps.write_esri_ascii(tmp_path / "dem.asc", elev, 34.0)
    grid = ps.load_grid(tmp_path / "dem.asc", "esri_ascii", ps.ByElevation(385.0))
    rows, cols = file_shape
    mask = np.zeros(file_shape)
    mask[1, 3] = mask[3, 3] = 1
    ps.write_esri_ascii(tmp_path / "mask.asc", mask, 34.0, value_format="{:.0f}")
    excluded = ps.load_mask(tmp_path / "mask.asc", grid.shape)
    assert excluded.shape == file_shape and excluded.dtype == bool
    assert np.argwhere(excluded).tolist() == [[1, 3], [3, 3]]
    cands = ps.candidate_sets(dataclasses.replace(grid, excluded=excluded), 650.0)
    assert not cands.reservoir_ok[1, 3] and cands.reservoir_ok[1, 2]

    # the transposed shape and the square that padding once made are refused
    for shape in ((cols, rows), (max(file_shape),) * 2):
        ps.write_esri_ascii(tmp_path / "odd.asc", np.zeros(shape), 34.0, value_format="{:.0f}")
        refused = rf"mask shape \({shape[0]}, {shape[1]}\) does not match DEM \({rows}, {cols}\)"
        with pytest.raises(ps.GridFormatError, match=refused):
            ps.load_mask(tmp_path / "odd.asc", grid.shape)
        with pytest.raises(ps.GridFormatError, match=refused):
            ps.load_grid(tmp_path / "dem.asc", "esri_ascii", ps.MaskFile(tmp_path / "odd.asc"))


def test_a_lower_mask_over_nodata_cells_is_refused(tmp_path):
    dem = tmp_path / "dem.asc"
    dem.write_text("ncols 3\nnrows 3\ncellsize 34\nNODATA_value -9999\n"
                   "385 500 600\n385 500 600\n-9999 500 600\n")
    mask = tmp_path / "mask.asc"
    mask.write_text("ncols 3\nnrows 3\ncellsize 34\n1 0 0\n1 0 0\n1 0 0\n")
    with pytest.raises(ps.GridFormatError) as info:
        ps.load_grid(dem, "esri_ascii", ps.MaskFile(mask))
    assert str(info.value) == f"{dem}: lower_mask overlaps NODATA cells"


def test_csv_grid_with_sidecar(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("385,385,500\n385,600,600\n385,600,600\n")
    (tmp_path / "grid.csv.meta").write_text("cell_length = 34\nlower_elevation = 385\n")
    grid = ps.load_grid(path, "csv", ps.ByElevation(385.0, 0.5))
    assert grid.cell_length == 34.0
    assert grid.lower_mask.sum() == 4


@pytest.mark.parametrize(
    "meta,message",
    [
        ("cell_length = 34\nnodata=-9999\n", "unknown sidecar key 'nodata'"),
        ("cell_length = 34\ncell_length = 50\n", "repeated sidecar key 'cell_length'"),
        ("cell_length = 34\nnodata_value = -1\nNODATA_value = -9999\n", "repeated sidecar key 'NODATA_value'"),
    ],
    ids=["mistyped", "repeated", "repeated-other-case"],
)
def test_csv_sidecar_takes_each_known_key_once(tmp_path, meta, message):
    # a mistyped nodata_value once left -9999 cells in the grid as elevations
    path = tmp_path / "grid.csv"
    path.write_text("385,385,500\n385,600,600\n-9999,600,600\n")
    (tmp_path / "grid.csv.meta").write_text(meta)
    with pytest.raises(ps.GridFormatError, match=re.escape(f"{message} in {tmp_path / 'grid.csv.meta'}")):
        ps.load_grid(path, "csv", ps.ByElevation(385.0, 0.5))


def test_csv_missing_sidecar(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("385,385\n385,385\n")
    with pytest.raises(ps.GridFormatError, match="sidecar"):
        ps.load_grid(path, "csv", ps.ByElevation(385.0))


def test_mask_file_lower_spec(tmp_path):
    dem = tmp_path / "dem.asc"
    dem.write_text("ncols 3\nnrows 3\ncellsize 34\n385 500 600\n385 500 600\n385 500 600\n")
    mask = tmp_path / "mask.asc"
    mask.write_text("ncols 3\nnrows 3\ncellsize 34\n1 0 0\n1 0 0\n1 0 0\n")
    grid = ps.load_grid(dem, "esri_ascii", ps.MaskFile(mask))
    assert grid.lower_mask[:, 0].all() and grid.lower_mask.sum() == 3
    assert grid.lower_elevation == 385.0  # median over mask cells


def test_mask_file_shape_must_match_dem(tmp_path):
    dem = tmp_path / "dem.asc"
    dem.write_text("ncols 3\nnrows 3\ncellsize 34\n385 500 600\n385 500 600\n385 500 600\n")
    mask = tmp_path / "mask.asc"
    mask.write_text("ncols 2\nnrows 3\ncellsize 34\n1 0\n1 0\n1 0\n")
    with pytest.raises(ps.GridFormatError, match=r"mask shape \(3, 2\) does not match DEM \(3, 3\)"):
        ps.load_grid(dem, "esri_ascii", ps.MaskFile(mask))
    assert not ps.load_mask(mask, (3, 2))[:, 1].any()


@pytest.mark.parametrize("value", ["-9999", "2", "0.5"])
def test_mask_file_holds_only_zeros_and_ones(tmp_path, value):
    # a no-data or other nonzero value is not read as True
    dem = tmp_path / "dem.asc"
    dem.write_text("ncols 3\nnrows 3\ncellsize 34\n385 500 600\n385 500 600\n385 500 600\n")
    mask = tmp_path / "mask.asc"
    mask.write_text(f"ncols 3\nnrows 3\ncellsize 34\nNODATA_value -9999\n1 0 0\n1 0 {value}\n1 0 0\n")
    with pytest.raises(ps.GridFormatError, match=rf"mask value {value} at \(row, col\) \(1, 2\)"):
        ps.load_grid(dem, "esri_ascii", ps.MaskFile(mask))


def test_esri_write_read_round_trip(tmp_path):
    elev = np.full((5, 5), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    elev[2, 3] = 512.25
    grid = river_grid(elev)
    path = tmp_path / "out.asc"
    ps.write_esri_ascii(path, grid.elevations, grid.cell_length, value_format="{:.10g}")
    back = ps.load_grid(path, "esri_ascii", ps.ByElevation(RIVER_ELEVATION, 0.5))
    assert np.allclose(back.elevations, grid.elevations)
    assert np.array_equal(back.lower_mask, grid.lower_mask)


def test_sobradinho_counts_when_dem_available(sobradinho_dem=None):
    # Full-scale check of the case-study DEM: 266x266 cells, 19,755 of the
    # 70,756 cells in the lower reservoir at 385 m. Runs only when the DEM
    # (from the public data repository) is placed under data/.
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "data" / "sobradinho.asc"
    if not path.exists():
        pytest.skip("Sobradinho DEM not present under data/")
    grid = ps.load_grid(path, "esri_ascii", ps.ByElevation(385.0, 0.5))
    assert grid.shape == (266, 266)
    assert grid.valid_cell_count() == 70756
    assert int(grid.lower_mask.sum()) == 19755


# --------------------------------------------------------------------------- #
# Aggregation                                                                  #
# --------------------------------------------------------------------------- #


def test_aggregate_identity():
    grid = pit_grid()
    assert ps.aggregate(grid, 1) is grid


def test_aggregate_side_guard():
    elev = _square_grid(7)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((7, 7), bool), 300.0)
    with pytest.raises(ValueError, match="collapses the grid"):
        ps.aggregate(grid, 4)


def _square_grid(n, fill=300.0):
    elev = np.full((n, n), fill)
    return elev


def test_aggregate_mean_and_majority():
    elev = _square_grid(6)
    elev[0, 0], elev[0, 1], elev[1, 0], elev[1, 1] = 100, 100, 200, 200
    lower = np.zeros((6, 6), bool)
    lower[2:4, 0] = True  # 2 of 4 children: tie -> not lower
    lower[4:6, 0:2] = True
    lower[4, 1] = False  # 3 of 4 children -> lower
    grid = ps.TerrainGrid(elev, 10.0, lower, np.zeros((6, 6), bool), 300.0)
    coarse = ps.aggregate(grid, 2)
    assert coarse.shape == (3, 3)
    assert coarse.cell_length == 20.0
    assert coarse.elevations[0, 0] == pytest.approx(150.0)
    assert not coarse.lower_mask[1, 0]  # tie resolves to false
    assert coarse.lower_mask[2, 0]  # strict majority


def test_aggregate_nodata_rules():
    elev = _square_grid(6)
    nodata = np.zeros((6, 6), bool)
    nodata[0:2, 2:4] = True  # whole block
    nodata[0, 4] = True  # partial block
    elev[nodata] = np.nan
    elev[1, 4], elev[0, 5], elev[1, 5] = 120.0, 90.0, 90.0
    grid = ps.TerrainGrid(elev, 10.0, np.zeros((6, 6), bool), nodata, 50.0)
    coarse = ps.aggregate(grid, 2)
    assert coarse.nodata[0, 1]
    assert not coarse.nodata[0, 2]
    assert coarse.elevations[0, 2] == pytest.approx(100.0)  # mean of 3 valid children


def test_aggregate_pads_nondividing_factor():
    elev = _square_grid(7)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((7, 7), bool), 300.0)
    coarse = ps.aggregate(grid, 2)
    assert coarse.shape == (4, 4)
    # edge blocks keep their single valid child; padding never forms a block alone
    assert not coarse.nodata.any()
    assert coarse.lower_mask[3, 3]
    assert coarse.elevations[3, 3] == pytest.approx(300.0)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2))
@settings(max_examples=20, deadline=None)
def test_aggregate_composition_shape(a, b):
    n = 24
    rng = np.random.default_rng(0)
    elev = rng.uniform(100, 200, (n, n))
    grid = ps.TerrainGrid(elev, 5.0, elev < 110, np.zeros((n, n), bool), 105.0)
    once = ps.aggregate(ps.aggregate(grid, a), b)
    direct = ps.aggregate(grid, a * b)
    assert once.shape == direct.shape
    assert np.allclose(once.elevations, direct.elevations)


def _random_grid(rng, nrows, ncols, cell_length=30.0):
    """Elevations at a random scale with some -0.0 cells, a random share of
    NODATA (0 to 97%) and a random lower body among the valid cells."""
    scale = 10 ** rng.uniform(-2, 3)
    elev = rng.normal(rng.uniform(-1, 1), 1, (nrows, ncols)) * scale
    elev[rng.random((nrows, ncols)) < 0.05] = -0.0
    nodata = rng.random((nrows, ncols)) < rng.uniform(0, 0.97)
    elev[nodata] = np.nan
    lower = (rng.random((nrows, ncols)) < rng.uniform(0.01, 0.6)) & ~nodata
    return ps.TerrainGrid(elev, cell_length, lower, nodata, float(rng.normal()) * scale,
                          float(rng.uniform(-1e5, 1e5)), float(rng.uniform(-1e5, 1e5)))


def _same_grid_bytes(a, b):
    for name in ("elevations", "lower_mask", "nodata", "excluded"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (a.cell_length, a.lower_elevation, a.xllcorner, a.yllcorner) == (
        b.cell_length, b.lower_elevation, b.xllcorner, b.yllcorner)


@pytest.mark.parametrize("factor", [*range(2, 18), 150])
def test_aggregate_matches_block_reference(factor):
    """The strided block sums give numpy's 4-D block sums bit for bit, on
    ragged sides too; factor 150 takes numpy's pairwise halves, cut at 72."""
    rng = np.random.default_rng(factor)
    for _ in range(2 if factor > 128 else 4):
        nrows, ncols = rng.integers(2 * factor + 1, 5 * factor + 8, size=2)
        grid = _random_grid(rng, int(nrows), int(ncols))
        _same_grid_bytes(ps.aggregate(grid, factor), coarsen_reference(grid, factor))


@pytest.mark.parametrize("cell_length", [30.87, 8.5, 0.3, 1 / 3, 92.77777, 1e-3, 34.0])
def test_distance_field_matches_scipy_edt(cell_length):
    """scipy's own distances, by bytes, at cell lengths whose ties pick other
    lower cells unless the feature transform is told the cell length."""
    rng = np.random.default_rng(int(cell_length * 1000))
    for _ in range(12):
        nrows, ncols = rng.integers(3, 60, size=2)
        grid = _random_grid(rng, int(nrows), int(ncols), cell_length)
        if not grid.lower_mask.any():
            continue
        for metric in ("horizontal", "slant"):
            field = ps.distance_field(grid, metric).values
            assert field.tobytes() == distance_reference(grid, metric).tobytes(), metric


@st.composite
def _stage_cases(draw):
    """(grid, factor, corners, metric): a random DEM with NODATA and excluded
    cells, sides that the factor need not divide, one of four lower-body
    layouts drawn on the coarse grid (several bodies, a tie-rich lattice,
    single cells, a band) or none, plus scattered fine lower cells, a
    non-dyadic cell length, and a window whose corners may sit on the grid's
    edges."""
    factor = draw(st.integers(1, 5))
    shape = tuple(draw(st.integers(2 * factor + 1, 9 * factor + 6)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = np.zeros((-(-shape[0] // factor), -(-shape[1] // factor)), dtype=bool)
    layout = draw(st.sampled_from(["bodies", "lattice", "cells", "band", "scattered"]))
    if layout == "bodies":
        for _ in range(int(rng.integers(1, 4))):
            (r, c), (h, w) = rng.integers(0, coarse.shape), rng.integers(1, 4, size=2)
            coarse[r : r + h, c : c + w] = True
    elif layout == "lattice":  # equidistant lower cells: ties everywhere
        (a, b), (p, q) = rng.integers(0, 3, size=2), rng.integers(1, 5, size=2)
        coarse[a::p, b::q] = True
    elif layout == "cells":
        coarse[tuple(rng.integers(0, coarse.shape, size=(int(rng.integers(1, 4)), 2)).T)] = True
    elif layout == "band":
        coarse[:, : int(rng.integers(1, 3))] = True
    lower = np.kron(coarse, np.ones((factor, factor), dtype=bool))[: shape[0], : shape[1]]
    lower |= rng.random(shape) < 0.03
    nodata = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    lower &= ~nodata
    elev = rng.normal(500.0, 60.0, shape)
    elev[nodata] = np.nan
    excluded = rng.random(shape) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    grid = ps.TerrainGrid(elev, draw(st.sampled_from([34.0, 30.87, 1 / 3, 8.5, 272.0, 0.1, 12.345678])),
                          lower, nodata, 480.0, float(rng.uniform(-1e5, 1e5)),
                          float(rng.uniform(-1e5, 1e5)), excluded)
    corners = np.sort([[draw(st.integers(0, n - 1)) for n in shape] for _ in range(2)], axis=0)
    for k in range(4):  # each side of the window may sit on the grid's edge
        if draw(st.booleans()):
            corners[k // 2, k % 2] = (0, 0, *shape)[k] - k // 2
    return grid, factor, corners, draw(st.sampled_from(["horizontal", "slant"]))


def _tie_on_the_reach_radius():
    """A lower cell exactly R from the window ties, at its corner (5, 0),
    with the cell that sets R: offsets (-5, 0) and (3, 4), whose distances
    differ in the last bit at a cell length of 1/3. The box must hold both."""
    lower = np.zeros((9, 5), dtype=bool)
    lower[0, 0] = lower[8, 4] = True
    grid = ps.TerrainGrid(np.full((9, 5), 500.0), 1 / 3, lower, np.zeros((9, 5), dtype=bool), 480.0)
    return grid, 1, np.array([(5, 0), (7, 2)]), "horizontal"


@given(_stage_cases())
@example(_tie_on_the_reach_radius())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_stage_terrain_is_a_window_of_the_coarse_grid_and_its_field(case):
    """Byte for byte what clip and scipy's EDT give on the whole coarse grid;
    a super-cell is excluded when any of its children is."""
    grid, factor, corners, metric = case
    coarse = coarsen_reference(grid, factor) if factor > 1 else grid
    if not coarse.lower_mask.any():
        with pytest.raises(ps.InfeasibleProblemError, match="vanished at aggregation factor"):
            ps.stage_terrain(grid, factor, corners, metric)
        return
    sub, origin, dist = ps.stage_terrain(grid, factor, corners, metric)
    want, (r0, c0) = ps.clip(coarse, corners // factor, 0)
    _same_grid_bytes(sub, want)
    assert origin == (r0, c0)
    field = distance_reference(coarse, metric)[r0 : r0 + want.nrows, c0 : c0 + want.ncols]
    assert dist.values.tobytes() == np.ascontiguousarray(field).tobytes()
    assert (dist.cell_length, dist.metric) == (want.cell_length, metric)


def test_a_stage_is_kept_per_factor_window_and_metric():
    grid = _ridge_grid()
    stage = ps.stage_terrain(grid, 2, [(0, 0), (11, 11)])
    # corners in the same coarse cells cut the same window
    assert ps.stage_terrain(grid, 2, np.array([(1, 1), (10, 10)])) is stage
    assert ps.stage_terrain(grid, 2, [(0, 0), (11, 11)], "slant") is not stage
    assert ps.stage_terrain(grid, 2, [(4, 4), (11, 11)]) is not stage
    assert ("aggregate", 2) not in grid._derived  # no coarse grid of the whole DEM is kept


def _rebuilt(grid):
    """The same grid built anew, with nothing derived from it kept yet."""
    return ps.TerrainGrid(grid.elevations, grid.cell_length, grid.lower_mask, grid.nodata,
                          grid.lower_elevation, grid.xllcorner, grid.yllcorner, grid.excluded)


def _ridge_grid():
    elev = np.random.default_rng(3).uniform(560, 640, (12, 12))
    elev[:, 0:3] = RIVER_ELEVATION  # a lower body at factors 2, 3 and 4
    elev[5:7, 5:7] = 500.0
    return river_grid(elev)


def test_grid_keeps_coarse_grids_and_distance_fields():
    grid = _ridge_grid()
    factors, metrics = (2, 3, 4), ("horizontal", "slant")
    for factor in factors:
        assert ps.aggregate(grid, factor) is ps.aggregate(grid, factor)
    for metric in metrics:
        assert ps.distance_field(grid, metric) is ps.distance_field(grid, metric)
    assert len(grid._derived) == len(factors) + len(metrics)  # one entry each
    assert ps.distance_field(grid, "slant") is not ps.distance_field(grid, "horizontal")

    fresh = _rebuilt(grid)
    for factor in factors:
        kept, new = ps.aggregate(grid, factor), ps.aggregate(fresh, factor)
        assert np.array_equal(kept.elevations, new.elevations, equal_nan=True)
        assert np.array_equal(kept.lower_mask, new.lower_mask)
        assert np.array_equal(kept.nodata, new.nodata)
        assert (kept.cell_length, kept.lower_elevation, kept.xllcorner, kept.yllcorner) == (
            new.cell_length, new.lower_elevation, new.xllcorner, new.yllcorner)
        # a coarse grid keeps its own distance field
        assert ps.distance_field(kept) is ps.distance_field(ps.aggregate(grid, factor))
        assert np.array_equal(ps.distance_field(kept).values, ps.distance_field(new).values)
    for metric in metrics:
        kept, new = ps.distance_field(grid, metric), ps.distance_field(fresh, metric)
        assert kept.metric == new.metric and kept.cell_length == new.cell_length
        assert np.array_equal(kept.values, new.values)
    # a grid made from another by replace starts with nothing kept
    assert dataclasses.replace(grid, lower_elevation=390.0)._derived == {}


def test_a_grid_with_other_exclusions_starts_with_nothing_kept():
    grid = _ridge_grid()
    stage = ps.stage_terrain(grid, 2, [(4, 4), (11, 11)])
    coarse, field = ps.aggregate(grid, 2), ps.distance_field(grid)
    barred = dataclasses.replace(grid, excluded=[(6, 6)])
    assert barred._derived == {}
    assert ps.aggregate(barred, 2) is not coarse and ps.distance_field(barred) is not field
    assert np.argwhere(ps.aggregate(barred, 2).excluded).tolist() == [[3, 3]]
    assert np.argwhere(ps.stage_terrain(barred, 2, [(4, 4), (11, 11)])[0].excluded).tolist() == [[1, 1]]
    assert not coarse.excluded.any() and not stage[0].excluded.any()


def test_cells_and_a_mask_build_the_same_grid():
    grid = _ridge_grid()
    assert grid.excluded.shape == grid.shape and not grid.excluded.any()
    mask = np.zeros(grid.shape, dtype=bool)
    mask[[1, 7], [2, 9]] = True
    by_cells = dataclasses.replace(grid, excluded=[(1, 2), (7, 9)])
    by_mask = dataclasses.replace(grid, excluded=mask)
    for barred in (by_cells, by_mask):
        assert barred.excluded.dtype == bool and not barred.excluded.flags.writeable
        assert barred.excluded.tobytes() == mask.tobytes()
    mask[0, 0] = True  # the grid keeps its own copy
    assert not by_mask.excluded[0, 0]


def test_aggregate_and_clip_carry_the_excluded_window():
    grid = dataclasses.replace(_ridge_grid(), excluded=[(5, 5), (0, 11), (11, 3)])
    for factor, want in ((2, [[0, 5], [2, 2], [5, 1]]), (5, [[0, 2], [1, 1], [2, 0]])):
        coarse = ps.aggregate(grid, factor)  # factor 5 leaves ragged blocks
        assert np.argwhere(coarse.excluded).tolist() == want
        _same_grid_bytes(coarse, coarsen_reference(grid, factor))
    sub, (r0, c0) = ps.clip(grid, [(4, 4), (6, 6)], 1)
    assert np.argwhere(sub.excluded).tolist() == [[5 - r0, 5 - c0]]
    sub, (r0, c0) = ps.clip(grid, [(0, 10)], 0)  # widened to 3x3 at the corner
    assert np.argwhere(sub.excluded).tolist() == [[0 - r0, 11 - c0]]


def test_clip_window_keeps_its_own_entries():
    grid = _ridge_grid()
    full = ps.distance_field(grid)
    window = np.zeros(grid.shape, dtype=bool)
    window[4:8, 0:8] = True
    sub, (r0, c0) = ps.clip(grid, window, 0)
    assert sub._derived == {}
    kept = ps.distance_field(sub)
    assert kept is not full and ps.distance_field(sub) is kept
    assert list(sub._derived) == [("distance_field", "horizontal")]
    assert np.array_equal(kept.values, ps.distance_field(_rebuilt(sub)).values)
    assert ps.distance_field(grid) is full


def test_clip_window_is_a_read_only_view_of_the_checked_grid():
    grid = _ridge_grid()
    sub, (r0, c0) = ps.clip(grid, [(4, 2), (8, 6)], 1)
    checked = _rebuilt(sub)  # the same window, checked and copied
    for name in ("elevations", "lower_mask", "nodata", "excluded"):
        view, whole = getattr(sub, name), getattr(grid, name)
        assert np.shares_memory(view, whole) and not view.flags.writeable
        assert np.array_equal(view, whole[r0 : r0 + sub.nrows, c0 : c0 + sub.ncols])
        assert np.array_equal(view, getattr(checked, name))
    scalars = ("cell_length", "lower_elevation", "xllcorner", "yllcorner", "_derived")
    assert [getattr(sub, k) for k in scalars] == [getattr(checked, k) for k in scalars]


def test_threads_sharing_a_grid_get_one_entry_per_key():
    grid = _ridge_grid()
    results, errors = [], []

    def work():
        try:
            coarse = ps.aggregate(grid, 2)
            results.append((coarse, ps.distance_field(grid), ps.distance_field(coarse),
                             ps.stage_terrain(grid, 2, [(4, 4), (11, 11)])))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(results) == len(threads)
    for k in range(4):  # a race may compute an entry twice, but every caller gets one object
        assert len({id(r[k]) for r in results}) == 1


def test_failed_derivations_are_not_kept():
    grid = _ridge_grid()
    with pytest.raises(ValueError, match="unknown distance metric"):
        ps.distance_field(grid, "manhattan")
    with pytest.raises(ValueError, match="collapses the grid"):
        ps.aggregate(grid, 6)
    assert grid._derived == {}


# --------------------------------------------------------------------------- #
# Clipping                                                                     #
# --------------------------------------------------------------------------- #


def test_clip_single_cell_margin():
    elev = _square_grid(20)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((20, 20), bool), 300.0)
    sub, offset = ps.clip(grid, [(5, 5)], 2)
    assert sub.shape == (5, 5)
    assert offset == (3, 3)


def test_clip_truncated_at_boundary():
    elev = _square_grid(20)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((20, 20), bool), 300.0)
    sub, offset = ps.clip(grid, [(0, 0)], 3)
    assert offset == (0, 0)
    assert sub.shape == (4, 4)


def test_clip_rectangular_box():
    elev = _square_grid(30)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((30, 30), bool), 300.0)
    mask = np.zeros((30, 30), bool)
    mask[10:20, 12:18] = True  # 10 x 6 bounding box
    sub, offset = ps.clip(grid, mask, 4)
    assert sub.shape == (18, 14)
    assert offset == (6, 8)


@pytest.mark.parametrize("cell,offset", [((0, 0), (0, 0)), ((2, 2), (1, 1)), ((4, 4), (2, 2))])
def test_clip_widens_a_window_below_the_minimum_side(cell, offset):
    # one cell and no margin: the window grows a cell each way, stopping at
    # the grid edge, until it has the minimum side of 3
    elev = _square_grid(5)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((5, 5), bool), 300.0)
    sub, origin = ps.clip(grid, [cell], 0)
    assert sub.shape == (3, 3) and origin == offset
    assert np.array_equal(sub.elevations, elev[offset[0] : offset[0] + 3, offset[1] : offset[1] + 3])


def test_clip_empty_mask_rejected():
    grid = pit_grid()
    with pytest.raises(ValueError, match="empty"):
        ps.clip(grid, np.zeros(grid.shape, bool), 2)


@pytest.mark.parametrize("margin", [0, 1, 3])
def test_clip_takes_the_box_of_cells_as_of_their_mask(margin):
    # cells and the mask of the same cells give the same window and sub-grid
    elev = _square_grid(12)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((12, 12), bool), 300.0,
                          xllcorner=100.0, yllcorner=200.0)
    rng = np.random.default_rng(margin)
    for n in (1, 2, 5):
        cells = rng.integers(0, 12, (n, 2))
        for given in (cells, [tuple(c) for c in cells.tolist()]):
            sub, origin = ps.clip(grid, given, margin)
            want, want_origin = ps.clip(grid, cells_to_mask(cells, grid.shape), margin)
            assert origin == want_origin
            for name in ("elevations", "lower_mask", "nodata"):
                assert np.array_equal(getattr(sub, name), getattr(want, name))
            assert (sub.cell_length, sub.lower_elevation, sub.xllcorner, sub.yllcorner) == \
                (want.cell_length, want.lower_elevation, want.xllcorner, want.yllcorner)


def test_clip_reads_a_number_mask_of_the_grids_shape_as_a_mask():
    # read as (i, j) pairs, as it once was, this mask clipped the window at (0, 0)
    grid = pit_grid()
    mask = np.zeros(grid.shape)
    mask[2, 3] = 1.0
    sub, origin = ps.clip(grid, mask, 0)
    want, want_origin = ps.clip(grid, mask == 1, 0)
    assert origin == want_origin == (1, 2) and sub.shape == want.shape
    mask[0, 0] = 3.0
    with pytest.raises(ValueError, match=r"mask value 3 at cell \(0, 0\) is not 0 or 1"):
        ps.clip(grid, mask, 0)


def test_clip_checks_cells_and_margin():
    grid = pit_grid()
    with pytest.raises(ValueError, match="empty"):
        ps.clip(grid, [], 2)
    with pytest.raises(ValueError, match="empty"):
        ps.clip(grid, np.zeros((0, 2), int), 2)
    with pytest.raises(ValueError, match=r"cell \(5, 0\) is outside the 5x6 grid"):
        ps.clip(grid, [(1, 1), (5, 0)], 2)
    for cells in ([(1, 1)], cells_to_mask([(1, 1)], grid.shape)):
        with pytest.raises(ValueError, match="margin_cells must be >= 0"):
            ps.clip(grid, cells, -1)


def test_clip_georeference_shift():
    elev = _square_grid(10)
    grid = ps.TerrainGrid(elev, 10.0, elev == 300.0, np.zeros((10, 10), bool), 300.0,
                          xllcorner=100.0, yllcorner=200.0)
    sub, (r0, c0) = ps.clip(grid, [(4, 5)], 1)
    assert sub.xllcorner == pytest.approx(100.0 + c0 * 10.0)
    assert sub.yllcorner == pytest.approx(200.0 + (10 - (r0 + sub.nrows)) * 10.0)


# --------------------------------------------------------------------------- #
# Candidate sets                                                               #
# --------------------------------------------------------------------------- #


def test_candidates_empty_interior_rejected():
    elev = np.full((4, 4), 700.0)
    elev[:, 0] = RIVER_ELEVATION
    grid = river_grid(elev)
    with pytest.raises(ps.InfeasibleProblemError, match="no interior candidates"):
        ps.candidate_sets(grid, WATER)


def test_candidates_single_pit():
    grid = pit_grid()
    cands = ps.candidate_sets(grid, WATER)
    assert cands.interior_cells() == [(2, 3)]
    assert set(cands.perimeter_cells()) == {(1, 3), (3, 3), (2, 2), (2, 4)}
    assert set(cands.reservoir_cells()) == {(2, 3), (1, 3), (3, 3), (2, 2), (2, 4)}


def test_candidates_excluded_pit_rejected():
    grid = pit_grid()
    with pytest.raises(ps.InfeasibleProblemError):
        ps.candidate_sets(dataclasses.replace(grid, excluded=[(2, 3)]), WATER)


def test_cells_outside_the_grid_are_rejected():
    # a negative index once wrapped round: (-1, 3) barred cell (4, 3)
    grid = pit_grid()
    with pytest.raises(ValueError, match=r"cell \(-1, 3\) is outside the 5x6 grid"):
        dataclasses.replace(grid, excluded=[(-1, 3)])
    with pytest.raises(ValueError, match=r"cell \(0, -2\) is outside the 5x6 grid"):
        ps.clip(grid, [(0, -2)], 0)
    with pytest.raises(ValueError, match=r"cell \(5, 0\) is outside"):
        dataclasses.replace(grid, excluded=[(1, 3), (5, 0)])


def test_candidates_reject_wrongly_shaped_exclusion_mask():
    # a bool array is a mask, never a list of (i, j) pairs
    grid = pit_grid()
    wrong = np.zeros((4, 6), bool)
    wrong[3, 5] = True
    with pytest.raises(ValueError, match="does not match the grid"):
        dataclasses.replace(grid, excluded=wrong)


def _four_by_four(excluded) -> ps.TerrainGrid:
    elev = np.full((4, 4), 600.0)
    elev[:, 0] = RIVER_ELEVATION
    return ps.TerrainGrid(elev, 34.0, elev == RIVER_ELEVATION, np.zeros((4, 4), bool),
                          RIVER_ELEVATION, excluded=excluded)


@pytest.mark.parametrize("dtype", [float, int, np.uint8])
def test_a_number_mask_of_the_grids_shape_bars_its_own_cells(dtype):
    # read as (i, j) pairs, as it once was, this mask barred (0, 0) and (0, 1)
    # and left (2, 3) open; np.loadtxt of a mask raster gives such floats
    mask = np.zeros((4, 4), dtype)
    mask[2, 3] = 1
    grid = _four_by_four(mask)
    assert grid.excluded.dtype == bool
    assert np.argwhere(grid.excluded).tolist() == [[2, 3]]
    assert np.array_equal(grid.excluded, _four_by_four([(2, 3)]).excluded)


@pytest.mark.parametrize("value, shown", [(2.0, "2"), (0.5, "0.5"), (-1, "-1"), (math.nan, "nan")])
def test_a_mask_value_other_than_0_or_1_is_refused(value, shown):
    mask = np.zeros((4, 4))
    mask[2, 3] = 1.0
    mask[3, 1] = value
    with pytest.raises(ValueError, match=rf"^mask value {shown} at cell \(3, 1\) is not 0 or 1$"):
        _four_by_four(mask)


@pytest.mark.parametrize("cells", [[2, 3], [(1, 2, 3)], np.zeros((2, 2, 2), int), np.zeros((3, 4))],
                         ids=["one-flat-pair", "a-triple", "three-axes", "another-shape"])
def test_cells_must_be_pairs_of_shape_k_by_2(cells):
    with pytest.raises(ValueError, match=r"cells must be \(i, j\) pairs of shape \(k, 2\)"):
        _four_by_four(cells)
    assert not _four_by_four([]).excluded.any()  # no cells at all bar nothing


def test_candidates_exclude_lower_and_nodata():
    elev = np.full((4, 4), 500.0)
    elev[:, 0] = RIVER_ELEVATION
    lower = elev == RIVER_ELEVATION
    nodata = np.zeros((4, 4), bool)
    nodata[0, 3] = True
    elev = np.where(nodata, np.nan, elev)
    grid = ps.TerrainGrid(elev, 34.0, lower, nodata, RIVER_ELEVATION)
    cands = ps.candidate_sets(grid, WATER)
    assert not cands.interior_ok[:, 0].any()
    assert not cands.perimeter_ok[:, 0].any()
    assert not cands.interior_ok[0, 3] and not cands.perimeter_ok[0, 3]


def test_candidates_monotone_in_exclusions():
    grid = two_basin_grid()
    base = ps.candidate_sets(grid, WATER)
    bigger = ps.candidate_sets(dataclasses.replace(grid, excluded=[(1, 3)]), WATER)
    assert not (bigger.interior_ok & ~base.interior_ok).any()
    assert not (bigger.perimeter_ok & ~base.perimeter_ok).any()
    assert not (bigger.reservoir_ok & ~base.reservoir_ok).any()


def test_candidates_perimeter_touches_interior():
    grid = diagonal_blob_grid()
    cands = ps.candidate_sets(grid, WATER)
    interior = cands.interior_ok
    padded = np.zeros((grid.nrows + 2, grid.ncols + 2), bool)
    padded[1:-1, 1:-1] = interior
    has_nbr = padded[:-2, 1:-1] | padded[2:, 1:-1] | padded[1:-1, :-2] | padded[1:-1, 2:]
    assert not (cands.perimeter_ok & ~has_nbr).any()


# --------------------------------------------------------------------------- #
# Distance field                                                               #
# --------------------------------------------------------------------------- #


def test_distance_simple_offsets():
    elev = np.full((5, 5), 600.0)
    elev[2, 0] = RIVER_ELEVATION
    grid = river_grid(elev)
    dist = ps.distance_field(grid)
    assert dist.values[2, 0] == 0.0
    assert dist.values[2, 1] == pytest.approx(34.0)
    assert dist.values[1, 1] == pytest.approx(34.0 * math.sqrt(2))
    assert dist.values[2, 3] == pytest.approx(102.0)


def _distance_bruteforce(grid):
    sources = np.argwhere(grid.lower_mask)
    out = np.zeros(grid.shape)
    for i in range(grid.nrows):
        for j in range(grid.ncols):
            d2 = ((sources[:, 0] - i) ** 2 + (sources[:, 1] - j) ** 2).min()
            out[i, j] = math.sqrt(float(d2)) * grid.cell_length
    return out


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_distance_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    elev = rng.uniform(400, 700, (12, 12))
    lower = rng.random((12, 12)) < 0.15
    if not lower.any():
        lower[0, 0] = True
    elev[lower] = RIVER_ELEVATION
    grid = ps.TerrainGrid(elev, 34.0, lower, np.zeros((12, 12), bool), RIVER_ELEVATION)
    dist = ps.distance_field(grid)
    assert np.allclose(dist.values, _distance_bruteforce(grid), atol=1e-9)


def test_distance_lipschitz_bound():
    grid = pit_grid()
    values = ps.distance_field(grid).values
    step = grid.cell_length * math.sqrt(2) + 1e-9
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            a = values[max(0, di) : values.shape[0] + min(0, di), max(0, dj) : values.shape[1] + min(0, dj)]
            b = values[max(0, -di) : values.shape[0] + min(0, -di), max(0, -dj) : values.shape[1] + min(0, -dj)]
            assert np.all(np.abs(a - b) <= step)


def test_distance_slant_metric():
    grid = pit_grid()
    flat = ps.distance_field(grid, "horizontal").values
    slant = ps.distance_field(grid, "slant").values
    drop = np.abs(grid.elevations - grid.lower_elevation)
    assert np.allclose(slant, np.hypot(flat, drop))


def test_distance_requires_lower_body():
    elev = np.full((4, 4), 600.0)
    grid = ps.TerrainGrid(elev, 34.0, np.zeros((4, 4), bool), np.zeros((4, 4), bool), 385.0)
    with pytest.raises(ps.InfeasibleProblemError):
        ps.distance_field(grid)


# --------------------------------------------------------------------------- #
# Connected components                                                         #
# --------------------------------------------------------------------------- #


def test_components_empty_mask():
    assert ps.connected_components(np.zeros((4, 4), bool)) == []


@pytest.mark.parametrize("adjacency", ["four", "eight"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_a_mask_with_an_empty_side_has_no_components(shape, adjacency):
    mask = np.zeros(shape, dtype=bool)
    assert ps.connected_components(mask, adjacency) == []
    assert count_components(mask, adjacency) == 0
    assert diag_corrected_length(mask, 34.0) == 0.0


def test_a_mask_has_two_dimensions():
    with pytest.raises(ValueError, match="two dimensions"):
        count_components(np.ones(4, dtype=bool))


def test_the_compiled_kernels_give_the_public_wrappers_bytes():
    """``_feature_transform`` and ``_label`` call scipy's compiled kernels
    directly, as ``distance_transform_edt`` and ``ndimage.label`` do."""
    from scipy import ndimage

    rng = np.random.default_rng(29)
    for _ in range(200):
        lower = rng.random(tuple(rng.integers(1, 40, 2))) < rng.choice([0.01, 0.1, 0.5])
        lower.flat[rng.integers(lower.size)] = True
        for length in (34.0, 30.7, 1 / 3):
            want = ndimage.distance_transform_edt(
                ~lower, sampling=(length, length), return_distances=False, return_indices=True)
            got = terrain._feature_transform(lower, length)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for adjacency, structure in (("four", terrain._CROSS), ("eight", np.ones((3, 3), bool))):
            (got, count), (want, want_count) = terrain._label(lower, adjacency), ndimage.label(lower, structure)
            assert count == want_count and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_components_corner_touch_adjacency():
    mask = np.zeros((3, 3), bool)
    mask[0, 0] = mask[1, 1] = True
    assert len(ps.connected_components(mask, "four")) == 2
    assert len(ps.connected_components(mask, "eight")) == 1


def _components_naive(mask, adjacency):
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if adjacency == "eight":
        offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    groups = [{(int(i), int(j))} for i, j in np.argwhere(mask)]
    merged = True
    while merged:
        merged = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if any((i + di, j + dj) in groups[b] for i, j in groups[a] for di, dj in offsets):
                    groups[a] |= groups.pop(b)
                    merged = True
                    break
            if merged:
                break
    return {frozenset(g) for g in groups}


def _components_one_label_at_a_time(mask, adjacency):
    """The construction the single sort replaced: one scan of the labels per component."""
    from scipy import ndimage

    structure = np.ones((3, 3), bool) if adjacency == "eight" else ndimage.generate_binary_structure(2, 1)
    labels, count = ndimage.label(mask, structure=structure)
    comps = [np.argwhere(labels == k) for k in range(1, count + 1)]
    comps.sort(key=lambda c: (-len(c), tuple(c[0])))
    return comps


@pytest.mark.parametrize("adjacency", ["four", "eight"])
def test_components_keep_the_order_of_one_scan_per_label(adjacency):
    rng = np.random.default_rng(23)
    for _ in range(200):
        shape = tuple(rng.integers(1, 40, 2))
        mask = rng.random(shape) < rng.uniform(0.05, 0.75)
        want = _components_one_label_at_a_time(mask, adjacency)
        got = ps.connected_components(mask, adjacency)
        assert len(got) == len(want) == count_components(mask, adjacency)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=500), st.sampled_from(["four", "eight"]))
@settings(max_examples=20, deadline=None)
def test_components_match_naive_merge(seed, adjacency):
    rng = np.random.default_rng(seed)
    mask = rng.random((10, 10)) < 0.35
    comps = ps.connected_components(mask, adjacency)
    ours = {frozenset((int(i), int(j)) for i, j in comp) for comp in comps}
    assert ours == _components_naive(mask, adjacency)
    # partition: disjoint, union covers the mask
    total = sum(len(c) for c in comps)
    assert total == int(mask.sum())
    sizes = [len(c) for c in comps]
    assert sizes == sorted(sizes, reverse=True)
