"""Elevation grids and the terrain analysis feeding the siting model.

The grid convention is row-major with row 0 at the top (north) edge, matching
the ESRI ASCII layout. All distances are meters in the horizontal plane of the
grid; elevations are meters above the same datum as the lower water body.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Literal

import numpy as np

from ._compiled import load
from .errors import GridFormatError, InfeasibleProblemError

Adjacency = Literal["four", "eight"]
DistanceMetric = Literal["horizontal", "slant"]

#: Row/column offsets of the 4-neighborhood used by the reservoir shape rules.
FOUR_NEIGHBORS = ((-1, 0), (1, 0), (0, -1), (0, 1))
#: 8-neighborhood used by the perimeter tour constraints.
EIGHT_NEIGHBORS = FOUR_NEIGHBORS + ((-1, -1), (-1, 1), (1, -1), (1, 1))

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_MIN_SIDE = 3


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given: no check runs and no array is
    copied. For a window of an instance already checked, whose arrays are
    read-only views of that instance's read-only arrays."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def cells_to_mask(cells, shape: tuple[int, int]) -> np.ndarray:
    """Normalize a cell collection (bool mask or iterable of (i, j)) to a bool mask.

    A bool array is taken as a mask and must have the grid's shape; a cell
    outside the grid (a negative index too) raises ValueError.
    """
    if cells is None:
        return np.zeros(shape, dtype=bool)
    arr = np.asarray(cells)
    if arr.dtype == bool:
        if arr.shape != tuple(shape):
            raise ValueError(f"mask shape {arr.shape} does not match the grid {tuple(shape)}")
        return arr.copy()
    cells = _cell_array(arr, shape)
    mask = np.zeros(shape, dtype=bool)
    mask[cells[:, 0], cells[:, 1]] = True
    return mask


def _cell_array(cells: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(i, j) cells as an (n, 2) int array; a cell outside the grid raises ValueError."""
    cells = cells.reshape(-1, 2).astype(int)
    outside = ((cells < 0) | (cells >= shape)).any(axis=1)
    if outside.any():
        i, j = cells[outside.argmax()].tolist()
        raise ValueError(f"cell ({i}, {j}) is outside the {shape[0]}x{shape[1]} grid")
    return cells


@dataclass(frozen=True)
class TerrainGrid:
    """A square-celled elevation raster with its lower-reservoir mask.

    Attributes:
        elevations: 2-D float array, NaN on NODATA cells.
        cell_length: side length of one cell in meters.
        lower_mask: True where the cell belongs to the existing lower body.
        nodata: True where the DEM has no data.
        lower_elevation: water level of the lower body, meters.
        xllcorner/yllcorner: lower-left corner, used only for file output.
        excluded: True where no reservoir role may be placed (legal or
            environmental exclusions); given as None, a mask or (i, j) cells
            (see ``cells_to_mask``), it is kept as a bool mask.

    The grid is immutable, so it keeps what ``aggregate``,
    ``distance_field``, ``coarse_lower_cells`` and ``stage_terrain`` derive
    from it: each coarse grid, distance field, coarse lower body and zoom
    stage is computed once per grid and lives as long as the grid.
    """

    elevations: np.ndarray
    cell_length: float
    lower_mask: np.ndarray
    nodata: np.ndarray
    lower_elevation: float
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    excluded: np.ndarray | None = None
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        elev = np.asarray(self.elevations, dtype=float)
        if elev.ndim != 2:
            raise ValueError(f"elevations must be 2-D, got {elev.ndim}-D")
        if min(elev.shape) < _MIN_SIDE:
            raise ValueError(f"grid side must be >= {_MIN_SIDE}, got {elev.shape}")
        if not self.cell_length > 0:
            raise ValueError(f"cell_length must be positive, got {self.cell_length}")
        length = float(self.cell_length)
        if not 0 < length * length < math.inf:
            raise ValueError(f"cell_length {self.cell_length} gives no finite positive cell area")
        if not (math.isfinite(self.xllcorner) and math.isfinite(self.yllcorner)):
            raise ValueError(f"xllcorner/yllcorner must be finite, got {self.xllcorner}, {self.yllcorner}")
        lower = np.asarray(self.lower_mask, dtype=bool)
        nodata = np.asarray(self.nodata, dtype=bool)
        if lower.shape != elev.shape or nodata.shape != elev.shape:
            raise ValueError("lower_mask/nodata shape does not match elevations")
        if np.any(lower & nodata):
            raise ValueError("lower_mask overlaps NODATA cells")
        if not np.all(np.isfinite(elev[~nodata])):
            raise ValueError("non-NODATA elevations must be finite")
        if not math.isfinite(self.lower_elevation):
            raise ValueError("lower_elevation must be finite")
        object.__setattr__(self, "elevations", _readonly(elev))
        object.__setattr__(self, "lower_mask", _readonly(lower))
        object.__setattr__(self, "nodata", _readonly(nodata))
        object.__setattr__(self, "excluded", _readonly(cells_to_mask(self.excluded, elev.shape)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.elevations.shape

    @property
    def nrows(self) -> int:
        return self.elevations.shape[0]

    @property
    def ncols(self) -> int:
        return self.elevations.shape[1]

    @property
    def cell_area(self) -> float:
        """Horizontal area of one cell, m^2."""
        return self.cell_length**2

    def valid_cell_count(self) -> int:
        return int(np.count_nonzero(~self.nodata))


@dataclass(frozen=True)
class ByElevation:
    """Lower body defined by cells at a given water level (within a tolerance)."""

    level: float
    tolerance: float = 0.5


@dataclass(frozen=True)
class MaskFile:
    """Lower body defined by an external 0/1 raster in ESRI ASCII layout."""

    path: str | Path


LowerSpec = ByElevation | MaskFile


@dataclass(frozen=True)
class CandidateSets:
    """Cell eligibility for the three reservoir roles.

    interior_ok: cells allowed to hold water (below the target water level).
    perimeter_ok: cells allowed to carry embankment; each has at least one
        4-neighbor in interior_ok.
    reservoir_ok: union of the two.

    The ``*_cells()`` lists are what ``perfbench`` reads.
    """

    interior_ok: np.ndarray
    perimeter_ok: np.ndarray
    reservoir_ok: np.ndarray

    def __post_init__(self):
        for name in ("interior_ok", "perimeter_ok", "reservoir_ok"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=bool)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.interior_ok.shape

    def interior_cells(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.interior_ok)]

    def perimeter_cells(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.perimeter_ok)]

    def reservoir_cells(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.reservoir_ok)]


@dataclass(frozen=True)
class DistanceField:
    """Per-cell distance (m) to the nearest lower-body cell center."""

    values: np.ndarray
    cell_length: float
    metric: DistanceMetric = "horizontal"

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------

_ESRI_KEYS = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"}
_SIDECAR_KEYS = {"cell_length", "nodata_value", "xllcorner", "yllcorner", "lower_elevation"}


def _parse_float(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise GridFormatError(f"non-numeric value {token!r} in {context}") from None


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _key(key: str, known: set[str], seen: dict, kind: str, context: str) -> str:
    """``key`` in lower case; one outside ``known`` or already in ``seen``
    raises GridFormatError."""
    name = key.lower()
    if name not in known:
        raise GridFormatError(f"unknown {kind} key {key!r} in {context}")
    if name in seen:
        raise GridFormatError(f"repeated {kind} key {key!r} in {context}")
    return name


def _parse_esri_ascii(text: str, context: str):
    """Parse ESRI ASCII grid text into (values, header dict).

    The header ends at the first line that begins with a number (``nan`` and
    ``inf`` read as numbers). One data line per raster row; wrapped data lines
    are rejected so that inconsistent row lengths are detectable.
    """
    header: dict[str, float] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    idx = 0
    while idx < len(lines):
        parts = lines[idx].split()
        if _is_number(parts[0]):
            break
        key = _key(parts[0], _ESRI_KEYS, header, "header", context)
        if len(parts) != 2:
            raise GridFormatError(f"malformed header line {lines[idx]!r} in {context}")
        header[key] = _parse_float(parts[1], context)
        idx += 1
    for required in ("ncols", "nrows", "cellsize"):
        if required not in header:
            raise GridFormatError(f"missing header key {required!r} in {context}")
    if not (header["ncols"].is_integer() and header["nrows"].is_integer()):  # nan and inf too
        raise GridFormatError(f"non-integer ncols/nrows in {context}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    data_lines = lines[idx:]
    if len(data_lines) != nrows:
        raise GridFormatError(f"expected {nrows} data rows, found {len(data_lines)} in {context}")
    rows = []
    for ln in data_lines:
        tokens = ln.split()
        if len(tokens) != ncols:
            raise GridFormatError(
                f"inconsistent row length: expected {ncols} values, got {len(tokens)} in {context}"
            )
        rows.append([_parse_float(tok, context) for tok in tokens])
    return np.array(rows, dtype=float), header


def _parse_csv_grid(text: str, context: str) -> np.ndarray:
    rows = []
    width = None
    for ln in text.splitlines():
        if not ln.strip():
            continue
        tokens = [t.strip() for t in ln.split(",")]
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise GridFormatError(
                f"inconsistent row length: expected {width} values, got {len(tokens)} in {context}"
            )
        rows.append([_parse_float(tok, context) for tok in tokens])
    if not rows:
        raise GridFormatError(f"empty grid in {context}")
    return np.array(rows, dtype=float)


def _parse_keyvalue(text: str, context: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise GridFormatError(f"expected key=value, got {ln!r} in {context}")
        key, _, value = ln.partition("=")
        out[_key(key.strip(), _SIDECAR_KEYS, out, "sidecar", context)] = _parse_float(value.strip(), context)
    return out


def load_grid(
    path: str | Path,
    fmt: Literal["esri_ascii", "csv"] = "esri_ascii",
    lower: LowerSpec | None = None,
    *,
    lower_elevation: float | None = None,
) -> TerrainGrid:
    """Load a DEM file, of any rectangular shape, and mark its lower water body.

    Args:
        path: grid file. CSV grids need a sidecar ``<path>.meta`` with
            ``cell_length=<m>``, and optionally ``nodata_value``, ``xllcorner``,
            ``yllcorner`` and ``lower_elevation``; any other key is refused.
        fmt: "esri_ascii" or "csv".
        lower: how to identify lower-body cells; required.
        lower_elevation: water level of the lower body; it overrides the
            level of a ByElevation spec too. A CSV sidecar's
            ``lower_elevation`` stands in when it is None. Without either, the
            level is a ByElevation spec's ``level``, or for a MaskFile the
            median elevation over the mask's cells.

    A grid that fails a ``TerrainGrid`` check (side, cell length, finite
    values) raises GridFormatError naming the file and the check.
    """
    path = Path(path)
    if lower is None:
        raise ValueError("a lower-body specification is required")
    try:
        text = path.read_text()
    except OSError as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc

    xll = yll = 0.0
    nodata_value = None
    if fmt == "esri_ascii":
        values, header = _parse_esri_ascii(text, str(path))
        cell_length = header["cellsize"]
        nodata_value = header.get("nodata_value")
        xll = header.get("xllcorner", 0.0)
        yll = header.get("yllcorner", 0.0)
    elif fmt == "csv":
        values = _parse_csv_grid(text, str(path))
        meta_path = Path(str(path) + ".meta")
        try:
            meta = _parse_keyvalue(meta_path.read_text(), str(meta_path))
        except OSError as exc:
            raise GridFormatError(f"missing sidecar metadata {meta_path}: {exc}") from exc
        if "cell_length" not in meta:
            raise GridFormatError(f"sidecar {meta_path} lacks cell_length")
        cell_length = meta["cell_length"]
        nodata_value = meta.get("nodata_value")
        if lower_elevation is None and "lower_elevation" in meta:
            lower_elevation = meta["lower_elevation"]
        xll = meta.get("xllcorner", 0.0)
        yll = meta.get("yllcorner", 0.0)
    else:
        raise ValueError(f"unknown grid format {fmt!r}")

    nodata = np.zeros(values.shape, dtype=bool) if nodata_value is None else values == nodata_value
    values = np.where(nodata, np.nan, values)

    if isinstance(lower, ByElevation):
        with np.errstate(invalid="ignore"):
            lower_mask = np.abs(values - lower.level) <= lower.tolerance
        lower_mask &= ~nodata
        level = lower.level if lower_elevation is None else lower_elevation
    elif isinstance(lower, MaskFile):
        lower_mask = load_mask(lower.path, values.shape)
        if lower_elevation is not None:
            level = lower_elevation
        elif np.any(lower_mask):
            level = float(statistics.median(values[lower_mask].tolist()))
        else:
            level = math.nan
    else:
        raise ValueError(f"unsupported lower spec {lower!r}")

    if not np.any(lower_mask):
        raise InfeasibleProblemError(
            "lower-body mask is empty; the siting model requires an existing lower reservoir"
        )
    try:
        return TerrainGrid(values, cell_length, lower_mask, nodata, level, xll, yll)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from exc


def load_mask(path: str | Path, shape: tuple[int, int]) -> np.ndarray:
    """Read a 0/1 ESRI ASCII raster of exactly ``shape``, the DEM's, as a bool
    mask; other values (the file's NODATA_value too) raise GridFormatError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc
    values, _ = _parse_esri_ascii(text, str(path))
    if values.shape != tuple(shape):
        raise GridFormatError(f"mask shape {values.shape} does not match DEM {tuple(shape)} in {path}")
    odd = (values != 0) & (values != 1)
    if odd.any():
        i, j = np.argwhere(odd)[0].tolist()
        raise GridFormatError(f"mask value {values[i, j]:g} at (row, col) ({i}, {j}) is not 0 or 1 in {path}")
    return values == 1


def write_esri_ascii(
    path: str | Path,
    values: np.ndarray,
    cell_length: float,
    *,
    nodata: np.ndarray | None = None,
    nodata_value: float = -9999,
    xllcorner: float = 0.0,
    yllcorner: float = 0.0,
    value_format: str = "{:.6g}",
) -> None:
    """Write a raster in the same ESRI ASCII layout accepted by load_grid."""
    values = np.asarray(values, dtype=float)
    out = values.copy()
    if nodata is not None:
        out[np.asarray(nodata, dtype=bool)] = nodata_value
    out[~np.isfinite(out)] = nodata_value
    lines = [
        f"ncols {out.shape[1]}",
        f"nrows {out.shape[0]}",
        f"xllcorner {xllcorner:.6f}",
        f"yllcorner {yllcorner:.6f}",
        f"cellsize {cell_length:.6f}",
        f"NODATA_value {nodata_value:g}",
    ]
    for row in out:
        lines.append(" ".join(value_format.format(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Grid transformations
# ---------------------------------------------------------------------------


def _derive(grid: TerrainGrid, key: tuple, make):
    """``make()``, kept on ``grid`` under ``key``. Threads sharing a grid may
    both compute a missing entry; the first one stored is what both get."""
    try:
        return grid._derived[key]
    except KeyError:
        return grid._derived.setdefault(key, make())


def _coarse_shape(shape: tuple[int, int], factor: int) -> tuple[int, int]:
    """The shape of a grid of ``shape`` aggregated by ``factor``; ValueError
    for a factor that is not a positive integer or that takes a side below
    the minimum."""
    if int(factor) != factor or factor < 1:
        raise ValueError(f"aggregation factor must be a positive integer, got {factor}")
    coarse = (-(-shape[0] // int(factor)), -(-shape[1] // int(factor)))
    if min(coarse) < _MIN_SIDE:
        raise ValueError(f"factor {factor} collapses the grid below {_MIN_SIDE} cells per side")
    return coarse


def aggregate(grid: TerrainGrid, factor: int) -> TerrainGrid:
    """Coarsen the grid by merging factor x factor blocks into super-cells.

    Super-cell elevation is the mean over non-NODATA children; the lower-body
    flag needs a strict majority of valid children; a super-cell is NODATA only
    when every child is, and excluded as soon as any child is. Edges are
    padded with NODATA when factor does not divide the grid side. The coarse
    grid is computed once per grid and factor (see ``TerrainGrid``).
    """
    nr2, nc2 = _coarse_shape(grid.shape, factor)
    factor = int(factor)
    if factor == 1:
        return grid
    return _derive(grid, ("aggregate", factor), lambda: _coarsen(grid, factor, (0, nr2, 0, nc2)))


def _block_counts(mask: np.ndarray, factor: int) -> np.ndarray:
    """The True cells of a bool mask in each factor x factor block; where
    ``factor`` does not divide a side, the last blocks are cut short.

    Integer sums are exact in any order, so each stage adds ``factor`` strided
    slices: the block rows first, over whole rows, then the block columns.
    """
    nr, nc = mask.shape
    rows = np.zeros((-(-nr // factor), nc), np.intp)
    for a in range(min(factor, nr)):
        part = mask[a::factor]
        rows[: len(part)] += part
    counts = np.zeros((rows.shape[0], -(-nc // factor)), np.intp)
    for b in range(min(factor, nc)):
        part = rows[:, b::factor]
        counts[:, : part.shape[1]] += part
    return counts


def _block_sums(values: np.ndarray, factor: int) -> np.ndarray:
    """The float sum of each factor x factor block of ``values``, padded with
    0.0 at the bottom and right to whole blocks, bit for bit as numpy's
    ``sum(axis=(1, 3))`` of the (rows, factor, cols, factor) block array adds
    it: a pairwise sum over the children of each block row, then the block
    rows added in order from 0.0 (numpy's ``sum(axis=1)`` adds them so)."""
    nr, nc = values.shape
    if nr % factor or nc % factor:
        values = np.pad(values, ((0, -nr % factor), (0, -nc % factor)))
    blocks = values.reshape(values.shape[0] // factor, factor, values.shape[1] // factor, factor)
    return _pairwise_sum([blocks[..., b] for b in range(factor)]).sum(axis=1)


def _pairwise_sum(parts: list[np.ndarray]) -> np.ndarray:
    """numpy's pairwise float sum (``pairwise_sum`` in its add loop), term by
    term over arrays. Fewer than 8 terms add in order; numpy starts that sum
    at 0.0, which changes only the sign of a zero partial, and the block-row
    sum that takes every partial starts at 0.0 too. Up to 128 terms, eight
    running sums over every eighth term meet in a fixed tree and the rest
    adds in order; above, the two halves, cut at a multiple of 8, add so."""
    n = len(parts)
    if n < 8:
        return reduce(np.add, parts)
    if n <= 128:
        whole = n - n % 8
        r = [reduce(np.add, parts[j:whole:8]) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(np.add, parts[whole:], tree)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(parts[:half]) + _pairwise_sum(parts[half:])


def _coarsen(grid: TerrainGrid, factor: int, window) -> TerrainGrid:
    """The ``window``, coarse (r0, r1, c0, c1), of ``aggregate(grid,
    factor)`` for a factor above 1, as ``clip`` cuts it, georeference
    included. Block sums are local to each block, so it is computed from the
    fine cells under the window alone."""
    nr = grid.nrows
    nr2, _ = _coarse_shape(grid.shape, factor)
    r0, r1, c0, c1 = window
    fine = np.s_[r0 * factor : r1 * factor, c0 * factor : c1 * factor]
    nodata = grid.nodata[fine]

    counts = _block_counts(~nodata, factor)
    sums = _block_sums(np.where(nodata, 0.0, grid.elevations[fine]), factor)
    lower_counts = _block_counts(grid.lower_mask[fine], factor)

    new_nodata = counts == 0
    with np.errstate(invalid="ignore"):
        new_elev = np.where(new_nodata, np.nan, sums / np.maximum(counts, 1))
    new_lower = (2 * lower_counts > counts) & ~new_nodata
    new_excluded = _block_counts(grid.excluded[fine], factor) > 0

    length = grid.cell_length * factor
    xll = grid.xllcorner + c0 * length
    yll = grid.yllcorner - (nr2 * factor - nr) * grid.cell_length + (nr2 - r1) * length
    return TerrainGrid(new_elev, length, new_lower, new_nodata, grid.lower_elevation, xll, yll,
                       new_excluded)


def coarse_lower_cells(grid: TerrainGrid, factor: int) -> np.ndarray:
    """The (row, col) cells of the lower body of ``aggregate(grid, factor)``,
    in row-major order, from integer block counts over the lower body's
    bounding box alone; computed once per grid and factor.

    Raises ValueError for a factor that collapses the grid and
    InfeasibleProblemError when the lower body vanishes at ``factor``.
    """
    _coarse_shape(grid.shape, factor)
    factor = int(factor)
    return _derive(grid, ("coarse_lower_cells", factor), lambda: _coarse_lower_cells(grid, factor))


def _coarse_lower_cells(grid: TerrainGrid, factor: int) -> np.ndarray:
    rows = np.flatnonzero(grid.lower_mask.any(axis=1))
    cols = np.flatnonzero(grid.lower_mask.any(axis=0))
    cells = np.empty((0, 2), np.intp)
    if rows.size:
        r0, c0 = rows[0] // factor, cols[0] // factor
        fine = np.s_[r0 * factor : (rows[-1] // factor + 1) * factor,
                     c0 * factor : (cols[-1] // factor + 1) * factor]
        lower_counts = _block_counts(grid.lower_mask[fine], factor)
        cells = np.argwhere(2 * lower_counts > _block_counts(~grid.nodata[fine], factor)) + (r0, c0)
    if not len(cells):
        raise InfeasibleProblemError(
            f"the lower body vanished at aggregation factor {factor} (strict-majority "
            "rule); use smaller zoom factors or a wider lower body"
        )
    return cells


def stage_terrain(grid: TerrainGrid, factor: int, corners, metric: DistanceMetric = "horizontal"
                  ) -> tuple[TerrainGrid, tuple[int, int], DistanceField]:
    """The terrain one zoom stage solves on: (sub, origin, dist).

    ``sub`` is the window that ``clip(aggregate(grid, factor), corners //
    factor, 0)`` cuts, ``origin`` its (row, col) in the coarse grid, and
    ``dist`` the same window of ``distance_field`` of that coarse grid, all
    byte for byte, but neither the coarse grid nor its field is built:
    ``sub`` is aggregated from the fine cells under it, and ``dist`` is
    computed on the window's reach box from ``coarse_lower_cells`` (see
    ``_distance_field``). ``corners`` are fine (row, col) cells whose box the
    window covers. The stage is computed once per grid, factor, window and
    metric.

    Raises ValueError for a factor that collapses the grid and
    InfeasibleProblemError when the lower body vanishes at ``factor``.
    """
    shape = _coarse_shape(grid.shape, factor)
    factor = int(factor)
    cells = _cell_array(np.asarray(corners), grid.shape) // factor
    window = _window(shape, cells[:, 0], cells[:, 1], 0)
    return _derive(grid, ("stage", factor, window, metric),
                   lambda: _stage(grid, factor, window, metric))


def _stage(grid: TerrainGrid, factor: int, window, metric: DistanceMetric):
    lower = coarse_lower_cells(grid, factor)
    r0, _, c0, _ = window
    sub = _coarsen(grid, factor, window) if factor > 1 else _view(grid, *window)
    return sub, (r0, c0), _distance_field(sub, metric, lower - (r0, c0))


def clip(
    grid: TerrainGrid, cells, margin_cells: int
) -> tuple[TerrainGrid, tuple[int, int]]:
    """Cut the sub-grid covering the bounding box of ``cells`` plus a margin.

    Returns the sub-grid and the (row, col) offset of its top-left corner in
    the parent grid. The window is truncated at the grid boundary and widened
    to the minimum legal grid side if needed. Its arrays are read-only views
    of the parent's, and it is not checked again. ``cells`` is a bool mask or
    (i, j) cells; the box of cells is their row and column extremes.
    """
    arr = np.asarray([] if cells is None else cells)
    if arr.dtype == bool:
        mask = cells_to_mask(arr, grid.shape)
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    else:
        rows, cols = _cell_array(arr, grid.shape).T
    if rows.size == 0:
        raise ValueError("cannot clip around an empty cell set")
    if margin_cells < 0:
        raise ValueError("margin_cells must be >= 0")
    r0, r1, c0, c1 = _window(grid.shape, rows, cols, margin_cells)
    return _view(grid, r0, r1, c0, c1), (r0, c0)


def _window(shape: tuple[int, int], rows, cols, margin: int) -> tuple[int, int, int, int]:
    """``clip``'s window (r0, r1, c0, c1) on a grid of ``shape`` around the
    cells of ``rows`` and ``cols``."""
    nrows, ncols = shape
    r0 = max(0, int(rows.min()) - margin)
    r1 = min(nrows, int(rows.max()) + 1 + margin)
    c0 = max(0, int(cols.min()) - margin)
    c1 = min(ncols, int(cols.max()) + 1 + margin)
    # Grow degenerate windows until they satisfy the minimum-side invariant.
    while r1 - r0 < _MIN_SIDE and (r0 > 0 or r1 < nrows):
        r0, r1 = max(0, r0 - 1), min(nrows, r1 + 1)
    while c1 - c0 < _MIN_SIDE and (c0 > 0 or c1 < ncols):
        c0, c1 = max(0, c0 - 1), min(ncols, c1 + 1)
    return r0, r1, c0, c1


def _view(grid: TerrainGrid, r0: int, r1: int, c0: int, c1: int) -> TerrainGrid:
    """The window rows r0:r1, columns c0:c1 of ``grid``, as ``clip`` cuts it."""
    # a window of a valid grid, at least 3 cells a side, is valid
    return _unchecked(
        TerrainGrid,
        elevations=grid.elevations[r0:r1, c0:c1],
        cell_length=grid.cell_length,
        lower_mask=grid.lower_mask[r0:r1, c0:c1],
        nodata=grid.nodata[r0:r1, c0:c1],
        lower_elevation=grid.lower_elevation,
        xllcorner=grid.xllcorner + c0 * grid.cell_length,
        yllcorner=grid.yllcorner + (grid.nrows - r1) * grid.cell_length,
        excluded=grid.excluded[r0:r1, c0:c1],
        _derived={},
    )


# ---------------------------------------------------------------------------
# Candidate analysis
# ---------------------------------------------------------------------------


def _four_sides(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cell, the value of ``mask`` at its up, down, left and right
    neighbor; False where the neighbor is off the grid."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    return padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]


def _dilate4(mask: np.ndarray) -> np.ndarray:
    """True where a 4-neighbor of the cell is True in ``mask``."""
    up, down, left, right = _four_sides(mask)
    return up | down | left | right


def candidate_sets(grid: TerrainGrid, water_elevation: float) -> CandidateSets:
    """Compute role eligibility for a target water level.

    Interior candidates sit below the water level; perimeter candidates touch
    at least one interior candidate through the 4-neighborhood. Lower-body,
    NODATA and excluded cells (``TerrainGrid.excluded``) are removed from
    every set.
    """
    if not water_elevation > grid.lower_elevation:
        raise ValueError(
            f"water_elevation {water_elevation} must exceed lower body level {grid.lower_elevation}"
        )
    blocked = grid.lower_mask | grid.nodata | grid.excluded
    with np.errstate(invalid="ignore"):
        interior = (grid.elevations < water_elevation) & ~blocked
    if not np.any(interior):
        raise InfeasibleProblemError(
            f"no interior candidates below water level {water_elevation}; head infeasible here"
        )
    perimeter = _dilate4(interior) & ~blocked
    return CandidateSets(interior, perimeter, interior | perimeter)


def distance_field(grid: TerrainGrid, metric: DistanceMetric = "horizontal") -> DistanceField:
    """Exact center-to-center distance from every cell to the nearest lower cell.

    "horizontal" measures in the grid plane; "slant" adds the vertical offset
    between the cell elevation and the lower water level (exact, since the
    vertical component is shared by all lower cells). The field is computed
    once per grid and metric (see ``TerrainGrid``).
    """
    return _derive(grid, ("distance_field", metric), lambda: _distance_field(grid, metric))


def _reach_box(cells: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, tuple[int, int]]:
    """The lower mask of ``cells`` on the reach box of the window (0, 0) to
    ``shape`` (see ``_distance_field``), and the window's (row, col) in it."""
    if not len(cells):
        return np.zeros(shape, dtype=bool), (0, 0)
    rows, cols = cells.T
    nr, nc = shape
    far = np.maximum(rows, nr - 1 - rows) ** 2 + np.maximum(cols, nc - 1 - cols) ** 2
    gap = (rows - rows.clip(0, nr - 1)) ** 2 + (cols - cols.clip(0, nc - 1)) ** 2
    near = gap <= far.min()  # within R of the window
    r0, r1 = min(rows[near].min(), 0), max(rows[near].max() + 1, nr)
    c0, c1 = min(cols[near].min(), 0), max(cols[near].max() + 1, nc)
    inside = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
    lower = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    lower[rows[inside] - r0, cols[inside] - c0] = True
    return lower, (-int(r0), -int(c0))


def _distance_field(grid: TerrainGrid, metric: DistanceMetric, lower_cells=None) -> DistanceField:
    """``distance_field``, not kept. ``lower_cells``, (row, col) cells in the
    grid's frame that may lie outside it, give the lower body instead of the
    grid's own mask: the grid is then a window of a larger grid, and the
    field is that grid's field over the window, byte for byte, computed on
    the window's reach box alone. Let R be the least, over lower cells p, of
    p's distance to the window's farthest corner: every window cell lies
    within R of that p, so its nearest lower cells lie within R of the
    window, and the box is the window grown to hold every lower cell that
    near. Among the nearest lower cells of a cell, scipy's feature transform
    takes the one of least column, then of least row (in exact arithmetic;
    ``test_terrain`` checks the bytes at non-dyadic cell lengths too); the
    cells left out of the box are farther, so it takes the same cell.
    """
    lower, (r0, c0) = ((grid.lower_mask, (0, 0)) if lower_cells is None
                       else _reach_box(lower_cells, grid.shape))
    if not lower.any():
        raise InfeasibleProblemError("distance field needs a non-empty lower-body mask")
    # scipy's distance transform in fewer passes: its feature transform, then
    # its formula in place: the offsets to the nearest lower cell, scaled,
    # squared, summed
    length = grid.cell_length
    nearest = _feature_transform(lower, length)
    offsets = nearest[:, r0 : r0 + grid.nrows, c0 : c0 + grid.ncols].astype(float)
    offsets[0] -= np.arange(r0, r0 + grid.nrows)[:, None]
    offsets[1] -= np.arange(c0, c0 + grid.ncols)
    offsets *= length
    offsets *= offsets
    horizontal = offsets[0] + offsets[1]
    np.sqrt(horizontal, out=horizontal)
    if metric == "horizontal":
        values = horizontal
    elif metric == "slant":
        drop = np.abs(grid.elevations - grid.lower_elevation)
        drop = np.where(np.isfinite(drop), drop, 0.0)
        values = np.hypot(horizontal, drop)
    else:
        raise ValueError(f"unknown distance metric {metric!r}")
    return DistanceField(values, grid.cell_length, metric)


def _feature_transform(lower: np.ndarray, length: float) -> np.ndarray:
    """The (row, col) of every cell's nearest ``lower`` cell, as int32 planes.

    scipy's ``distance_transform_edt(~lower, sampling=(length, length),
    return_indices=True)`` feature transform, called on its compiled kernel
    with the int8 input, float64 sampling and int32 output that it builds:
    the same sampling, so that ties pick the same lower cell.
    """
    nearest = np.zeros((2, *lower.shape), dtype=np.int32)
    load("scipy.ndimage._nd_image").euclidean_feature_transform(
        (~lower).view(np.int8), np.array([length, length], dtype=np.float64), nearest)
    return nearest


def _label(mask, adjacency: Adjacency) -> tuple[np.ndarray, int]:
    """``ndimage.label`` of a 2-D boolean mask under 4- or 8-adjacency, called
    on scipy's compiled labeller with the int32 output that it builds."""
    if adjacency == "four":
        structure = _CROSS
    elif adjacency == "eight":
        structure = np.ones((3, 3), dtype=bool)
    else:
        raise ValueError(f"unknown adjacency {adjacency!r}")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"a mask has two dimensions, got shape {mask.shape}")
    labels = np.empty(mask.shape, dtype=np.int32)
    if not mask.size:  # the labeller refuses an empty array
        return labels, 0
    return labels, load("scipy.ndimage._ni_label")._label(mask, structure, labels)


def count_components(mask, adjacency: Adjacency = "four") -> int:
    """The number of connected components of a boolean mask."""
    return int(_label(mask, adjacency)[1])


def connected_components(mask: np.ndarray, adjacency: Adjacency = "four") -> list[np.ndarray]:
    """Split a boolean mask into connected components.

    Returns one (k, 2) index array per component, its cells in row-major
    order; components are ordered by size descending and then by the
    row-major position of the first cell. One stable sort of the labelled
    cells splits them all.
    """
    labels, count = _label(mask, adjacency)
    cells = np.argwhere(labels)
    if count < 2:
        return [cells] if count else []
    cell_labels = labels[labels != 0]  # in the row-major order of ``cells``
    bounds = np.cumsum(np.bincount(cell_labels)).tolist()
    cells = cells[np.argsort(cell_labels, kind="stable")]
    comps = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
    comps.sort(key=lambda c: (-len(c), tuple(c[0].tolist())))
    return comps
