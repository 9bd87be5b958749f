"""Integer-programming core: problem container and the base siting formulation.

The paper's binary program marks each cell perimeter (x), interior (y) or
reservoir (z = x + y). The model here is written over z and y alone: the
perimeter indicator is the expression ``x = z - y`` (just ``z`` on dry cells,
which have no y), which keeps the same feasible sites and the same LP
relaxation with fewer columns and rows. Variables follow the naming scheme
``z_i_j`` (reservoir), ``y_i_j`` (interior), ``l_i_j`` (conveyance link); the
scheme is stable and is what the file exporters emit. The problem is stored as
arrays (kinds and senses as the codes that ``VarKind`` and ``Sense`` members
are), and the names are derived from this scheme only when something asks for
them. Extraction and ``verify_masks`` use the fixed tolerances
``INTEGRALITY_TOL`` and ``VOLUME_RTOL``. Neighbor variables that fall outside
the grid or outside a candidate set are treated as constant zero, which makes
the shape rules well defined at grid edges. Below the tour rung the builder leaves out the columns that a dominance
argument fixes, with the rows they satisfy (see ``build_siting_problem``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np
import scipy.sparse as sparse

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
    _dilate4,
    connected_components,
)

Cell = tuple[int, int]

#: Relative slack on the volume target when storage is recomputed from masks.
VOLUME_RTOL = 1e-6
#: Distance from 0 or 1 within which ``extract_solution`` reads a binary's value.
INTEGRALITY_TOL = 1e-6

_DIRECTIONS = ("up", "down", "left", "right")
#: Raster id of a cell whose ``z`` the builder fixed at 1 (absent cells are -1).
_FIXED_ON = -2


class VarKind(IntEnum):
    """A variable's kind; each member is the int8 code ``MipProblem.kinds`` stores."""

    BINARY = 0
    INTEGER = 1
    CONTINUOUS = 2


class Sense(IntEnum):
    """A row's sense; each member is the int8 code ``MipProblem.senses`` stores."""

    LE = 0
    GE = 1
    EQ = 2


@dataclass(frozen=True)
class Row:
    """A row as ``MipProblem.rows`` spells it out."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: Sense
    rhs: float


class CellNames:
    """Names of a block of variables or rows, spelled out only when asked for.

    Each row of ``cells`` (an (n, k) int array, such as the (row, col) of a
    grid cell) gets one name per pattern, in pattern order; a pattern is a
    format string taking the row's k numbers, such as ``"inter_{}_{}_up"``.
    ``keep``, if given, holds one flag per name in that order, and the names
    it flags False are left out.
    """

    def __init__(self, patterns: tuple[str, ...], cells: np.ndarray, keep: np.ndarray | None = None):
        self.patterns = patterns
        self.cells = cells
        self.keep = keep

    def __len__(self) -> int:
        if self.keep is not None:
            return int(np.count_nonzero(self.keep))
        return len(self.patterns) * len(self.cells)

    def __iter__(self) -> Iterator[str]:
        names = (pattern.format(*cell) for cell in self.cells.tolist() for pattern in self.patterns)
        return names if self.keep is None else itertools.compress(names, self.keep.tolist())


class _Column:
    """A growable 1-D array, appended to one block at a time."""

    def __init__(self, dtype):
        self.dtype = dtype
        self._chunks: list[np.ndarray] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def extend(self, values) -> None:
        block = np.array(values, dtype=self.dtype)
        self._chunks.append(block)
        self._size += len(block)

    def array(self) -> np.ndarray:
        if len(self._chunks) != 1:
            self._chunks = [np.concatenate(self._chunks) if self._chunks
                            else np.empty(0, dtype=self.dtype)]
        return self._chunks[0]


def _spell(blocks: list, start: int = 0, stop: int | None = None) -> list[str]:
    """The names of ``blocks`` from position ``start`` up to ``stop``; blocks
    wholly outside that range are not spelled out."""
    names: list[str] = []
    first = pos = 0
    for block in blocks:
        if pos + len(block) > start and (stop is None or pos < stop):
            if not names:
                first = pos
            names.extend(block)
        pos += len(block)
    return names[start - first : None if stop is None else stop - first]


def _spread(values, n: int, dtype) -> np.ndarray:
    """One value, or one per pattern repeated over the cells, as ``n`` values."""
    if isinstance(values, (int, float)):  # enum members and bools included
        return np.full(n, values, dtype=dtype)
    values = np.asarray(values, dtype=dtype).ravel()
    if n and (values.size == 0 or n % values.size):
        raise ValueError(f"{values.size} values do not repeat evenly over {n} entries")
    return values[np.arange(n) % max(values.size, 1)]


def _codes(values, n: int, enum: type[IntEnum]) -> np.ndarray:
    """``_spread`` of ``enum`` members or codes to int8; a code outside ``enum`` raises."""
    codes = _spread(values, n, np.int64)
    bad = (codes < 0) | (codes >= len(enum))
    if bad.any():
        raise ValueError(f"{codes[bad][0]} is not a valid {enum.__name__} code")
    return codes.astype(np.int8)


class MipProblem:
    """Sparse mixed-integer linear program stored as arrays.

    Variables are kind/bound arrays; constraints are COO triplets with a sense
    and a right-hand side per row; the objective is sparse and keeps the ids it
    was given, zero coefficients included. Kinds and senses are stored as the
    int8 codes that the ``VarKind`` and ``Sense`` members are. Variables and
    rows enter in blocks. Names are stored per block (a list, or a
    :class:`CellNames` pattern over cells) and spelled out on demand, as are
    the ``rows`` view, the name -> id index and the CSR matrix. Uniqueness of
    names is up to the caller: the builders and the file readers.
    """

    def __init__(self, name: str = "siting"):
        self.name = name
        self._var_names: list = []
        self._kind = _Column(np.int8)
        self._lb = _Column(float)
        self._ub = _Column(float)
        self._row_names: list = []
        self._sense = _Column(np.int8)
        self._rhs = _Column(float)
        self._coo = (_Column(np.int64), _Column(np.int64), _Column(float))
        self._obj_ids = np.empty(0, dtype=np.int64)
        self._obj_vals = np.empty(0)
        self.objective_constant: float = 0.0
        self._views: dict[str, object] = {}

    # -- construction -------------------------------------------------------

    def add_variables(
        self,
        names: CellNames | list[str],
        kind: VarKind | Sequence[int] = VarKind.BINARY,
        lb: float | Sequence[float] = 0.0,
        ub: float | Sequence[float] = math.inf,
    ) -> np.ndarray:
        """Declare one variable per name; returns their (contiguous) ids.

        ``kind`` (members or codes), ``lb`` and ``ub`` are one value or one per
        name. Binaries are always bounded by [0, 1], whatever bounds are given.
        """
        n = len(names)
        codes = _codes(kind, n, VarKind)
        binary = codes == VarKind.BINARY
        lb = np.where(binary, 0.0, _spread(lb, n, float))
        ub = np.where(binary, 1.0, _spread(ub, n, float))
        bad = lb > ub
        if bad.any():
            k = int(bad.argmax())
            name = _spell([names], k, k + 1)[0]
            raise ValueError(f"variable {name!r} has lb {lb[k]} > ub {ub[k]}")
        start = self.num_variables
        self._var_names.append(names)
        self._kind.extend(codes)
        self._lb.extend(lb)
        self._ub.extend(ub)
        self._views.clear()
        return np.arange(start, start + n)

    def add_rows(
        self,
        names: CellNames | list[str],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        sense: Sense | Sequence[int],
        rhs: float | Sequence[float] = 0.0,
    ) -> None:
        """Append a block of rows given as COO triplets.

        ``rows`` index the block's own rows (0 .. len(names)-1) and may repeat a
        (row, col) pair only if it is meant to be summed. ``sense`` (members or
        codes) and ``rhs`` are one value, or one per pattern of ``names`` (one
        per name for a list), repeated over its cells.
        """
        n_rows = len(names)
        senses = _codes(sense, n_rows, Sense)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        rhs = _spread(rhs, n_rows, float)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise ValueError("row block references unknown variable ids")
        if not np.isfinite(vals).all():
            raise ValueError("row block has non-finite coefficients")
        if not np.isfinite(rhs).all():
            raise ValueError("row block has non-finite rhs")
        coo_rows, coo_cols, coo_vals = self._coo
        coo_rows.extend(np.asarray(rows) + self.num_constraints)
        coo_cols.extend(cols)
        coo_vals.extend(vals)
        self._row_names.append(names)
        self._sense.extend(senses)
        self._rhs.extend(rhs)
        self._views.clear()

    def set_objective(self, coeffs: Mapping[int, float], constant: float = 0.0) -> None:
        ids = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
        vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        bad = (ids < 0) | (ids >= self.num_variables)
        if bad.any():
            raise ValueError(f"objective references unknown variable id {ids[bad][0]}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"objective has non-finite coefficient on {ids[~np.isfinite(vals)][0]}")
        if not math.isfinite(constant):
            raise ValueError("objective constant must be finite")
        order = np.argsort(ids, kind="stable")
        self._obj_ids, self._obj_vals = ids[order], vals[order]
        self.objective_constant = float(constant)
        self._views.clear()

    # -- arrays -------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._kind)

    @property
    def num_constraints(self) -> int:
        return len(self._sense)

    @property
    def kinds(self) -> np.ndarray:
        """Kind code per variable: ``VarKind(code)`` is its member."""
        return self._kind.array()

    @property
    def integer_mask(self) -> np.ndarray:
        """True for binary and integer variables."""
        return self.kinds != VarKind.CONTINUOUS

    @property
    def lb(self) -> np.ndarray:
        return self._lb.array()

    @property
    def ub(self) -> np.ndarray:
        return self._ub.array()

    @property
    def senses(self) -> np.ndarray:
        """Sense code per row: ``Sense(code)`` is its member."""
        return self._sense.array()

    @property
    def rhs(self) -> np.ndarray:
        return self._rhs.array()

    def cost_vector(self) -> np.ndarray:
        c = np.zeros(self.num_variables)
        c[self._obj_ids] = self._obj_vals
        return c

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) activity bounds per row, infinite on the open side."""
        senses, rhs = self.senses, self.rhs
        lo = np.where(senses == Sense.LE, -np.inf, rhs)
        hi = np.where(senses == Sense.GE, np.inf, rhs)
        return lo, hi

    @property
    def matrix(self) -> sparse.csr_array:
        """The constraint matrix, with sorted column indices in every row."""
        if "matrix" not in self._views:
            rows, cols, vals = (column.array() for column in self._coo)
            self._views["matrix"] = sparse.csr_array(
                (vals, (rows, cols)), shape=(self.num_constraints, self.num_variables)
            )
        return self._views["matrix"]

    def violations(self, vec: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
        """Name-free feasibility test of the point ``vec``.

        Returns masks of the columns outside their bounds and of the integer
        columns off an integer, each by more than ``tol``; the row activities
        ``A @ vec``; and a mask of the rows whose activity crosses the rhs on
        the side its sense forbids by more than ``tol * max(1, |rhs|)``.
        """
        outside = (vec < self.lb - tol) | (vec > self.ub + tol)
        fractional = self.integer_mask & (np.abs(vec - np.round(vec)) > tol)
        activity = self.matrix @ vec
        rhs, senses = self.rhs, self.senses
        slack = tol * np.maximum(1.0, np.abs(rhs))
        above, below = activity > rhs + slack, activity < rhs - slack
        violated = np.where(senses == Sense.LE, above, np.where(senses == Sense.GE, below, above | below))
        return outside, fractional, activity, violated

    # -- names and views ----------------------------------------------------

    def variable_names(self) -> list[str]:
        if "var_names" not in self._views:
            self._views["var_names"] = _spell(self._var_names)
        return self._views["var_names"]

    def row_names(self) -> list[str]:
        if "row_names" not in self._views:
            self._views["row_names"] = _spell(self._row_names)
        return self._views["row_names"]

    @property
    def rows(self) -> Sequence[Row]:
        """The rows as ``Row`` items; ``len`` is free, and a slice spells out
        only the rows it covers. ``perfbench`` counts nonzeros through it."""
        return _RowView(self)

    def _rows(self, start: int, stop: int) -> list[Row]:
        if "rows" in self._views:
            return self._views["rows"][start:stop]
        matrix = self.matrix
        ptr = matrix.indptr[start : stop + 1].tolist()
        entries = slice(ptr[0], ptr[-1])
        pairs = list(zip(matrix.indices[entries].tolist(), matrix.data[entries].tolist()))
        if "row_names" in self._views:
            names = self._views["row_names"][start:stop]
        else:
            names = _spell(self._row_names, start, stop)
        codes = self.senses[start:stop].tolist()
        member = {code: Sense(code) for code in set(codes)}  # a Sense() call costs ~1 us
        rows = [
            Row(name, tuple(pairs[a - ptr[0] : b - ptr[0]]), member[code], rhs)
            for name, a, b, code, rhs in zip(names, ptr, ptr[1:], codes, self.rhs[start:stop].tolist())
        ]
        if start == 0 and stop == self.num_constraints:
            self._views["rows"] = rows
        return rows

    @property
    def objective(self) -> dict[int, float]:
        """Objective entries as {variable id: coefficient}, ascending ids."""
        return dict(zip(self._obj_ids.tolist(), self._obj_vals.tolist()))

    def variable_id(self, name: str) -> int:
        return self._index()[name]

    def _index(self) -> dict[str, int]:
        if "var_index" not in self._views:
            self._views["var_index"] = {name: vid for vid, name in enumerate(self.variable_names())}
        return self._views["var_index"]

    def values_vector(self, values) -> np.ndarray:
        """Values in the internal variable order.

        Accepts a vector (returned as is), a :class:`SolutionValues` of this
        problem, or a name -> value mapping, in which missing names read 0.
        A mapping that names a variable the problem does not have (such as
        one the builder fixed out) raises ValueError naming the first one.
        """
        if isinstance(values, np.ndarray):
            return values
        if isinstance(values, SolutionValues) and values.problem is self:
            return values.vector
        vec = np.zeros(self.num_variables)
        index = self._index()
        for name, value in values.items():
            vid = index.get(name)
            if vid is None:
                raise ValueError(f"problem {self.name!r} has no variable {name!r}")
            vec[vid] = value
        return vec


class _RowView(Sequence):
    def __init__(self, problem: MipProblem):
        self._problem = problem

    def __len__(self) -> int:
        return self._problem.num_constraints

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step == 1:
                return self._problem._rows(start, max(start, stop))
            return self._problem._rows(0, len(self))[key]
        rid = range(len(self))[key]
        return self._problem._rows(rid, rid + 1)[0]

    def __iter__(self) -> Iterator[Row]:
        return iter(self._problem._rows(0, len(self)))


class SolutionValues(Mapping):
    """Name -> value view of a solution vector; names resolve on demand."""

    def __init__(self, problem: MipProblem, vector: np.ndarray):
        self.problem = problem
        self.vector = vector

    def __getitem__(self, name: str) -> float:
        return float(self.vector[self.problem.variable_id(name)])

    def __iter__(self) -> Iterator[str]:
        return iter(self.problem.variable_names()[: len(self.vector)])

    def __len__(self) -> int:
        return len(self.vector)


@dataclass
class SitingVariables:
    """Cell-indexed handles into the variable families of a siting problem.

    ``cells[f]`` holds the (row, col) cells of family f (``z`` reservoir,
    ``y`` interior, ``l`` link) in row-major order; their ids run contiguously
    from ``start[f]``. The link cells are perimeter candidates, whose
    perimeter indicator is the expression ``z - y`` (``z`` where there is no
    ``y``). ``fixed[f]`` holds the cells whose ``z`` or ``l`` the builder
    fixed at 1 and left out of the model (see ``build_siting_problem``).
    """

    cells: dict[str, np.ndarray]
    start: dict[str, int]
    fixed: dict[str, np.ndarray]

    def ids(self, family: str) -> np.ndarray:
        return np.arange(self.start[family], self.start[family] + len(self.cells[family]))


def _id_raster(shape: tuple[int, int], cells: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Variable id per cell, -1 where the family has none, with a -1 border."""
    raster = np.full((shape[0] + 2, shape[1] + 2), -1, dtype=np.int64)
    raster[cells[:, 0] + 1, cells[:, 1] + 1] = ids
    return raster


class _Entries:
    """COO triplets of one row block; entries on absent variables (-1) drop out."""

    def __init__(self):
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, coef) -> None:
        keep = cols >= 0
        self.parts.append((rows[keep], cols[keep], np.full(cols.shape, coef, dtype=float)[keep]))

    def add_perimeter(self, rows: np.ndarray, z: np.ndarray, y: np.ndarray, coef) -> None:
        """``coef`` times the perimeter indicator x = z - y of the cells with ids ``z``, ``y``."""
        self.add(rows, z, coef)
        self.add(rows, y, -coef)

    def add_to(self, prob: MipProblem, names, sense, rhs=0.0, keep: np.ndarray | None = None) -> None:
        """Add the block's rows to ``prob``; ``keep``, one flag per row, leaves
        out the rows it flags False and renumbers the rest."""
        rows, cols, vals = (np.concatenate(p) for p in zip(*self.parts))
        if keep is not None:
            kept = keep[rows]
            rows, cols, vals = (np.cumsum(keep) - 1)[rows[kept]], cols[kept], vals[kept]
        prob.add_rows(names, rows, cols, vals, sense, rhs)


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
) -> SitingProblem:
    """Assemble the siting MIP at a given connectivity-defense level.

    Levels: 0 none, 1 horizontal/vertical separating planes, 2 planes plus
    diagonals, 3 perimeter tour (TSP) constraints.

    The base model is built one row family at a time from cell-id rasters.
    Variables come in the order z, y, l, each in row-major cell order; the
    perimeter indicator of a perimeter candidate is x = z - y (z where the
    cell has no y). Rows: per interior cell ``role_i_j``, y <= z where the
    cell is also a perimeter candidate and y = z where it is not; per
    perimeter cell ``contact_i_j`` (min_neighbors * (z - y) <= sum of neighbor
    z); per interior cell ``inter_i_j_<dir>`` (y <= z_neighbor); ``volume``
    (stored volume >= target); per perimeter cell ``linkx_i_j`` (l <= z - y);
    and ``link_sum`` (exactly one link). Neighbors outside the grid or the
    candidate sets are constant zero. The paper's cover rows z <= x +
    z_neighbor read y <= z_neighbor here, which ``inter`` already states, so
    they are not written. The objective is embankment on active perimeter
    cells, +cost on z and -cost on y of each wet perimeter cell, plus
    conveyance at the link; dry perimeter cells cost nothing, and the E&M
    equipment cost, a constant for a (head, capacity) pair, is the offset.

    At levels 0-2 with ``perimeter_min_neighbors == 1``, the columns that
    HiGHS's presolve would fix on every solve are left out, with the rows they
    satisfy (dominated columns; Gamrath, Koch, Martin, Miltenberger &
    Weninger 2015, *Progress in presolving for mixed integer programming*):

    - Let D be the dry perimeter candidates (no y, no embankment cost) that
      have a 4-neighbor in D. Setting z = 1 on every cell of D keeps every
      row and the cost: a dry z costs 0; in every other row (a neighbor's
      ``contact``, an interior neighbor's ``inter``, its own ``linkx`` through
      x = z) it has coefficient -1; its own ``contact`` row holds through its
      neighbor in D; the plane rows hold only y. So z is fixed at 1 on D, and
      the ``contact`` rows of cells next to D and the ``inter`` rows towards
      D go: with a neighbor z at 1 they read z - y <= 1 or y <= 1.
    - With D on, ``linkx`` no longer binds any l on D. Let c* be the cell of
      D with the cheapest conveyance (the first in row-major order on ties).
      Every l whose cost is at least that of c*, other than c* itself, is
      dominated by l_c*: moving its link mass onto c* keeps ``link_sum`` and
      ``linkx`` and does not raise the cost. Those l are fixed at 0, and
      their ``linkx`` rows go (they read y <= z, the role row, or z >= 0), as
      does ``linkx`` on c* (l <= 1). If only l_c* is left, it is 1: it goes
      with ``link_sum``, and its conveyance joins the objective constant.

    Both arguments act pointwise on any feasible point, fractional or not, so
    the fixings keep the MIP optimum and the LP-relaxation optimum; a site
    may change at equal cost. Level 3 is built in full, because the tour rows
    hold perimeter cells and the link, and so is ``perimeter_min_neighbors =
    3``, whose contact rows need three neighbors. ``SitingVariables.fixed``
    lists the cells fixed on, and ``extract_solution`` adds them to the masks.
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
    if perimeter_min_neighbors not in (1, 3):
        raise ValueError("perimeter_min_neighbors must be 1 (as per the base model) or 3")

    water = spec.water_elevation
    y_cells, p_cells = np.argwhere(cands.interior_ok), np.argwhere(cands.perimeter_ok)
    volume = (water - grid.elevations[y_cells[:, 0], y_cells[:, 1]]) * grid.cell_area
    capacity = sum(volume.tolist())
    if capacity < spec.vol_min:
        raise InfeasibleProblemError(
            f"total storable capacity {capacity:.3e} m^3 over {len(y_cells)} interior "
            f"candidates is below the volume target {spec.vol_min:.3e} m^3"
        )
    if not len(p_cells):
        raise InfeasibleProblemError("no perimeter candidates; cannot place a conveyance link")
    embankment = np.array([embankment_cell_cost(grid.cell_length, water, e, params)[0]
                           for e in grid.elevations[p_cells[:, 0], p_cells[:, 1]].tolist()])
    conveyance = np.array([sum(conveyance_cost(spec.flow, d, params))
                           for d in dist.values[p_cells[:, 0], p_cells[:, 1]].tolist()])

    # the column fixing: z = 1 on D (``on``); l only on c* and cheaper cells
    on = np.zeros(cands.shape, dtype=bool)
    if level <= 2 and perimeter_min_neighbors == 1:
        dry = p_cells[(embankment == 0) & ~cands.interior_ok[p_cells[:, 0], p_cells[:, 1]]]
        on[dry[:, 0], dry[:, 1]] = True
        on &= _dilate4(on)
    on_p = on[p_cells[:, 0], p_cells[:, 1]]
    keep_l = np.ones(len(p_cells), dtype=bool)
    fixed_l = p_cells[:0]
    if on_p.any():
        best = int(np.flatnonzero(on_p)[conveyance[on_p].argmin()])
        keep_l = conveyance < conveyance[best]
        keep_l[best] = True
        if keep_l.sum() == 1:
            keep_l[best], fixed_l = False, p_cells[best : best + 1]

    prob = MipProblem()
    cells = {"z": np.argwhere(cands.reservoir_ok & ~on), "y": y_cells, "l": p_cells[keep_l]}
    start: dict[str, int] = {}
    ids: dict[str, np.ndarray] = {}

    def declare(family: str) -> None:
        start[family] = prob.num_variables
        ids[family] = prob.add_variables(CellNames((f"{family}_{{}}_{{}}",), cells[family]))

    declare("z")
    declare("y")
    Z, Y = (_id_raster(cands.shape, cells[f], ids[f]) for f in "zy")
    Z[1:-1, 1:-1][on] = _FIXED_ON  # no column, so entries on it drop out like absent ones

    def at(raster: np.ndarray, c: np.ndarray, di: int = 0, dj: int = 0) -> np.ndarray:
        """Per cell of ``c``: the raster's value at that cell shifted by (di, dj)."""
        return raster[c[:, 0] + 1 + di, c[:, 1] + 1 + dj]

    def kept(keep: np.ndarray) -> np.ndarray | None:
        return None if keep.all() else keep

    ny, nx = len(y_cells), len(p_cells)
    pz, py = at(Z, p_cells), at(Y, p_cells)
    block = _Entries()
    k = np.arange(ny)
    block.add(k, ids["y"], 1.0)
    block.add(k, at(Z, y_cells), -1.0)
    on_perimeter = cands.perimeter_ok[y_cells[:, 0], y_cells[:, 1]]
    block.add_to(prob, CellNames(("role_{}_{}",), y_cells), np.where(on_perimeter, Sense.LE, Sense.EQ))

    # the perimeter indicator x = z - y enters as the (z, y) ids of each cell;
    # a row that holds a z fixed on is satisfied and left out
    block = _Entries()
    k = np.arange(nx)
    block.add_perimeter(k, pz, py, float(perimeter_min_neighbors))
    keep = np.ones(nx, dtype=bool)
    for di, dj in FOUR_NEIGHBORS:
        nbr = at(Z, p_cells, di, dj)
        block.add(k, nbr, -1.0)
        keep &= nbr != _FIXED_ON
    keep = kept(keep)
    block.add_to(prob, CellNames(("contact_{}_{}",), p_cells, keep), Sense.LE, keep=keep)

    block = _Entries()
    k = np.arange(ny)
    keep = np.empty((ny, len(FOUR_NEIGHBORS)), dtype=bool)
    for d, (di, dj) in enumerate(FOUR_NEIGHBORS):
        nbr = at(Z, y_cells, di, dj)
        block.add(4 * k + d, ids["y"], 1.0)
        block.add(4 * k + d, nbr, -1.0)
        keep[:, d] = nbr != _FIXED_ON
    keep = kept(keep.ravel())
    inter = tuple(f"inter_{{}}_{{}}_{d}" for d in _DIRECTIONS)
    block.add_to(prob, CellNames(inter, y_cells, keep), Sense.LE, keep=keep)

    prob.add_rows(["volume"], np.zeros(ny, dtype=np.int64), ids["y"], volume, Sense.GE, spec.vol_min)

    declare("l")
    off = keep_l & ~on_p  # linkx rows: the link cells off D
    k = np.arange(int(off.sum()))
    block = _Entries()
    block.add(k, ids["l"][off[keep_l]], 1.0)
    block.add_perimeter(k, pz[off], py[off], -1.0)
    block.add_to(prob, CellNames(("linkx_{}_{}",), p_cells[off]), Sense.LE)
    nl = len(ids["l"])
    if nl:
        prob.add_rows(["link_sum"], np.zeros(nl, dtype=np.int64), ids["l"], np.ones(nl), Sense.EQ, 1.0)

    coeffs: dict[int, float] = {}
    for zid, yid, cost in zip(pz.tolist(), py.tolist(), embankment.tolist()):
        if cost:  # a wet cell: the embankment sits on x = z - y
            coeffs[zid] = cost
            if yid >= 0:
                coeffs[yid] = -cost
    coeffs.update(zip(ids["l"].tolist(), conveyance[keep_l].tolist()))
    constant = equipment_cost(spec.head_m, spec.power_mw, params)
    if len(fixed_l):
        constant += float(conveyance[best])
    prob.set_objective(coeffs, constant)

    sv = SitingVariables(cells, start, {"z": np.argwhere(on), "l": fixed_l})
    if level >= 1:
        _connectivity.add_separating_planes(prob, sv, cands, include_diagonals=level >= 2)
    if level >= 3:
        _connectivity.add_tour_constraints(prob, sv, cands)

    return SitingProblem(prob, sv, grid, cands, spec, params, dist, int(level))


def all_ones_optimum(sp: SitingProblem) -> tuple[np.ndarray, float] | None:
    """The all-ones point of a level-0 model and its objective, if a bound
    proves it optimal; else None.

    The point sets every ``z`` and ``y`` column to 1 and, if ``l`` columns are
    left, the kept ``l`` of lowest cost (the first on ties) to 1. The bound is
    ``objective_constant`` plus that lowest ``l`` cost, or the constant alone.

    Why the bound holds for every feasible point, fractional or not, given how
    ``build_siting_problem`` writes its model: a wet perimeter cell costs
    ``+c`` on its ``z``, with ``c >= 0`` (``CostParams`` are positive), and
    ``-c`` on its ``y`` if it has one, so it adds ``c (z - y)``, which its
    ``role`` row (y <= z) keeps >= 0, or ``c z >= 0``; every other ``z`` or
    ``y`` costs 0; and ``link_sum`` makes the ``l`` a convex combination,
    which costs at least the lowest ``l`` cost. A feasible point that attains
    a valid lower bound is optimal (Achterberg 2007, *Constraint Integer
    Programming*; Berthold 2006, *Primal Heuristics for Mixed Integer
    Programs*).

    The point is accepted only when both checks hold exactly, with no
    tolerance: every cell's ``z`` and ``y`` costs sum to 0 (so no ``z``
    without a ``y`` partner carries a cost, and the objective is the bound
    with no sum that cancels), and ``MipProblem.violations`` finds no row or
    bound broken. Higher levels are not certified: their plane and tour
    columns would need values of their own.
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
        )


def _round_binaries(sv: SitingVariables, family: str, vec: np.ndarray) -> np.ndarray:
    """The cells of ``family`` whose variable is 1; a value off 0 and 1 by more
    than ``INTEGRALITY_TOL`` raises."""
    start = sv.start[family]
    values = vec[start : start + len(sv.cells[family])]
    zero = np.abs(values) <= INTEGRALITY_TOL
    one = ~zero & (np.abs(values - 1.0) <= INTEGRALITY_TOL)
    binary = zero | one
    if not binary.all():
        k = int(binary.argmin())
        i, j = sv.cells[family][k].tolist()
        raise IntegralityError(
            f"variable {family}_{i}_{j} = {float(values[k])} is fractional beyond tolerance {INTEGRALITY_TOL}"
        )
    return sv.cells[family][one]


def diag_corrected_length(emb_mask: np.ndarray, cell_length: float) -> float:
    """Embankment length with diagonal runs weighted sqrt(2).

    A spanning forest of the 8-connected embankment components that prefers
    orthogonal links needs one diagonal link for each join of two 4-connected
    pieces: (4-connected components) - (8-connected components) in all. Each
    adds (sqrt(2)-1)*Lc to the per-cell length. Reporting estimate only.
    """
    base = float(np.count_nonzero(emb_mask)) * cell_length
    diagonal_links = len(connected_components(emb_mask, "four")) - len(
        connected_components(emb_mask, "eight")
    )
    return base + (math.sqrt(2) - 1) * cell_length * diagonal_links


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
    values: Mapping[str, float] | np.ndarray,
    *,
    status: str = "optimal",
    objective_value: float | None = None,
    gap: float | None = None,
    wall_time_s: float = 0.0,
) -> ReservoirSolution:
    """Turn solver values into masks and physically recomputed metrics.

    ``values`` is the solution vector, or a name -> value mapping (see
    ``MipProblem.values_vector``); the cells the builder fixed on join the
    masks and the link. A binary within ``INTEGRALITY_TOL`` of 0 or 1 reads as
    that value; any other raises IntegralityError. Reservoir components the
    solution does not need are dropped first (see ``_drop_spare_components``);
    the connectivity verdict, storage, area, embankment and costs are then all
    rebuilt from the kept masks and the terrain, never read back from the
    solver objective.
    """
    grid, spec, params = sp.grid, sp.spec, sp.cost_params
    vec = sp.mip.values_vector(values)
    fixed = sp.variables.fixed
    y_mask, z_mask = (np.zeros(grid.shape, dtype=bool) for _ in range(2))
    for mask, on in ((y_mask, _round_binaries(sp.variables, "y", vec)),
                     (z_mask, np.concatenate([_round_binaries(sp.variables, "z", vec), fixed["z"]]))):
        mask[on[:, 0], on[:, 1]] = True
    x_mask = z_mask & ~y_mask
    link_cells = [tuple(cell) for cell in _round_binaries(sp.variables, "l", vec).tolist()
                  + fixed["l"].tolist()]

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
) -> list[str]:
    """Check the mask-level feasibility semantics of the base model.

    Returns human-readable violation strings; an empty list means the solution
    satisfies the shape rules and the volume target, within ``VOLUME_RTOL``,
    on this grid.
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
    if storage < spec.vol_min * (1 - VOLUME_RTOL):
        problems.append(f"stored volume {storage:.6e} below target {spec.vol_min:.6e}")

    if not cands.perimeter_ok[solution.link_cell]:
        problems.append("link cell is not a perimeter candidate")
    if not x[solution.link_cell]:
        problems.append("link cell is not an active perimeter cell")
    return problems
