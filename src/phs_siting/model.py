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
the shape rules well defined at grid edges. Below the tour rung the builder
leaves out the columns that a dominance argument fixes, with the rows they
satisfy (see ``build_siting_problem``). At level 0, ``certify_level_zero``
proves the site of every candidate optimal from the candidate rasters alone,
when it is, and then no model is built.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import IntEnum

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
    _dilate4,
    _four_sides,
    _label,
    count_components,
)

Cell = tuple[int, int]

#: Relative slack on the volume target when storage is recomputed from masks.
VOLUME_RTOL = 1e-6
#: Distance from 0 or 1 within which ``extract_solution`` reads a binary's value.
INTEGRALITY_TOL = 1e-6

_DIRECTIONS = ("up", "down", "left", "right")
#: (row, column) offsets: a cell alone; its four neighbours in ``FOUR_NEIGHBORS``
#: order; and the cell with its neighbours in row-major order.
_SELF = np.zeros((2, 1), dtype=np.int64)
_FOUR = np.array(FOUR_NEIGHBORS).T
_STENCIL = np.array([(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]).T
#: Raster id of a cell whose ``z`` the builder fixed at 1 (absent cells are -1).
_FIXED_ON = -2


class VarKind(IntEnum):
    """A variable's kind; each member is the int8 code ``MipProblem.kinds`` stores.

    Array code compares with ``int(member)``: numpy probes a member for the
    array protocols first, which costs microseconds per operation.
    """

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
    if values.size == n:
        return values
    if n and (values.size == 0 or n % values.size):
        raise ValueError(f"{values.size} values do not repeat evenly over {n} entries")
    return values[np.arange(n) % max(values.size, 1)]


def _codes(values, n: int, enum: type[IntEnum]) -> np.ndarray:
    """``_spread`` of ``enum`` members or codes to int8; a code outside ``enum`` raises."""
    if isinstance(values, int) and 0 <= values < len(enum):  # one member or code
        return np.full(n, int(values), dtype=np.int8)
    codes = _spread(values, n, np.int64)
    bad = (codes < 0) | (codes >= len(enum))
    if bad.any():
        raise ValueError(f"{codes[bad][0]} is not a valid {enum.__name__} code")
    return codes.astype(np.int8)


def _canonical_csr(n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray,
                   vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the COO triplets, as SciPy's
    ``csr_array((vals, (rows, cols)))`` builds it: entries sorted by (row,
    column), each repeated pair summed left to right in the order given,
    explicit zeros kept. Entries that arrive in that order already are not
    sorted."""
    key = rows * n_cols + cols
    if key.size > 1 and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        if len(first) < len(key):
            # one pass per repeat, so each sum runs left to right as SciPy's
            # does (``np.add.reduceat`` adds five or more terms in another order)
            size = np.diff(np.append(first, len(key)))
            summed = vals[first]
            for k in range(1, int(size.max())):
                more = size > k
                summed[more] += vals[first[more] + k]
            rows, cols, vals = rows[first], cols[first], summed
    counts = np.bincount(rows, minlength=n_rows)
    if len(counts) > n_rows:
        raise ValueError("row block references rows outside the block")
    return np.concatenate(([0], np.cumsum(counts))), cols, vals


class MipProblem:
    """Sparse mixed-integer linear program stored as arrays.

    Variables are kind/bound arrays; constraints are one canonical CSR matrix
    (``csr``: column indices sorted within each row, duplicate entries summed,
    explicit zeros kept) with a sense and a right-hand side per row; the
    objective is sparse and keeps the ids it was given, zero coefficients
    included. Kinds and senses are stored as the int8 codes that the
    ``VarKind`` and ``Sense`` members are. Variables and rows enter in blocks;
    each row block is brought to canonical form as it is added and appended.
    Names are stored per block (a list, or a :class:`CellNames` pattern over
    cells) and spelled out on demand, as are the ``rows`` view, the name -> id
    index and the SciPy ``matrix``. Uniqueness of names is up to the caller:
    the builders and the file readers.
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
        self._indptr = _Column(np.int32)
        self._indptr.extend([0])
        self._indices = _Column(np.int32)
        self._data = _Column(float)
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
        binary = codes == int(VarKind.BINARY)
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

        ``rows`` index the block's own rows (0 .. len(names)-1); a repeated
        (row, col) pair is summed. ``sense`` (members or codes) and ``rhs`` are
        one value, or one per pattern of ``names`` (one per name for a list),
        repeated over its cells.
        """
        n_rows = len(names)
        senses = _codes(sense, n_rows, Sense)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        rhs = _spread(rhs, n_rows, float)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise ValueError("row block references unknown variable ids")
        if not np.isfinite(vals).all():
            raise ValueError("row block has non-finite coefficients")
        if not np.isfinite(rhs).all():
            raise ValueError("row block has non-finite rhs")
        indptr, indices, data = _canonical_csr(n_rows, self.num_variables, rows, cols, vals)
        self._indptr.extend(indptr[1:] + self.nnz)
        self._indices.extend(indices)
        self._data.extend(data)
        self._row_names.append(names)
        self._sense.extend(senses)
        self._rhs.extend(rhs)
        self._views.clear()

    def set_objective(self, coeffs: Mapping[int, float] | tuple[np.ndarray, np.ndarray],
                      constant: float = 0.0) -> None:
        """Set the objective from {variable id: coefficient} or from an
        (ids, coefficients) pair of arrays with distinct ids."""
        if isinstance(coeffs, Mapping):
            ids = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
            vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        else:
            ids, vals = np.asarray(coeffs[0], dtype=np.int64), np.asarray(coeffs[1], dtype=float)
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
        return self.kinds != int(VarKind.CONTINUOUS)

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
        lo = np.where(senses == int(Sense.LE), -np.inf, rhs)
        hi = np.where(senses == int(Sense.GE), np.inf, rhs)
        return lo, hi

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constraint matrix as (indptr, indices, data), int32 indices,
        canonical: sorted column indices in every row and no repeated entry."""
        return self._indptr.array(), self._indices.array(), self._data.array()

    @property
    def nnz(self) -> int:
        """Stored entries of the constraint matrix, explicit zeros included."""
        return len(self._data)

    def violations(self, vec: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
        """Name-free feasibility test of the point ``vec``.

        Returns masks of the columns outside their bounds and of the integer
        columns off an integer, each by more than ``tol``; the row activities
        ``A @ vec``; and a mask of the rows whose activity crosses the rhs on
        the side its sense forbids by more than ``tol * max(1, |rhs|)``.
        """
        outside = (vec < self.lb - tol) | (vec > self.ub + tol)
        fractional = self.integer_mask & (np.abs(vec - np.round(vec)) > tol)
        indptr, indices, data = self.csr
        if "entry_rows" not in self._views:
            self._views["entry_rows"] = np.repeat(np.arange(self.num_constraints), np.diff(indptr))
        # entries in CSR order, so each row sums as the CSR matvec does
        activity = np.bincount(self._views["entry_rows"], data * vec[indices],
                               minlength=self.num_constraints)
        rhs, senses = self.rhs, self.senses
        slack = tol * np.maximum(1.0, np.abs(rhs))
        above, below = activity > rhs + slack, activity < rhs - slack
        le, ge = senses == int(Sense.LE), senses == int(Sense.GE)
        violated = np.where(le, above, np.where(ge, below, above | below))
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
        indptr, indices, data = self.csr
        ptr = indptr[start : stop + 1].tolist()
        entries = slice(ptr[0], ptr[-1])
        pairs = list(zip(indices[entries].tolist(), data[entries].tolist()))
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


def _at(raster: np.ndarray, cells: np.ndarray, offsets: np.ndarray = _SELF) -> np.ndarray:
    """Per cell of ``cells`` (rows) and offset (columns): the value of an
    ``_id_raster`` at that cell shifted by the offset."""
    return raster[cells[:, 0, None] + 1 + offsets[0], cells[:, 1, None] + 1 + offsets[1]]


class _NameBlocks:
    """The names of several blocks, one block after another."""

    def __init__(self, blocks: list):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(self.blocks)


class _RowFamilies:
    """Row families gathered in row order and added to a problem as one block,
    which costs one ``add_rows`` call however many families there are.

    A family declares its names, its senses and its rhs (each one value, or
    one per pattern of its names), and its entries come as terms or as a
    fixed-width table of column ids. An entry on a negative id (no column)
    drops out.
    """

    def __init__(self):
        self.names: list = []
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.n_rows = 0

    def _add(self, names, sense, rhs, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        n = len(names)
        self.names.append(names)
        self.parts.append((rows + self.n_rows, cols, vals, _codes(sense, n, Sense), _spread(rhs, n, float)))
        self.n_rows += n

    def add_terms(self, names, sense, rhs, *terms: tuple[np.ndarray, np.ndarray, object]) -> None:
        """A family whose entries are ``(rows, cols, coef)`` terms over its own
        rows: coefficient ``coef`` (one value, or one per entry) on id
        ``cols[k]`` in row ``rows[k]``."""
        parts = []
        for rows, cols, coef in terms:
            keep = cols >= 0
            parts.append((rows[keep], cols[keep], np.full(cols.shape, coef, dtype=float)[keep]))
        self._add(names, sense, rhs, *(np.concatenate(p) for p in zip(*parts)))

    def add_table(self, names, sense, rhs, table: np.ndarray, coefs,
                  keep: np.ndarray | None = None) -> None:
        """A family with one row per row of ``table``, a fixed-width table of
        column ids: coefficient ``coefs[j]`` on id ``table[k, j]``. ``keep``,
        one flag per table row, leaves out the rows it flags False."""
        if keep is not None:
            table = table[keep]
        rows, j = (table >= 0).nonzero()
        self._add(names, sense, rhs, rows, table[rows, j], np.asarray(coefs, dtype=float)[j])

    def add_to(self, prob: MipProblem) -> None:
        rows, cols, vals, senses, rhs = (np.concatenate(part) for part in zip(*self.parts))
        prob.add_rows(_NameBlocks(self.names), rows, cols, vals, senses, rhs)


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


def _cell_volumes(grid: TerrainGrid, spec: SitingSpec, interior: np.ndarray) -> np.ndarray:
    """Storage of each cell of the ``interior`` mask in row-major order, the
    ``volume`` row's coefficients.

    Raises InfeasibleProblemError when all of them together, summed left to
    right as the row's activity is, fall short of the volume target.
    """
    volume = (spec.water_elevation - grid.elevations[interior]) * grid.cell_area
    capacity = _running_sum(volume)
    if capacity < spec.vol_min:
        raise InfeasibleProblemError(
            f"total storable capacity {capacity:.3e} m^3 over {len(volume)} interior "
            f"candidates is below the volume target {spec.vol_min:.3e} m^3"
        )
    return volume


def _conveyance(spec: SitingSpec, params: CostParams, dist: DistanceField, cells: np.ndarray) -> np.ndarray:
    """Conveyance dollars of a link on each cell of the mask ``cells``, in row-major order."""
    if dist.values.shape != cells.shape:
        raise ValueError("distance field shape does not match the grid")
    excavation, lining = conveyance_cost(spec.flow, dist.values[cells], params)
    return excavation + lining


def _fix_columns(cands: CandidateSets, conveyance: np.ndarray, fixing: bool):
    """The column fixing of ``build_siting_problem``, the one copy of its rule.

    Returns ``on``, the raster of D (empty unless ``fixing``); ``on_p``, its
    value per perimeter candidate in row-major order (``conveyance`` holds one
    value per perimeter candidate in that order too); ``keep_l``, per
    perimeter candidate whether its ``l`` may be 1: c* and the cells cheaper
    than c*, or every cell when D is empty; and the index of c* among the
    perimeter candidates, or None. A perimeter candidate that is not an
    interior candidate stands at or above the water level, so it costs no
    embankment: D is the set of such cells with a 4-neighbor in the set.
    """
    if fixing:
        on = cands.perimeter_ok & ~cands.interior_ok
        on &= _dilate4(on)
    else:
        on = np.zeros(cands.shape, dtype=bool)
    on_p = on[cands.perimeter_ok]
    if not on_p.any():
        return on, on_p, np.ones(len(on_p), dtype=bool), None
    best = int(np.flatnonzero(on_p)[conveyance[on_p].argmin()])
    keep_l = conveyance < conveyance[best]
    keep_l[best] = True
    return on, on_p, keep_l, best


def build_siting_problem(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    *,
    cands: CandidateSets | None = None,
    dist: DistanceField | None = None,
    level: int = 0,
    perimeter_min_neighbors: int = 1,
) -> SitingProblem:
    """Assemble the siting MIP at a given connectivity-defense level.

    Levels: 0 none, 1 horizontal/vertical separating planes, 2 planes plus
    diagonals, 3 perimeter tour (TSP) constraints.

    The base model is built from cell-id rasters, its variables as one block
    and its rows as one block. Variables come in the order z, y, l, each in
    row-major cell order; the perimeter indicator of a perimeter candidate is
    x = z - y (z where the cell has no y). Rows: per interior cell
    ``role_i_j``, y <= z where the cell is also a perimeter candidate and
    y = z where it is not; per
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
        cands = _terrain.candidate_sets(grid, spec.water_elevation)
    if dist is None:
        dist = _terrain.distance_field(grid)
    if perimeter_min_neighbors not in (1, 3):
        raise ValueError("perimeter_min_neighbors must be 1 (as per the base model) or 3")

    water = spec.water_elevation
    y_cells, p_cells = np.argwhere(cands.interior_ok), np.argwhere(cands.perimeter_ok)
    volume = _cell_volumes(grid, spec, cands.interior_ok)
    if not len(p_cells):
        raise InfeasibleProblemError("no perimeter candidates; cannot place a conveyance link")
    embankment = embankment_cell_cost(grid.cell_length, water,
                                      grid.elevations[p_cells[:, 0], p_cells[:, 1]], params)[0]
    conveyance = _conveyance(spec, params, dist, cands.perimeter_ok)
    on, on_p, keep_l, best = _fix_columns(cands, conveyance, level <= 2 and perimeter_min_neighbors == 1)
    fixed_l = p_cells[:0]
    if best is not None and keep_l.sum() == 1:
        keep_l[best], fixed_l = False, p_cells[best : best + 1]

    prob = MipProblem()
    cells = {"z": np.argwhere(cands.reservoir_ok & ~on), "y": y_cells, "l": p_cells[keep_l]}
    prob.add_variables(_NameBlocks([CellNames((f"{f}_{{}}_{{}}",), c) for f, c in cells.items()]))
    start = dict(zip(cells, np.cumsum([0, *map(len, cells.values())]).tolist()))
    sv = SitingVariables(cells, start, {"z": np.argwhere(on), "l": fixed_l})
    ids = {f: sv.ids(f) for f in cells}
    Z, Y = (_id_raster(cands.shape, cells[f], ids[f]) for f in "zy")
    Z[1:-1, 1:-1][on] = _FIXED_ON  # no column, so entries on it drop out like absent ones

    def kept(keep: np.ndarray) -> np.ndarray | None:
        return None if keep.all() else keep

    # The row families go in as one block, in row order. Most are a table of
    # column ids, one row per model row, with one coefficient per table
    # column; negative ids (no column) drop out. Ids rise along each table
    # row (z ids run in row-major cell order, then y, then l), so the entries
    # arrive in canonical order. The perimeter indicator x = z - y enters as
    # the (z, y) ids of each cell, and a row that holds a z fixed on is
    # satisfied and left out.
    families = _RowFamilies()
    pz, py = _at(Z, p_cells)[:, 0], _at(Y, p_cells)[:, 0]
    on_perimeter = cands.perimeter_ok[y_cells[:, 0], y_cells[:, 1]]
    families.add_table(CellNames(("role_{}_{}",), y_cells),
                       np.where(on_perimeter, int(Sense.LE), int(Sense.EQ)), 0.0,
                       np.column_stack([_at(Z, y_cells), ids["y"]]), (-1.0, 1.0))

    # The stencil's middle column is the cell's own z; a cell fixed on has a
    # neighbour fixed on too, so testing the whole stencil drops the same rows.
    stencil = _at(Z, p_cells, _STENCIL)
    keep = kept((stencil != _FIXED_ON).all(axis=1))
    m = float(perimeter_min_neighbors)
    families.add_table(CellNames(("contact_{}_{}",), p_cells, keep), Sense.LE, 0.0,
                       np.column_stack([stencil, py]), (-1.0, -1.0, m, -1.0, -1.0, -m), keep=keep)

    nbr = _at(Z, y_cells, _FOUR).ravel()  # row 4k + d: cell k, direction d
    keep = kept(nbr != _FIXED_ON)
    inter = tuple(f"inter_{{}}_{{}}_{d}" for d in _DIRECTIONS)
    families.add_table(CellNames(inter, y_cells, keep), Sense.LE, 0.0,
                       np.column_stack([nbr, np.repeat(ids["y"], len(FOUR_NEIGHBORS))]),
                       (-1.0, 1.0), keep=keep)

    ny = len(y_cells)
    families.add_terms(["volume"], Sense.GE, spec.vol_min, (np.zeros(ny, dtype=np.int64), ids["y"], volume))

    off = keep_l & ~on_p  # linkx rows: the link cells off D
    families.add_table(CellNames(("linkx_{}_{}",), p_cells[off]), Sense.LE, 0.0,
                       np.column_stack([pz[off], py[off], ids["l"][off[keep_l]]]), (-1.0, 1.0, 1.0))
    nl = len(ids["l"])
    if nl:
        families.add_terms(["link_sum"], Sense.EQ, 1.0, (np.zeros(nl, dtype=np.int64), ids["l"], 1.0))
    families.add_to(prob)

    # a wet perimeter cell's embankment sits on x = z - y; it lies below the
    # water level and is not blocked, so it is an interior candidate with a y
    wet = embankment != 0
    objective = (np.concatenate([pz[wet], py[wet], ids["l"]]),
                 np.concatenate([embankment[wet], -embankment[wet], conveyance[keep_l]]))
    constant = equipment_cost(spec.head_m, spec.power_mw, params)
    if len(fixed_l):
        constant += float(conveyance[best])
    prob.set_objective(objective, constant)

    if level >= 1:
        _connectivity.add_separating_planes(prob, sv, cands, include_diagonals=level >= 2)
    if level >= 3:
        _connectivity.add_tour_constraints(prob, sv, cands)

    return SitingProblem(prob, sv, grid, cands, spec, params, dist, int(level))


def certify_level_zero(
    grid: TerrainGrid,
    spec: SitingSpec,
    params: CostParams,
    *,
    cands: CandidateSets,
    dist: DistanceField,
    perimeter_min_neighbors: int = 1,
) -> ReservoirSolution | None:
    """The optimal site of the level-0 model, when the candidate rasters prove
    one without building it; else None.

    The site is "all candidates": the reservoir is every reservoir candidate,
    the interior every interior candidate, and the link sits where
    ``build_siting_problem``'s tie rule puts it (``_fix_columns``): on the
    first cell in row-major order of least conveyance among the cells whose
    ``l`` it keeps, which is c* alone when no kept cell is cheaper. In the
    model that site is the point with every ``z`` and ``y`` at 1 and that
    ``l`` at 1.

    Why it is optimal when accepted. Every feasible point of the level-0
    model, fractional or not, costs at least the bound "equipment + the
    cheapest conveyance over the perimeter candidates": each wet perimeter
    cell adds ``c (z - y)`` with ``c >= 0``, which its ``role`` row (y <= z)
    keeps >= 0; ``link_sum`` makes the ``l`` a convex combination; and the
    cheapest kept ``l`` is the cheapest perimeter candidate, since every
    ``l`` the builder drops costs at least c*'s. The site attains the bound:
    a wet perimeter candidate lies below the water level and is not blocked,
    so it is an interior candidate and its ``z - y`` is 0, and the site has
    no embankment. A feasible point that attains a valid lower bound is
    optimal (Achterberg 2007, *Constraint Integer Programming*).

    When the point is feasible, row by row: ``role`` always holds (1 <= 1,
    1 = 1); ``contact`` holds on interior candidates (z - y = 0) and, at
    ``perimeter_min_neighbors = 1``, on every other perimeter candidate,
    which has an interior neighbor; ``link_sum`` and the bounds hold. The
    rest are the checks, in order:

    - ``inter`` (y <= z_neighbor, a neighbor outside the grid or the
      candidate sets being constant 0): every 4-neighbor of an interior
      candidate is a reservoir candidate inside the grid;
    - ``contact`` at ``perimeter_min_neighbors = 3``: every perimeter
      candidate that is not an interior candidate has at least three
      reservoir candidates among its 4-neighbors;
    - ``volume``: the builder's capacity check, whose sum runs in the
      row's order; it raises InfeasibleProblemError as the builder does;
    - ``linkx`` (l <= z - y): the link cell is not an interior candidate.

    So the site is accepted exactly when the level-0 model's all-ones point
    is feasible, and no model is built. ``certify_site`` runs the checks and
    the prune of spare components; ``read_out`` reads the site out. The
    solution reports status ``optimal``, the bound as its objective, gap 0,
    no model size, and the seconds the checks and the prune took as its wall
    time.
    """
    start = time.perf_counter()
    site = certify_site(grid, spec, params, cands=cands, dist=dist,
                        perimeter_min_neighbors=perimeter_min_neighbors)
    if site is None:
        return None
    return read_out(grid, spec, params, dist, site, wall_time_s=time.perf_counter() - start,
                    n_variables=0, n_constraints=0)


def certify_site(
    grid: TerrainGrid,
    spec: SitingSpec,
    params: CostParams,
    *,
    cands: CandidateSets,
    dist: DistanceField,
    perimeter_min_neighbors: int = 1,
) -> Site | None:
    """The pruned site that ``certify_level_zero`` reads out, or None where it
    returns None: its checks, in its order, on the candidate masks."""
    interior, reservoir = cands.interior_ok, cands.reservoir_ok
    up, down, left, right = _four_sides(reservoir)
    if (interior & ~(up & down & left & right)).any():
        return None
    if perimeter_min_neighbors == 3:
        count = up.astype(np.int8) + down + left + right
        if (cands.perimeter_ok & ~interior & (count < 3)).any():
            return None
    _cell_volumes(grid, spec, interior)
    conveyance = _conveyance(spec, params, dist, cands.perimeter_ok)
    keep_l = _fix_columns(cands, conveyance, perimeter_min_neighbors == 1)[2]
    kept = np.flatnonzero(keep_l)
    k = int(kept[conveyance[kept].argmin()])
    link = divmod(int(np.flatnonzero(cands.perimeter_ok)[k]), cands.shape[1])
    if interior[link]:
        return None
    objective = float(equipment_cost(spec.head_m, spec.power_mw, params)) + float(conveyance[k])
    return _pruned_site(grid, spec, interior.copy(), reservoir.copy(), link,
                        status="optimal", objective_value=objective, gap=0.0, level=0)


# ---------------------------------------------------------------------------
# Solution extraction
# ---------------------------------------------------------------------------


@dataclass
class Site:
    """An incumbent before its physical readout: the masks once the spare
    reservoir components are dropped (``_drop_spare_components``), the link,
    the number of components kept, and the verdict of the rung that found
    it. ``read_out`` turns it into a ``ReservoirSolution``."""

    perimeter_mask: np.ndarray
    interior_mask: np.ndarray
    reservoir_mask: np.ndarray
    link_cell: Cell
    n_components: int
    status: str
    objective_value: float | None  # None: the readout reports the total cost
    gap: float | None
    level: int

    @property
    def connected(self) -> bool:
        return self.n_components == 1


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


def _column_vector(problem: MipProblem, x) -> np.ndarray:
    """``x`` as floats in column order; ValueError unless it holds one value per column."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (problem.num_variables,):
        raise ValueError(f"problem {problem.name!r} has {problem.num_variables} variables, "
                         f"got a vector of shape {vec.shape}")
    return vec


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


def _running_sum(values: np.ndarray) -> float:
    """The sum taken left to right, as a ``+=`` loop takes it (``np.sum`` adds pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def diag_corrected_length(emb_mask: np.ndarray, cell_length: float) -> float:
    """Embankment length with diagonal runs weighted sqrt(2).

    A spanning forest of the 8-connected embankment components that prefers
    orthogonal links needs one diagonal link for each join of two 4-connected
    pieces: (4-connected components) - (8-connected components) in all. Each
    adds (sqrt(2)-1)*Lc to the per-cell length. Reporting estimate only.
    """
    cells = int(np.count_nonzero(emb_mask))
    base = float(cells) * cell_length
    # each 8-connected component joins 4-connected ones, so with fewer than
    # two of those (fewer than two cells, say) there is no diagonal join to count
    four = count_components(emb_mask, "four") if cells > 1 else cells
    diagonal_links = four - count_components(emb_mask, "eight") if four > 1 else 0
    return base + (math.sqrt(2) - 1) * cell_length * diagonal_links


def _drop_spare_components(
    masks: tuple[np.ndarray, np.ndarray, np.ndarray],
    link: Cell,
    grid: TerrainGrid,
    spec: SitingSpec,
) -> int:
    """Clear the reservoir components that neither the link nor the volume needs.

    Keeps the 4-connected component of the reservoir mask that holds the link,
    then adds the others in descending order of stored volume (the larger
    component first on equal storage, then the one whose first cell comes
    first in row-major order) until storage reaches ``spec.vol_min`` (within
    ``VOLUME_RTOL``). Every remaining component is cleared from the
    (perimeter, interior, reservoir) masks in place. Dropped components touch
    no kept cell, so the shape rules still hold, and embankment cost is never
    negative, so the cost cannot rise. Returns the number of components kept.

    The reservoir is labelled once, and a single component is kept as it is.
    A component stores the depth below the water level times the cell area
    on each of its interior cells, summed in row-major order.
    """
    labels, count = _label(masks[2], "four")
    if count < 2:
        return count
    cell_storage = np.where(masks[1], spec.water_elevation - grid.elevations, 0.0) * grid.cell_area
    link_label = int(labels[link])
    stored, rank = {}, []
    for k in range(1, count + 1):
        cells = labels == k
        stored[k] = float(cell_storage[cells].sum())
        rank.append((k != link_label, -stored[k], -int(np.count_nonzero(cells)), int(cells.argmax()), k))
    kept: list[int] = []
    total = 0.0
    for away_from_link, *_, k in sorted(rank):
        if away_from_link and total >= spec.vol_min * (1 - VOLUME_RTOL):
            break
        kept.append(k)
        total += stored[k]
    if len(kept) < count:
        dropped = np.ones(count + 1, dtype=bool)
        dropped[[0, *kept]] = False
        drop = dropped[labels]
        for mask in masks:
            mask[drop] = False
    return len(kept)


def _pruned_site(grid: TerrainGrid, spec: SitingSpec, y_mask: np.ndarray, z_mask: np.ndarray,
                 link: Cell, **verdict) -> Site:
    """The site with interior ``y_mask``, reservoir ``z_mask`` and ``link``,
    once its spare components are dropped from the masks in place;
    ``verdict`` gives the remaining ``Site`` fields."""
    x_mask = z_mask & ~y_mask
    n_components = _drop_spare_components((x_mask, y_mask, z_mask), link, grid, spec)
    return Site(x_mask, y_mask, z_mask, link, n_components, **verdict)


def extract_site(
    sp: SitingProblem,
    x: np.ndarray,
    *,
    status: str = "optimal",
    objective_value: float | None = None,
    gap: float | None = None,
) -> Site:
    """The pruned site of a solution vector, the one ``extract_solution`` reads out."""
    vec = _column_vector(sp.mip, x)
    fixed = sp.variables.fixed
    y_mask, z_mask = (np.zeros(sp.grid.shape, dtype=bool) for _ in range(2))
    for mask, on in ((y_mask, _round_binaries(sp.variables, "y", vec)),
                     (z_mask, np.concatenate([_round_binaries(sp.variables, "z", vec), fixed["z"]]))):
        mask[on[:, 0], on[:, 1]] = True
    link_cells = [tuple(cell) for cell in _round_binaries(sp.variables, "l", vec).tolist()
                  + fixed["l"].tolist()]

    if not np.any(y_mask):
        raise InfeasibleProblemError("incumbent floods no interior cell; volume target cannot hold")
    if len(link_cells) != 1:
        raise IntegralityError(f"expected exactly one link cell, found {len(link_cells)}")
    return _pruned_site(sp.grid, sp.spec, y_mask, z_mask, link_cells[0], status=status,
                        objective_value=objective_value, gap=gap, level=sp.level)


def extract_solution(
    sp: SitingProblem,
    x: np.ndarray,
    *,
    status: str = "optimal",
    objective_value: float | None = None,
    gap: float | None = None,
    wall_time_s: float = 0.0,
) -> ReservoirSolution:
    """Turn a solution vector into masks and physically recomputed metrics.

    ``x`` holds one value per column of ``sp.mip``, in column order; any other
    length raises ValueError. The cells the builder fixed on join the masks
    and the link. A binary within ``INTEGRALITY_TOL`` of 0 or 1 reads as that
    value; any other raises IntegralityError. The site's spare components are
    dropped (``extract_site``), and ``read_out`` reads it out.
    """
    site = extract_site(sp, x, status=status, objective_value=objective_value, gap=gap)
    return read_out(sp.grid, sp.spec, sp.cost_params, sp.dist, site, wall_time_s=wall_time_s,
                    n_variables=sp.mip.num_variables, n_constraints=sp.mip.num_constraints)


def read_out(
    grid: TerrainGrid,
    spec: SitingSpec,
    params: CostParams,
    dist: DistanceField,
    site: Site,
    **report,
) -> ReservoirSolution:
    """The physical reading of ``site`` on ``grid``.

    The connectivity verdict, storage, area, embankment and costs are all
    rebuilt from the site's masks and the terrain, never read back from a
    solver objective. ``report`` gives the remaining ``ReservoirSolution``
    fields: ``wall_time_s``, ``n_variables``, ``n_constraints`` and, for a
    strategy run, ``trace``.
    """
    x_mask, y_mask = site.perimeter_mask, site.interior_mask
    water = spec.water_elevation
    storage = float(np.where(y_mask, water - grid.elevations, 0.0).sum()) * grid.cell_area
    area_ha = float(np.count_nonzero(y_mask)) * grid.cell_area / 1e4

    with np.errstate(invalid="ignore"):
        emb_mask = x_mask & (grid.elevations < water)
    emb_cost, emb_volume = (_running_sum(v) for v in embankment_cell_cost(
        grid.cell_length, water, grid.elevations[emb_mask], params))

    link = site.link_cell
    excavation, lining = conveyance_cost(spec.flow, float(dist.values[link]), params)
    costs = CostBreakdown(
        embankment=emb_cost,
        conveyance_excavation=excavation,
        conveyance_lining=lining,
        equipment=equipment_cost(spec.head_m, spec.power_mw, params),
    )

    return ReservoirSolution(
        perimeter_mask=x_mask,
        interior_mask=y_mask,
        reservoir_mask=site.reservoir_mask,
        link_cell=link,
        storage_m3=storage,
        area_ha=area_ha,
        embankment_length_m=float(np.count_nonzero(emb_mask)) * grid.cell_length,
        embankment_length_diag_m=diag_corrected_length(emb_mask, grid.cell_length),
        embankment_volume_m3=emb_volume,
        distance_m=float(dist.values[link]),
        costs=costs,
        objective_value=costs.total if site.objective_value is None else site.objective_value,
        gap=site.gap,
        status=site.status,
        level=site.level,
        connected=site.connected,
        n_components=site.n_components,
        valid=site.connected,
        **report,
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

    up, down, left, right = _four_sides(z)
    if np.any(x & ~(up | down | left | right)):
        problems.append("perimeter cell with no reservoir neighbor")
    if np.any(y & ~(up & down & left & right)):
        problems.append("interior cell not surrounded by reservoir cells")

    # summed over the interior cells alone, so a window around the site gives the same sum
    storage = float((spec.water_elevation - grid.elevations[y]).sum()) * grid.cell_area
    if storage < spec.vol_min * (1 - VOLUME_RTOL):
        problems.append(f"stored volume {storage:.6e} below target {spec.vol_min:.6e}")

    if not cands.perimeter_ok[solution.link_cell]:
        problems.append("link cell is not a perimeter candidate")
    if not x[solution.link_cell]:
        problems.append("link cell is not an active perimeter cell")
    return problems
