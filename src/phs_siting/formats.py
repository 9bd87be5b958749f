"""MPS and LP files, written and read by HiGHS.

A writer loads the problem with the solve's own ``_pass_model``, sets the
objective constant as HiGHS's offset and the names in one more load, and
returns the text of HiGHS's ``writeModel``: byte-identical for the same
problem. Every write and read of a thread goes through one HiGHS object, made
on that thread's first file call in each process; each call loads or reads a
whole model into it, which replaces the one before. Free-form MPS and LP
files carry the stored row names and the ``z_i_j``, ``y_i_j`` and ``l_i_j``
variable names (the model has no perimeter column: see ``model``).
Fixed-form MPS names columns and rows
``V0000000``/``C0000000`` in order, in HiGHS's fixed layout, so structural
round trips compare it by position. Numbers carry about 15 significant digits
and can overrun a fixed field, so neither form suits a reader that cuts lines
at column positions; readers that split on whitespace, HiGHS's among them,
read both. No file carries the problem name.

Every file is read by the HiGHS reader of the solver's binding, and the
problem is rebuilt from the arrays HiGHS holds, its matrix taken once and
row-wise; kinds and senses go in as code arrays, whose codes the ``VarKind``
and ``Sense`` members are. So a problem read back takes its name from the
caller or the file stem, an integer column bounded [0, 1] reads back as
binary, and an explicit zero matrix coefficient is dropped.

HiGHS reads and writes only files. Text passes through a file with a fresh
name in a private directory of this process (``tempfile.mkdtemp``, made on
first use and removed at interpreter exit); each file is removed as soon as
its call returns or raises. Staging changes no byte of the text.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
import threading
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridFormatError
from .model import MipProblem, Sense, VarKind
from .solve import _highs, _pass_model

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import _Highs

# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------

#: Process id -> that process's private directory. Keyed by pid so that a
#: forked child makes, and removes, its own.
_STAGING: dict[int, str] = {}
_SERIAL = itertools.count()  # next() is atomic, so threads never share a name
#: This thread's HiGHS object for file calls, and the process that made it.
_LOCAL = threading.local()


def _file_highs() -> _Highs:
    """This thread's HiGHS object for file calls; a forked child makes its own."""
    pid = os.getpid()
    if getattr(_LOCAL, "pid", None) != pid:
        highs = _highs()._Highs()
        highs.setOptionValue("output_flag", False)
        _LOCAL.highs, _LOCAL.pid = highs, pid
    return _LOCAL.highs


@contextmanager
def _staged(suffix: str) -> Iterator[str]:
    """A path no file has had in this process; whatever is there on exit is removed."""
    path = os.path.join(_staging_dir(), f"{next(_SERIAL)}{suffix}")
    try:
        yield path
    finally:
        with suppress(FileNotFoundError):
            os.unlink(path)


def _staging_dir() -> str:
    pid = os.getpid()
    if pid not in _STAGING:
        made = tempfile.mkdtemp(prefix="phs-siting-")
        if _STAGING.setdefault(pid, made) == made:
            atexit.register(_remove_staging)
        else:  # another thread made one first
            os.rmdir(made)
    return _STAGING[pid]


def _remove_staging() -> None:
    """Remove this process's directory (a forked child inherits the parent's hook)."""
    path = _STAGING.pop(os.getpid(), None)
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_mps(problem: MipProblem, form: str = "free") -> str:
    """Render the problem as MPS text in "free" or "fixed" form."""
    if form not in ("free", "fixed"):
        raise ValueError(f"unknown MPS form {form!r}")
    if form == "free":
        return _write_model(problem, problem.variable_names(), problem.row_names(), ".mps")
    return _write_model(problem, [f"V{vid:07d}" for vid in range(problem.num_variables)],
                        [f"C{rid:07d}" for rid in range(problem.num_constraints)], ".mps")


def write_lp(problem: MipProblem) -> str:
    """Render the problem in CPLEX-style LP text."""
    return _write_model(problem, problem.variable_names(), problem.row_names(), ".lp")


def _write_model(problem: MipProblem, var_names: list[str], row_names: list[str],
                 suffix: str) -> str:
    """HiGHS's ``writeModel`` text of ``problem`` under these names; RuntimeError if refused.

    HiGHS writes a model without rows with a warning that its row names are
    blank, and that warning is accepted there alone.
    """
    status = _highs().HighsStatus
    highs = _file_highs()
    loaded = _pass_model(highs, problem)
    # a second load sets the offset and all the names in one call: cheaper than
    # passColName per name, or a HighsLp filled in from Python and loaded once
    lp = highs.getLp()
    lp.offset_ = problem.objective_constant
    lp.col_names_ = var_names
    lp.row_names_ = row_names
    written = {status.kOk, status.kWarning} if problem.num_constraints == 0 else {status.kOk}
    with _staged(suffix) as path:
        if (loaded, highs.passModel(lp)) != (status.kOk,) * 2 or highs.writeModel(path) not in written:
            raise RuntimeError(f"HiGHS cannot write model {problem.name!r}")
        return Path(path).read_text()


def export_problem(problem: MipProblem, fmt: str, path: str | Path) -> Path:
    """Write the problem to ``path`` in mps_fixed, mps_free, or lp format."""
    if fmt == "mps_fixed":
        text = write_mps(problem, "fixed")
    elif fmt == "mps_free":
        text = write_mps(problem, "free")
    elif fmt == "lp":
        text = write_lp(problem)
    else:
        raise ValueError(f"unknown export format {fmt!r}; use mps_fixed, mps_free or lp")
    path = Path(path)
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_mps(text: str, name: str = "parsed") -> MipProblem:
    """Read MPS text in either form; see :func:`read_problem_file`."""
    return _read_text(text, ".mps", name)


def read_lp(text: str, name: str = "parsed") -> MipProblem:
    """Read CPLEX-style LP text; see :func:`read_problem_file`."""
    return _read_text(text, ".lp", name)


def _read_text(text: str, suffix: str, name: str) -> MipProblem:
    with _staged(suffix) as path:
        with open(path, "x") as file:
            file.write(text)
        return _read_model(path, name)


def read_problem_file(path: str | Path) -> MipProblem:
    """Load a .mps (free or fixed form) or .lp file, named after the file stem.

    HiGHS reads the file and picks the grammar from the extension. Raises
    GridFormatError on what the writers never produce: a file HiGHS refuses
    or reads only with a warning, a maximization, a ranged or free row, a
    semi-continuous column, a repeated row name, or bytes that are not UTF-8
    text. A variable with lb > ub raises ValueError, naming it. A path that
    cannot be opened as a file (a missing file, a directory) raises its
    OSError, not a format error.
    """
    path = Path(path)
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"model file {path} is not UTF-8 text: {exc}") from exc
    return _read_model(str(path), path.stem)


def _read_model(path: str, name: str) -> MipProblem:
    """The problem HiGHS reads from ``path``, rebuilt as a ``MipProblem`` called ``name``."""
    core = _highs()
    highs = _file_highs()
    status = highs.readModel(path)
    if status == core.HighsStatus.kError:
        raise GridFormatError(f"HiGHS cannot read model {name!r}")
    highs.ensureRowwise()
    lp = highs.getLp()
    if lp.sense_ != core.ObjSense.kMinimize:
        raise GridFormatError(f"model {name!r} maximizes; only minimization is supported")
    col_names = lp.col_names_
    # integrality_ is empty when every column is continuous
    var_types = np.fromiter(map(int, lp.integrality_), np.int8)
    var_type = core.HighsVarType
    semi = (var_types == int(var_type.kSemiContinuous)) | (var_types == int(var_type.kSemiInteger))
    if semi.any():
        raise GridFormatError(f"variable {col_names[semi.argmax()]!r} is semi-continuous")

    # HiGHS drops every MPS row name when two repeat; the file still has them.
    row_names = lp.row_names_
    if len(row_names) != lp.num_row_:
        row_names = _mps_row_names(path)
    if len(set(row_names)) < len(row_names):
        seen: set[str] = set()
        for row_name in row_names:
            if row_name in seen:
                raise GridFormatError(f"duplicate row name {row_name!r}")
            seen.add(row_name)
    lower, upper = np.array(lp.row_lower_), np.array(lp.row_upper_)
    le, ge, eq = np.isneginf(lower), np.isposinf(upper), lower == upper
    odd = np.flatnonzero(le.astype(int) + ge + eq != 1)
    if odd.size:
        k = odd[0]
        raise GridFormatError(f"row {row_names[k]!r} has bounds [{lower[k]}, {upper[k]}]; "
                              "only <=, >= and = rows are supported")

    problem = MipProblem(name)
    col_lower, col_upper = np.array(lp.col_lower_), np.array(lp.col_upper_)
    integer = var_types == int(var_type.kInteger) if var_types.size else np.zeros(lp.num_col_, dtype=bool)
    binary = integer & (col_lower == 0.0) & (col_upper == 1.0)
    kinds = np.where(binary, int(VarKind.BINARY),
                     np.where(integer, int(VarKind.INTEGER), int(VarKind.CONTINUOUS)))
    # HiGHS reads lb > ub with a warning; add_variables raises first, naming the variable
    problem.add_variables(col_names, kinds, col_lower, col_upper)
    if status != core.HighsStatus.kOk:
        raise GridFormatError(f"HiGHS reads model {name!r} only with a warning, "
                              "such as an entry on an undeclared row or a repeated column")
    a = lp.a_matrix_  # row-wise, columns ascending in each row: no sort is left to do
    start = a.start_
    senses = np.where(le, int(Sense.LE), np.where(ge, int(Sense.GE), int(Sense.EQ)))
    problem.add_rows(row_names, np.repeat(np.arange(lp.num_row_), np.diff(start)),
                     np.fromiter(a.index_, np.int64, start[-1]), np.fromiter(a.value_, float, start[-1]),
                     senses, np.where(le, upper, lower))
    cost = np.array(lp.col_cost_)
    ids = np.flatnonzero(cost)
    problem.set_objective((ids, cost[ids]), lp.offset_)
    return problem


def _mps_row_names(path: str) -> list[str]:
    """The names declared in the ROWS section of an MPS file, in order."""
    names: list[str] = []
    in_rows = False
    for line in Path(path).read_text().splitlines():
        if line[:1].strip() and not line.startswith("*"):  # a section header
            in_rows = line.split()[0].upper() == "ROWS"
        elif in_rows and not line.startswith("*"):
            names += line.split()[1:2]
    return names


def problems_structurally_equal(
    a: MipProblem, b: MipProblem, tol: float = 1e-9
) -> list[str]:
    """Compare two problems; returns difference descriptions (empty = equal).

    Variables and rows are matched by name when both problems share the same
    name sets (free MPS, LP) and by position otherwise (fixed MPS, which
    sanitizes names but preserves order). A row's coefficients differ when it
    has entries on other variables, explicit zeros included, or a value not
    within ``tol`` (relative, floored at 1).
    """

    def close(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return (u == v) | (np.abs(u - v) <= tol * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v))))

    diffs: list[str] = []
    if a.num_variables != b.num_variables:
        diffs.append(f"variable count {a.num_variables} != {b.num_variables}")
    if a.num_constraints != b.num_constraints:
        diffs.append(f"constraint count {a.num_constraints} != {b.num_constraints}")
    if diffs:
        return diffs

    # b's variable and row ids -> a's, so a's arrays are taken in b's order;
    # None is the identity: free MPS keeps both orders, fixed MPS the
    # positions, LP the rows
    a_names, b_names = a.variable_names(), b.variable_names()
    same_order = a_names == b_names
    by_name = same_order or set(a_names) == set(b_names)
    var_map = None
    if not same_order and by_name:
        var_map = _positions(b_names, a_names)
    a_rows, b_rows = a.row_names(), b.row_names()
    row_map = None
    if by_name and a_rows != b_rows and set(a_rows) == set(b_rows):
        row_map = _positions(b_rows, a_rows)

    with np.errstate(invalid="ignore"):  # inf - inf, where u == v already holds
        kind_bad = _take(a.kinds, var_map) != b.kinds
        bound_bad = ~(close(_take(a.lb, var_map), b.lb) & close(_take(a.ub, var_map), b.ub))
        a_rhs, b_rhs = _take(a.rhs, row_map), b.rhs
        sense_bad = _take(a.senses, row_map) != b.senses
        rhs_bad = ~close(a_rhs, b_rhs)
        coef_bad = _rows_differ(a.csr, b.csr, row_map, var_map, close)
        a_cost, b_cost = _take(a.cost_vector(), var_map), b.cost_vector()
        cost_bad = np.any(((a_cost != 0.0) != (b_cost != 0.0)) | ~close(a_cost, b_cost))
        constant_bad = not close(a.objective_constant, b.objective_constant)

    for vid in np.flatnonzero(kind_bad | bound_bad).tolist():
        avid = vid if var_map is None else int(var_map[vid])
        label = a_names[avid] if by_name else f"#{avid}"
        if kind_bad[vid]:
            diffs.append(f"variable {label} kind {VarKind(a.kinds[avid]).name.lower()} != "
                         f"{VarKind(b.kinds[vid]).name.lower()}")
        if bound_bad[vid]:
            diffs.append(f"variable {label} bounds differ")
    for rid in np.flatnonzero(sense_bad | rhs_bad | coef_bad).tolist():
        label = a_rows[rid if row_map is None else row_map[rid]]
        if sense_bad[rid]:
            diffs.append(f"row {label} sense differs")
        if rhs_bad[rid]:
            diffs.append(f"row {label} rhs {a_rhs[rid]} != {b_rhs[rid]}")
        if coef_bad[rid]:
            diffs.append(f"row {label} coefficients differ")
    if cost_bad:
        diffs.append("objective coefficients differ")
    if constant_bad:
        diffs.append("objective constant differs")
    return diffs


def _positions(names: list[str], among: list[str]) -> np.ndarray:
    """The position in ``among`` of each of ``names``, all of which it holds."""
    at = dict(zip(among, itertools.count()))
    return np.fromiter(map(at.__getitem__, names), np.int64, len(names))


def _take(values, index: np.ndarray | None):
    """``values[index]``, or ``values`` itself when ``index`` is the identity (None)."""
    return values if index is None else values[index]


def _rows_differ(a_csr, b_csr, row_map: np.ndarray | None, var_map: np.ndarray | None,
                 close) -> np.ndarray:
    """Per row of the canonical CSR ``b_csr``: whether its entries, columns
    mapped through ``var_map``, differ in position or value from those of row
    ``row_map[r]`` of the canonical CSR ``a_csr``."""
    (a_ptr, a_cols, a_vals), (b_ptr, b_cols, b_vals) = a_csr, b_csr
    counts_a, counts_b = np.diff(a_ptr), np.diff(b_ptr)
    if row_map is not None:
        counts_a = counts_a[row_map]
        gather = np.repeat(a_ptr[:-1][row_map] - (np.cumsum(counts_a) - counts_a), counts_a)
        gather += np.arange(len(gather))
        a_cols, a_vals = a_cols[gather], a_vals[gather]
    b_rows = np.repeat(np.arange(len(counts_b)), counts_b)
    if var_map is not None:  # sorted again by (row, mapped column)
        b_cols = var_map[b_cols]
        order = np.lexsort((b_cols, b_rows))
        b_cols, b_vals = b_cols[order], b_vals[order]
    bad = counts_a != counts_b
    # Rows with equal counts hold aligned entries once the others are dropped.
    keep_a = np.repeat(~bad, counts_a)
    keep_b = np.repeat(~bad, counts_b)
    entry_bad = (a_cols[keep_a] != b_cols[keep_b]) | ~close(a_vals[keep_a], b_vals[keep_b])
    bad[b_rows[keep_b][entry_bad]] = True
    return bad
