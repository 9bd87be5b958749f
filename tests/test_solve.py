"""The HiGHS solve, incumbent verification, and the exhaustive oracle."""

import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy import _core as core

import phs_siting as ps
from phs_siting import formats
from phs_siting.model import MipProblem, Sense, VarKind

from conftest import (
    RIVER_ELEVATION,
    FailingHighs,
    add_row,
    add_variable,
    binding_with,
    bowl_window,
    diagonal_blob_grid,
    diagonal_blob_spec,
    highs_file_optimum,
    micro_case,
    midsize_grid,
    midsize_spec,
    named_vector,
    pit_grid,
    pit_spec,
    river_grid,
    scipy_matrix,
    solve_at_level,
    spec_for_volume,
    two_basin_grid,
    two_basin_spec,
)
from reference_model import oracle_reference


def test_highs_solves_pit_optimum():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.OPTIMAL
    assert res.values is res.x  # the name perfbench reads
    assert ps.verify_solution(sp.mip, res.x) == []


def test_highs_reports_infeasible():
    prob = MipProblem("impossible")
    a = add_variable(prob, "a")
    b = add_variable(prob, "b")
    add_row(prob, "lo", [(a, 1.0), (b, 1.0)], Sense.GE, 3.0)  # two binaries sum to 2 max
    prob.set_objective({a: 1.0, b: 1.0})
    res = ps.solve(prob, "highs")
    assert res.status is ps.SolveStatus.INFEASIBLE
    assert not res.has_incumbent


def test_solve_rejects_other_solvers():
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    with pytest.raises(ValueError, match="highs"):
        ps.solve(sp.mip, "xpress")


@pytest.mark.parametrize("gap", [-0.5, 1.0, 1.5, math.nan])
def test_solve_limits_reject_gap_target_outside_unit_interval(gap):
    # HiGHS would ignore a negative gap and stop at "optimal" far above the
    # optimum with a gap of 1 or more
    with pytest.raises(ValueError, match="gap_target"):
        ps.SolveLimits(gap_target=gap)


@pytest.mark.parametrize("limit", [0.0, -1.0, math.nan])
def test_solve_limits_reject_time_limit_that_is_not_positive(limit):
    # max(nan, 1e-3) is nan, which HiGHS would run with no effective limit
    with pytest.raises(ValueError, match="time_limit_s"):
        ps.SolveLimits(time_limit_s=limit)


def test_time_limit_status_on_nontrivial_instance():
    sp = ps.build_siting_problem(midsize_grid(), midsize_spec(), level=1)
    res = ps.solve(sp.mip, "highs", ps.SolveLimits(time_limit_s=0.01))
    assert res.status is ps.SolveStatus.TIME_LIMIT


def test_verify_solution_flags_violations():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    assert ps.verify_solution(sp.mip, res.x) == []
    tampered = dict(zip(sp.mip.variable_names(), res.x))
    name = next(n for n in tampered if n.startswith("y_"))
    tampered[name] = 0.5
    issues = ps.verify_solution(sp.mip, named_vector(sp.mip, tampered))
    assert any("not integral" in i for i in issues)


def test_reported_gap_is_incumbent_relative():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    res = ps.solve(sp.mip, "highs")
    assert res.gap == pytest.approx((res.objective - res.bound) / abs(res.objective), abs=1e-12)
    assert res.gap <= 1e-9


# --------------------------------------------------------------------------- #
# The HiGHS adapter                                                            #
# --------------------------------------------------------------------------- #

# ``phs_siting.solve`` is the function; the module is reached by import path.
solve_mod = importlib.import_module("phs_siting.solve")


def test_status_table_covers_every_highs_model_status():
    table = solve_mod._status_table()
    assert set(table) == set(core.HighsModelStatus.__members__.values())
    statuses = {name: table[member] for name, member in core.HighsModelStatus.__members__.items()}
    for name in ("kTimeLimit", "kIterationLimit", "kSolutionLimit"):
        assert statuses[name] is ps.SolveStatus.TIME_LIMIT
    for name in ("kUnbounded", "kUnboundedOrInfeasible", "kLoadError", "kModelError",
                 "kPresolveError", "kSolveError", "kPostsolveError"):
        assert statuses[name] is ps.SolveStatus.ERROR
    assert statuses["kOptimal"] is ps.SolveStatus.OPTIMAL
    assert statuses["kInfeasible"] is ps.SolveStatus.INFEASIBLE


def test_solve_reports_nodes_and_bound():
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=3)
    res = ps.solve(sp.mip, "highs")
    assert type(res.nodes) is int and res.nodes >= 0
    assert res.bound <= res.objective


def test_limit_stop_keeps_its_incumbent(monkeypatch):
    # HiGHS stops at the first improving solution with kSolutionLimit
    monkeypatch.setitem(solve_mod._OPTIONS, "mip_max_improving_sols", 1)
    sp = ps.build_siting_problem(diagonal_blob_grid(), diagonal_blob_spec(), level=2)
    res = ps.solve(sp.mip, "highs", ps.SolveLimits(time_limit_s=30))
    assert res.status is ps.SolveStatus.TIME_LIMIT
    assert res.message == "Solution limit reached"
    assert res.has_incumbent and ps.verify_solution(sp.mip, res.x) == []
    assert res.bound < res.objective and res.gap > 0


def test_failed_run_is_an_error_without_incumbent(monkeypatch):
    monkeypatch.setattr(solve_mod, "_highs", lambda: binding_with(_Highs=FailingHighs))
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.ERROR
    assert res.message == "HiGHS run() failed (Not Set)"
    assert not res.has_incumbent and res.objective is None and res.bound is None


class _RejectingHighs(core._Highs):
    def passModel(self, *args):
        return core.HighsStatus.kError


def test_rejected_model_is_an_error(monkeypatch):
    monkeypatch.setattr(solve_mod, "_highs", lambda: binding_with(_Highs=_RejectingHighs))
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.ERROR and not res.has_incumbent
    assert res.message == "HiGHS could not load the model"


def test_rejected_option_raises_naming_it(monkeypatch):
    # an older HiGHS without the feasibility-jump switch fails the same way
    monkeypatch.setitem(solve_mod._OPTIONS, "no_such_option", False)
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    with pytest.raises(RuntimeError, match="no_such_option"):
        ps.solve(sp.mip, "highs")


def _micro_l3():
    grid, spec = micro_case(0)
    return grid, spec, {"level": 3}


@pytest.mark.parametrize("case", [_micro_l3, bowl_window], ids=["micro-l3", "bowl-window"])
def test_loaded_model_matches_problem_arrays(case):
    grid, spec, kwargs = case()
    mip = ps.build_siting_problem(grid, spec, **kwargs).mip
    highs = solve_mod._configured(ps.SolveLimits())
    assert solve_mod._pass_model(highs, mip) == core.HighsStatus.kOk
    lp = highs.getLp()
    assert (lp.num_col_, lp.num_row_) == (mip.num_variables, mip.num_constraints)
    assert lp.sense_ == core.ObjSense.kMinimize and lp.offset_ == 0.0
    for got, want in ((lp.col_cost_, mip.cost_vector()), (lp.col_lower_, mip.lb),
                      (lp.col_upper_, mip.ub), (lp.row_lower_, mip.row_bounds()[0]),
                      (lp.row_upper_, mip.row_bounds()[1])):
        assert np.array_equal(np.asarray(got), want)
    a = lp.a_matrix_
    fmt = sparse.csc_array if a.format_ == core.MatrixFormat.kColwise else sparse.csr_array
    want = scipy_matrix(mip)
    loaded = sparse.csr_array(fmt((a.value_, a.index_, a.start_), shape=want.shape))
    assert np.array_equal(loaded.indptr, want.indptr)
    assert np.array_equal(loaded.indices, want.indices)
    assert np.array_equal(loaded.data, want.data)
    kinds = [core.HighsVarType(int(k)) for k in mip.integer_mask]
    assert list(lp.integrality_) == kinds


# A HiGHS object with 2 threads, then ``ps.solve`` in the same process.
_SCHEDULER_SCRIPT = """
import numpy as np
from scipy.optimize._highspy import _core as core
import phs_siting as ps
from conftest import pit_grid, pit_spec

highs = core._Highs()
highs.setOptionValue("output_flag", False)
highs.setOptionValue("threads", 2)
i32 = lambda *v: np.array(v, dtype=np.int32)
f64 = lambda *v: np.array(v, dtype=float)
# minimise x subject to x >= 0.5, x integer in [0, 10]
highs.passModel(1, 1, 1, core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0,
                f64(1.0), f64(0.0), f64(10.0), f64(0.5), f64(np.inf),
                i32(0, 1), i32(0), f64(1.0), i32(1))
assert highs.run() == core.HighsStatus.kOk
sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
print(ps.solve(sp.mip, "highs").status.value)
"""


def test_solve_runs_after_a_wider_highs_scheduler():
    """HiGHS's scheduler is process-wide: a solve that pinned fewer threads
    than an earlier run in the process would fail, so ``threads`` is left alone."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    done = subprocess.run([sys.executable, "-c", _SCHEDULER_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["optimal"]


# --------------------------------------------------------------------------- #
# File export                                                                  #
# --------------------------------------------------------------------------- #

FORMATS = ("mps_free", "mps_fixed", "lp")


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_round_trip_structural(fmt, tmp_path):
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    path = tmp_path / ("model.lp" if fmt == "lp" else "model.mps")
    ps.export_problem(sp.mip, fmt, path)
    back = ps.read_problem_file(path)
    assert ps.problems_structurally_equal(sp.mip, back, tol=1e-9) == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_deterministic(fmt, tmp_path):
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=1)
    p1, p2 = tmp_path / "a.out", tmp_path / "b.out"
    ps.export_problem(sp.mip, fmt, p1)
    ps.export_problem(sp.mip, fmt, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_empty_objective(fmt, tmp_path):
    prob = MipProblem("empty-objective")
    a = add_variable(prob, "a")
    add_row(prob, "r", [(a, 1.0)], Sense.LE, 1.0)
    prob.set_objective({})
    path = tmp_path / ("empty.lp" if fmt == "lp" else "empty.mps")
    ps.export_problem(prob, fmt, path)
    back = ps.read_problem_file(path)
    assert back.num_variables == 1
    assert back.num_constraints == 1
    assert not any(v != 0.0 for v in back.objective.values())


@pytest.mark.parametrize("fmt", FORMATS)
def test_external_reader_reproduces_internal_optimum(fmt, tmp_path):
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    internal = ps.solve(sp.mip, "highs")
    path = tmp_path / ("model.lp" if fmt == "lp" else "model.mps")
    ps.export_problem(sp.mip, fmt, path)
    assert highs_file_optimum(path) == pytest.approx(internal.objective, rel=1e-9)


def test_unwritable_export_path():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    with pytest.raises(OSError):
        ps.export_problem(sp.mip, "lp", "/nonexistent-dir/model.lp")


@pytest.mark.parametrize("name", ["missing.mps", "directory.mps"])
def test_reading_a_path_that_is_no_file_is_an_os_error(tmp_path, name):
    (tmp_path / "directory.mps").mkdir()
    error = IsADirectoryError if name == "directory.mps" else FileNotFoundError
    with pytest.raises(error):
        ps.read_problem_file(tmp_path / name)


def test_integer_bounds_survive_round_trip(tmp_path):
    prob = MipProblem("ints")
    u = add_variable(prob, "u_0_0", VarKind.INTEGER, lb=0.0, ub=17.0)
    b = add_variable(prob, "b_0_0")
    add_row(prob, "r", [(u, 1.0), (b, -3.0)], Sense.LE, 5.5)
    prob.set_objective({u: 1.25}, constant=-42.5)
    for fmt in FORMATS:
        path = tmp_path / ("m.lp" if fmt == "lp" else f"m_{fmt}.mps")
        ps.export_problem(prob, fmt, path)
        back = ps.read_problem_file(path)
        assert ps.problems_structurally_equal(prob, back, tol=1e-9) == []


def test_structural_compare_leaves_both_problems_unchanged():
    # the LP reader meets variables in another order, so b's columns are remapped
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=3)
    back = ps.read_lp(ps.write_lp(sp.mip))
    assert back.variable_names() != sp.mip.variable_names()
    snapshot = [(m.data.copy(), m.indices.copy()) for m in map(scipy_matrix, (sp.mip, back))]
    for _ in range(2):
        assert ps.problems_structurally_equal(sp.mip, back) == []
    for m, (data, indices) in zip(map(scipy_matrix, (sp.mip, back)), snapshot):
        assert np.array_equal(m.data, data) and np.array_equal(m.indices, indices)


def _two_row_problem(names=("u", "b", "r", "s"), coef=-3.0, sense=Sense.GE, rhs=1.0,
                     kind=VarKind.INTEGER, ub=17.0, extra=(), objective=1.25):
    u_name, b_name, r_name, s_name = names
    prob = MipProblem("two-rows")
    u = add_variable(prob, u_name, kind, lb=0.0, ub=ub)
    b = add_variable(prob, b_name)
    add_row(prob, r_name, [(u, 1.0), (b, coef)], Sense.LE, 5.5)
    add_row(prob, s_name, [(b, 1.0), *[(u, c) for c in extra]], sense, rhs)
    prob.set_objective({u: objective}, constant=-42.5)
    return prob


@pytest.mark.parametrize(
    "change,needle",
    [
        ({"coef": -3.5}, "row r coefficients differ"),
        ({"extra": (0.0,)}, "row s coefficients differ"),  # an explicit zero is an entry
        ({"sense": Sense.LE}, "row s sense differs"),
        ({"rhs": 2.0}, "row s rhs 1.0 != 2.0"),
        ({"kind": VarKind.CONTINUOUS}, "variable u kind integer != continuous"),
        ({"ub": 16.0}, "variable u bounds differ"),
        ({"objective": 1.5}, "objective coefficients differ"),
        ({"names": ("U", "B", "R", "S"), "rhs": 2.0}, "row s rhs 1.0 != 2.0"),  # by position
        ({"names": ("b", "u", "s", "r")}, "variable u kind integer != binary"),
    ],
)
def test_structural_compare_reports_each_difference(change, needle):
    base = _two_row_problem()
    assert ps.problems_structurally_equal(base, _two_row_problem()) == []
    diffs = ps.problems_structurally_equal(base, _two_row_problem(**change))
    assert needle in diffs, diffs


def test_structural_compare_reports_counts_and_objective_constant():
    base = _two_row_problem()
    wider = _two_row_problem()
    add_variable(wider, "v")
    assert ps.problems_structurally_equal(base, wider) == ["variable count 2 != 3"]
    taller = _two_row_problem()
    add_row(taller, "t", [(0, 1.0)], Sense.LE, 1.0)
    add_variable(taller, "v")
    # counts that differ are all that is reported
    assert ps.problems_structurally_equal(base, taller) == ["variable count 2 != 3", "constraint count 2 != 3"]
    shifted = _two_row_problem()
    shifted.set_objective({0: 1.25}, constant=-42.0)
    assert ps.problems_structurally_equal(base, shifted) == ["objective constant differs"]


# The readers' malformed inputs: whole files of the two-row problem (u
# continuous in the malformed-file cases), each with one fault, written out so
# that they do not depend on the writers' layout.

_MPS_DUPLICATE_ROW = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 G  s
 G  r
COLUMNS
 MARKER0  'MARKER'  'INTORG'
   u  COST  1.25
   u  r  1
   b  r  -3
   b  s  1
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
BOUNDS
 LI  BND  u  0
 UI  BND  u  17
 BV  BND  b
ENDATA
"""

_LP_DUPLICATE_LABEL = """\
\\ two-rows
Minimize
 obj: 1.25 u - 42.5
Subject To
 r: 1 u - 3 b <= 5.5
 r: 1 b >= 1
Bounds
 0 <= u <= 17
Binaries
  b
Generals
  u
End
"""

_MPS_UNDECLARED_ROW = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 G  s
COLUMNS
   u  COST  1.25
   u  r  1
 MARKER0  'MARKER'  'INTORG'
   b  r  -3
   b  s  1
   b  q  2
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
BOUNDS
 UP  BND  u  17
 BV  BND  b
ENDATA
"""

_MPS_UNKNOWN_ROW_TYPE = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 X  s
COLUMNS
   u  COST  1.25
   u  r  1
 MARKER0  'MARKER'  'INTORG'
   b  r  -3
   b  s  1
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
BOUNDS
 UP  BND  u  17
 BV  BND  b
ENDATA
"""

_MPS_SC_BOUND = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 G  s
COLUMNS
   u  COST  1.25
   u  r  1
 MARKER0  'MARKER'  'INTORG'
   b  r  -3
   b  s  1
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
BOUNDS
 SC  BND  u  17
 BV  BND  b
ENDATA
"""

_MPS_RANGES = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 G  s
COLUMNS
   u  COST  1.25
   u  r  1
 MARKER0  'MARKER'  'INTORG'
   b  r  -3
   b  s  1
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
RANGES
   RNG  r  2
BOUNDS
 UP  BND  u  17
 BV  BND  b
ENDATA
"""

_LP_MAXIMIZE = """\
\\ two-rows
Maximize
 obj: 1.25 u - 42.5
Subject To
 r: 1 u - 3 b <= 5.5
 s: 1 b >= 1
Bounds
 0 <= u <= 17
Binaries
  b
End
"""

_LP_NO_RHS = """\
\\ two-rows
Minimize
 obj: 1.25 u - 42.5
Subject To
 r: 1 u - 3 b <= 5.5
 s: 1 b
Bounds
 0 <= u <= 17
Binaries
  b
End
"""

_MPS_LB_ABOVE_UB = """\
NAME          two-rows
ROWS
 N  COST
 L  r
 G  s
COLUMNS
 MARKER0  'MARKER'  'INTORG'
   u  COST  1.25
   u  r  1
   b  r  -3
   b  s  1
 MARKER1  'MARKER'  'INTEND'
RHS
   RHS  COST  42.5
   RHS  r  5.5
   RHS  s  1
BOUNDS
 LI  BND  u  18
 UI  BND  u  17
 BV  BND  b
ENDATA
"""

_LP_LB_ABOVE_UB = """\
\\ two-rows
Minimize
 obj: 1.25 u - 42.5
Subject To
 r: 1 u - 3 b <= 5.5
 s: 1 b >= 1
Bounds
 18 <= u <= 17
Binaries
  b
Generals
  u
End
"""


def test_mps_reader_rejects_duplicate_row():
    with pytest.raises(ps.GridFormatError, match="duplicate row name 'r'"):
        ps.read_mps(_MPS_DUPLICATE_ROW)


@pytest.mark.parametrize("where", ["comment", "column_name"])
def test_a_model_file_that_is_not_utf8_is_a_format_error(tmp_path, where):
    # HiGHS drops the row names of this file, and the reader reads them from
    # the file itself: a 0xff byte there, or in a name HiGHS hands back, once
    # raised a bare UnicodeDecodeError
    text = _MPS_DUPLICATE_ROW.encode()
    if where == "comment":
        text = b"* \xff\n" + text
    else:
        text = text.replace(b"   b  ", b"   b\xff  ")
    path = tmp_path / "model.mps"
    path.write_bytes(text)
    with pytest.raises(ps.GridFormatError, match=re.escape(f"model file {path} is not UTF-8 text")):
        ps.read_problem_file(path)


def test_lp_reader_rejects_duplicate_constraint_label():
    with pytest.raises(ps.GridFormatError, match="duplicate row name 'r'"):
        ps.read_lp(_LP_DUPLICATE_LABEL)


@pytest.mark.parametrize(
    "fmt,text",
    [
        ("mps", _MPS_UNDECLARED_ROW),
        ("mps", _MPS_UNKNOWN_ROW_TYPE),
        ("mps", _MPS_SC_BOUND),
        ("mps", _MPS_RANGES),
        ("lp", _LP_MAXIMIZE),
        ("lp", _LP_NO_RHS),
    ],
    ids=["mps-undeclared-row", "mps-unknown-row-type", "mps-sc-bound", "mps-ranges",
         "lp-maximize", "lp-no-rhs"],
)
def test_readers_reject_malformed_file(fmt, text):
    with pytest.raises(ps.GridFormatError):
        (ps.read_mps if fmt == "mps" else ps.read_lp)(text)


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_readers_reject_lower_bound_above_upper(fmt):
    text, read = (_MPS_LB_ABOVE_UB, ps.read_mps) if fmt == "mps" else (_LP_LB_ABOVE_UB, ps.read_lp)
    with pytest.raises(ValueError, match="variable 'u' has lb 18.0 > ub 17.0"):
        read(text)


# --------------------------------------------------------------------------- #
# Round trips through staged files                                             #
# --------------------------------------------------------------------------- #

_TEXT_FORMATS = {
    "mps_free": (lambda p: ps.write_mps(p, "free"), ps.read_mps),
    "mps_fixed": (lambda p: ps.write_mps(p, "fixed"), ps.read_mps),
    "lp": (ps.write_lp, ps.read_lp),
}


def _kinds_problem(columns):
    """One covering row over columns given as (kind, lb, ub), with costs and a constant."""
    prob = MipProblem("kinds")
    ids = [add_variable(prob, f"v{k}", kind, lb, ub) for k, (kind, lb, ub) in enumerate(columns)]
    add_row(prob, "r", [(vid, 1.0 + k) for k, vid in enumerate(ids)], Sense.GE, 1.0)
    prob.set_objective({vid: 2.0 + k for k, vid in enumerate(ids)}, constant=3.5)
    return prob


@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_reads_kinds(fmt):
    write, read = _TEXT_FORMATS[fmt]
    bounds = [(0.0, 1.0), (0.0, 17.0), (0.0, 1.0), (0.0, 1.0)]
    written = [VarKind.BINARY, VarKind.INTEGER, VarKind.INTEGER, VarKind.CONTINUOUS]
    # an integer column on [0, 1] reads back as binary; a continuous one stays continuous
    read_back = [VarKind.BINARY, VarKind.INTEGER, VarKind.BINARY, VarKind.CONTINUOUS]
    back = read(write(_kinds_problem([(k, *b) for k, b in zip(written, bounds)])))
    assert [VarKind(k) for k in back.kinds] == read_back
    assert ps.problems_structurally_equal(
        _kinds_problem([(k, *b) for k, b in zip(read_back, bounds)]), back) == []

    # every column continuous: HiGHS holds an empty integrality list
    continuous = _kinds_problem([(VarKind.CONTINUOUS, 0.0, 1.0), (VarKind.CONTINUOUS, -2.0, 5.0)])
    back = read(write(continuous))
    assert [VarKind(k) for k in back.kinds] == [VarKind.CONTINUOUS] * 2
    assert ps.problems_structurally_equal(continuous, back) == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_of_a_problem_without_rows(fmt):
    # HiGHS writes it with a warning that its row names are blank
    prob = MipProblem("no-rows")
    b = add_variable(prob, "b")
    c = add_variable(prob, "c", VarKind.CONTINUOUS, lb=-2.0, ub=5.0)
    prob.set_objective({b: 1.5, c: -0.5}, constant=7.25)
    write, read = _TEXT_FORMATS[fmt]
    back = read(write(prob))
    assert (back.num_variables, back.num_constraints) == (2, 0)
    assert ps.problems_structurally_equal(prob, back) == []


def test_a_write_warning_is_refused_on_a_problem_with_rows(monkeypatch):
    class WarnsOnWrite(core._Highs):
        def writeModel(self, path):
            super().writeModel(path)
            return core.HighsStatus.kWarning

    monkeypatch.setattr(formats, "_highs", lambda: binding_with(_Highs=WarnsOnWrite))
    monkeypatch.setattr(formats, "_LOCAL", threading.local())  # no HiGHS object made yet
    with pytest.raises(RuntimeError, match="HiGHS cannot write model"):
        ps.write_lp(_kinds_problem([(VarKind.BINARY, 0.0, 1.0)]))


def test_staged_files_are_removed(monkeypatch):
    prob = _kinds_problem([(VarKind.BINARY, 0.0, 1.0), (VarKind.INTEGER, 0.0, 17.0)])
    for write, read in _TEXT_FORMATS.values():
        assert ps.problems_structurally_equal(prob, read(write(prob))) == []
    with pytest.raises(ps.GridFormatError, match="HiGHS cannot read model"):
        ps.read_mps(_MPS_UNKNOWN_ROW_TYPE)

    written = []

    class WritesThenFails(core._Highs):
        def writeModel(self, path):
            super().writeModel(path)
            written.append(path)
            return core.HighsStatus.kError

    monkeypatch.setattr(formats, "_highs", lambda: binding_with(_Highs=WritesThenFails))
    monkeypatch.setattr(formats, "_LOCAL", threading.local())  # no HiGHS object made yet
    with pytest.raises(RuntimeError, match="HiGHS cannot write model"):
        ps.write_lp(prob)
    monkeypatch.undo()
    assert len(written) == 1 and Path(written[0]).parent == Path(formats._staging_dir())
    assert os.listdir(formats._staging_dir()) == []


def test_threads_round_trip_through_their_own_files():
    problems = []
    for seed in range(100):
        case = micro_case(seed)
        if case is not None:
            problems.append(ps.build_siting_problem(*case, level=3).mip)
        if len(problems) == 8:
            break

    def round_trips(prob):
        return [diff for _ in range(25) for write, read in _TEXT_FORMATS.values()
                for diff in ps.problems_structurally_equal(prob, read(write(prob)))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(problems)) as pool:
            futures = [pool.submit(round_trips, prob) for prob in problems]
            diffs = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(diffs) == 8 and diffs == [[]] * 8
    assert os.listdir(formats._staging_dir()) == []


def test_file_calls_reuse_one_highs_per_thread():
    """Each thread writes and reads through one HiGHS object of its own."""
    prob = _kinds_problem([(VarKind.BINARY, 0.0, 1.0), (VarKind.INTEGER, 0.0, 17.0)])

    def objects():
        seen = []
        for write, read in _TEXT_FORMATS.values():
            text = write(prob)
            seen.append(formats._file_highs())
            assert ps.problems_structurally_equal(prob, read(text)) == []
            seen.append(formats._file_highs())
        return seen

    here = objects()
    with ThreadPoolExecutor(max_workers=1) as pool:
        there = pool.submit(objects).result(timeout=60)
    assert all(h is here[0] for h in here) and all(h is there[0] for h in there)
    assert there[0] is not here[0]


_EXIT_SCRIPT = """
import os
import phs_siting as ps
from phs_siting import formats
from conftest import pit_grid, pit_spec
mip = ps.build_siting_problem(pit_grid(), pit_spec(), level=3).mip
assert ps.problems_structurally_equal(mip, ps.read_lp(ps.write_lp(mip))) == []
print(os.path.dirname(formats._staging_dir()))
"""


def test_staging_directory_is_removed_at_exit(tmp_path):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    done = subprocess.run([sys.executable, "-c", _EXIT_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()) == tmp_path
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# Oracle                                                                       #
# --------------------------------------------------------------------------- #


def test_oracle_pit_is_plus_shape():
    grid, spec = pit_grid(), pit_spec()
    result = ps.oracle_enumerate(grid, spec)
    assert np.argwhere(result.interior_mask).tolist() == [[2, 3]]
    assert {tuple(c) for c in np.argwhere(result.perimeter_mask)} == {
        (1, 3), (3, 3), (2, 2), (2, 4)
    }
    assert result.link_cell == (2, 2)
    assert result.n_enumerated == 2**5 - 1


def test_oracle_infeasible_when_target_exceeds_capacity():
    grid = pit_grid()
    with pytest.raises(ps.InfeasibleProblemError):
        ps.oracle_enumerate(grid, spec_for_volume(57_801.0))


def test_oracle_rejects_oversized_search_space():
    grid, spec = midsize_grid(), midsize_spec()
    with pytest.raises(ValueError, match="search space too large"):
        ps.oracle_enumerate(grid, spec)


def test_oracle_matches_mip_on_random_micro_instances():
    matched = 0
    for seed in range(10):
        case = micro_case(seed)
        if case is None:
            continue
        grid, spec = case
        oracle = ps.oracle_enumerate(grid, spec)
        sp, res, sol = solve_at_level(grid, spec, 3)
        assert res.status is ps.SolveStatus.OPTIMAL
        assert sol.costs.total == pytest.approx(oracle.cost, rel=1e-6)
        matched += 1
    assert matched >= 5


def test_oracle_unrestricted_mode_never_worse():
    for seed in (3, 4, 5):
        case = micro_case(seed)
        if case is None:
            continue
        grid, spec = case
        free = ps.oracle_enumerate(grid, spec, require_connected=False)
        connected = ps.oracle_enumerate(grid, spec, require_connected=True)
        assert free.cost <= connected.cost + 1e-9


def _assert_same_oracle(grid, spec, **kwargs):
    got = ps.oracle_enumerate(grid, spec, **kwargs)
    want = oracle_reference(grid, spec, **kwargs)
    assert got.cost.hex() == want.cost.hex()
    for mask in ("perimeter_mask", "interior_mask", "reservoir_mask"):
        assert np.array_equal(getattr(got, mask), getattr(want, mask)), mask
    assert got.link_cell == want.link_cell
    assert (got.n_enumerated, got.n_feasible) == (want.n_enumerated, want.n_feasible)
    return got


MICRO_SEEDS = [seed for seed in range(41) if micro_case(seed) is not None]


@pytest.mark.parametrize("require_connected", [True, False])
def test_oracle_equals_per_subset_reference_on_micro_instances(require_connected):
    sizes = set()
    for seed in MICRO_SEEDS:
        grid, spec = micro_case(seed)
        result = _assert_same_oracle(grid, spec, require_connected=require_connected)
        sizes.add(result.n_enumerated.bit_length())
    assert {16, 17, 18} <= sizes  # the largest searches the default max_cells allows


def test_oracle_equals_per_subset_reference_with_an_excluded_cell():
    grid, spec = micro_case(18)
    free = _assert_same_oracle(grid, spec)
    for cell in (free.link_cell, tuple(np.argwhere(free.interior_mask)[0])):
        excluded = _assert_same_oracle(dataclasses.replace(grid, excluded=[cell]), spec)
        assert excluded.n_enumerated < free.n_enumerated
        assert not excluded.reservoir_mask[cell]


def test_oracle_refuses_more_candidates_than_its_ceiling():
    # 40 candidates: refused before any 2^m-word array, whatever max_cells says
    elev = np.full((6, 8), 540.0)
    elev[5, :] = RIVER_ELEVATION
    with pytest.raises(ValueError, match="40 candidate cells exceed the oracle's ceiling of 24"):
        ps.oracle_enumerate(river_grid(elev), two_basin_spec(), max_cells=64)


def test_oracle_equals_per_subset_reference_on_two_basins():
    grid, spec = two_basin_grid(), two_basin_spec()
    for require_connected in (True, False):
        result = _assert_same_oracle(grid, spec, max_cells=21, require_connected=require_connected)
        assert result.n_enumerated == 2**21 - 1
