"""The HiGHS solve, incumbent verification, and the exhaustive oracle."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy import _core as core

import phs_siting as ps
from phs_siting.model import MipProblem, Sense, VarKind

from conftest import (
    FailingHighs,
    bowl_window,
    diagonal_blob_grid,
    diagonal_blob_spec,
    highs_file_optimum,
    micro_case,
    midsize_grid,
    midsize_spec,
    pit_grid,
    pit_spec,
    solve_at_level,
    spec_for_volume,
)


def test_highs_solves_pit_optimum():
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=3)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.OPTIMAL
    assert ps.verify_solution(sp.mip, res.values) == []


def test_highs_reports_infeasible():
    prob = MipProblem("impossible")
    a = prob.add_variable("a")
    b = prob.add_variable("b")
    prob.add_row("lo", [(a, 1.0), (b, 1.0)], Sense.GE, 3.0)  # two binaries sum to 2 max
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


def test_time_limit_status_on_nontrivial_instance():
    sp = ps.build_siting_problem(midsize_grid(), midsize_spec(), level=1)
    res = ps.solve(sp.mip, "highs", ps.SolveLimits(time_limit_s=0.01))
    assert res.status is ps.SolveStatus.TIME_LIMIT


def test_solve_persists_log(tmp_path):
    grid, spec = pit_grid(), pit_spec()
    sp = ps.build_siting_problem(grid, spec, level=0)
    log = tmp_path / "run.log"
    ps.solve(sp.mip, "highs", log_path=log)
    text = log.read_text()
    assert "status: optimal" in text
    assert f"variables: {sp.mip.num_variables}" in text
    assert "\nnodes: " in text


def test_verify_solution_flags_violations():
    grid, spec = pit_grid(), pit_spec()
    sp, res, _ = solve_at_level(grid, spec, 0)
    assert ps.verify_solution(sp.mip, res.values) == []
    tampered = dict(res.values)
    name = next(n for n in tampered if n.startswith("y_"))
    tampered[name] = 0.5
    issues = ps.verify_solution(sp.mip, tampered)
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
    table = solve_mod._STATUS
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
    monkeypatch.setattr(solve_mod, "_Highs", FailingHighs)
    sp = ps.build_siting_problem(pit_grid(), pit_spec(), level=0)
    res = ps.solve(sp.mip, "highs")
    assert res.status is ps.SolveStatus.ERROR
    assert res.message == "HiGHS run() failed (Not Set)"
    assert not res.has_incumbent and res.objective is None and res.bound is None


class _RejectingHighs(core._Highs):
    def passModel(self, *args):
        return core.HighsStatus.kError


def test_rejected_model_is_an_error(monkeypatch):
    monkeypatch.setattr(solve_mod, "_Highs", _RejectingHighs)
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
    loaded = sparse.csr_array(fmt((a.value_, a.index_, a.start_), shape=mip.matrix.shape))
    want = mip.matrix
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
    a = prob.add_variable("a")
    prob.add_row("r", [(a, 1.0)], Sense.LE, 1.0)
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


def test_integer_bounds_survive_round_trip(tmp_path):
    prob = MipProblem("ints")
    u = prob.add_variable("u_0_0", VarKind.INTEGER, lb=0.0, ub=17.0)
    b = prob.add_variable("b_0_0")
    prob.add_row("r", [(u, 1.0), (b, -3.0)], Sense.LE, 5.5)
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
    snapshot = [(m.data.copy(), m.indices.copy()) for m in (sp.mip.matrix, back.matrix)]
    for _ in range(2):
        assert ps.problems_structurally_equal(sp.mip, back) == []
    for m, (data, indices) in zip((sp.mip.matrix, back.matrix), snapshot):
        assert np.array_equal(m.data, data) and np.array_equal(m.indices, indices)


def _two_row_problem(names=("u", "b", "r", "s"), coef=-3.0, sense=Sense.GE, rhs=1.0,
                     kind=VarKind.INTEGER, ub=17.0, extra=(), objective=1.25):
    u_name, b_name, r_name, s_name = names
    prob = MipProblem("two-rows")
    u = prob.add_variable(u_name, kind, lb=0.0, ub=ub)
    b = prob.add_variable(b_name)
    prob.add_row(r_name, [(u, 1.0), (b, coef)], Sense.LE, 5.5)
    prob.add_row(s_name, [(b, 1.0), *[(u, c) for c in extra]], sense, rhs)
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
