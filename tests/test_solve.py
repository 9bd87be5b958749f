"""The HiGHS solve, incumbent verification, and the exhaustive oracle."""

import numpy as np
import pytest

import phs_siting as ps
from phs_siting.model import MipProblem, Sense, VarKind

from conftest import (
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
