"""The HiGHS solve, solution verification, and the exhaustive micro oracle.

Every model is solved by HiGHS branch-and-bound on one live ``_Highs`` object
from SciPy's bundled binding (``scipy.optimize._highspy._core``): the stored
arrays go in through ``passModel``, the run's status, incumbent, node count
and dual bound come back through ``getModelStatus``, ``getSolution`` and
``getInfo``. HiGHS's feasibility-jump heuristic is switched off; it is a fixed
cost per solve that these binary models do not repay. HiGHS offers no lazy
constraints here, so anti-fragmentation constraints are delivered eagerly and
escalated by re-solving (see the strategy module).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

from .costing import CostParams, conveyance_cost, embankment_cell_cost, equipment_cost
from .errors import InfeasibleProblemError
from .model import INTEGRALITY_TOL, MipProblem, Sense, SolutionValues
from .sizing import SitingSpec
from .terrain import FOUR_NEIGHBORS, TerrainGrid, candidate_sets, distance_field


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


#: Every HiGHS model status, classified. A stop on a limit keeps its
#: incumbent; "unbounded" cannot happen on a bounded binary model, so it is an
#: error like the load and solve failures, never a reason to escalate.
_STATUS = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kTimeLimit: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kIterationLimit: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kSolutionLimit: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kObjectiveBound: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kObjectiveTarget: SolveStatus.TIME_LIMIT,
    HighsModelStatus.kUnbounded: SolveStatus.ERROR,
    HighsModelStatus.kUnboundedOrInfeasible: SolveStatus.ERROR,
    HighsModelStatus.kNotset: SolveStatus.ERROR,
    HighsModelStatus.kModelEmpty: SolveStatus.ERROR,
    HighsModelStatus.kLoadError: SolveStatus.ERROR,
    HighsModelStatus.kModelError: SolveStatus.ERROR,
    HighsModelStatus.kPresolveError: SolveStatus.ERROR,
    HighsModelStatus.kSolveError: SolveStatus.ERROR,
    HighsModelStatus.kPostsolveError: SolveStatus.ERROR,
    HighsModelStatus.kUnknown: SolveStatus.ERROR,
    HighsModelStatus.kInterrupt: SolveStatus.ERROR,
    HighsModelStatus.kHighsInterrupt: SolveStatus.ERROR,
    HighsModelStatus.kMemoryLimit: SolveStatus.ERROR,
}

#: HiGHS options set on every solve. ``threads`` stays at the HiGHS default:
#: the scheduler is process-wide, and asking for fewer threads than an earlier
#: run in the process makes ``run()`` fail. ``random_seed`` is HiGHS's fixed 0.
_OPTIONS = {"output_flag": False, "mip_heuristic_run_feasibility_jump": False}


@dataclass(frozen=True)
class SolveLimits:
    """Per-solve limits.

    ``gap_target`` is HiGHS's ``mip_rel_gap``, in [0, 1). HiGHS solves without
    the objective constant (the equipment cost, plus the conveyance of a link
    the builder fixed), so the gap it stops on leaves the constant out. ``SolveResult.gap`` and the reports include it and read
    smaller: on the diagonal-blob test terrain at level 2, a 2% target stopped
    at a reported 0.03%.
    """

    time_limit_s: float | None = None
    gap_target: float = 0.0

    def __post_init__(self):
        if self.time_limit_s is not None and not self.time_limit_s > 0:
            raise ValueError(f"time_limit_s must be > 0, got {self.time_limit_s}")
        if not 0.0 <= self.gap_target < 1.0:
            raise ValueError(f"gap_target must be in [0, 1), got {self.gap_target}")


@dataclass
class SolveResult:
    """Outcome of one solve; ``x`` is the incumbent in variable order, if any.

    ``objective`` and ``bound`` are HiGHS's values plus the problem's
    objective constant, added in floating point. Equivalent builds that put a
    cost in a column or in the constant can differ in the last bit, so compare
    objectives with a tolerance, not ``==``.
    """

    status: SolveStatus
    x: np.ndarray | None
    objective: float | None
    bound: float | None
    gap: float | None
    wall_time_s: float
    message: str = ""
    nodes: int = 0  # branch-and-bound nodes HiGHS explored
    problem: MipProblem | None = field(default=None, repr=False)

    @property
    def has_incumbent(self) -> bool:
        return self.x is not None

    @property
    def values(self) -> SolutionValues | None:
        """The incumbent as a name -> value mapping, names resolved on demand; ``perfbench`` reads it."""
        if self.x is None:
            return None
        return SolutionValues(self.problem, self.x)


def _relative_gap(objective: float | None, bound: float | None) -> float | None:
    """Incumbent-relative gap, the convention used in the run reports."""
    if objective is None or bound is None or not math.isfinite(bound):
        return None
    return max(0.0, (objective - bound) / max(abs(objective), 1e-12))


def _configured(limits: SolveLimits) -> _Highs:
    """A fresh HiGHS object with this module's options and ``limits`` set.

    Raises RuntimeError naming any option HiGHS rejects, such as one that an
    older HiGHS does not know.
    """
    highs = _Highs()
    options = {**_OPTIONS, "mip_rel_gap": limits.gap_target}
    if limits.time_limit_s is not None:
        options["time_limit"] = max(limits.time_limit_s, 1e-3)
    for name, value in options.items():
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    return highs


def _pass_model(highs: _Highs, problem: MipProblem) -> HighsStatus:
    """Hand ``problem``'s stored arrays to ``highs`` (rowwise CSR, objective offset 0).

    This loads the model for a solve and for the ``formats`` writers, which
    add the offset and names. A solve keeps offset 0 (see ``SolveLimits``).
    """
    a = problem.matrix
    return highs.passModel(
        problem.num_variables, problem.num_constraints, a.nnz,
        _core.MatrixFormat.kRowwise, _core.ObjSense.kMinimize, 0.0,
        problem.cost_vector(), problem.lb, problem.ub, *problem.row_bounds(),
        a.indptr.astype(np.int32, copy=False), a.indices.astype(np.int32, copy=False), a.data,
        problem.integer_mask.astype(np.int32),
    )


@dataclass(frozen=True)
class EngineRun:
    """What one HiGHS run reports, classified."""

    solve_status: SolveStatus
    message: str
    info: _core.HighsInfo

    @property
    def status(self) -> int:
        """The SciPy ``milp`` status code that ``perfbench`` reads: 0 optimal, 1 limit, 2 infeasible, 4 other."""
        return {SolveStatus.OPTIMAL: 0, SolveStatus.TIME_LIMIT: 1,
                SolveStatus.INFEASIBLE: 2}.get(self.solve_status, 4)

    @property
    def mip_node_count(self) -> int:
        return max(0, int(self.info.mip_node_count))  # -1 when no tree search ran


def milp(highs: _Highs) -> EngineRun:
    """Run HiGHS on the model loaded in ``highs``: the engine call of a solve.

    The name is kept from the SciPy function this replaced because
    ``perfbench/tracing.py`` times the engine by wrapping
    ``phs_siting.solve.milp`` and reads ``.status`` (SciPy codes, 1 = time
    limit) and ``.mip_node_count`` from the result. It can go once the
    library records its own spans.
    """
    ran = highs.run() != HighsStatus.kError
    model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    if not ran:
        return EngineRun(SolveStatus.ERROR, f"HiGHS run() failed ({message})", highs.getInfo())
    return EngineRun(_STATUS[model_status], message, highs.getInfo())


class HighsBackend:
    """HiGHS branch-and-bound on one live ``_Highs`` object per solve.

    ``perfbench/tracing.py`` wraps ``HighsBackend.solve`` and the module's
    ``milp`` by name, so both stay where they are.
    """

    def solve(self, problem: MipProblem, limits: SolveLimits | None = None) -> SolveResult:
        start = time.perf_counter()
        highs = _configured(limits or SolveLimits())
        if _pass_model(highs, problem) == HighsStatus.kError:
            run = EngineRun(SolveStatus.ERROR, "HiGHS could not load the model", highs.getInfo())
        else:
            run = milp(highs)
        info, constant = run.info, problem.objective_constant
        x = objective = bound = None
        if run.solve_status is not SolveStatus.ERROR:
            if info.primal_solution_status == _core.kSolutionStatusFeasible:
                x = np.asarray(highs.getSolution().col_value)
                objective = float(info.objective_function_value) + constant
            if math.isfinite(info.mip_dual_bound):
                bound = float(info.mip_dual_bound) + constant
        elapsed = time.perf_counter() - start
        return SolveResult(
            status=run.solve_status,
            x=x,
            objective=objective,
            bound=bound,
            gap=_relative_gap(objective, bound),
            wall_time_s=elapsed,
            message=run.message,
            nodes=run.mip_node_count,
            problem=problem,
        )


def solve(
    problem: MipProblem,
    backend: str = "highs",
    limits: SolveLimits | None = None,
    log_path: str | Path | None = None,
) -> SolveResult:
    """Solve a problem with HiGHS and optionally persist a one-page run log.

    ``backend`` names the solver for callers that pass it, ``perfbench``
    among them; only ``"highs"`` is accepted.
    """
    if backend.lower() != "highs":
        raise ValueError(f"unknown backend {backend!r}; the only solver is 'highs'")
    result = HighsBackend().solve(problem, limits)
    if log_path is not None:
        lines = [
            f"problem: {problem.name}",
            "backend: highs",
            f"variables: {problem.num_variables}",
            f"constraints: {problem.num_constraints}",
            f"status: {result.status.value}",
            f"objective: {result.objective}",
            f"bound: {result.bound}",
            f"gap: {result.gap}",
            f"nodes: {result.nodes}",
            f"wall_time_s: {result.wall_time_s:.3f}",
            f"message: {result.message}",
        ]
        Path(log_path).write_text("\n".join(lines) + "\n")
    return result


def verify_solution(problem: MipProblem, values: Mapping[str, float] | np.ndarray) -> list[str]:
    """Re-check an incumbent against the stored rows, bounds and integrality.

    Independent of the solver: ``MipProblem.violations`` with tolerance
    ``INTEGRALITY_TOL`` (row activities ``A @ x`` against the row bounds),
    spelled out by name. Returns violation descriptions (empty = clean).
    """
    vec = problem.values_vector(values)
    outside, fractional, activity, violated = problem.violations(vec, INTEGRALITY_TOL)
    lb, ub = problem.lb, problem.ub
    issues: list[str] = []
    names = problem.variable_names() if np.any(outside | fractional) else []
    for vid in np.flatnonzero(outside | fractional).tolist():
        v = float(vec[vid])
        if outside[vid]:
            issues.append(f"{names[vid]}={v} outside [{float(lb[vid])}, {float(ub[vid])}]")
        if fractional[vid]:
            issues.append(f"{names[vid]}={v} not integral")

    rhs = problem.rhs
    is_le, is_ge = problem.senses == Sense.LE, problem.senses == Sense.GE
    row_names = problem.row_names() if violated.any() else []
    for rid in np.flatnonzero(violated).tolist():
        op = ">" if is_le[rid] else "<" if is_ge[rid] else "!="
        issues.append(f"row {row_names[rid]}: {float(activity[rid])} {op} {float(rhs[rid])}")
    return issues


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    """Ground-truth optimum from exhaustive enumeration of micro instances."""

    cost: float
    perimeter_mask: np.ndarray
    interior_mask: np.ndarray
    reservoir_mask: np.ndarray
    link_cell: tuple[int, int]
    n_enumerated: int
    n_feasible: int


def oracle_enumerate(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    *,
    excluded=None,
    max_cells: int = 18,
    require_connected: bool = True,
) -> OracleResult:
    """Enumerate every reservoir-candidate subset and return the cheapest one.

    Ground-truth semantics: a subset Z is feasible when interior cells (those
    with all four neighbors inside Z, where eligible) plus perimeter cells
    (the rest, which must be perimeter-eligible with a reservoir neighbor)
    satisfy the volume target; with ``require_connected`` the subset must be
    one 4-connected component. Holes (ring reservoirs) are allowed. The link
    is placed on the cheapest-conveyance perimeter cell.
    """
    params = cost_params or CostParams()
    cands = candidate_sets(grid, spec.water_elevation, excluded)
    dist = distance_field(grid)

    cells = cands.reservoir_cells()
    m = len(cells)
    if m == 0:
        raise InfeasibleProblemError("no reservoir candidates to enumerate")
    if m > max_cells:
        raise ValueError(
            f"search space too large: {m} candidate cells exceed max_cells={max_cells}"
        )
    index = {cell: k for k, cell in enumerate(cells)}

    y_ok = np.zeros(m, dtype=bool)
    req4_ok = np.zeros(m, dtype=bool)
    x_ok = np.zeros(m, dtype=bool)
    req4_mask = np.zeros(m, dtype=np.int64)
    adj4_mask = np.zeros(m, dtype=np.int64)
    vol = np.zeros(m)
    emb = np.zeros(m)
    conv = np.full(m, np.inf)
    for k, (i, j) in enumerate(cells):
        y_ok[k] = cands.interior_ok[i, j]
        x_ok[k] = cands.perimeter_ok[i, j]
        nbr_bits = 0
        nbr_count = 0
        for di, dj in FOUR_NEIGHBORS:
            nbr = (i + di, j + dj)
            if nbr in index:
                nbr_bits |= 1 << index[nbr]
                nbr_count += 1
        adj4_mask[k] = nbr_bits
        req4_mask[k] = nbr_bits
        req4_ok[k] = nbr_count == 4
        if y_ok[k]:
            vol[k] = (spec.water_elevation - float(grid.elevations[i, j])) * grid.cell_area
        if x_ok[k]:
            cost, _ = embankment_cell_cost(
                grid.cell_length, spec.water_elevation, float(grid.elevations[i, j]), params
            )
            emb[k] = cost
            conv[k] = sum(conveyance_cost(spec.flow, float(dist.values[i, j]), params))
    equip = equipment_cost(spec.head_m, spec.power_mw, params)

    n_subsets = (1 << m) - 1
    subsets = np.arange(1, n_subsets + 1, dtype=np.int64)

    # Interior assignment is greedy-maximal: it never hurts cost or volume.
    y_bits = np.zeros_like(subsets)
    for k in range(m):
        if y_ok[k] and req4_ok[k]:
            member = (subsets >> k) & 1
            covered = (subsets & req4_mask[k]) == req4_mask[k]
            y_bits |= (member & covered) << k
    x_bits = subsets & ~y_bits

    feasible = np.ones(n_subsets, dtype=bool)
    volume = np.zeros(n_subsets)
    emb_total = np.zeros(n_subsets)
    for k in range(m):
        x_member = ((x_bits >> k) & 1).astype(bool)
        if not x_ok[k]:
            feasible &= ~x_member
        else:
            feasible &= ~(x_member & ((subsets & adj4_mask[k]) == 0))
            emb_total += emb[k] * x_member
        volume += vol[k] * ((y_bits >> k) & 1)
    feasible &= x_bits != 0
    feasible &= volume >= spec.vol_min * (1 - 1e-9)

    adj_bits = [int(v) for v in adj4_mask]

    def connected(bits: int) -> bool:
        start = bits & -bits
        visited = start
        frontier = start
        while frontier:
            grow = 0
            f = frontier
            while f:
                lsb = f & -f
                grow |= adj_bits[lsb.bit_length() - 1]
                f ^= lsb
            frontier = grow & bits & ~visited
            visited |= frontier
        return visited == bits

    best_cost = math.inf
    best = None
    n_feasible = 0
    for idx in np.flatnonzero(feasible):
        s = int(subsets[idx])
        if require_connected and not connected(s):
            continue
        n_feasible += 1
        xb = int(x_bits[idx])
        link_k = None
        link_cost = math.inf
        b = xb
        while b:
            lsb = b & -b
            k = lsb.bit_length() - 1
            if conv[k] < link_cost:
                link_cost = conv[k]
                link_k = k
            b ^= lsb
        cost = float(emb_total[idx]) + link_cost + equip
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (s, int(y_bits[idx]), xb, link_k)

    if best is None:
        raise InfeasibleProblemError("oracle found no feasible configuration")

    s, yb, xb, link_k = best
    shape = grid.shape
    x_mask = np.zeros(shape, dtype=bool)
    y_mask = np.zeros(shape, dtype=bool)
    z_mask = np.zeros(shape, dtype=bool)
    for k, cell in enumerate(cells):
        if (s >> k) & 1:
            z_mask[cell] = True
        if (yb >> k) & 1:
            y_mask[cell] = True
        if (xb >> k) & 1:
            x_mask[cell] = True
    return OracleResult(
        cost=best_cost,
        perimeter_mask=x_mask,
        interior_mask=y_mask,
        reservoir_mask=z_mask,
        link_cell=cells[link_k],
        n_enumerated=n_subsets,
        n_feasible=n_feasible,
    )
