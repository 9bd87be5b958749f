"""The HiGHS solve, solution verification, and the exhaustive micro oracle.

Every model is solved by HiGHS branch-and-bound on one live ``_Highs`` object
from SciPy's bundled binding (``scipy.optimize._highspy._core``): the stored
arrays go in through ``passModel``, the run's status, incumbent, node count
and dual bound come back through ``getModelStatus``, ``getSolution`` and
``getInfo``. HiGHS's feasibility-jump heuristic is switched off; it is a fixed
cost per solve that these binary models do not repay. HiGHS offers no lazy
constraints here, so anti-fragmentation constraints are delivered eagerly and
escalated by re-solving (see the strategy module).

The binding is loaded by ``_highs``, the one way this module and ``formats``
reach HiGHS, on the first solve or model-file call of a process; a run whose
every stage is certified never needs it. It is loaded alone, without running
``scipy.optimize``'s ``__init__`` (see ``_compiled``): 5-13 ms on a 2-vCPU
x86-64 VM, and no ``scipy.optimize``, ``scipy.linalg`` or ``scipy.sparse``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from enum import Enum
from types import ModuleType
from typing import TYPE_CHECKING

import numpy as np

from ._compiled import load
from .costing import CostParams, conveyance_cost, embankment_cell_cost, equipment_cost
from .errors import InfeasibleProblemError
from .model import INTEGRALITY_TOL, MipProblem, Sense, _FOUR, _at, _column_vector, _id_raster
from .sizing import SitingSpec
from .terrain import TerrainGrid, candidate_sets, distance_field

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import HighsInfo, HighsStatus, _Highs


def _highs() -> ModuleType:
    """SciPy's HiGHS binding, loaded on the first call of the process."""
    return load("scipy.optimize._highspy._core")


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


@functools.cache
def _status_table() -> dict:
    """Every HiGHS model status, classified. A stop on a limit keeps its
    incumbent; "unbounded" cannot happen on a bounded binary model, so it is
    an error like the load and solve failures, never a reason to escalate."""
    status = _highs().HighsModelStatus
    return {
        status.kOptimal: SolveStatus.OPTIMAL,
        status.kInfeasible: SolveStatus.INFEASIBLE,
        status.kTimeLimit: SolveStatus.TIME_LIMIT,
        status.kIterationLimit: SolveStatus.TIME_LIMIT,
        status.kSolutionLimit: SolveStatus.TIME_LIMIT,
        status.kObjectiveBound: SolveStatus.TIME_LIMIT,
        status.kObjectiveTarget: SolveStatus.TIME_LIMIT,
        status.kUnbounded: SolveStatus.ERROR,
        status.kUnboundedOrInfeasible: SolveStatus.ERROR,
        status.kNotset: SolveStatus.ERROR,
        status.kModelEmpty: SolveStatus.ERROR,
        status.kLoadError: SolveStatus.ERROR,
        status.kModelError: SolveStatus.ERROR,
        status.kPresolveError: SolveStatus.ERROR,
        status.kSolveError: SolveStatus.ERROR,
        status.kPostsolveError: SolveStatus.ERROR,
        status.kUnknown: SolveStatus.ERROR,
        status.kInterrupt: SolveStatus.ERROR,
        status.kHighsInterrupt: SolveStatus.ERROR,
        status.kMemoryLimit: SolveStatus.ERROR,
    }


#: HiGHS options set on every solve. ``threads`` stays at the HiGHS default:
#: the scheduler is process-wide, and asking for fewer threads than an earlier
#: run in the process makes ``run()`` fail. ``random_seed`` is HiGHS's fixed 0.
_OPTIONS = {"output_flag": False, "mip_heuristic_run_feasibility_jump": False}

_ORACLE_CEILING = 24  # the most candidates oracle_enumerate takes: 64 MB per array


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
        failed = [message for bad, message in (
            (self.time_limit_s is not None and not self.time_limit_s > 0,
             f"time_limit_s must be > 0, got {self.time_limit_s}"),
            (not 0.0 <= self.gap_target < 1.0, f"gap_target must be in [0, 1), got {self.gap_target}"),
        ) if bad]
        if failed:
            raise ValueError("\n".join(failed))


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

    @property
    def has_incumbent(self) -> bool:
        return self.x is not None

    @property
    def values(self) -> np.ndarray | None:
        """``x`` under the name ``perfbench`` reads."""
        return self.x


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
    core = _highs()
    highs = core._Highs()
    options = {**_OPTIONS, "mip_rel_gap": limits.gap_target}
    if limits.time_limit_s is not None:
        options["time_limit"] = max(limits.time_limit_s, 1e-3)
    for name, value in options.items():
        if highs.setOptionValue(name, value) == core.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    return highs


def _pass_model(highs: _Highs, problem: MipProblem) -> HighsStatus:
    """Hand ``problem``'s stored arrays to ``highs`` (rowwise CSR, objective offset 0).

    This loads the model for a solve and for the ``formats`` writers, which
    add the offset and names. A solve keeps offset 0 (see ``SolveLimits``).
    """
    core = _highs()
    return highs.passModel(
        problem.num_variables, problem.num_constraints, problem.nnz,
        core.MatrixFormat.kRowwise, core.ObjSense.kMinimize, 0.0,
        problem.cost_vector(), problem.lb, problem.ub, *problem.row_bounds(),
        *problem.csr, problem.integer_mask.astype(np.int32),
    )


@dataclass(frozen=True)
class EngineRun:
    """What one HiGHS run reports, classified."""

    solve_status: SolveStatus
    message: str
    info: HighsInfo

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
    ran = highs.run() != _highs().HighsStatus.kError
    model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    if not ran:
        return EngineRun(SolveStatus.ERROR, f"HiGHS run() failed ({message})", highs.getInfo())
    return EngineRun(_status_table()[model_status], message, highs.getInfo())


class HighsBackend:
    """HiGHS branch-and-bound on one live ``_Highs`` object per solve.

    ``perfbench/tracing.py`` wraps ``HighsBackend.solve`` and the module's
    ``milp`` by name, so both stay where they are.
    """

    def solve(self, problem: MipProblem, limits: SolveLimits | None = None) -> SolveResult:
        core = _highs()  # the first call loads the binding, before the clock starts
        start = time.perf_counter()
        highs = _configured(limits or SolveLimits())
        if _pass_model(highs, problem) == core.HighsStatus.kError:
            run = EngineRun(SolveStatus.ERROR, "HiGHS could not load the model", highs.getInfo())
        else:
            run = milp(highs)
        info, constant = run.info, problem.objective_constant
        x = objective = bound = None
        if run.solve_status is not SolveStatus.ERROR:
            if info.primal_solution_status == core.kSolutionStatusFeasible:
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
        )


def solve(problem: MipProblem, backend: str = "highs", limits: SolveLimits | None = None) -> SolveResult:
    """Solve a problem with HiGHS.

    ``backend`` names the solver for callers that pass it, ``perfbench``
    among them; only ``"highs"`` is accepted.
    """
    if backend.lower() != "highs":
        raise ValueError(f"unknown backend {backend!r}; the only solver is 'highs'")
    return HighsBackend().solve(problem, limits)


def verify_solution(problem: MipProblem, x: np.ndarray) -> list[str]:
    """Re-check a solution vector against the stored rows, bounds and integrality.

    ``x`` holds one value per column, in column order; any other length
    raises ValueError. Independent of the solver: ``MipProblem.violations``
    with tolerance ``INTEGRALITY_TOL`` (row activities ``A @ x`` against the
    row bounds), spelled out by name. Returns violation descriptions (empty =
    clean).
    """
    vec = _column_vector(problem, x)
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
    senses = problem.senses
    is_le, is_ge = senses == int(Sense.LE), senses == int(Sense.GE)
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

    The enumeration is a bitset kernel. Subset s is the int32 word whose bit k
    marks candidate k, and the kernel holds all 2^m words at once, so its
    memory is a few arrays of 2^m words: 1 MB each at the default
    ``max_cells``, 8 MB each at 21. Above ``_ORACLE_CEILING`` (24) candidates
    it raises ValueError whatever ``max_cells`` says, before it allocates: at
    24 each array takes 64 MB, and the search peaked at 496 MB resident on a
    2-vCPU x86-64 VM. The cells next to a subset come from 64-entry tables,
    one per 6-bit chunk of the word. The interior cells and both perimeter
    tests (every perimeter cell eligible and next to the reservoir) are
    whole-word operations over every word; the volume, the connectivity test
    (frontier growth), the embankment and the link run on the words that pass.
    Sums run in the candidate order k, and the winner is the first subset, in
    index order, whose cost beats the running best by 1e-12, so the optimum,
    its ties and both counts are those of a plain per-subset loop.
    """
    params = cost_params or CostParams()
    cands = candidate_sets(grid, spec.water_elevation)
    dist = distance_field(grid)

    cells = np.argwhere(cands.reservoir_ok)
    m = len(cells)
    if m == 0:
        raise InfeasibleProblemError("no reservoir candidates to enumerate")
    if m > min(max_cells, _ORACLE_CEILING):
        raise ValueError(f"search space too large: {m} candidate cells exceed "
                         + (f"max_cells={max_cells}" if max_cells < _ORACLE_CEILING
                            else f"the oracle's ceiling of {_ORACLE_CEILING}"))

    # Candidate k's four neighbours, by candidate index (-1 for a non-candidate).
    i, j = cells.T
    nbr = _at(_id_raster(grid.shape, cells, np.arange(m)), cells, _FOUR)
    adj4_mask = np.bitwise_or.reduce(np.where(nbr >= 0, np.left_shift(1, nbr.clip(0)), 0), axis=1)
    y_ok = cands.interior_ok[i, j]
    x_ok = cands.perimeter_ok[i, j]
    req4_ok = (nbr >= 0).all(axis=1)
    vol = (spec.water_elevation - grid.elevations[i, j]) * grid.cell_area  # read where y_ok
    emb = np.zeros(m)
    conv = np.full(m, np.inf)
    emb[x_ok] = embankment_cell_cost(grid.cell_length, spec.water_elevation,
                                     grid.elevations[i, j][x_ok], params)[0]
    excavation, lining = conveyance_cost(spec.flow, dist.values[i, j][x_ok], params)
    conv[x_ok] = excavation + lining
    equip = equipment_cost(spec.head_m, spec.power_mw, params)

    # Word s is the subset of the cells k whose bit k is set; s = 0 is empty.
    n_subsets = (1 << m) - 1
    subsets = np.arange(n_subsets + 1, dtype=np.int32)
    interior = np.flatnonzero(y_ok & req4_ok).tolist()
    interior_bits = sum(1 << k for k in interior)
    not_perimeter = sum(1 << k for k in np.flatnonzero(~x_ok).tolist())

    # N(s), the cells 4-adjacent to a cell of s, is the OR over the 6-bit
    # chunks of s of a lookup in that chunk's table of neighbour unions.
    tables = []
    for low in range(0, m, 6):
        chunk = (np.arange(1 << min(6, m - low))[:, None] >> np.arange(min(6, m - low))) & 1
        tables.append(np.bitwise_or.reduce(chunk * adj4_mask[low:low + 6], axis=1).astype(np.int32))

    def reach(words: np.ndarray) -> np.ndarray:
        out = np.zeros_like(words)
        for c, table in enumerate(tables):
            out |= table[(words >> 6 * c) & 63]
        return out

    def reach_all(parts: list[np.ndarray]) -> np.ndarray:
        """Entry s is the OR of ``parts[c]`` at chunk c of s, for every word s."""
        out = np.zeros(1, dtype=np.int32)
        for part in parts:
            out = (part[:, None] | out).ravel()
        return out

    # Interior assignment is greedy-maximal: it never hurts cost or volume.
    # A cell of s that may be interior is, unless it neighbours a cell outside
    # s: one in N(~s), whose chunks index the tables from the end.
    y_bits = ~reach_all([table[::-1] for table in tables])
    y_bits &= subsets & interior_bits
    x_bits = subsets ^ y_bits

    # Every perimeter cell must be perimeter-eligible and touch the reservoir,
    # so x lies in N(s) less the ineligible cells. x is empty only for s = 0:
    # the topmost cell of s has no neighbour above it in s.
    allowed = reach_all(tables) & ~not_perimeter
    ok = (x_bits | allowed) == allowed
    ok[0] = False
    keep = np.flatnonzero(ok)

    # The float work runs on the survivors only, summing in the order k.
    # Zero terms leave a sum as it is, so only interior cells add.
    yb = y_bits[keep]
    volume = np.zeros(len(keep))
    for k in interior:
        volume += vol[k] * ((yb >> k) & 1)
    keep = keep[volume >= spec.vol_min * (1 - 1e-9)]
    s, yb, xb = keep.astype(np.int32), y_bits[keep], x_bits[keep]
    if require_connected:
        # Grow from the lowest cell; each pass adds the next ring of s.
        visited = s & -s
        frontier = visited
        while frontier.any():
            frontier = reach(frontier) & s & ~visited
            visited |= frontier
        connected = visited == s
        s, yb, xb = s[connected], yb[connected], xb[connected]
    n_feasible = len(s)

    emb_total = np.zeros(n_feasible)
    link_cost = np.full(n_feasible, np.inf)
    link_k = np.full(n_feasible, -1)
    for k in np.flatnonzero(x_ok).tolist():
        x_member = ((xb >> k) & 1).astype(bool)
        emb_total += emb[k] * x_member
        cheaper = x_member & (conv[k] < link_cost)
        link_cost[cheaper] = conv[k]
        link_k[cheaper] = k
    costs = emb_total + link_cost + equip

    # The first subset, in index order, that beats the running best by 1e-12
    # wins. Each such subset is cheaper than every subset before it, so only
    # the running-minimum records need the sequential test.
    earlier = np.minimum.accumulate(np.concatenate(([np.inf], costs)))[:-1]
    best_cost = math.inf
    best = None
    for r in np.flatnonzero(costs < earlier).tolist():
        if costs[r] < best_cost - 1e-12:
            best_cost = costs[r]
            best = r

    if best is None:
        raise InfeasibleProblemError("oracle found no feasible configuration")

    def mask(word) -> np.ndarray:
        out = np.zeros(grid.shape, dtype=bool)
        out[i, j] = (int(word) >> np.arange(m)) & 1
        return out

    return OracleResult(
        cost=best_cost,
        perimeter_mask=mask(xb[best]),
        interior_mask=mask(yb[best]),
        reservoir_mask=mask(s[best]),
        link_cell=(int(i[link_k[best]]), int(j[link_k[best]])),
        n_enumerated=n_subsets,
        n_feasible=n_feasible,
    )
