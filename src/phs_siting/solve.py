"""The HiGHS solve, solution verification, and the exhaustive micro oracle.

Every model is solved by HiGHS branch-and-bound through scipy.optimize.milp.
It exposes no incumbent callbacks, so anti-fragmentation constraints are
delivered eagerly and escalated by re-solving (see strategy module) rather
than lazily inside one solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np
import scipy.sparse as sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .costing import CostParams, conveyance_cost, embankment_cell_cost, equipment_cost
from .errors import InfeasibleProblemError
from .model import MipProblem, Sense, VarKind
from .sizing import SitingSpec
from .terrain import (
    FOUR_NEIGHBORS,
    CandidateSets,
    DistanceField,
    TerrainGrid,
    candidate_sets,
    distance_field,
)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


@dataclass(frozen=True)
class SolveLimits:
    time_limit_s: float | None = None
    gap_target: float = 0.0  # relative MIP gap at which the solver may stop


@dataclass
class SolveResult:
    status: SolveStatus
    values: dict[str, float] | None
    objective: float | None
    bound: float | None
    gap: float | None
    wall_time_s: float
    message: str = ""

    @property
    def has_incumbent(self) -> bool:
        return self.values is not None


def _relative_gap(objective: float | None, bound: float | None) -> float | None:
    """Incumbent-relative gap, the convention used in the run reports."""
    if objective is None or bound is None or not math.isfinite(bound):
        return None
    return max(0.0, (objective - bound) / max(abs(objective), 1e-12))


class HighsBackend:
    """HiGHS branch-and-bound via scipy.optimize.milp.

    ``perfbench/tracing.py`` wraps ``HighsBackend.solve`` and the module's
    ``milp`` by name, so both stay where they are.
    """

    def solve(self, problem: MipProblem, limits: SolveLimits | None = None) -> SolveResult:
        limits = limits or SolveLimits()
        n = problem.num_variables
        c = np.zeros(n)
        for vid, coef in problem.objective.items():
            c[vid] = coef
        integrality = np.array(
            [0 if v.kind is VarKind.CONTINUOUS else 1 for v in problem.variables]
        )
        lb = np.array([v.lb for v in problem.variables])
        ub = np.array([v.ub for v in problem.variables])

        constraints = None
        if problem.rows:
            data, rows_idx, cols_idx, lo, hi = [], [], [], [], []
            for rid, row in enumerate(problem.rows):
                for vid, coef in row.coeffs:
                    rows_idx.append(rid)
                    cols_idx.append(vid)
                    data.append(coef)
                if row.sense is Sense.LE:
                    lo.append(-np.inf)
                    hi.append(row.rhs)
                elif row.sense is Sense.GE:
                    lo.append(row.rhs)
                    hi.append(np.inf)
                else:
                    lo.append(row.rhs)
                    hi.append(row.rhs)
            matrix = sparse.csr_matrix(
                (data, (rows_idx, cols_idx)), shape=(len(problem.rows), n)
            )
            constraints = LinearConstraint(matrix, lo, hi)

        options: dict = {"disp": False, "mip_rel_gap": limits.gap_target}
        if limits.time_limit_s is not None:
            options["time_limit"] = max(limits.time_limit_s, 1e-3)

        start = time.perf_counter()
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
        elapsed = time.perf_counter() - start

        constant = problem.objective_constant
        values = None
        objective = None
        if res.x is not None:
            values = {v.name: float(res.x[vid]) for vid, v in enumerate(problem.variables)}
            objective = float(res.fun) + constant
        bound = None
        dual = getattr(res, "mip_dual_bound", None)
        if dual is not None and math.isfinite(dual):
            bound = float(dual) + constant

        if res.status == 0:
            status = SolveStatus.OPTIMAL
        elif res.status == 1:
            status = SolveStatus.TIME_LIMIT
        elif res.status == 2:
            status = SolveStatus.INFEASIBLE
        else:
            status = SolveStatus.ERROR
        return SolveResult(
            status=status,
            values=values,
            objective=objective,
            bound=bound,
            gap=_relative_gap(objective, bound),
            wall_time_s=elapsed,
            message=str(res.message),
        )


def solve(
    problem: MipProblem,
    backend: str = "highs",
    limits: SolveLimits | None = None,
    log_path: str | Path | None = None,
) -> SolveResult:
    """Solve a problem with HiGHS and optionally persist a one-page run log.

    ``backend`` names the solver for callers that pass it; only ``"highs"``
    is accepted.
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
            f"wall_time_s: {result.wall_time_s:.3f}",
            f"message: {result.message}",
        ]
        Path(log_path).write_text("\n".join(lines) + "\n")
    return result


def verify_solution(
    problem: MipProblem, values: Mapping[str, float], tol: float = 1e-6
) -> list[str]:
    """Re-check an incumbent against the stored rows, bounds and integrality.

    Independent of the solver; returns violation descriptions (empty = clean).
    """
    vec = problem.values_vector(values)
    issues: list[str] = []
    for vid, variable in enumerate(problem.variables):
        v = vec[vid]
        if v < variable.lb - tol or v > variable.ub + tol:
            issues.append(f"{variable.name}={v} outside [{variable.lb}, {variable.ub}]")
        if variable.kind is not VarKind.CONTINUOUS and abs(v - round(v)) > tol:
            issues.append(f"{variable.name}={v} not integral")
    for row in problem.rows:
        activity = sum(coef * vec[vid] for vid, coef in row.coeffs)
        slack_tol = tol * max(1.0, abs(row.rhs))
        if row.sense is Sense.LE and activity > row.rhs + slack_tol:
            issues.append(f"row {row.name}: {activity} > {row.rhs}")
        elif row.sense is Sense.GE and activity < row.rhs - slack_tol:
            issues.append(f"row {row.name}: {activity} < {row.rhs}")
        elif row.sense is Sense.EQ and abs(activity - row.rhs) > slack_tol:
            issues.append(f"row {row.name}: {activity} != {row.rhs}")
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
    cands: CandidateSets | None = None,
    dist: DistanceField | None = None,
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
    if cands is None:
        cands = candidate_sets(grid, spec.water_elevation, excluded)
    if dist is None:
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
