"""Solution strategies: the connectivity-defense ladder and the zoom-in heuristic.

The ladder solves the cheapest model first and escalates the connectivity
constraints only while flood fill keeps finding several reservoir components.
The zoom-in heuristic solves the first rung on a coarsened grid, clips a
window around the incumbent, refines the aggregation and repeats down to the
native resolution, where the full ladder runs; this trades global optimality
for tractable problem sizes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .connectivity import Level, parse_level
from .costing import CostParams
from .errors import InfeasibleProblemError, NoIncumbentError
from .model import (
    ReservoirSolution,
    SitingProblem,
    all_ones_optimum,
    build_siting_problem,
    extract_solution,
    verify_masks,
)
from .sizing import SitingSpec
from .solve import SolveLimits, SolveResult, SolveStatus, solve
from .terrain import (
    DistanceField,
    TerrainGrid,
    aggregate,
    candidate_sets,
    cells_to_mask,
    clip,
    distance_field,
)

logger = logging.getLogger(__name__)


def default_clip_margin(factor: int) -> int:
    """Fine-grid cells of slack around a coarse incumbent's bounding box."""
    return max(4, 2 * factor)


@dataclass(frozen=True)
class StrategyConfig:
    ladder: tuple[Level, ...] = (Level.NONE, Level.HV_PLANES, Level.HV_DIAG_PLANES, Level.TSP)
    zoom_factors: tuple[int, ...] = (8, 4, 2, 1)
    clip_margin: int | None = None  # None -> default_clip_margin(factor)
    time_limit_s: float | None = None
    budget: str = "per_level"  # "per_level" splits the cap per stage and rung; "total" counts down
    gap_target: float = 0.0
    perimeter_min_neighbors: int = 1
    distance_metric: str = "horizontal"

    def __post_init__(self):
        if not self.ladder:
            raise ValueError("ladder must name at least one defense level")
        object.__setattr__(self, "ladder", tuple(parse_level(lv) for lv in self.ladder))
        if list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("ladder levels must be strictly escalating")
        zf = tuple(int(f) for f in self.zoom_factors)
        if not zf or zf[-1] != 1 or any(a <= b for a, b in zip(zf, zf[1:])):
            raise ValueError("zoom_factors must be strictly decreasing and end at 1")
        object.__setattr__(self, "zoom_factors", zf)
        if self.budget not in ("per_level", "total"):
            raise ValueError("budget must be 'per_level' or 'total'")
        if self.perimeter_min_neighbors not in (1, 3):
            raise ValueError("perimeter_min_neighbors must be 1 or 3")
        if self.clip_margin is not None and self.clip_margin < 0:
            raise ValueError("clip_margin must be >= 0")
        if self.distance_metric not in ("horizontal", "slant"):
            raise ValueError(f"distance_metric must be 'horizontal' or 'slant', "
                             f"got {self.distance_metric!r}")
        SolveLimits(self.time_limit_s, self.gap_target)  # the same checks as each solve's


@dataclass(frozen=True)
class TraceEntry:
    """One solved subproblem in a strategy run."""

    stage: str  # "ladder" or "zoom"
    zoom_factor: int
    level: int
    status: str
    objective: float | None
    gap: float | None
    connected: bool | None
    n_components: int | None
    n_variables: int
    n_constraints: int
    wall_time_s: float
    window: tuple[int, int, int, int] | None = None  # fine coords: r0, c0, nrows, ncols
    note: str = ""
    time_limit_s: float | None = None  # the rung's budget; None when unlimited
    n_nonzeros: int = 0  # constraint-matrix nonzeros of the model solved
    nodes: int = 0  # branch-and-bound nodes HiGHS explored
    bound: float | None = None  # the dual bound plus the objective constant, if any
    build_s: float = 0.0  # seconds ``build_siting_problem`` took for this model
    path: str = "highs"  # "certified": the all-ones point was proved optimal without HiGHS


def _aggregate_totals(solution: ReservoirSolution, trace: Sequence[TraceEntry]) -> ReservoirSolution:
    """Report the largest problem solved and the summed wall time."""
    if not trace:
        return solution
    return replace(
        solution,
        wall_time_s=sum(t.wall_time_s for t in trace),
        n_variables=max(t.n_variables for t in trace),
        n_constraints=max(t.n_constraints for t in trace),
        trace=tuple(trace),
    )


def _budgets(total: float | None, mode: str, n: int) -> Iterator[float | None]:
    """Time limits for n consecutive solves sharing ``total`` seconds.

    "per_level" gives each solve an equal share; "total" gives each the time
    left before the shared deadline, which starts at the first solve.
    """
    if total is None or mode == "per_level":
        yield from [None if total is None else total / n] * n
        return
    deadline = time.perf_counter() + total
    for _ in range(n):
        yield max(deadline - time.perf_counter(), 1e-3)


def _certify(sp: SitingProblem) -> SolveResult | None:
    """The rung's result without a HiGHS run, when ``all_ones_optimum`` proves one."""
    start = time.perf_counter()
    certified = all_ones_optimum(sp)
    if certified is None:
        return None
    x, objective = certified
    return SolveResult(SolveStatus.OPTIMAL, x, objective, objective, 0.0,
                       time.perf_counter() - start, "certified optimal at the all-ones point",
                       problem=sp.mip)


def run_ladder(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    config: StrategyConfig | None = None,
    *,
    dist: DistanceField | None = None,
    excluded=None,
    time_budget_s: float | None = None,
    zoom_factor: int = 1,
    trace_out: list[TraceEntry] | None = None,
) -> ReservoirSolution:
    """Escalate connectivity defenses until flood fill sees one reservoir.

    Returns the first connected incumbent, annotated with the level that
    produced it. When every ladder level still fragments, the best fragmented
    incumbent comes back flagged invalid; when no level yields an incumbent at
    all, NoIncumbentError carries the trace.
    """
    config = config or StrategyConfig()
    params = cost_params or CostParams()
    cands = candidate_sets(grid, spec.water_elevation, excluded)
    if dist is None:
        dist = distance_field(grid, config.distance_metric)

    total = time_budget_s if time_budget_s is not None else config.time_limit_s
    trace: list[TraceEntry] = trace_out if trace_out is not None else []
    best_fragmented: ReservoirSolution | None = None

    for level, budget in zip(config.ladder, _budgets(total, config.budget, len(config.ladder))):
        start = time.perf_counter()
        sp = build_siting_problem(
            grid,
            spec,
            params,
            cands=cands,
            dist=dist,
            level=int(level),
            perimeter_min_neighbors=config.perimeter_min_neighbors,
        )
        build_s = time.perf_counter() - start
        certified = _certify(sp)
        result = certified or solve(
            sp.mip, limits=SolveLimits(time_limit_s=budget, gap_target=config.gap_target)
        )
        solution = None
        if result.has_incumbent:
            solution = extract_solution(sp, result.x, status=result.status.value,
                                        objective_value=result.objective, gap=result.gap,
                                        wall_time_s=result.wall_time_s)
        trace.append(
            TraceEntry(
                "ladder", zoom_factor, int(level), result.status.value, result.objective,
                result.gap, None if solution is None else solution.connected,
                None if solution is None else solution.n_components,
                sp.mip.num_variables, sp.mip.num_constraints, result.wall_time_s,
                note=result.message if solution is None else "", time_limit_s=budget,
                n_nonzeros=sp.mip.matrix.nnz, nodes=result.nodes, bound=result.bound,
                build_s=build_s, path="highs" if certified is None else "certified",
            )
        )
        if solution is None:
            logger.info("level %s: no incumbent (%s)", level.name, result.status.value)
            if result.status in (SolveStatus.INFEASIBLE, SolveStatus.ERROR):
                # Higher levels only add constraints, so escalation cannot
                # help an infeasible rung; a solver error is reported as is.
                break
            continue
        logger.info(
            "level %s: %s, objective %.6g, %d component(s)",
            level.name, result.status.value, result.objective, solution.n_components,
        )
        if solution.connected:
            return _aggregate_totals(replace(solution, valid=True), trace)
        if best_fragmented is None or (
            solution.objective_value is not None
            and solution.objective_value < best_fragmented.objective_value
        ):
            best_fragmented = solution

    if best_fragmented is not None:
        return _aggregate_totals(replace(best_fragmented, valid=False), trace)
    raise NoIncumbentError("every ladder level ended without an incumbent", trace)


def _window_to_coarse(window: tuple[int, int, int, int], factor: int, shape) -> np.ndarray:
    r0, c0, nr, nc = window
    cr0, cc0 = r0 // factor, c0 // factor
    cr1 = min(-(-(r0 + nr) // factor), shape[0])
    cc1 = min(-(-(c0 + nc) // factor), shape[1])
    mask = np.zeros(shape, dtype=bool)
    mask[cr0:cr1, cc0:cc1] = True
    return mask


def run_zoom_in(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    config: StrategyConfig | None = None,
    *,
    excluded=None,
) -> ReservoirSolution:
    """Coarse-to-fine siting: solve, clip around the incumbent, refine, repeat.

    The volume target stays absolute across zoom levels; storage coefficients
    rescale with the coarse cell size. Distance fields are computed on the
    full (aggregated) extent before clipping so the lower body never drops out
    of a window. A coarse stage only places the next window, so it solves the
    first ladder rung alone and the window covers its whole (pruned) reservoir,
    fragmented or not. The final window is solved at native resolution with
    the full ladder and verified against the full-resolution model.
    """
    config = config or StrategyConfig()
    params = cost_params or CostParams()
    excluded_mask = cells_to_mask(excluded, grid.shape)
    coarse_config = replace(config, ladder=config.ladder[:1])

    trace: list[TraceEntry] = []
    window = (0, 0, grid.nrows, grid.ncols)
    solution: ReservoirSolution | None = None

    budgets = _budgets(config.time_limit_s, config.budget, len(config.zoom_factors))
    for factor, budget in zip(config.zoom_factors, budgets):
        coarse = aggregate(grid, factor)
        if not coarse.lower_mask.any():
            raise InfeasibleProblemError(
                f"the lower body vanished at aggregation factor {factor} (strict-majority "
                "rule); use smaller zoom factors or a wider lower body"
            )
        coarse_dist = distance_field(coarse, config.distance_metric)
        sub, (roff, coff) = clip(coarse, _window_to_coarse(window, factor, coarse.shape), 0)
        rows, cols = slice(roff, roff + sub.nrows), slice(coff, coff + sub.ncols)
        sub_dist = DistanceField(
            coarse_dist.values[rows, cols], sub.cell_length, coarse_dist.metric
        )
        sub_excluded = None
        if excluded_mask.any():
            # A super-cell is off limits as soon as any child is.
            nr, nc = coarse.shape
            padded = np.zeros((nr * factor, nc * factor), dtype=bool)
            padded[: grid.nrows, : grid.ncols] = excluded_mask
            sub_excluded = padded.reshape(nr, factor, nc, factor).any(axis=(1, 3))[rows, cols]

        stage_trace: list[TraceEntry] = []
        failure: Exception | None = None
        try:
            solution = run_ladder(
                sub, spec, params, config if factor == 1 else coarse_config,
                dist=sub_dist, excluded=sub_excluded,
                time_budget_s=budget, zoom_factor=factor, trace_out=stage_trace,
            )
        except (InfeasibleProblemError, NoIncumbentError) as exc:
            failure = exc
        stage_window = (roff * factor, coff * factor, sub.nrows * factor, sub.ncols * factor)
        trace.extend(replace(t, stage="zoom", window=stage_window) for t in stage_trace)
        if failure is not None:
            raise NoIncumbentError(
                f"zoom level (factor {factor}) produced no incumbent: {failure}", trace
            ) from failure

        # The next window covers every cell of the incumbent's reservoir; the
        # extraction prune has already cleared the components it does not need.
        cells = np.argwhere(solution.reservoir_mask)
        margin = config.clip_margin if config.clip_margin is not None else default_clip_margin(factor)
        r0 = max(0, int(cells[:, 0].min() + roff) * factor - margin)
        c0 = max(0, int(cells[:, 1].min() + coff) * factor - margin)
        r1 = min(grid.nrows, int(cells[:, 0].max() + roff + 1) * factor + margin)
        c1 = min(grid.ncols, int(cells[:, 1].max() + coff + 1) * factor + margin)
        window = (r0, c0, r1 - r0, c1 - c0)

    assert solution is not None
    # The last zoom factor is 1, so (roff, coff) places the native window.
    full = solution.with_origin((roff, coff), grid.shape)
    full_cands = candidate_sets(grid, spec.water_elevation, excluded_mask)
    violations = verify_masks(grid, full_cands, spec, full)
    if violations:
        logger.warning("zoom-in final solution fails full-resolution checks: %s", violations)
        full = replace(full, valid=False)
    return _aggregate_totals(full, trace)
