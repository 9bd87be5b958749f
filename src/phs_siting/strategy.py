"""Solution strategies: the connectivity-defense ladder and the zoom-in heuristic.

The ladder solves the cheapest model first and escalates the connectivity
constraints only while flood fill keeps finding several reservoir components.
The zoom-in heuristic runs the ladder on a coarsened grid, clips a window
around the incumbent, refines the aggregation and repeats down to the native
resolution, which trades global optimality for tractable problem sizes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .connectivity import Level, parse_level
from .costing import CostParams
from .errors import InfeasibleProblemError, NoIncumbentError
from .model import (
    ReservoirSolution,
    build_siting_problem,
    extract_solution,
    verify_masks,
)
from .sizing import SitingSpec
from .solve import SolveLimits, SolveStatus, get_backend
from .terrain import (
    CandidateSets,
    DistanceField,
    TerrainGrid,
    aggregate,
    candidate_sets,
    cells_to_mask,
    clip,
    connected_components,
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
    budget: str = "per_level"  # "per_level" splits the cap; "total" is a countdown
    backend: str = "highs"
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


def run_ladder(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    config: StrategyConfig | None = None,
    *,
    cands: CandidateSets | None = None,
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
    if cands is None:
        cands = candidate_sets(grid, spec.water_elevation, excluded)
    if dist is None:
        dist = distance_field(grid, config.distance_metric)
    backend = get_backend(config.backend)

    total = time_budget_s if time_budget_s is not None else config.time_limit_s
    per_level = None
    if total is not None and config.budget == "per_level":
        per_level = total / len(config.ladder)
    deadline = None if total is None else time.perf_counter() + total

    trace: list[TraceEntry] = trace_out if trace_out is not None else []
    best_fragmented: ReservoirSolution | None = None

    for level in config.ladder:
        if per_level is not None:
            budget = per_level
        elif deadline is not None:
            budget = max(deadline - time.perf_counter(), 1e-3)
        else:
            budget = None

        sp = build_siting_problem(
            grid,
            spec,
            params,
            cands=cands,
            dist=dist,
            level=int(level),
            perimeter_min_neighbors=config.perimeter_min_neighbors,
        )
        result = backend.solve(
            sp.mip, SolveLimits(time_limit_s=budget, gap_target=config.gap_target)
        )
        if not result.has_incumbent:
            trace.append(
                TraceEntry(
                    "ladder", zoom_factor, int(level), result.status.value, None, None,
                    None, None, sp.mip.num_variables, sp.mip.num_constraints,
                    result.wall_time_s, note=result.message,
                )
            )
            logger.info("level %s: no incumbent (%s)", level.name, result.status.value)
            if result.status == SolveStatus.INFEASIBLE:
                # Higher levels only add constraints; escalation cannot help.
                break
            continue

        solution = extract_solution(
            sp,
            result.values,
            status=result.status.value,
            objective_value=result.objective,
            gap=result.gap,
            wall_time_s=result.wall_time_s,
        )
        trace.append(
            TraceEntry(
                "ladder", zoom_factor, int(level), result.status.value, result.objective,
                result.gap, solution.connected, solution.n_components,
                sp.mip.num_variables, sp.mip.num_constraints, result.wall_time_s,
            )
        )
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
    of a window. The final window is solved at native resolution and verified
    against the full-resolution model.
    """
    config = config or StrategyConfig()
    params = cost_params or CostParams()
    excluded_mask = cells_to_mask(excluded, grid.shape)

    total = config.time_limit_s
    per_stage = None
    if total is not None and config.budget == "per_level":
        per_stage = total / len(config.zoom_factors)
    deadline = None if total is None else time.perf_counter() + total

    trace: list[TraceEntry] = []
    window = (0, 0, grid.nrows, grid.ncols)
    solution: ReservoirSolution | None = None
    window_origin = (0, 0)
    window_grid = grid

    for factor in config.zoom_factors:
        coarse = aggregate(grid, factor)
        if not coarse.lower_mask.any():
            raise InfeasibleProblemError(
                f"the lower body vanished at aggregation factor {factor} (strict-majority "
                "rule); use smaller zoom factors or a wider lower body"
            )
        coarse_dist = distance_field(coarse, config.distance_metric)
        if excluded_mask.any():
            # A super-cell is off limits as soon as any child is.
            nr, nc = coarse.shape
            padded = np.zeros((nr * factor, nc * factor), dtype=bool)
            padded[: grid.nrows, : grid.ncols] = excluded_mask
            coarse_excluded = padded.reshape(nr, factor, nc, factor).any(axis=(1, 3))
        else:
            coarse_excluded = None

        sub_mask = _window_to_coarse(window, factor, coarse.shape)
        sub, (roff, coff) = clip(coarse, sub_mask, 0)
        sub_dist = DistanceField(
            coarse_dist.values[roff : roff + sub.nrows, coff : coff + sub.ncols],
            sub.cell_length,
            coarse_dist.metric,
        )
        sub_excluded = (
            None
            if coarse_excluded is None
            else coarse_excluded[roff : roff + sub.nrows, coff : coff + sub.ncols]
        )

        if per_stage is not None:
            budget = per_stage
        elif deadline is not None:
            budget = max(deadline - time.perf_counter(), 1e-3)
        else:
            budget = None

        stage_trace: list[TraceEntry] = []
        try:
            solution = run_ladder(
                sub, spec, params, config,
                dist=sub_dist, excluded=sub_excluded,
                time_budget_s=budget, zoom_factor=factor, trace_out=stage_trace,
            )
        except (InfeasibleProblemError, NoIncumbentError) as exc:
            trace.extend(
                replace(t, stage="zoom", window=_fine_window(window, factor, roff, coff, sub))
                for t in stage_trace
            )
            raise NoIncumbentError(
                f"zoom level (factor {factor}) produced no incumbent: {exc}", trace
            ) from exc
        trace.extend(
            replace(t, stage="zoom", window=_fine_window(window, factor, roff, coff, sub))
            for t in stage_trace
        )
        window_origin = (roff, coff)
        window_grid = sub

        # Localize the next window around the incumbent (largest component if
        # the ladder came back fragmented; finer levels restore connectivity).
        target_mask = solution.reservoir_mask
        if not solution.connected:
            comps = connected_components(target_mask, "four")
            target_mask = np.zeros_like(target_mask)
            for i, j in comps[0]:
                target_mask[i, j] = True

        cells = np.argwhere(target_mask)
        fine_r0 = (cells[:, 0].min() + roff) * factor
        fine_r1 = (cells[:, 0].max() + roff + 1) * factor
        fine_c0 = (cells[:, 1].min() + coff) * factor
        fine_c1 = (cells[:, 1].max() + coff + 1) * factor
        margin = config.clip_margin if config.clip_margin is not None else default_clip_margin(factor)
        r0 = max(0, int(fine_r0) - margin)
        c0 = max(0, int(fine_c0) - margin)
        r1 = min(grid.nrows, int(fine_r1) + margin)
        c1 = min(grid.ncols, int(fine_c1) + margin)
        window = (r0, c0, r1 - r0, c1 - c0)

    assert solution is not None
    full = solution.with_origin(window_origin, grid.shape)
    full_cands = candidate_sets(grid, spec.water_elevation, excluded_mask)
    violations = verify_masks(grid, full_cands, spec, full)
    if violations:
        logger.warning("zoom-in final solution fails full-resolution checks: %s", violations)
        full = replace(full, valid=False)
    return _aggregate_totals(full, trace)


def _fine_window(window, factor, roff, coff, sub) -> tuple[int, int, int, int]:
    return (roff * factor, coff * factor, sub.nrows * factor, sub.ncols * factor)
