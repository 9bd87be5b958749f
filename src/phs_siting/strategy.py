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
from typing import Sequence

import numpy as np

from .connectivity import Level, parse_level
from .costing import CostParams
from .errors import InfeasibleProblemError, NoIncumbentError
# The benchmark's tracer (perfbench/tracing.py) wraps build_siting_problem,
# extract_solution and verify_masks on this module; rungs extract sites
# without their readout, so extract_solution stays here for the tracer alone.
from .model import (
    ReservoirSolution,
    Site,
    build_siting_problem,
    certify_site,
    extract_site,
    extract_solution,  # noqa: F401
    read_out,
    verify_masks,
)
from .sizing import SitingSpec
from .solve import SolveLimits, SolveStatus, solve
from .terrain import (
    DistanceField,
    TerrainGrid,
    candidate_sets,
    clip,
    distance_field,
    stage_terrain,
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
    # The case's one time budget: its deadline falls this many seconds after
    # run_ladder or run_zoom_in is called. A zoom stage gets an even share of the
    # time left before it among the stages still to run, and a rung an even share
    # of the time left before its stage's deadline (the case's, for a direct case)
    # among the rungs still to run; no limit is below 1 ms. None: no limits.
    time_limit_s: float | None = None
    gap_target: float = 0.0
    perimeter_min_neighbors: int = 1
    distance_metric: str = "horizontal"

    def __post_init__(self):
        """Raise one ValueError that names every failed check, one per line."""
        ladder = tuple(parse_level(lv) for lv in self.ladder)
        zf = tuple(int(f) for f in self.zoom_factors)
        object.__setattr__(self, "ladder", ladder)
        object.__setattr__(self, "zoom_factors", zf)
        failed = [message for bad, message in (
            (not ladder, "ladder must name at least one defense level"),
            (list(ladder) != sorted(set(ladder)), "ladder levels must be strictly escalating"),
            (not zf or zf[-1] != 1 or any(a <= b for a, b in zip(zf, zf[1:])),
             "zoom_factors must be strictly decreasing and end at 1"),
            (self.perimeter_min_neighbors not in (1, 3), "perimeter_min_neighbors must be 1 or 3"),
            (self.clip_margin is not None and self.clip_margin < 0, "clip_margin must be >= 0"),
            (self.distance_metric not in ("horizontal", "slant"),
             f"distance_metric must be 'horizontal' or 'slant', got {self.distance_metric!r}"),
        ) if bad]
        try:
            SolveLimits(self.time_limit_s, self.gap_target)  # the same checks as each solve's
        except ValueError as exc:
            failed.append(str(exc))
        if failed:
            raise ValueError("\n".join(failed))


@dataclass(frozen=True)
class TraceEntry:
    """One solved subproblem in a strategy run.

    The model fields (``n_variables``, ``n_constraints``, ``n_nonzeros``,
    ``nodes``, ``build_s``) describe the model handed to HiGHS; a rung that
    the level-0 certificate (``certify_site``) settles builds none, and they
    read 0.
    """

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
    time_limit_s: float | None = None  # the rung's time limit; None when unlimited
    n_nonzeros: int = 0  # constraint-matrix nonzeros of the model solved
    nodes: int = 0  # branch-and-bound nodes HiGHS explored
    bound: float | None = None  # the dual bound plus the objective constant, if any
    build_s: float = 0.0  # seconds ``build_siting_problem`` took for this model
    path: str = "highs"  # "certified": proved optimal from the candidate rasters, no model built


#: The trace tag of a direct case's rungs: stage, zoom factor, window.
_LADDER = ("ladder", 1, None)


def _solution(grid, spec, params, dist, site: Site, trace: Sequence[TraceEntry]) -> ReservoirSolution:
    """The readout of a run's site, with the run's trace, the largest
    problem it solved and its summed wall time."""
    return read_out(
        grid, spec, params, dist, site,
        wall_time_s=sum(t.wall_time_s for t in trace),
        n_variables=max(t.n_variables for t in trace),
        n_constraints=max(t.n_constraints for t in trace),
        trace=tuple(trace),
    )


def _share(deadline: float | None, n_left: int) -> float | None:
    """The time limit of the next of ``n_left`` solves still to run before
    ``deadline``: an even share of the time left, and at least 1 ms. None
    without a deadline."""
    if deadline is None:
        return None
    return max((deadline - time.perf_counter()) / n_left, 1e-3)


def _deadline(limit_s: float | None) -> float | None:
    """The clock reading ``limit_s`` seconds from now; None without a limit."""
    return None if limit_s is None else time.perf_counter() + limit_s


def run_ladder(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    config: StrategyConfig | None = None,
    *,
    dist: DistanceField | None = None,
) -> ReservoirSolution:
    """Escalate connectivity defenses until flood fill sees one reservoir.

    Returns the first connected incumbent, annotated with the level that
    produced it. When every ladder level still fragments, the best fragmented
    incumbent comes back flagged invalid; when no level yields an incumbent at
    all, NoIncumbentError carries the trace. Each rung gets an even share of
    the time left before the case's deadline (``StrategyConfig.time_limit_s``).
    """
    config = config or StrategyConfig()
    params = cost_params or CostParams()
    deadline = _deadline(config.time_limit_s)
    if dist is None:
        dist = distance_field(grid, config.distance_metric)
    site, trace = _run_stage(grid, spec, params, config, config.ladder, deadline, dist, _LADDER)
    return _solution(grid, spec, params, dist, site, trace)


def _run_stage(grid, spec, params, config, levels, deadline, dist, tag) -> tuple[Site, list[TraceEntry]]:
    """The rungs ``levels`` in turn, each with an even share of the time left
    before ``deadline``, until one yields a connected incumbent.

    Returns that site, or else the cheapest fragmented one, with the rungs'
    trace entries, each tagged with ``tag`` (stage, zoom factor, window).
    When no rung yields an incumbent, NoIncumbentError carries the entries.
    """
    cands = candidate_sets(grid, spec.water_elevation)
    trace: list[TraceEntry] = []
    best_fragmented: Site | None = None

    for k, level in enumerate(levels):
        limit = _share(deadline, len(levels) - k)
        site, entry = _rung(grid, spec, params, config, cands, dist, tag, level, limit)
        trace.append(entry)
        if site is None:
            logger.info("level %s: no incumbent (%s)", level.name, entry.status)
            if entry.status in (SolveStatus.INFEASIBLE.value, SolveStatus.ERROR.value):
                # Higher levels only add constraints, so escalation cannot
                # help an infeasible rung; a solver error is reported as is.
                break
            continue
        logger.info(
            "level %s: %s (%s), objective %.6g, %d component(s)",
            level.name, entry.status, entry.path, entry.objective, site.n_components,
        )
        if site.connected:
            return site, trace
        if best_fragmented is None or site.objective_value < best_fragmented.objective_value:
            best_fragmented = site

    if best_fragmented is not None:
        return best_fragmented, trace
    raise NoIncumbentError("every ladder level ended without an incumbent", trace)


def _rung(grid, spec, params, config, cands, dist, tag, level, limit):
    """One ladder rung: (its pruned site or None, its trace entry, tagged
    with ``tag``: stage, zoom factor, window).

    Level 0 is first given to the level-0 certificate (``certify_site``); a
    rung it does not settle is built and solved with HiGHS.
    """
    stage, factor, window = tag
    if level == Level.NONE:
        start = time.perf_counter()
        site = certify_site(grid, spec, params, cands=cands, dist=dist,
                            perimeter_min_neighbors=config.perimeter_min_neighbors)
        if site is not None:
            return site, TraceEntry(
                stage, factor, 0, site.status, site.objective_value, site.gap, site.connected,
                site.n_components, 0, 0, time.perf_counter() - start, window=window,
                time_limit_s=limit, bound=site.objective_value, path="certified",
            )
    start = time.perf_counter()
    sp = build_siting_problem(grid, spec, params, cands=cands, dist=dist, level=int(level),
                              perimeter_min_neighbors=config.perimeter_min_neighbors)
    build_s = time.perf_counter() - start
    result = solve(sp.mip, limits=SolveLimits(time_limit_s=limit, gap_target=config.gap_target))
    site = None
    if result.has_incumbent:
        site = extract_site(sp, result.x, status=result.status.value,
                            objective_value=result.objective, gap=result.gap)
    entry = TraceEntry(
        stage, factor, int(level), result.status.value, result.objective, result.gap,
        None if site is None else site.connected,
        None if site is None else site.n_components,
        sp.mip.num_variables, sp.mip.num_constraints, result.wall_time_s, window=window,
        note=result.message if site is None else "", time_limit_s=limit,
        n_nonzeros=sp.mip.nnz, nodes=result.nodes, bound=result.bound, build_s=build_s,
    )
    return site, entry


def run_zoom_in(
    grid: TerrainGrid,
    spec: SitingSpec,
    cost_params: CostParams | None = None,
    config: StrategyConfig | None = None,
) -> ReservoirSolution:
    """Coarse-to-fine siting: solve, clip around the incumbent, refine, repeat.

    The volume target stays absolute across zoom levels; storage coefficients
    rescale with the coarse cell size. A stage's terrain is the window of
    the coarse grid and of its distance field (``stage_terrain``), built for
    the window alone: the field on the window's reach box, the window grown
    to hold every coarse lower cell within R of it, R being the least
    distance from a coarse lower cell to the window's farthest corner. So the
    lower body never drops out of a window's field. A coarse stage only
    places the next window, so it solves the first ladder rung alone, the
    window covers its whole (pruned) reservoir, fragmented or not, and its
    site is not read out. The final window is solved at native resolution
    with the full ladder, verified against the full-resolution grid (on the
    window grown by one cell, which gives the same verdict), and its site is
    the one the run reads out.

    Each stage gets an even share of the time left before the case's
    deadline, and splits it among its rungs (``StrategyConfig.time_limit_s``).
    """
    config = config or StrategyConfig()
    params = cost_params or CostParams()

    trace: list[TraceEntry] = []
    last = (grid.nrows - 1, grid.ncols - 1)
    corners = ((0, 0), last)  # the window's first and last fine cell

    deadline = _deadline(config.time_limit_s)
    for k, factor in enumerate(config.zoom_factors):
        stage_deadline = _deadline(_share(deadline, len(config.zoom_factors) - k))
        sub, (roff, coff), sub_dist = stage_terrain(grid, factor, corners,
                                                    config.distance_metric)
        tag = ("zoom", factor, (roff * factor, coff * factor, sub.nrows * factor, sub.ncols * factor))
        levels = config.ladder if factor == 1 else config.ladder[:1]
        try:
            site, stage_trace = _run_stage(sub, spec, params, config, levels, stage_deadline,
                                           sub_dist, tag)
        except (InfeasibleProblemError, NoIncumbentError) as exc:
            # a NoIncumbentError carries the stage's trace; an
            # InfeasibleProblemError is raised before its first entry
            trace.extend(getattr(exc, "trace", ()))
            raise NoIncumbentError(
                f"zoom level (factor {factor}) produced no incumbent: {exc}", trace
            ) from exc
        trace.extend(stage_trace)

        # The next window covers every cell of the incumbent's reservoir; the
        # prune has already cleared the components it does not need.
        rows = np.flatnonzero(site.reservoir_mask.any(axis=1))
        cols = np.flatnonzero(site.reservoir_mask.any(axis=0))
        margin = config.clip_margin if config.clip_margin is not None else default_clip_margin(factor)
        corners = ((max((roff + int(rows[0])) * factor - margin, 0),
                    max((coff + int(cols[0])) * factor - margin, 0)),
                   (min((roff + int(rows[-1]) + 1) * factor - 1 + margin, last[0]),
                    min((coff + int(cols[-1]) + 1) * factor - 1 + margin, last[1])))

    # The last zoom factor is 1, so (roff, coff) places the native window and
    # the last tag holds that window in fine cells.
    full = _solution(sub, spec, params, sub_dist, site, trace).with_origin((roff, coff), grid.shape)
    violations = _window_violations(grid, spec, full, tag[2])
    if violations:
        logger.warning("zoom-in final solution fails full-resolution checks: %s", violations)
        full = replace(full, valid=False)
    return full


def _window_violations(grid: TerrainGrid, spec: SitingSpec, solution: ReservoirSolution,
                       window: tuple[int, int, int, int]) -> list[str]:
    """``verify_masks`` of ``solution`` on the full grid, run on ``window``
    (first row, first column, rows, columns) grown by one cell.

    The masks are zero outside the window; the check reads them sliced to
    the grown window. Every rule of ``verify_masks`` reads a cell and its
    4-neighbors, which the grown window holds (or the grid edge, where both
    grids end), so the candidate sets agree on the window; and the storage
    is summed over the interior cells alone, in the same order. So the
    violations are the same.
    """
    r0, c0, nr, nc = window
    sub, (sr, sc) = clip(grid, [(r0, c0), (r0 + nr - 1, c0 + nc - 1)], 1)
    cands = candidate_sets(sub, spec.water_elevation)
    rows, cols = slice(sr, sr + sub.nrows), slice(sc, sc + sub.ncols)
    i, j = solution.link_cell
    grown = Site(solution.perimeter_mask[rows, cols], solution.interior_mask[rows, cols],
                 solution.reservoir_mask[rows, cols], (i - sr, j - sc), solution.n_components,
                 solution.status, solution.objective_value, solution.gap, solution.level)
    return verify_masks(sub, cands, spec, grown)
