"""The benchmark workloads: case lists, the timed calls, and output checks.

A workload's ``make(rng)`` builds its seeded case list (set-up); its
``run(case)`` makes the timed calls into the public API of ``phs_siting`` and
then checks every output. Only the calls are timed; the checks are not.

Outcomes come in three kinds. A case that returns a site passing every check
is a success. A case that honestly ends without a valid connected site
(NoIncumbentError, or a site the program itself flags invalid) is a plain
failure. A site the program calls valid that fails a check, an oracle
mismatch or a round-trip mismatch is a correctness failure, listed in
``Outcome.wrong``; it makes the benchmark exit nonzero.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import phs_siting as ps

import gen

ZOOM_FACTORS = (8, 4, 2, 1)
ZOOM_TIME_LIMIT_S = 128.0  # per_level: 8 s for each of 4 stages x 4 rungs
ZOOM_LEVEL_LIMIT_S = ZOOM_TIME_LIMIT_S / len(ZOOM_FACTORS) / 4
# A rung that finishes above this share of its limit could flip to a time-out.
NEAR_LIMIT_SHARE = 0.5
ZOOM_CASES = ((150.0, 3.0), (175.0, 3.0), (200.0, 12.0))
ZOOM_DEMS = 12
MICRO_INSTANCES = 120
COST_RTOL = 1e-9
ORACLE_RTOL = 1e-6
VOL_RTOL = 1e-6


@dataclass
class Case:
    id: str
    grid: ps.TerrainGrid
    spec: ps.SitingSpec
    refs: dict = field(default_factory=dict)  # full-grid check inputs, built on first use


@dataclass
class Outcome:
    seconds: float
    site: bool = False
    wrong: list[str] = field(default_factory=list)
    cost: float | None = None
    limit_hit: bool = False
    near_limit: int = 0


def _refs(case: Case):
    if not case.refs:
        case.refs["cands"] = ps.candidate_sets(case.grid, case.spec.water_elevation)
        case.refs["dist"] = ps.distance_field(case.grid)
    return case.refs["cands"], case.refs["dist"]


def check_site(case: Case, sol: ps.ReservoirSolution) -> list[str]:
    """Independent checks of a site the program calls valid, on the full grid."""
    grid, spec = case.grid, case.spec
    cands, dist = _refs(case)
    wrong = [f"verify_masks: {v}" for v in ps.verify_masks(grid, cands, spec, sol)]
    stored = float(np.where(sol.interior_mask, spec.water_elevation - grid.elevations, 0.0).sum())
    stored *= grid.cell_area
    if stored < spec.vol_min * (1 - VOL_RTOL):
        wrong.append(f"storage {stored:.6e} m3 below target {spec.vol_min:.6e} m3")
    if len(ps.connected_components(sol.reservoir_mask, "four")) != 1:
        wrong.append("site flagged valid is not one 4-connected reservoir")
    emb = sum(
        ps.embankment_cell_cost(grid.cell_length, spec.water_elevation, float(grid.elevations[c]))[0]
        for c in map(tuple, np.argwhere(sol.perimeter_mask & (grid.elevations < spec.water_elevation)))
    )
    total = (emb + sum(ps.conveyance_cost(spec.flow, float(dist.values[sol.link_cell])))
             + ps.equipment_cost(spec.head_m, spec.power_mw))
    if not math.isclose(total, sol.costs.total, rel_tol=COST_RTOL):
        wrong.append(f"cost {sol.costs.total:.9e} differs from the recomputed {total:.9e}")
    return wrong


def _judge(case: Case, out: Outcome, sol: ps.ReservoirSolution, level_limit: float) -> None:
    out.limit_hit = any(t.status == "time_limit" for t in sol.trace)
    out.near_limit = _near(sol.trace, level_limit)
    if sol.valid:
        out.wrong += check_site(case, sol)
        out.site = not out.wrong
        out.cost = sol.costs.total


def _near(trace, level_limit: float) -> int:
    return sum(t.status != "time_limit" and t.wall_time_s > NEAR_LIMIT_SHARE * level_limit
               for t in trace)


def _strategy_case(case: Case, call, level_limit: float, quiet) -> Outcome:
    t0 = time.perf_counter()
    try:
        sol = call()
    except ps.NoIncumbentError as exc:
        out = Outcome(time.perf_counter() - t0)
        out.limit_hit = any(t.status == "time_limit" for t in exc.trace)
        out.near_limit = _near(exc.trace, level_limit)
        return out
    out = Outcome(time.perf_counter() - t0)
    with quiet():
        _judge(case, out, sol, level_limit)
    return out


# -- zoom_dem ---------------------------------------------------------------

ZOOM_CONFIG = ps.StrategyConfig(zoom_factors=ZOOM_FACTORS, time_limit_s=ZOOM_TIME_LIMIT_S)


def make_zoom(rng):
    cases = []
    for d in range(ZOOM_DEMS):
        grid = gen.bowl_dem(rng)
        for head, hours in ZOOM_CASES:
            cases.append(Case(f"dem{d}-h{head:.0f}-{hours:.0f}h", grid, gen.engineering_spec(head, hours)))
    return cases


def run_zoom(case: Case, quiet) -> Outcome:
    return _strategy_case(case, lambda: ps.run_zoom_in(case.grid, case.spec, config=ZOOM_CONFIG),
                          ZOOM_LEVEL_LIMIT_S, quiet)


# -- micro_batch ------------------------------------------------------------


def make_micro(rng):
    cases = []
    while len(cases) < MICRO_INSTANCES:
        inst = gen.micro(rng)
        if inst is not None:
            cases.append(Case(f"micro{len(cases)}", *inst))
    return cases


def run_micro(case: Case, quiet) -> Outcome:
    """Oracle, forced level-3 tour solve, ladder and three round trips."""
    grid, spec = case.grid, case.spec
    t0 = time.perf_counter()
    oracle = ps.oracle_enumerate(grid, spec)
    sp = ps.build_siting_problem(grid, spec, level=3)
    res = ps.solve(sp.mip, "highs")
    tour = None
    if res.has_incumbent:
        tour = ps.extract_solution(sp, res.values, status=res.status.value,
                                   objective_value=res.objective, gap=res.gap)
    ladder_exc = None
    try:
        ladder = ps.run_ladder(grid, spec)
    except ps.NoIncumbentError as exc:
        ladder, ladder_exc = None, exc
    texts = (
        (ps.write_mps(sp.mip, "free"), ps.read_mps),
        (ps.write_mps(sp.mip, "fixed"), ps.read_mps),
        (ps.write_lp(sp.mip), ps.read_lp),
    )
    diffs = [ps.problems_structurally_equal(sp.mip, read(text)) for text, read in texts]
    out = Outcome(time.perf_counter() - t0)
    with quiet():
        _check_micro(case, out, oracle, sp, res, tour, ladder, ladder_exc, diffs)
    return out


def _check_micro(case, out, oracle, sp, res, tour, ladder, ladder_exc, diffs) -> None:
    out.limit_hit = res.status is ps.SolveStatus.TIME_LIMIT
    for form, d in zip(("mps_free", "mps_fixed", "lp"), diffs):
        out.wrong += [f"{form} round trip: {x}" for x in d[:3]]
    if tour is None or res.status is not ps.SolveStatus.OPTIMAL:
        out.wrong.append(f"forced tour solve ended {res.status.value} on a feasible micro instance")
    else:
        out.wrong += [f"verify_solution: {v}" for v in ps.verify_solution(sp.mip, res.values)[:3]]
        out.wrong += check_site(case, tour)
        if not math.isclose(tour.costs.total, oracle.cost, rel_tol=ORACLE_RTOL):
            out.wrong.append(f"tour cost {tour.costs.total:.9e} != oracle {oracle.cost:.9e}")
    if ladder_exc is not None:
        out.limit_hit |= any(t.status == "time_limit" for t in ladder_exc.trace)
        return
    ladder_case = Outcome(0.0)
    _judge(case, ladder_case, ladder, math.inf)
    out.wrong += ladder_case.wrong
    out.limit_hit |= ladder_case.limit_hit
    out.site = ladder_case.site and not out.wrong
    out.cost = ladder_case.cost


WORKLOADS = {
    "zoom_dem": (make_zoom, run_zoom),
    "micro_batch": (make_micro, run_micro),
}
