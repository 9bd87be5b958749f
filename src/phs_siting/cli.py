"""Batch front-end: case files in, masks and report tables out.

The case file is a declarative INI document (grammar in the README): one
``[dem]`` section, shared ``[project]``/``[costs]``/``[strategy]``/``[solver]``
/``[output]`` sections, and one ``[case.N]`` section per siting case. Reports
mirror the physical-properties, cost and optimization-summary tables of the
run: every number is recomputed from the solution masks, never echoed from the
solver objective.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .connectivity import Level, parse_level
from .costing import CostParams
from .errors import GridFormatError, InfeasibleProblemError, NoIncumbentError, SitingError
from .formats import export_problem
from .model import ReservoirSolution, build_siting_problem
from .sizing import DEFAULT_EFFICIENCY, SitingSpec, _input_errors
from .solve import oracle_enumerate
from .strategy import StrategyConfig, run_ladder, run_zoom_in
from .terrain import (ByElevation, MaskFile, TerrainGrid, coarse_lower_cells, distance_field,
                      load_grid, load_mask, write_esri_ascii)

logger = logging.getLogger(__name__)


def _levels(raw: str) -> tuple[Level, ...]:
    return tuple(parse_level(tok.strip()) for tok in raw.split(",") if tok.strip())


def _factors(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"not integers ({raw!r})") from None


#: The keys of each section and the type (or comma-list reader) each value
#: reads as; every ``[case.N]`` section takes the keys of ``case``.
_KEYS: dict[str, dict] = {
    "dem": {"path": str, "format": str, "lower_by_elevation": float, "lower_tolerance": float,
            "lower_mask_file": str, "lower_elevation": float, "excluded_mask_file": str},
    "project": {"power_mw": float, "efficiency": float},
    "costs": {name: float for name in CostParams.__dataclass_fields__},
    "strategy": {"ladder": _levels, "zoom_factors": _factors, "clip_margin": int,
                 "distance_metric": str, "perimeter_min_neighbors": int},
    "solver": {"time_limit_s": float, "gap_target": float, "workers": int},
    "output": {"directory": str},
    "case": {"head_m": float, "operation_h": float, "zoom": bool, "power_mw": float},
}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
_SCALARS = (bool, int, float)  # an empty value of these reads as absent


@dataclass
class CaseSpec:
    index: int
    head_m: float
    hours: float
    power_mw: float
    zoom: bool


@dataclass
class CaseConfig:
    dem_path: Path
    dem_format: str
    lower: ByElevation | MaskFile
    lower_elevation: float | None
    excluded_mask_file: Path | None
    efficiency: float
    cost_params: CostParams
    strategy: StrategyConfig
    workers: int
    output_dir: Path
    cases: list[CaseSpec] = field(default_factory=list)


def _read_value(value_type, raw: str):
    """``raw`` read as ``value_type``; a value that does not read raises ValueError
    with the diagnostic's text."""
    if value_type not in _SCALARS:
        return value_type(raw)
    if value_type is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean ({raw!r})")
        return _BOOLEANS[raw.lower()]
    try:
        value = float(raw)
    except ValueError:
        if value_type is float:
            raise ValueError(f"not a number ({raw!r})") from None
        value = math.nan
    if value_type is int:
        if not value.is_integer():
            raise ValueError(f"not an integer ({raw})")
        return int(value)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number ({raw})")
    return value


def _field_lines(exc: ValueError, *sections: str) -> list[str]:
    """A constructor's ValueError as diagnostics: each line, one failed check
    that begins with its field's name, reads ``<section>.<key>: <rest>``, the
    section being the first of ``sections`` that has the key."""
    lines = []
    for line in str(exc).splitlines():
        key, _, rest = line.partition(" ")
        section = next(s for s in sections if key in _KEYS[s])
        lines.append(f"{section}.{key}: {rest}")
    return lines


def _sizing_lines(section: str, given: dict) -> list[str]:
    """``sizing``'s range checks on the values a section gives, as diagnostics."""
    return [f"{section}.{key}: {rest}"
            for key, _, rest in (line.partition(" ") for line in _input_errors(**given))]


def _parse_config(path: str | Path) -> tuple[CaseConfig | None, list[str]]:
    """Parse and validate; returns (config or None, diagnostics).

    Every value is read as its key's type (``_KEYS``) before any check; an
    empty number or boolean reads as absent. An unknown section or key and a
    value that does not read are reported, and a rejected value gets no
    follow-up lines. The library objects get only the keys the file gives,
    and check them themselves.
    """
    diags: list[str] = []
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc}"]
    except configparser.Error as exc:
        return None, [f"config: parse error: {exc}"]

    base = Path(path).parent
    values: dict[str, dict] = {}
    rejected: set[str] = set()  # keys already reported; no follow-up lines for them
    for section in parser.sections():
        kind = "case" if section.startswith("case.") else section
        if kind not in _KEYS:
            diags.append(f"{section}: unknown section")
            continue
        values[section] = read = {}
        for key, raw in parser[section].items():
            value_type = _KEYS[kind].get(key)
            if value_type is None:
                diags.append(f"{section}.{key}: "
                             + ("unknown cost parameter" if kind == "costs" else "unknown key"))
            elif raw or value_type not in _SCALARS:
                try:
                    read[key] = _read_value(value_type, raw)
                except ValueError as exc:
                    diags.append(f"{section}.{key}: {exc}")
                    rejected.add(f"{section}.{key}")

    def get(section: str, key: str, fallback=None):
        return values.get(section, {}).get(key, fallback)

    if not parser.has_section("dem"):
        diags.append("dem: section is required")
        return None, diags

    dem_path = base / get("dem", "path", "")
    if not get("dem", "path"):
        diags.append("dem.path: required")
    elif not dem_path.exists():
        diags.append(f"dem.path: file not found ({dem_path})")
    dem_format = get("dem", "format", "esri_ascii")
    if dem_format not in ("esri_ascii", "csv"):
        diags.append(f"dem.format: must be esri_ascii or csv, got {dem_format!r}")

    lower: ByElevation | MaskFile | None = None
    by_elev = get("dem", "lower_by_elevation")
    mask_file = get("dem", "lower_mask_file")
    if by_elev is not None and mask_file:
        diags.append("dem: give either lower_by_elevation or lower_mask_file, not both")
    elif by_elev is not None:
        tolerance = get("dem", "lower_tolerance")
        lower = ByElevation(by_elev) if tolerance is None else ByElevation(by_elev, tolerance)
    elif mask_file:
        mask_path = base / mask_file
        if not mask_path.exists():
            diags.append(f"dem.lower_mask_file: file not found ({mask_path})")
        lower = MaskFile(mask_path)
    elif "dem.lower_by_elevation" not in rejected:
        diags.append("dem: lower_by_elevation or lower_mask_file is required")

    excluded_file = get("dem", "excluded_mask_file")
    excluded_path = None
    if excluded_file:
        excluded_path = base / excluded_file
        if not excluded_path.exists():
            diags.append(f"dem.excluded_mask_file: file not found ({excluded_path})")

    power_mw = get("project", "power_mw")
    if power_mw is None and "project.power_mw" not in rejected:
        diags.append("project.power_mw: required")
    efficiency = get("project", "efficiency", DEFAULT_EFFICIENCY)
    diags.extend(_sizing_lines("project", values.get("project", {})))

    try:
        cost_params = CostParams(**values.get("costs", {}))
    except ValueError as exc:
        diags.extend(_field_lines(exc, "costs"))
        cost_params = CostParams()

    solver = dict(values.get("solver", {}))
    workers = solver.pop("workers", 1)  # the other solver keys are StrategyConfig's
    if workers < 1:
        diags.append(f"solver.workers: must be >= 1, got {workers}")

    try:
        strategy = StrategyConfig(**values.get("strategy", {}), **solver)
    except ValueError as exc:
        diags.extend(_field_lines(exc, "strategy", "solver"))
        strategy = StrategyConfig()

    output_dir = base / get("output", "directory", "out")

    cases: list[CaseSpec] = []
    named: dict[int, str] = {}  # case index -> the section that first gave it
    for section in parser.sections():
        if not section.startswith("case."):
            continue
        try:
            index = int(section.split(".", 1)[1])
        except ValueError:
            diags.append(f"{section}: case sections are named case.<integer>")
            continue
        if index in named:
            diags.append(f"{section}: repeats the case index of [{named[index]}]")
            continue
        named[index] = section
        given = values[section]
        for key in ("head_m", "operation_h"):
            if key not in given and f"{section}.{key}" not in rejected:
                diags.append(f"{section}.{key}: required")
        # an inherited power_mw is checked once, under project
        diags.extend(_sizing_lines(section, {key: value for key, value in given.items()
                                             if key != "zoom"}))
        cases.append(CaseSpec(index, given.get("head_m"), given.get("operation_h"),
                              given.get("power_mw", power_mw), given.get("zoom", False)))
    if not any(name.startswith("case.") for name in parser.sections()):
        diags.append("cases: at least one [case.N] section is required")
    cases.sort(key=lambda c: c.index)

    if diags:
        return None, diags
    return (
        CaseConfig(
            dem_path=dem_path,
            dem_format=dem_format,
            lower=lower,
            lower_elevation=get("dem", "lower_elevation"),
            excluded_mask_file=excluded_path,
            efficiency=efficiency,
            cost_params=cost_params,
            strategy=strategy,
            workers=workers,
            output_dir=output_dir,
            cases=cases,
        ),
        [],
    )


def validate_config(path: str | Path) -> list[str]:
    """Diagnostics for a case file; empty means clean.

    A file that parses cleanly also has its DEM and mask files loaded, so
    content errors surface here rather than in ``run``.
    """
    config, diags = _parse_config(path)
    if config is not None:
        try:
            _load_terrain(config)
        except SitingError as exc:
            diags.append(str(exc))
    return diags


def load_case_config(path: str | Path) -> CaseConfig:
    config, diags = _parse_config(path)
    if config is None:
        raise SitingError("invalid config:\n" + "\n".join(f"  {d}" for d in diags))
    return config


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


@dataclass
class CaseOutcome:
    case: CaseSpec
    solution: ReservoirSolution | None
    error: str = ""
    trace_lines: list[str] = field(default_factory=list)


def _load_terrain(config: CaseConfig) -> TerrainGrid:
    grid = load_grid(config.dem_path, config.dem_format, config.lower,
                     lower_elevation=config.lower_elevation)
    if config.excluded_mask_file is not None:
        try:
            grid = replace(grid, excluded=load_mask(config.excluded_mask_file, grid.shape))
        except GridFormatError as exc:
            raise GridFormatError(f"dem.excluded_mask_file: {exc}") from exc
    # The DEM's distance field, which every direct case reads, is built here,
    # once, before the cases run in parallel. A zoom stage builds the terrain
    # of its own window (``stage_terrain``); here each zoom factor is checked
    # against the DEM's shape and its coarse lower body.
    if not all(case.zoom for case in config.cases):
        distance_field(grid, config.strategy.distance_metric)
    if any(case.zoom for case in config.cases):
        for factor in config.strategy.zoom_factors:
            try:
                coarse_lower_cells(grid, factor)
            except (ValueError, InfeasibleProblemError) as exc:
                raise SitingError(f"strategy.zoom_factors: {exc}") from exc
    return grid


def _case_spec(config: CaseConfig, grid: TerrainGrid, case: CaseSpec) -> SitingSpec:
    return SitingSpec.from_engineering(
        case.power_mw, case.head_m, case.hours, grid.lower_elevation, config.efficiency
    )


def _run_case(config: CaseConfig, grid: TerrainGrid, case: CaseSpec) -> CaseOutcome:
    spec = _case_spec(config, grid, case)
    logger.info(
        "case %d: head %.0f m, %.0f MW, %.0f h -> volume target %.3f hm3 (%s)",
        case.index, case.head_m, case.power_mw, case.hours, spec.vol_min / 1e6,
        "zoom-in" if case.zoom else "direct",
    )
    try:
        if case.zoom:
            solution = run_zoom_in(grid, spec, config.cost_params, config.strategy)
        else:
            solution = run_ladder(grid, spec, config.cost_params, config.strategy)
    except (SitingError, NoIncumbentError) as exc:
        trace = getattr(exc, "trace", [])
        return CaseOutcome(case, None, error=str(exc), trace_lines=[_trace_line(t) for t in trace])
    return CaseOutcome(case, solution, trace_lines=[_trace_line(t) for t in solution.trace])


def _trace_line(entry) -> str:
    window = "" if entry.window is None else f" window={entry.window}"
    objective = "-" if entry.objective is None else f"{entry.objective:.6g}"
    comps = "-" if entry.n_components is None else str(entry.n_components)
    gap = "-" if entry.gap is None else f"{100 * entry.gap:.2f}%"
    limit = "-" if entry.time_limit_s is None else f"{entry.time_limit_s:.2f}s"
    if entry.time_limit_s is not None and entry.wall_time_s > entry.time_limit_s:
        limit += " over_limit"  # HiGHS checks its limit only between presolve passes
    bound = "-" if entry.bound is None else f"{entry.bound:.6g}"
    return (
        f"stage={entry.stage} factor={entry.zoom_factor} level={entry.level} "
        f"status={entry.status} path={entry.path} objective={objective} gap={gap} "
        f"components={comps} vars={entry.n_variables} rows={entry.n_constraints} "
        f"nnz={entry.n_nonzeros} nodes={entry.nodes} bound={bound} build={entry.build_s:.3f}s "
        f"time={entry.wall_time_s:.2f}s limit={limit}{window}"
        f"{' ' + entry.note if entry.note else ''}"
    )


def _site_path(solution: ReservoirSolution) -> str:
    """How the rung that produced the site was solved: "certified" or "highs".
    That rung is the native stage's (zoom factor 1) at the site's level."""
    return next(t.path for t in solution.trace
                if t.zoom_factor == 1 and t.level == solution.level)


def _write_mask(path: Path, grid: TerrainGrid, solution: ReservoirSolution) -> None:
    roles = np.zeros(grid.shape)
    roles[solution.perimeter_mask] = 1
    roles[solution.interior_mask] = 2
    write_esri_ascii(
        path, roles, grid.cell_length,
        nodata=None, nodata_value=-9999,
        xllcorner=grid.xllcorner, yllcorner=grid.yllcorner,
        value_format="{:.0f}",
    )


def run_batch(config: CaseConfig) -> int:
    """Execute all cases and write masks, traces and the three report CSVs.

    A case that fails to produce a solution is reported with "-" entries, not
    a nonzero exit; only configuration and I/O errors are fatal.
    """
    grid = _load_terrain(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        outcomes = list(pool.map(lambda c: _run_case(config, grid, c), config.cases))

    physical_rows, cost_rows, solver_rows = [], [], []
    for outcome in outcomes:
        case = outcome.case
        trace_path = config.output_dir / f"trace_{case.index}.log"
        trace_path.write_text("\n".join(outcome.trace_lines) + "\n")
        common = {
            "case": case.index,
            "head_m": case.head_m,
            "power_mw": case.power_mw,
            "operation_h": case.hours,
            "zoom": "yes" if case.zoom else "no",
        }
        if outcome.solution is None:
            dash = {"status": "-", "note": outcome.error}
            physical_rows.append({**common, **dash})
            cost_rows.append({"case": case.index, "status": "-"})
            solver_rows.append({"case": case.index, "status": "-", "note": outcome.error})
            logger.warning("case %d: no solution (%s)", case.index, outcome.error)
            continue
        sol = outcome.solution
        _write_mask(config.output_dir / f"case_{case.index}_mask.asc", grid, sol)
        physical_rows.append(
            {
                **common,
                "status": sol.status,
                "level": sol.level,
                "storage_hm3": f"{sol.storage_m3 / 1e6:.2f}",
                "area_ha": f"{sol.area_ha:.0f}",
                "distance_m": f"{sol.distance_m:.0f}",
                "embankment_length_m": f"{sol.embankment_length_m:.0f}",
                "embankment_length_diag_m": f"{sol.embankment_length_diag_m:.0f}",
                "embankment_volume_hm3": f"{sol.embankment_volume_m3 / 1e6:.2f}",
                "connected": sol.connected,
                "valid": sol.valid,
            }
        )
        cost_rows.append(
            {
                "case": case.index,
                "status": sol.status,
                "embankment_musd": round(sol.costs.embankment / 1e6),
                "conveyance_musd": round(sol.costs.conveyance / 1e6),
                "equipment_musd": round(sol.costs.equipment / 1e6),
                "total_musd": round(sol.costs.total / 1e6),
                "embankment_usd": f"{sol.costs.embankment:.2f}",
                "conveyance_excavation_usd": f"{sol.costs.conveyance_excavation:.2f}",
                "conveyance_lining_usd": f"{sol.costs.conveyance_lining:.2f}",
                "equipment_usd": f"{sol.costs.equipment:.2f}",
                "total_usd": f"{sol.costs.total:.2f}",
            }
        )
        solver_rows.append(
            {
                "case": case.index,
                "status": sol.status,
                "n_variables": sol.n_variables,
                "n_constraints": sol.n_constraints,
                "time_s": f"{sol.wall_time_s:.1f}",
                "gap_pct": "-" if sol.gap is None else f"{100 * sol.gap:.1f}",
                "level": sol.level,
                "path": _site_path(sol),
            }
        )

    _write_csv(config.output_dir / "report_physical.csv", physical_rows)
    _write_csv(config.output_dir / "report_costs.csv", cost_rows)
    _write_csv(config.output_dir / "report_solver.csv", solver_rows)
    logger.info("wrote reports to %s", config.output_dir)
    return 0


def _write_csv(path: Path, rows: list[dict]) -> None:
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="-")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    config = load_case_config(args.config)
    return run_batch(config)


def _cmd_validate(args) -> int:
    diags = validate_config(args.config)
    if diags:
        for d in diags:
            print(d)
        return 1
    print("config ok")
    return 0


def _find_case(config: CaseConfig, index: int) -> CaseSpec:
    for case in config.cases:
        if case.index == index:
            return case
    raise SitingError(f"case {index} not found; configured cases: "
                      f"{[c.index for c in config.cases]}")


def _cmd_export(args) -> int:
    config = load_case_config(args.config)
    case = _find_case(config, args.case)
    grid = _load_terrain(config)
    spec = _case_spec(config, grid, case)
    sp = build_siting_problem(
        grid, spec, config.cost_params,
        level=int(parse_level(args.level)),
        perimeter_min_neighbors=config.strategy.perimeter_min_neighbors,
    )
    suffix = "lp" if args.format == "lp" else "mps"
    default = config.output_dir / f"case_{case.index}.{suffix}"
    out = Path(args.output) if args.output else default
    out.parent.mkdir(parents=True, exist_ok=True)
    export_problem(sp.mip, args.format, out)
    print(f"wrote {out} ({sp.mip.num_variables} variables, {sp.mip.num_constraints} constraints)")
    return 0


def _cmd_oracle(args) -> int:
    config = load_case_config(args.config)
    case = _find_case(config, args.case)
    grid = _load_terrain(config)
    spec = _case_spec(config, grid, case)
    try:
        result = oracle_enumerate(grid, spec, config.cost_params, max_cells=args.max_cells)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"enumerated {result.n_enumerated} subsets, {result.n_feasible} feasible")
    print(f"optimal cost: ${result.cost:,.2f}")
    print(f"interior cells: {int(result.interior_mask.sum())}, "
          f"perimeter cells: {int(result.perimeter_mask.sum())}, "
          f"link cell: {result.link_cell}")
    return 0


def main(argv: list[str] | None = None) -> int:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    parser = argparse.ArgumentParser(
        prog="phs-siting",
        description="Minimum-cost upper-reservoir siting on elevation grids",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every case in a config file", parents=[shared])
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file and list violations",
                           parents=[shared])
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_exp = sub.add_parser("export", help="write one case's model to MPS/LP", parents=[shared])
    p_exp.add_argument("config")
    p_exp.add_argument("--case", type=int, required=True)
    p_exp.add_argument("--format", choices=("mps_fixed", "mps_free", "lp"), default="mps_free")
    p_exp.add_argument("--level", default="none",
                       help="connectivity level: none, hv_planes, hv_diag_planes, tsp")
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.set_defaults(func=_cmd_export)

    p_orc = sub.add_parser("oracle", help="exhaustive optimum of a micro case", parents=[shared])
    p_orc.add_argument("config")
    p_orc.add_argument("--case", type=int, required=True)
    p_orc.add_argument("--max-cells", type=int, default=18)
    p_orc.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SitingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
