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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .connectivity import Level, parse_level
from .costing import CostParams
from .errors import GridFormatError, NoIncumbentError, SitingError
from .formats import export_problem
from .model import ReservoirSolution, build_siting_problem
from .sizing import DEFAULT_EFFICIENCY, SitingSpec
from .solve import oracle_enumerate
from .strategy import StrategyConfig, run_ladder, run_zoom_in
from .terrain import ByElevation, MaskFile, TerrainGrid, load_grid, load_mask, write_esri_ascii

logger = logging.getLogger(__name__)

_KNOWN_SECTIONS = {"dem", "project", "costs", "strategy", "solver", "output"}
_DEM_KEYS = {
    "path", "format", "lower_by_elevation", "lower_tolerance", "lower_mask_file",
    "lower_elevation", "pad_nonsquare", "excluded_mask_file",
}
_PROJECT_KEYS = {"power_mw", "efficiency"}
_STRATEGY_KEYS = {
    "ladder", "zoom_factors", "clip_margin", "budget", "distance_metric",
    "perimeter_min_neighbors",
}
_SOLVER_KEYS = {"time_limit_s", "gap_target", "workers"}
_OUTPUT_KEYS = {"directory"}
_CASE_KEYS = {"head_m", "operation_h", "zoom", "power_mw"}


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
    pad_nonsquare: bool
    excluded_mask_file: Path | None
    power_mw: float
    efficiency: float
    cost_params: CostParams
    strategy: StrategyConfig
    workers: int
    output_dir: Path
    cases: list[CaseSpec] = field(default_factory=list)


def _parse_config(path: str | Path) -> tuple[CaseConfig | None, list[str]]:
    """Parse and validate; returns (config or None, diagnostics)."""
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

    def check_keys(section: str, allowed: set[str]) -> None:
        if not parser.has_section(section):
            return
        for key in parser[section]:
            if key not in allowed:
                diags.append(f"{section}.{key}: unknown key")

    for section in parser.sections():
        if section not in _KNOWN_SECTIONS and not section.startswith("case."):
            diags.append(f"{section}: unknown section")
    check_keys("dem", _DEM_KEYS)
    check_keys("project", _PROJECT_KEYS)
    check_keys("strategy", _STRATEGY_KEYS)
    check_keys("solver", _SOLVER_KEYS)
    check_keys("output", _OUTPUT_KEYS)

    def get(section: str, key: str, fallback=None) -> str | None:
        return parser.get(section, key, fallback=fallback)

    rejected: set[str] = set()  # keys already reported; no follow-up lines for them

    def get_float(section: str, key: str, fallback=None):
        raw = get(section, key)
        if raw is None or raw.strip() == "":
            return fallback
        try:
            value = float(raw)
        except ValueError:
            diags.append(f"{section}.{key}: not a number ({raw!r})")
        else:
            if math.isfinite(value):
                return value
            diags.append(f"{section}.{key}: not a finite number ({raw.strip()})")
        rejected.add(f"{section}.{key}")
        return fallback

    def get_int(section: str, key: str, fallback=None):
        raw = get(section, key)
        if raw is None or raw.strip() == "":
            return fallback
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not value.is_integer():
            diags.append(f"{section}.{key}: not an integer ({raw.strip()})")
            return fallback
        return int(value)

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
    by_elev = get_float("dem", "lower_by_elevation")
    mask_file = get("dem", "lower_mask_file")
    if by_elev is not None and mask_file:
        diags.append("dem: give either lower_by_elevation or lower_mask_file, not both")
    elif by_elev is not None:
        lower = ByElevation(by_elev, get_float("dem", "lower_tolerance", 0.5))
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

    power_mw = get_float("project", "power_mw", None)
    if "project.power_mw" not in rejected and (power_mw is None or power_mw <= 0):
        diags.append("project.power_mw: required" if power_mw is None
                     else f"project.power_mw: must be positive, got {power_mw}")
        rejected.add("project.power_mw")  # the cases that inherit it report nothing more
    efficiency = get_float("project", "efficiency", DEFAULT_EFFICIENCY)
    if efficiency is not None and not 0 < efficiency <= 1:
        diags.append(f"project.efficiency: must be in (0, 1], got {efficiency}")

    cost_kwargs = {}
    if parser.has_section("costs"):
        valid_fields = set(CostParams.__dataclass_fields__)
        for key in parser["costs"]:
            if key not in valid_fields:
                diags.append(f"costs.{key}: unknown cost parameter")
                continue
            value = get_float("costs", key)
            if value is not None:
                cost_kwargs[key] = value
    try:
        cost_params = CostParams(**cost_kwargs)
    except ValueError as exc:
        diags.append(f"costs: {exc}")
        cost_params = CostParams()

    time_limit = get_float("solver", "time_limit_s", None)
    if time_limit is not None and time_limit <= 0:
        diags.append(f"solver.time_limit_s: must be positive, got {time_limit}")
    gap_target = get_float("solver", "gap_target", 0.0)
    if not 0 <= gap_target < 1:
        diags.append(f"solver.gap_target: must be in [0, 1), got {gap_target}")
        gap_target = 0.0
    workers = get_int("solver", "workers", 1)
    if workers < 1:
        diags.append(f"solver.workers: must be >= 1, got {workers}")

    ladder_raw = get("strategy", "ladder", "none, hv_planes, hv_diag_planes, tsp")
    try:
        ladder = tuple(parse_level(tok.strip()) for tok in ladder_raw.split(",") if tok.strip())
    except ValueError as exc:
        diags.append(f"strategy.ladder: {exc}")
        ladder = (Level.NONE,)
    zoom_raw = get("strategy", "zoom_factors", "8, 4, 2, 1")
    try:
        zoom_factors = tuple(int(tok) for tok in zoom_raw.split(",") if tok.strip())
    except ValueError:
        diags.append(f"strategy.zoom_factors: not integers ({zoom_raw!r})")
        zoom_factors = (8, 4, 2, 1)
    clip_margin = get_int("strategy", "clip_margin", None)
    metric = get("strategy", "distance_metric", "horizontal")
    if metric not in ("horizontal", "slant"):
        diags.append(f"strategy.distance_metric: must be horizontal or slant, got {metric!r}")
    min_nbrs = get_int("strategy", "perimeter_min_neighbors", 1)
    budget = get("strategy", "budget", "per_level")

    try:
        strategy = StrategyConfig(
            ladder=ladder,
            zoom_factors=zoom_factors,
            clip_margin=clip_margin,
            time_limit_s=time_limit,
            budget=budget,
            gap_target=gap_target,
            perimeter_min_neighbors=min_nbrs,
            distance_metric=metric if metric in ("horizontal", "slant") else "horizontal",
        )
    except ValueError as exc:
        diags.append(f"strategy: {exc}")
        strategy = StrategyConfig()

    output_dir = base / get("output", "directory", "out")

    cases: list[CaseSpec] = []
    for section in parser.sections():
        if not section.startswith("case."):
            continue
        try:
            index = int(section.split(".", 1)[1])
        except ValueError:
            diags.append(f"{section}: case sections are named case.<integer>")
            continue
        for key in parser[section]:
            if key not in _CASE_KEYS:
                diags.append(f"{section}.{key}: unknown key")
        head = get_float(section, "head_m")
        hours = get_float(section, "operation_h")
        case_power = get_float(section, "power_mw", power_mw)
        own_power = (get(section, "power_mw") or "").strip()
        zoom_flag = parser.getboolean(section, "zoom", fallback=False)
        for key, value in (("head_m", head), ("operation_h", hours), ("power_mw", case_power)):
            source = "project" if key == "power_mw" and not own_power else section
            if f"{source}.{key}" in rejected:
                continue
            if value is None or value <= 0:
                diags.append(f"{section}.{key}: must be a positive number, got {value}")
        if head and hours and case_power and head > 0 and hours > 0 and case_power > 0:
            cases.append(CaseSpec(index, head, hours, case_power, zoom_flag))
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
            lower_elevation=get_float("dem", "lower_elevation", None),
            pad_nonsquare=parser.getboolean("dem", "pad_nonsquare", fallback=False),
            excluded_mask_file=excluded_path,
            power_mw=power_mw,
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


def _load_terrain(config: CaseConfig) -> tuple[TerrainGrid, np.ndarray | None]:
    grid = load_grid(
        config.dem_path,
        config.dem_format,
        config.lower,
        pad_nonsquare=config.pad_nonsquare,
        lower_elevation=config.lower_elevation,
    )
    excluded = None
    if config.excluded_mask_file is not None:
        try:
            excluded = load_mask(config.excluded_mask_file, grid.shape)
        except GridFormatError as exc:
            raise GridFormatError(f"dem.excluded_mask_file: {exc}") from exc
    return grid, excluded


def _case_spec(config: CaseConfig, grid: TerrainGrid, case: CaseSpec) -> SitingSpec:
    return SitingSpec.from_engineering(
        case.power_mw, case.head_m, case.hours, grid.lower_elevation, config.efficiency
    )


def _run_case(config: CaseConfig, grid: TerrainGrid, excluded, case: CaseSpec) -> CaseOutcome:
    spec = _case_spec(config, grid, case)
    logger.info(
        "case %d: head %.0f m, %.0f MW, %.0f h -> volume target %.3f hm3 (%s)",
        case.index, case.head_m, case.power_mw, case.hours, spec.vol_min / 1e6,
        "zoom-in" if case.zoom else "direct",
    )
    try:
        if case.zoom:
            solution = run_zoom_in(grid, spec, config.cost_params, config.strategy, excluded=excluded)
        else:
            solution = run_ladder(grid, spec, config.cost_params, config.strategy, excluded=excluded)
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
    bound = "-" if entry.bound is None else f"{entry.bound:.6g}"
    return (
        f"stage={entry.stage} factor={entry.zoom_factor} level={entry.level} "
        f"status={entry.status} path={entry.path} objective={objective} gap={gap} "
        f"components={comps} vars={entry.n_variables} rows={entry.n_constraints} "
        f"nnz={entry.n_nonzeros} nodes={entry.nodes} bound={bound} build={entry.build_s:.3f}s "
        f"time={entry.wall_time_s:.2f}s limit={limit}{window}"
        f"{' ' + entry.note if entry.note else ''}"
    )


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
    grid, excluded = _load_terrain(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        outcomes = list(pool.map(lambda c: _run_case(config, grid, excluded, c), config.cases))

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
                "backend": "highs",
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
    grid, excluded = _load_terrain(config)
    spec = _case_spec(config, grid, case)
    sp = build_siting_problem(
        grid, spec, config.cost_params,
        level=int(parse_level(args.level)), excluded=excluded,
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
    grid, excluded = _load_terrain(config)
    spec = _case_spec(config, grid, case)
    try:
        result = oracle_enumerate(
            grid, spec, config.cost_params, excluded=excluded, max_cells=args.max_cells
        )
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
