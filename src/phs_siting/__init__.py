"""Minimum-cost siting of pumped-hydro upper reservoirs on elevation grids.

Workflow: load a DEM with its lower water body (:func:`load_grid`), derive the
volume target from capacity/head/duration (:class:`SitingSpec`), then either
solve directly with the connectivity-defense ladder (:func:`run_ladder`) or
coarse-to-fine with the zoom-in heuristic (:func:`run_zoom_in`). The ``cli``
module wraps the same pipeline behind a batch case file.
"""

from .connectivity import Level, Verdict, connectivity_verdict
from .costing import (
    CostBreakdown,
    CostParams,
    conveyance_cost,
    embankment_cell_cost,
    equipment_cost,
)
from .errors import (
    GridFormatError,
    InfeasibleProblemError,
    IntegralityError,
    NoIncumbentError,
    SitingError,
)
from .formats import (
    export_problem,
    problems_structurally_equal,
    read_lp,
    read_mps,
    read_problem_file,
    write_lp,
    write_mps,
)
from .model import (
    MipProblem,
    ReservoirSolution,
    SitingProblem,
    build_siting_problem,
    extract_solution,
    verify_masks,
)
from .sizing import DEFAULT_EFFICIENCY, SitingSpec, design_flow, required_volume
from .solve import (
    OracleResult,
    SolveLimits,
    SolveResult,
    SolveStatus,
    oracle_enumerate,
    solve,
    verify_solution,
)
from .strategy import StrategyConfig, TraceEntry, run_ladder, run_zoom_in
from .terrain import (
    ByElevation,
    CandidateSets,
    DistanceField,
    MaskFile,
    TerrainGrid,
    aggregate,
    candidate_sets,
    clip,
    connected_components,
    distance_field,
    load_grid,
    load_mask,
    stage_terrain,
    write_esri_ascii,
)

__version__ = "0.1.0"

__all__ = [
    "ByElevation",
    "CandidateSets",
    "CostBreakdown",
    "CostParams",
    "DEFAULT_EFFICIENCY",
    "DistanceField",
    "GridFormatError",
    "InfeasibleProblemError",
    "IntegralityError",
    "Level",
    "MaskFile",
    "MipProblem",
    "NoIncumbentError",
    "OracleResult",
    "ReservoirSolution",
    "SitingError",
    "SitingProblem",
    "SitingSpec",
    "SolveLimits",
    "SolveResult",
    "SolveStatus",
    "StrategyConfig",
    "TerrainGrid",
    "TraceEntry",
    "Verdict",
    "aggregate",
    "build_siting_problem",
    "candidate_sets",
    "clip",
    "connected_components",
    "connectivity_verdict",
    "conveyance_cost",
    "design_flow",
    "distance_field",
    "embankment_cell_cost",
    "equipment_cost",
    "export_problem",
    "extract_solution",
    "load_grid",
    "load_mask",
    "oracle_enumerate",
    "problems_structurally_equal",
    "read_lp",
    "read_mps",
    "read_problem_file",
    "required_volume",
    "run_ladder",
    "run_zoom_in",
    "solve",
    "stage_terrain",
    "verify_masks",
    "verify_solution",
    "write_esri_ascii",
    "write_lp",
    "write_mps",
]
