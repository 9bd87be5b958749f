"""Traced mode: spans and counts around the calls into each package layer.

Wrappers are installed from outside the package, on the name each caller looks
up at call time, and only in traced mode:

* ``strategy`` imported ``build_siting_problem``, ``extract_solution``,
  ``verify_masks`` and the terrain functions into its own namespace;
* ``model`` reaches ``connectivity.add_separating_planes`` and
  ``add_tour_constraints`` through the module;
* ``milp`` lives on ``sys.modules["phs_siting.solve"]``, because
  ``phs_siting.solve`` is the function;
* ``HighsBackend.solve`` is a method on the class;
* the benchmark's own calls go through the package namespace.

Spans keep a case id and a parent; self time is a span's duration minus its
children's. Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import phs_siting as ps
import phs_siting.connectivity as connectivity
import phs_siting.model as model
import phs_siting.strategy as strategy
import phs_siting.terrain as terrain

solve_mod = sys.modules["phs_siting.solve"]

TERRAIN_FUNCS = ("aggregate", "clip", "candidate_sets", "distance_field", "connected_components")
FORMAT_FUNCS = ("write_mps", "write_lp", "read_mps", "read_lp", "problems_structurally_equal")

#: Counts that must repeat exactly for one case on one seed.
EXACT_COUNTS = ("model.nnz", "connectivity.nnz", "solve.nodes", "solve.limit_hits",
                "solve.oracle_subsets", "formats.bytes")

_SECONDS = ("terrain.busy_s", "model.build_s", "model.extract_s", "connectivity.planes_s",
            "connectivity.tour_s", "solve.engine_s", "solve.marshal_s", "solve.oracle_s",
            "formats.write_s", "formats.read_s", "formats.compare_s", "strategy.limit_s")
_COUNTS = ("terrain.calls", "model.builds", "model.vars", "model.rows", "model.nnz",
           "connectivity.nnz", "solve.calls", "solve.nodes", "solve.oracle_subsets",
           "solve.limit_hits", "solve.errors", "formats.bytes", "strategy.solves_per_case",
           "strategy.escalations", "strategy.zoom_stages")
_RATIOS = ("solve.optimal_ratio", "strategy.useful_ratio", "tracing.overhead")
#: Every per-layer metric with its unit; times and counts are per case.
UNITS = {**{k: "s/case" for k in _SECONDS}, **{k: "count/case" for k in _COUNTS},
         **{k: "ratio" for k in _RATIOS}}


class Tracer:
    """Spans and boundary counts of the traced cases, keyed by ``<case id>#<pass>``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.case: str | None = None
        self.active = False
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner in (ps, strategy, terrain, model, solve_mod):
            for name in TERRAIN_FUNCS:
                if hasattr(owner, name):
                    self._wrap(owner, name, "terrain", after=self._count_terrain)
        for owner in (ps, strategy):
            self._wrap(owner, "build_siting_problem", "model", after=self._count_model)
            self._wrap(owner, "extract_solution", "model")
            self._wrap(owner, "run_ladder", "strategy")
        self._wrap(strategy, "verify_masks", "model")
        self._wrap(ps, "run_zoom_in", "strategy")
        for name in ("add_separating_planes", "add_tour_constraints"):
            self._wrap(connectivity, name, "connectivity",
                       before=lambda prob, *a, **k: (prob, len(prob.rows)),
                       after=self._count_rows)
        self._wrap(solve_mod.HighsBackend, "solve", "solve", after=self._count_backend)
        self._wrap(solve_mod, "milp", "solve", after=self._count_milp)
        self._wrap(ps, "oracle_enumerate", "solve", after=self._count_oracle)
        for name in FORMAT_FUNCS:
            after = self._count_bytes if name.startswith("write") else None
            self._wrap(ps, name, "formats", after=after)

    @contextmanager
    def paused(self):
        """Stop recording for a block: the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, owner, name, layer, before=None, after=None) -> None:
        original = getattr(owner, name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            span = {"id": len(tracer.spans), "case": tracer.case, "layer": layer, "name": name,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None, "ok": False}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                span["ok"] = True
            finally:
                span["t1"] = time.perf_counter()
                tracer._stack.pop()
            if after:
                after(result, span, state)
            return result

        setattr(owner, name, traced)
        self._undo.append((owner, name, original))

    # -- counts at the boundaries --------------------------------------------

    def _add(self, **kv) -> None:
        counts = self.counts[self.case]
        for key, value in kv.items():
            counts[key.replace("__", ".")] += value

    def _count_terrain(self, result, span, state) -> None:
        self._add(terrain__calls=1)

    def _count_model(self, sp, span, state) -> None:
        mip = sp.mip
        self._add(model__builds=1, model__vars=mip.num_variables, model__rows=mip.num_constraints,
                  model__nnz=sum(len(r.coeffs) for r in mip.rows))

    def _count_rows(self, result, span, state) -> None:
        prob, rows_before = state
        self._add(connectivity__nnz=sum(len(r.coeffs) for r in prob.rows[rows_before:]))

    def _count_backend(self, result, span, state) -> None:
        status = result.status
        span["status"] = status.value
        self._add(solve__calls=1,
                  solve__optimal=status is solve_mod.SolveStatus.OPTIMAL,
                  solve__limit_hits=status is solve_mod.SolveStatus.TIME_LIMIT,
                  solve__errors=status is solve_mod.SolveStatus.ERROR,
                  strategy__solves=any(s["name"] == "run_ladder" for s in self._stack))

    def _count_milp(self, res, span, state) -> None:
        # Node counts of a solve cut by its time limit depend on machine speed.
        if res.status != 1:
            self._add(solve__nodes=int(getattr(res, "mip_node_count", 0) or 0))

    def _count_oracle(self, res, span, state) -> None:
        self._add(solve__oracle_subsets=res.n_enumerated)

    def _count_bytes(self, text, span, state) -> None:
        self._add(formats__bytes=len(text))

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict], n_cases: int) -> dict[str, float]:
    """Per-case seconds and ratios of each layer, from the spans of ``n_cases`` cases."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["t1"] - s["t0"] for s in spans}
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]
    self_time = {sid: d - child_time[sid] for sid, d in dur.items()}

    def total(pick, times=self_time) -> float:
        return sum(times[s["id"]] for s in spans if pick(s)) / n_cases

    def named(*names):
        return lambda s: s["name"] in names

    backend = [s for s in spans if s["layer"] == "solve" and s["name"] == "solve"]
    backend_ids = {s["id"] for s in backend}
    ladders = [s for s in spans if s["name"] == "run_ladder"]

    def ancestor(s, sid) -> bool:
        while s["parent"] is not None:
            if s["parent"] == sid:
                return True
            s = by_id[s["parent"]]
        return False

    ladder_solves = [sum(ancestor(b, lad["id"]) for b in backend) for lad in ladders]
    zoom_ids = {s["id"] for s in spans if s["name"] == "run_zoom_in"}
    n_strategy_solves = sum(ladder_solves)
    return {
        "terrain.busy_s": total(lambda s: s["layer"] == "terrain"),
        "model.build_s": total(named("build_siting_problem")),
        "model.extract_s": total(named("extract_solution")),
        "connectivity.planes_s": total(named("add_separating_planes"), dur),
        "connectivity.tour_s": total(named("add_tour_constraints"), dur),
        "solve.engine_s": total(named("milp"), dur),
        "solve.marshal_s": total(lambda s: s["id"] in backend_ids),
        "solve.oracle_s": total(named("oracle_enumerate")),
        "formats.write_s": total(named("write_mps", "write_lp")),
        "formats.read_s": total(named("read_mps", "read_lp")),
        "formats.compare_s": total(named("problems_structurally_equal")),
        "strategy.escalations": sum(max(0, k - 1) for k in ladder_solves) / n_cases,
        "strategy.useful_ratio": (sum(lad["ok"] for lad in ladders) / n_strategy_solves
                                  if n_strategy_solves else 0.0),
        "strategy.limit_s": total(lambda s: s.get("status") == "time_limit", dur),
        "strategy.zoom_stages": sum(lad["parent"] in zoom_ids for lad in ladders) / n_cases,
    }


def count_metrics(counts: dict[str, Counter], case_ids: list[str]) -> dict[str, float]:
    """Per-case means of the boundary counts over one pass of the case list."""
    n = len(case_ids)
    summed = Counter()
    for cid in case_ids:
        summed.update(counts[cid])
    calls = summed["solve.calls"]
    out = {key: summed[key] / n for key in _COUNTS if key.split(".")[0] != "strategy"}
    out["solve.optimal_ratio"] = summed["solve.optimal"] / calls if calls else 0.0
    out["strategy.solves_per_case"] = summed["strategy.solves"] / n
    return out


def repeat_mismatches(counts: dict[str, Counter]) -> list[str]:
    """Case ids whose exact counts differ between passes."""
    first: dict[str, dict] = {}
    bad = set()
    for key, c in counts.items():
        cid = key.rsplit("#", 1)[0]
        exact = {k: c[k] for k in EXACT_COUNTS}
        if first.setdefault(cid, exact) != exact:
            bad.add(cid)
    return sorted(bad)
