"""The benchmark's tracer installs on the package and leaves it as it was.

``perfbench/tracing.py`` wraps package functions by name from outside the
package. A refactor that drops or renames a name it wraps fails here.
"""

from pathlib import Path

import phs_siting as ps
from phs_siting import model, strategy, terrain

from conftest import pit_grid, pit_spec


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    return tracing


def test_the_benchmark_tracer_installs_traces_and_uninstalls(monkeypatch):
    tracing = _tracing(monkeypatch)
    wrapped = {(owner, name): getattr(owner, name)
               for owner in (ps, strategy, model, terrain)
               for name in ("build_siting_problem", "extract_solution", "verify_masks", "run_ladder",
                            "run_zoom_in", "candidate_sets", "clip", "distance_field", "aggregate",
                            "connected_components")
               if hasattr(owner, name)}
    for name in ("build_siting_problem", "extract_solution", "verify_masks"):
        assert (strategy, name) in wrapped, name

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert strategy.verify_masks is not wrapped[strategy, "verify_masks"]
        tracer.case, tracer.active = "pit#0", True
        site = ps.run_ladder(pit_grid(), pit_spec())
        tracer.active = False
    finally:
        tracer.uninstall()
    assert site.valid
    names = {span["name"] for span in tracer.spans}
    assert {"run_ladder", "candidate_sets"} <= names, names
    assert all(span["ok"] for span in tracer.spans)
    for (owner, name), original in wrapped.items():
        assert getattr(owner, name) is original, (owner.__name__, name)
