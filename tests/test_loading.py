"""Which modules a process loads: SciPy's HiGHS binding only when a solve or a
model file needs it.

Importing the binding imports all of ``scipy.optimize``, and with it
``scipy.linalg`` and ``scipy.sparse``. This suite's own process has them
loaded already (``conftest`` imports the binding), so each check runs in a
fresh interpreter; inputs go to it as pickles.
"""

import csv
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import phs_siting as ps

from conftest import bowl_basin_dem, pit_grid, pit_spec

ROOT = Path(__file__).resolve().parents[1]


def _fresh(script: str, *args) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports the package from ./src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


_CERTIFIED_RUNS = """
import json, pickle, sys
heavy = ("scipy.optimize", "scipy.sparse")
loaded = lambda: [name for name in heavy if name in sys.modules]
import phs_siting as ps
seen = {"import": loaded()}
with open(sys.argv[1], "rb") as fh:
    (pit, pit_spec), (bowl, bowl_spec) = pickle.load(fh)
ladder = ps.run_ladder(pit, pit_spec)
seen["run_ladder"] = loaded()
zoom = ps.run_zoom_in(bowl, bowl_spec)
seen["run_zoom_in"] = loaded()
seen["paths"] = [entry.path for entry in ladder.trace + zoom.trace]
print(json.dumps(seen))
"""


def test_certified_runs_load_no_solver(tmp_path):
    inputs = tmp_path / "inputs.pickle"
    inputs.write_bytes(pickle.dumps([(pit_grid(), pit_spec()), bowl_basin_dem()]))
    seen = json.loads(_fresh(_CERTIFIED_RUNS, inputs).stdout)
    assert seen["paths"] and set(seen["paths"]) == {"certified"}
    assert (seen["import"], seen["run_ladder"], seen["run_zoom_in"]) == ([], [], [])


_FIRST_USE = """
import pickle, sys, time
import phs_siting as ps
binding = "scipy.optimize._highspy._core"
call, path = sys.argv[1:]
with open(path, "rb") as fh:
    argument = pickle.load(fh)
assert binding not in sys.modules, "loaded before the call"
start = time.perf_counter()
result = {"solve": ps.solve, "write_mps": ps.write_mps, "read_problem_file": ps.read_problem_file}[call](argument)
elapsed = time.perf_counter() - start
assert binding in sys.modules, "not loaded by the call"
if call == "solve":
    # the import takes most of the call, and the solve's clock starts after it
    assert result.wall_time_s < elapsed / 2, (result.wall_time_s, elapsed)
"""


@pytest.mark.parametrize("call", ["solve", "write_mps", "read_problem_file"])
def test_a_solve_or_a_model_file_loads_the_binding(tmp_path, call):
    mip = ps.build_siting_problem(pit_grid(), pit_spec(), level=3).mip
    argument = mip
    if call == "read_problem_file":
        argument = ps.export_problem(mip, "mps_free", tmp_path / "pit.mps")
    path = tmp_path / "argument.pickle"
    path.write_bytes(pickle.dumps(argument))
    _fresh(_FIRST_USE, call, path)


def _demo_case_file(directory: Path, workers: int) -> Path:
    """The demo case file on the plane rung alone, so that both cases reach HiGHS."""
    directory.mkdir()
    (directory / "demo_dem.asc").write_bytes((ROOT / "configs" / "demo_dem.asc").read_bytes())
    lines = []
    for line in (ROOT / "configs" / "demo.ini").read_text().splitlines():
        if line.startswith("ladder ="):
            line = "ladder = hv_planes"
        elif line.startswith("directory ="):
            line = "directory = run"
        lines.append(line)
        if line == "[solver]":
            lines.append(f"workers = {workers}")
    path = directory / "demo.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_two_threads_load_the_binding_at_once(tmp_path):
    outs = []
    for workers in (1, 2):
        case_file = _demo_case_file(tmp_path / f"w{workers}", workers)
        _fresh("import sys; from phs_siting.cli import main; sys.exit(main(['run', sys.argv[1]]))",
               case_file)
        outs.append(case_file.parent / "run")
    for out in outs:
        with open(out / "report_solver.csv") as fh:
            assert [row["path"] for row in csv.DictReader(fh)] == ["highs", "highs"]
    for name in ("case_1_mask.asc", "case_2_mask.asc", "report_physical.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
