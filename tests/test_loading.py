"""Which modules a process loads: SciPy's compiled kernels without their
packages, and the HiGHS binding only when a solve or a model file needs it.

``import scipy.ndimage`` or ``import scipy.optimize`` would load hundreds of
modules, ``scipy.linalg`` and ``scipy.sparse`` among them. This suite's own
process has them loaded already (``conftest`` imports the binding), so each
check runs in a fresh interpreter; inputs go to it as pickles.
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
heavy = ("scipy.ndimage", "scipy.optimize", "scipy.sparse")
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
import importlib, pickle, sys, time
import phs_siting as ps
binding = "scipy.optimize._highspy._core"
call, path = sys.argv[1:]
with open(path, "rb") as fh:
    argument = pickle.load(fh)
assert binding not in sys.modules, "loaded before the call"
# the binding loads in milliseconds; a slowed first load shows which clock holds it
solve = importlib.import_module("phs_siting.solve")
load = solve.load

def slowed(name):
    if name not in sys.modules:
        time.sleep(0.5)
    return load(name)

solve.load = slowed
start = time.perf_counter()
result = {"solve": ps.solve, "write_mps": ps.write_mps, "read_problem_file": ps.read_problem_file}[call](argument)
elapsed = time.perf_counter() - start
assert binding in sys.modules, "not loaded by the call"
assert "scipy.optimize" not in sys.modules, "the call loaded scipy.optimize"
if call == "solve":
    # the load takes most of the call, and the solve's clock starts after it
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


_KERNELS = """
import sys
import numpy as np
from phs_siting._compiled import load
names = ("scipy.ndimage._nd_image", "scipy.ndimage._ni_label", "scipy.optimize._highspy._core")
packages_first = sys.argv[1] == "packages_first"
if packages_first:
    from scipy import ndimage, optimize
loaded = {name: load(name) for name in names}
if not packages_first:
    assert not {"scipy.ndimage", "scipy.optimize"} & set(sys.modules), "a package was imported"
    from scipy import ndimage, optimize
assert all(sys.modules[name] is module for name, module in loaded.items())
assert ndimage.label(np.eye(3))[1] == 3
result = optimize.milp([-1, -1], integrality=[1, 1], bounds=optimize.Bounds(0, 1))
assert result.status == 0 and result.fun == -2, result
"""


@pytest.mark.parametrize("order", ["kernels_first", "packages_first"])
def test_the_packages_reuse_the_loaded_kernels(order):
    _fresh(_KERNELS, order)


_FIRST_CALLS_AT_ONCE = """
import sys, threading
import numpy as np
import phs_siting as ps
from phs_siting import terrain
real, got, results = terrain.load, [], []

def recording(name):
    module = real(name)
    got.append(module)
    return module

terrain.load = recording
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4, timeout=60)

def first_call():
    barrier.wait()
    results.append(ps.connected_components(np.eye(4, dtype=bool), "eight"))

threads = [threading.Thread(target=first_call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
assert len(got) == 4 and all(module is sys.modules["scipy.ndimage._ni_label"] for module in got), got
assert [len(comps) for comps in results] == [1] * 4, results
"""


def test_threads_load_the_labeller_at_once():
    _fresh(_FIRST_CALLS_AT_ONCE)


def test_a_module_scipy_does_not_have_is_an_import_error():
    from phs_siting._compiled import load

    with pytest.raises(ImportError, match="scipy.ndimage._no_such_kernel"):
        load("scipy.ndimage._no_such_kernel")
    assert "scipy.ndimage._no_such_kernel" not in sys.modules


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
