"""Import budget: the CLI loads no SciPy subpackage it does not use, and
shellwave's LAPACK routines come from SciPy's compiled module alone.  Also
what importing shellwave does to the C heap."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# shellwave uses none of these; each adds import time
UNUSED = ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.integrate",
          "scipy.interpolate", "scipy.stats")

# scipy's package import pulls these in; shellwave loads only scipy.linalg._flapack
PACKAGE_IMPORT = ("scipy", "scipy.linalg", "numpy.testing", "numpy.f2py")

PROBE_WORK = """
from shellwave.ansatz import AnsatzParams, build_z, grid_for
from shellwave.full_solver import solve_full
from shellwave.ground_state import GroundStateProfile, linearized_spectrum
from shellwave.potentials import PotentialSpec
from shellwave.reduction import solve_projected
spec = PotentialSpec.sine()
params = AnsatzParams.make(2, 3.0, 0.5, 17.0, spec, 0.5, 1.5, gamma=0.6)
grid = grid_for(params, 0.02)
solve_projected(params, spec, grid)
solve_full(2, 3.0, 0.5, spec, build_z(params, spec, grid), grid)
linearized_spectrum(GroundStateProfile(p=3.0))
"""


def run_fresh(code: str, *first: Path):
    """Run code in a fresh interpreter with first, then src/, leading the
    path; return the JSON its last output line prints."""
    path = [*map(str, first), str(SRC)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_no_unused_scipy_subpackage():
    origin, loaded = run_fresh(
        "import json, sys; import shellwave.cli; "
        "print(json.dumps([shellwave.cli.__file__, sorted(sys.modules)]))")
    assert Path(origin).resolve().is_relative_to(SRC)
    assert [name for name in loaded if name in UNUSED] == []


def test_cli_and_solves_never_import_the_scipy_package():
    # the work of the benchmark's set-up probe and more: a lazy import of
    # scipy inside any solver would show here and not at import time
    code = ("import json, sys\nimport shellwave.cli\n" + PROBE_WORK
            + "print(json.dumps(sorted(sys.modules)))")
    loaded = run_fresh(code)
    assert "scipy.linalg._flapack" in loaded
    assert [name for name in PACKAGE_IMPORT if name in loaded] == []


@pytest.mark.parametrize("first", ["shellwave", "scipy"])
def test_lapack_routines_are_scipys_own(first):
    imports = ["import shellwave._lapack as mine", "import scipy.linalg.lapack as ref"]
    if first == "scipy":
        imports.reverse()
    code = "; ".join(["import json", *imports, "print(json.dumps("
                      "[[f, getattr(mine, f) is getattr(ref, f)] for f in mine.__all__]))"])
    same = dict(run_fresh(code))
    assert sorted(same) == ["dgtsv", "dpttrf", "dpttrs", "dstebz", "dstein"]
    assert all(same.values()), same


def test_missing_flapack_is_a_named_import_error(tmp_path):
    # a scipy package without linalg/_flapack found first on the path
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = ("import json\ntry:\n    import shellwave.cli\n"
            "except Exception as exc:\n"
            "    print(json.dumps([type(exc).__name__, str(exc)]))\n")
    kind, message = run_fresh(code, tmp_path)
    assert kind == "ImportError"
    assert str(tmp_path / "scipy" / "linalg" / "_flapack") in message


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_second_full_solve_reuses_the_heap():
    # a solve on ~63k nodes frees arrays of about 0.5 MB; with them kept in
    # the heap the second solve faults in almost no new pages
    code = """
import json, resource
from shellwave.ansatz import AnsatzParams, build_z, grid_for
from shellwave.full_solver import solve_full
from shellwave.potentials import PotentialSpec
spec = PotentialSpec.sine()
params = AnsatzParams.make(2, 3.0, 0.5, 17.0, spec, 0.5, 1.5, gamma=0.6)
grid = grid_for(params, 0.001)
seed = build_z(params, spec, grid)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve_full(2, 3.0, 0.5, spec, seed, grid)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps([grid.size, faults]))
"""
    size, (first, second) = run_fresh(code)
    assert 50_000 <= size <= 70_000
    assert first > 0 and second <= 0.1 * first, (first, second)
