"""Import budget: the CLI loads no SciPy subpackage it does not use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# shellwave uses scipy.linalg only; each of these adds import time
UNUSED = ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.integrate",
          "scipy.interpolate", "scipy.stats")


def test_cli_loads_no_unused_scipy_subpackage():
    code = ("import json, sys; import shellwave.cli; "
            "print(json.dumps([shellwave.cli.__file__, sorted(sys.modules)]))")
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    origin, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert Path(origin).resolve().is_relative_to(SRC)
    assert [name for name in loaded if name in UNUSED] == []
