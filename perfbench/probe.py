"""Set-up probe, run in a fresh interpreter by run.py: import shellwave,
load the config and make one warm-up call.

    python3 perfbench/probe.py <seed> <workdir>
"""

import sys

import run

run.import_program()
import workloads  # noqa: E402  (needs the path set by import_program)

workloads.warm_up(workloads.make_inputs(run.ROOT, sys.argv[2], int(sys.argv[1])))
