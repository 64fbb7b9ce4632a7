"""Drive every pipeline stage for one config and print the report.

Stages run in the CLI's order through the same entry point as the console
script, so artifacts and the run ledger match running the stages by hand.
--eps goes to the stages that read it.
"""

import argparse
import sys

from shellwave.cli import STAGE_OVERRIDES
from shellwave.cli import main as shellwave_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/sine_n2.json")
    ap.add_argument("--out", default=None, help="override the config outdir")
    ap.add_argument("--eps", type=float, default=None,
                    help="single-eps stages use this instead of schedule[0]")
    args = ap.parse_args()
    for stage, overrides in STAGE_OVERRIDES.items():
        argv = [stage, "--config", args.config]
        if args.out is not None:
            argv += ["--out", args.out]
        if args.eps is not None and "eps" in overrides:
            argv += ["--eps", str(args.eps)]
        print(f"== {stage}", flush=True)
        rc = shellwave_main(argv)
        if rc != 0:
            print(f"{stage} exited with {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
