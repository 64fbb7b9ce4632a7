"""scripts/run_sine_sweep.py on the shipped supercritical config."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATH = ROOT / "scripts" / "run_sine_sweep.py"
spec = importlib.util.spec_from_file_location("run_sine_sweep", PATH)
run_sine_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_sine_sweep)


def test_every_stage_runs_in_order(tmp_path, monkeypatch):
    config = ROOT / "configs" / "sine_n3_supercritical.json"
    monkeypatch.setattr(sys, "argv", ["run_sine_sweep.py", "--config", str(config),
                                      "--out", str(tmp_path)])
    assert run_sine_sweep.main() == 0
    ledger = (tmp_path / "runs.jsonl").read_text().splitlines()
    # report reads the ledger and appends no record of its own
    assert [json.loads(ln)["subcommand"] for ln in ledger] == [
        "ground", "spectrum", "mpot", "scan", "solve", "continue", "normalize"]
    assert (tmp_path / "report.txt").read_text().startswith("shellwave run report\n")
