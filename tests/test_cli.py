"""Command-line pipeline: exit codes, artifacts, ledger, byte-stable replay."""

import filecmp
import json
import os

import pytest

from shellwave.cli import main

BASE = {
    "n": 2,
    "p": 3,
    "potential": {"family": "sine"},
    "schedule": [0.5, 0.45, 0.4],
    "C1": 0.5,
    "C2": 1.5,
    "t_bracket": [7.5, 9.5],
}


def write_cfg(tmp_path, name="run.json", **over):
    d = dict(BASE)
    d.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def artifact_bytes(root):
    """name -> bytes for every artifact except the ledger (it logs wall time)."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if f == "runs.jsonl":
                continue
            rel = os.path.relpath(os.path.join(dirpath, f), root)
            with open(os.path.join(dirpath, f), "rb") as fh:
                out[rel] = fh.read()
    return out


def test_ground_stage(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["ground", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "ground_constants.csv").read_text()
    assert "mass_full,4.0\n" in text  # int Q^2 = 4 at p=3, lam=1
    ledger = (out / "runs.jsonl").read_text().splitlines()
    assert len(ledger) == 1
    rec = json.loads(ledger[0])
    assert rec["subcommand"] == "ground"
    assert rec["passes"]["pohozaev_agree"] is True
    assert (out / "ground_profile.svg").exists()


def test_report_empty_dir(tmp_path, capsys):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["report", "--out", str(out)]) == 0
    assert "no runs" in capsys.readouterr().out


def test_report_counts_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["ground", "--config", cfg, "--out", out]) == 0
    assert main(["mpot", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "ground" in text and "mpot" in text
    assert os.path.exists(os.path.join(out, "report.txt"))
    # report itself never appends to the ledger
    with open(os.path.join(out, "runs.jsonl")) as fh:
        assert len(fh.read().splitlines()) == 2


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, schedule=[0.4, 0.5])
    rc = main(["ground", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config invalid" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["ground", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_solver_failure_exits_3(tmp_path, capsys):
    # no critical radius inside [6, 7] at eps = 0.5 (the slope term stays positive)
    cfg = write_cfg(tmp_path, t_bracket=[6.0, 7.0])
    rc = main(["mpot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "mpot failed" in capsys.readouterr().err


def test_eps_override_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["mpot", "--config", cfg, "--out", str(tmp_path / "o"),
               "--eps", "-0.5"])
    assert rc == 2


def test_replay_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (d1, d2):
        assert main(["ground", "--config", cfg, "--out", out]) == 0
        assert main(["mpot", "--config", cfg, "--out", out]) == 0
        assert main(["scan", "--config", cfg, "--out", out,
                     "--eps", "0.4", "--rho-samples", "9"]) == 0
    b1, b2 = artifact_bytes(d1), artifact_bytes(d2)
    assert b1.keys() == b2.keys()
    for name in b1:
        assert b1[name] == b2[name], f"{name} differs between replays"


def test_out_override_matches_config_outdir(tmp_path):
    inside = tmp_path / "cfg_out"
    cfg = write_cfg(tmp_path, outdir=str(inside))
    assert main(["ground", "--config", cfg]) == 0
    override = tmp_path / "forced"
    assert main(["ground", "--config", cfg, "--out", str(override)]) == 0
    assert artifact_bytes(inside) == artifact_bytes(override)


def test_scan_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out),
                 "--eps", "0.4", "--rho-samples", "9"]) == 0
    rows = (out / "scan.csv").read_text().splitlines()
    assert len(rows) == 10  # header + 9 samples
    rec = json.loads((out / "runs.jsonl").read_text())
    assert rec["passes"]["alpha_sign_change"] is True
    dat = (out / "scan_alpha.dat").read_text().splitlines()
    assert len(dat) == 10
    assert len(dat[1].split()) == 2


def test_mpot_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["mpot", "--config", cfg, "--out", str(out),
                 "--eps", "0.4"]) == 0
    info = json.loads((out / "mpot.json").read_text())
    assert info["t_eps"] == pytest.approx(8.446843652244679, abs=1e-6)
    assert info["curvature"] < 0.0
    rec = json.loads((out / "runs.jsonl").read_text())
    assert rec["passes"]["nondegenerate"] is True
    files = {f for f in os.listdir(out)}
    assert {"mpot.csv", "mpot.dat", "mpot.svg", "mpot.json"} <= files


def run_stage(tmp_path, stage, name, **over):
    """Run one stage on a one-member schedule; return its JSON artifact and
    its ledger pass flags."""
    cfg = write_cfg(tmp_path, name=f"{name}.json", schedule=[0.5], **over)
    out = tmp_path / name
    assert main([stage, "--config", cfg, "--out", str(out)]) == 0
    artifact = {"solve": "solve.json", "continue": "family.json"}[stage]
    rec = json.loads((out / "runs.jsonl").read_text())
    return json.loads((out / artifact).read_text()), rec["passes"]


def test_grid_tail_changes_solve_grid(tmp_path):
    # h_solve = 0.004 halves the nodes of both solves and keeps the test short
    short, _ = run_stage(tmp_path, "solve", "t30",
                         grid={"tail": 30.0, "h_solve": 0.004})
    full, _ = run_stage(tmp_path, "solve", "t40",
                        grid={"tail": 40.0, "h_solve": 0.004})
    assert short["grid_size"] < full["grid_size"]


def test_solve_tol_coeff_changes_family_member(tmp_path):
    loose, _ = run_stage(tmp_path, "continue", "loose",
                         tolerances={"solve_tol_coeff": 1e-6})
    tight, _ = run_stage(tmp_path, "continue", "tight",
                         tolerances={"solve_tol_coeff": 1e-10})
    a, b = loose["members"][0], tight["members"][0]
    assert (a["residual_max"], a["newton_iters"]) != \
        (b["residual_max"], b["newton_iters"])


def test_gamma_decides_remainder_in_set(tmp_path):
    # ||omega|| / (eps^3 ||z||) reads 0.283 at eps = 0.5
    small, flags_small = run_stage(tmp_path, "continue", "g01", gamma=0.1)
    large, flags_large = run_stage(tmp_path, "continue", "g06", gamma=0.6)
    ratio = large["members"][0]["remainder_ratio"]
    assert small["members"][0]["remainder_ratio"] == ratio
    assert 0.1 < ratio < 0.6
    assert flags_small["remainder_in_set"] is False
    assert flags_large["remainder_in_set"] is True


def test_continue_and_solve_report_newton_work(tmp_path):
    family, _ = run_stage(tmp_path, "continue", "work")
    member = family["members"][0]
    assert member["residual_evals"] > member["newton_iters"] >= 1
    assert 0.0 < member["roundoff_floor"] < 1e-8
    header = (tmp_path / "work" / "family.csv").read_text().splitlines()[0]
    assert {"residual_evals", "roundoff_floor"} <= set(header.split(","))
    solve, _ = run_stage(tmp_path, "solve", "work_solve")
    assert (solve["residual_evals"], solve["roundoff_floor"]) == \
        (member["residual_evals"], member["roundoff_floor"])
