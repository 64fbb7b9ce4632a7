"""Command-line pipeline: exit codes, artifacts, ledger, byte-stable replay."""

import argparse
import filecmp
import json
import os
import shutil
from pathlib import Path

import pytest

from shellwave import cli, normalization, reduction
from shellwave.cli import _STAGES, STAGE_OVERRIDES, build_parser, main

from conftest import edit_store_index

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


def test_report_missing_out_dir_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["report", "--out", str(missing)]) == 2
    assert "--out: no run directory" in capsys.readouterr().err
    assert not missing.exists()
    cfg = write_cfg(tmp_path)
    assert main(["report", "--config", cfg, "--out", str(missing)]) == 2
    assert not missing.exists()


def test_out_onto_existing_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["ground", "--config", cfg, "--out", str(path)]) == 2
    assert "config invalid: outdir: cannot create directory" in capsys.readouterr().err
    assert path.read_text() == ""


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


def test_p_below_the_ansatz_floor_exits_2(tmp_path, capsys):
    # the ansatz refuses p <= 1.05, so ground and mpot must not pass a
    # config that scan then rejects
    cfg = write_cfg(tmp_path, p=1.03)
    assert main(["ground", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config invalid: p: need p > 1.05" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mistyped_nested_number_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, grid={"h_solve": "4O"})
    rc = main(["ground", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "grid.h_solve: must be a number" in capsys.readouterr().err


def test_infinite_number_in_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, gamma=float("inf"))
    assert '"gamma": Infinity' in Path(cfg).read_text()
    rc = main(["ground", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config invalid: gamma: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_help_names_json_only(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ground", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--config CONFIG path to a JSON config file" in text


def test_key_value_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in BASE.items()))
    rc = main(["ground", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("config invalid: config must be JSON: line 1, column 1: Expecting value"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_grid_tail_is_not_a_config_field(tmp_path, capsys):
    # the decay room past the layer is the constant ansatz.TAIL
    cfg = write_cfg(tmp_path, grid={"tail": 40.0})
    assert main(["ground", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config invalid: grid: unknown field 'tail'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["ground", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(BASE).encode("utf-16-le"))
    rc = main(["ground", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_tabulated_family_exits_2_with_the_families(tmp_path, capsys):
    # none of these names a family: a cosine is the sine at phase pi/2
    for potential in ({"family": "tabulated", "r": [0.0, 1.0], "v": [0.0, 0.0]},
                      {"family": "cosine", "amplitude": 0.5},
                      {"family": "poly", "coeffs": [0.0, 1.0]}):
        cfg = write_cfg(tmp_path, potential=potential)
        rc = main(["mpot", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"unknown family '{potential['family']}' (choose from zero, sine)"
                in capsys.readouterr().err)


@pytest.mark.parametrize("bad, why", [
    ('{"subcommand": "ground", "pass', "line 2: Unterminated string"),
    ("[1, 2]", "line 2: not a run record"),
    ('{"subcommand": "ground", "passes": [1]}', "line 2: not a run record"),
])
def test_report_on_damaged_ledger_exits_2(tmp_path, capsys, bad, why):
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.jsonl").write_text('{"subcommand": "ground"}\n' + bad + "\n")
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runs.jsonl: " + why in err
    assert not (out / "report.txt").exists()


def test_solver_failure_exits_3(tmp_path, capsys):
    # no critical radius inside [6, 7] at eps = 0.5 (the slope term stays positive)
    cfg = write_cfg(tmp_path, t_bracket=[6.0, 7.0])
    rc = main(["mpot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "mpot failed" in capsys.readouterr().err


def test_flat_critical_radius_exits_3(tmp_path, capsys):
    # the shipped config's critical radius at eps = 0.3 has |M''| = 0.81
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "sine_n2.json").read_text())
    cfg["beta_floor"] = 0.9
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = main(["mpot", "--config", str(path), "--out", str(tmp_path / "o"), "--eps", "0.3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "mpot failed: DegenerateCriticalPoint: all critical radii in [" in err
    assert "have |M''| < 0.9" in err


def test_eps_override_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["mpot", "--config", cfg, "--out", str(tmp_path / "o"),
               "--eps", "-0.5"])
    assert rc == 2


@pytest.mark.parametrize("stage,eps", [("solve", "1e-300"), ("mpot", "nan")])
def test_eps_override_that_breaks_the_window_exits_2(tmp_path, capsys, stage, eps):
    # 1e-300 cubed underflows to 0 in the window's 1/eps^3; NaN compares
    # false with every bound and reached the solvers
    cfg = write_cfg(tmp_path)
    rc = main([stage, "--config", cfg, "--out", str(tmp_path / "o"), "--eps", eps])
    assert rc == 2
    assert "config invalid: --eps: eps must be positive" in capsys.readouterr().err


def test_solve_eps_outside_the_bracket_window_exits_2(tmp_path, capsys):
    # at eps = 0.15 the configuration window starts at 74.1, above
    # t_bracket/eps = [50, 63.3]: the rule a schedule entry meets in
    # validation holds for solve's --eps too
    cfg = Path(__file__).resolve().parents[1] / "configs" / "sine_n2.json"
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--eps", "0.15"])
    assert rc == 2
    assert ("config invalid: --eps: t_bracket: window empty at eps=0.15"
            in capsys.readouterr().err)
    # mpot does not clip the bracket to the window: it takes this eps and
    # finds no root of M' in t_bracket
    assert main(["mpot", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--eps", "0.15"]) == 3
    assert "mpot failed: NoCriticalPoint" in capsys.readouterr().err


def test_schedule_entry_whose_cube_underflows_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, schedule=[1e-120])
    assert main(["mpot", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config invalid: schedule: eps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("outdir", [5, None, ["out"]])
def test_non_string_outdir_exits_2(tmp_path, capsys, outdir):
    cfg = write_cfg(tmp_path, outdir=outdir)
    assert main(["ground", "--config", cfg]) == 2
    assert "config invalid: outdir: must be a string" in capsys.readouterr().err


def test_eps_past_the_ellipticity_floor_exits_2(tmp_path, capsys):
    # sup|V| = 1 on the shipped sine config, so 1 - eps^2 sup|V| vanishes at
    # eps = 1 although the schedule itself is valid
    cfg = Path(__file__).resolve().parents[1] / "configs" / "sine_n2.json"
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--eps", "1.0"])
    assert rc == 2
    assert "--eps: ellipticity floor" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solve.json").exists()


def test_replay_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (d1, d2):
        assert main(["ground", "--config", cfg, "--out", out]) == 0
        assert main(["mpot", "--config", cfg, "--out", out]) == 0
        assert main(["scan", "--config", cfg, "--out", out,
                     "--eps", "0.4", "--rho-samples", "9"]) == 0
        for stage in ("solve", "continue", "normalize"):
            assert main([stage, "--config", cfg, "--out", out]) == 0
    b1, b2 = artifact_bytes(d1), artifact_bytes(d2)
    store = {f"family_store/{name}_{i}.npy" for name in ("profile", "omega") for i in range(3)}
    assert {"solve.json", "family.json", "records.json", "family_store/members.json",
            *store} <= b1.keys()
    assert b1.keys() == b2.keys()
    for name in b1:
        assert b1[name] == b2[name], f"{name} differs between replays"


NORMALIZE_FILES = ("normalized.csv", "records.json", "trends.json", "scaling.json",
                   "mass_parameter.dat")


def normalize_run(cfg, out) -> tuple[dict, dict]:
    """normalize into out: its data files' bytes and its ledger pass flags."""
    assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "runs.jsonl").read_text().splitlines()[-1])
    assert rec["subcommand"] == "normalize"
    return {f: (out / f).read_bytes() for f in NORMALIZE_FILES}, rec["passes"]


def test_normalize_takes_the_family_continue_stored(tmp_path, member_solves):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "sine_n2.json"
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert main(["continue", "--config", str(shipped), "--out", str(both)]) == 0
    solved = len(member_solves)
    after_continue = normalize_run(shipped, both)
    assert len(member_solves) - solved == 0
    assert normalize_run(shipped, alone) == after_continue
    assert len(member_solves) - solved == 5


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A run directory holding BASE's stored family, and what normalize
    alone writes for BASE."""
    root = tmp_path_factory.mktemp("stored")
    cfg = write_cfg(root)
    assert main(["continue", "--config", cfg, "--out", str(root / "run")]) == 0
    return cfg, root / "run", normalize_run(cfg, root / "alone")


def test_normalize_solves_again_from_an_edited_bracket(
        tmp_path, stored_run, member_solves, capsys):
    cfg, run, alone = stored_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    edit_store_index(out, lambda d: d["members"][1]["bracket"].__setitem__(0, 16.0))
    assert normalize_run(cfg, out) == alone
    assert member_solves == [0.45, 0.4]
    assert "family store" not in capsys.readouterr().err


def test_normalize_ignores_another_configs_store(tmp_path, stored_run, member_solves, capsys):
    _, run, _ = stored_run
    cfg = write_cfg(tmp_path, schedule=[0.5, 0.45])
    out = tmp_path / "run"
    shutil.copytree(run, out)
    assert main(["normalize", "--config", cfg, "--out", str(out)]) == 0
    assert member_solves == [0.5, 0.45]
    err = capsys.readouterr().err.splitlines()
    assert err == ["shellwave: family store not used, solving again: "
                   "written for another config"]


def test_normalize_takes_a_store_whose_config_differs_in_fields_it_never_reads(
        tmp_path, stored_run, member_solves, capsys):
    # the store is keyed by the continuation's inputs: rho_samples and
    # beta_floor decide the scan and mpot, never a family member
    _, run, alone = stored_run
    cfg = write_cfg(tmp_path, rho_samples=17, beta_floor=0.1)
    out = tmp_path / "run"
    shutil.copytree(run, out)
    assert normalize_run(cfg, out) == alone
    assert member_solves == []
    assert "family store" not in capsys.readouterr().err


@pytest.mark.parametrize("stage, taken, take", [
    ("continue", "family_store", lambda path: path.write_text("mine")),
    ("ground", "runs.jsonl", lambda path: path.mkdir()),
])
def test_an_output_path_taken_exits_2_naming_it(tmp_path, capsys, stage, taken, take):
    # a plain file where the store goes, or a directory where the ledger
    # goes: the stage's writes fail, and that is a bad outdir, not a crash
    cfg = write_cfg(tmp_path, schedule=[0.5])
    out = tmp_path / "out"
    out.mkdir()
    take(out / taken)
    assert main([stage, "--config", cfg, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"shellwave: config invalid: outdir: cannot use "
                           f"{str(out / taken)!r}: ")
    assert (out / taken).is_dir() if taken == "runs.jsonl" else (
        (out / taken).read_text() == "mine")


def truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


@pytest.mark.parametrize("damage, why", [
    (lambda s: truncate(s / "profile_1.npy"), "ValueError"),
    (lambda s: truncate(s / "members.json"), "JSONDecodeError"),
    (lambda s: (s / "omega_2.npy").write_bytes(b"not an array"), "ValueError"),
    (lambda s: (s / "omega_0.npy").unlink(), "FileNotFoundError"),
    (lambda s: (s / "members.json").write_text("[]"), "is not an object"),
    (lambda s: (s / "members.json").write_bytes(b"\xff{}"), "UnicodeDecodeError"),
])
def test_a_damaged_store_is_named_once_and_solved_again(
        tmp_path, stored_run, member_solves, capsys, damage, why):
    cfg, run, alone = stored_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    damage(out / "family_store")
    assert normalize_run(cfg, out) == alone
    assert member_solves == [0.5, 0.45, 0.4]
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("shellwave: family store not used, solving again: ")
    assert why in line


@pytest.mark.parametrize("skew", [1.0, 1.01])
def test_unit_mass_fails_on_a_wrong_mass_to_a(tmp_path, monkeypatch, skew):
    # mass_check takes its amplitude from a, so a 1% error in mass_to_a's
    # exponent moves it by about 6% and the flag must read False
    def mass_to_a(m, eps, n, p):
        return float((m * eps ** (n - 4.0 / (p - 1.0))) ** (skew * (p - 1.0) / 2.0))

    monkeypatch.setattr(normalization, "mass_to_a", mass_to_a)
    cfg = write_cfg(tmp_path, schedule=[0.5])
    out = tmp_path / "o"
    assert main(["normalize", "--config", cfg, "--out", str(out)]) == 0
    (line,) = (out / "runs.jsonl").read_text().splitlines()
    assert json.loads(line)["passes"]["unit_mass"] is (skew == 1.0)


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


def test_scan_without_a_potential_reads_no_sign_change(tmp_path):
    # V = 0 leaves M_eps no critical radius, so alpha keeps its sign
    cfg = write_cfg(tmp_path, potential={"family": "zero"})
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    passes = json.loads((out / "runs.jsonl").read_text())["passes"]
    assert passes == {"all_samples_ok": False, "alpha_sign_change": False}


def test_scan_records_stall_causes(tmp_path):
    # on the shipped window at eps = 0.5 the two innermost samples stall
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out),
                 "--rho-samples", "33"]) == 0
    header, *rows = (out / "scan.csv").read_text().splitlines()
    assert header == "rho,psi,alpha,discrepancy,residual,cause,ok"
    rows = [row.split(",") for row in rows]
    stalled = [r for r in rows if r[6] == "false"]
    assert [(r[0], r[5]) for r in stalled] == [("2.0", "unconverged"), ("2.6875", "unconverged")]
    assert [float(r[4]) for r in stalled] == pytest.approx([0.4442, 0.2223], abs=1e-4)
    assert all(r[5] == "" and float(r[4]) <= 1e-10 for r in rows if r[6] == "true")


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


def test_solve_with_rho_star_near_the_bracket_end(tmp_path):
    # rho* lies 0.005% below the bracket's upper end, closer than the
    # 3e-4 rho* dPsi probe step, whose upper probe left the grid
    cfg = write_cfg(tmp_path, schedule=[0.16], t_bracket=[27.5, 27.9525])
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    info = json.loads((out / "solve.json").read_text())
    assert info["rho_star"] == pytest.approx(174.7022223, rel=1e-9)
    assert info["dpsi_ok"] is True


def run_stage(tmp_path, stage, name, **over):
    """Run one stage on a one-member schedule; return its JSON artifact and
    its ledger pass flags."""
    cfg = write_cfg(tmp_path, name=f"{name}.json", schedule=[0.5], **over)
    out = tmp_path / name
    assert main([stage, "--config", cfg, "--out", str(out)]) == 0
    artifact = {"solve": "solve.json", "continue": "family.json"}[stage]
    rec = json.loads((out / "runs.jsonl").read_text())
    return json.loads((out / artifact).read_text()), rec["passes"]


def test_solve_tol_coeff_changes_family_member(tmp_path):
    loose, _ = run_stage(tmp_path, "continue", "loose",
                         tolerances={"solve_tol_coeff": 1e-6})
    tight, _ = run_stage(tmp_path, "continue", "tight",
                         tolerances={"solve_tol_coeff": 1e-10})
    a, b = loose["members"][0], tight["members"][0]
    assert (a["residual_max"], a["newton_iters"]) != \
        (b["residual_max"], b["newton_iters"])
    # the loose tolerance is met before the roundoff floor matters
    assert (a["newton_stop"], b["newton_stop"]) == ("tolerance", "roundoff")


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
    # the default tolerance sits below the roundoff floor, so the solve ends
    # on a rejected full step of an acceptable iterate
    assert member["newton_stop"] == "roundoff"
    lines = (tmp_path / "work" / "family.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert {"residual_evals", "roundoff_floor", "newton_stop"} <= set(row)
    assert row["newton_stop"] == "roundoff"
    solve, _ = run_stage(tmp_path, "solve", "work_solve")
    assert (solve["residual_evals"], solve["roundoff_floor"],
            solve["newton_stop"]) == \
        (member["residual_evals"], member["roundoff_floor"], "roundoff")


def test_continue_and_solve_report_coarse_iters(tmp_path):
    # a member's own seed is near, so no member takes the coarse start
    family, _ = run_stage(tmp_path, "continue", "coarse")
    assert family["members"][0]["coarse_iters"] == 0
    lines = (tmp_path / "coarse" / "family.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[header.index("newton_iters") + 1] == "coarse_iters"
    assert dict(zip(header, lines[1].split(",")))["coarse_iters"] == "0"
    solve, _ = run_stage(tmp_path, "solve", "coarse_solve")
    assert solve["coarse_iters"] == 0


def test_family_csv_columns_are_the_member_record(tmp_path, monkeypatch):
    # family.csv's header is a member record's keys in the record's order,
    # less the two that family.json alone carries; family.json sorts them
    records = []
    real = cli._member_summary

    def recording(m):
        records.append(real(m))
        return records[-1]

    monkeypatch.setattr(cli, "_member_summary", recording)
    family, _ = run_stage(tmp_path, "continue", "columns")
    header = (tmp_path / "columns" / "family.csv").read_text().splitlines()[0].split(",")
    json_only = ["truncation_active", "force_cap"]
    assert list(records[0]) == header + json_only
    assert list(family["members"][0]) == sorted(header + json_only)


def test_continue_and_solve_report_rho_search(tmp_path):
    family, _ = run_stage(tmp_path, "continue", "rho")
    member = family["members"][0]
    assert 3 <= member["rho_evaluations"] <= 12
    assert member["dpsi_ok"] is True
    lines = (tmp_path / "rho" / "family.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["rho_evaluations"] == str(member["rho_evaluations"])
    assert row["dpsi_ok"] == "true"
    solve, _ = run_stage(tmp_path, "solve", "rho_solve")
    assert (solve["rho_evaluations"], solve["dpsi_ok"]) == \
        (member["rho_evaluations"], True)


@pytest.mark.parametrize("window", [True, False])
def test_continue_and_solve_report_rho_widened(tmp_path, monkeypatch, window):
    if not window:
        # no critical radius of M in the bracket, so no window: the pre-scan
        monkeypatch.setattr(reduction, "_critical_roots", lambda *args: [])
    family, _ = run_stage(tmp_path, "continue", "wide")
    member = family["members"][0]
    assert member["rho_widened"] is not window
    lines = (tmp_path / "wide" / "family.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["rho_widened"] == str(not window).lower()
    solve, _ = run_stage(tmp_path, "solve", "wide_solve")
    assert solve["rho_widened"] is not window


def test_branch_switch_reads_continue_not_completed(tmp_path):
    # the shipped config started on the partner root (M'' > 0) at eps = 0.3
    # switches branch at eps = 0.29: the stage keeps the first member and
    # its ledger's completed flag reads False
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "sine_n2.json").read_text())
    cfg.update(t_bracket=[9.9, 10.6], schedule=[0.3, 0.29, 0.28])
    path = tmp_path / "switch.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["continue", "--config", str(path), "--out", str(out)]) == 0
    (line,) = (out / "runs.jsonl").read_text().splitlines()
    assert json.loads(line)["passes"]["completed"] is False
    family = json.loads((out / "family.json").read_text())
    assert (family["completed"], family["failed_eps"]) == (False, 0.29)
    assert family["failure"].startswith("BranchSwitch: t=9.04613")
    assert [m["eps"] for m in family["members"]] == [0.3]


def test_continue_and_solve_report_branch_sign(tmp_path):
    family, _ = run_stage(tmp_path, "continue", "branch")
    assert family["members"][0]["branch_sign"] == -1
    lines = (tmp_path / "branch" / "family.csv").read_text().splitlines()
    assert lines[0].endswith(",dpsi_ok,branch_sign")
    assert lines[1].endswith(",true,-1")
    solve, _ = run_stage(tmp_path, "solve", "branch_solve")
    assert solve["branch_sign"] == -1


# the flags a stage takes besides --config and --out
READ_FLAGS = {"mpot": ["--eps"], "scan": ["--eps", "--rho-samples"], "solve": ["--eps"]}
UNREAD_FLAGS = [(stage, flag) for stage in _STAGES for flag in ("--eps", "--rho-samples")
                if flag not in READ_FLAGS.get(stage, [])]


def test_each_stage_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {stage: [opt for a in sp._actions for opt in a.option_strings
                     if opt not in ("-h", "--help", "--config", "--out")]
             for stage, sp in sub.choices.items()}
    assert flags == {stage: READ_FLAGS.get(stage, []) for stage in _STAGES}
    assert sum(2 + len(v) for v in flags.values()) == 20  # settable flags
    assert len(UNREAD_FLAGS) == 12
    assert {stage: [f"--{o.replace('_', '-')}" for o in STAGE_OVERRIDES[stage]]
            for stage in _STAGES} == flags


@pytest.mark.parametrize("stage,flag", UNREAD_FLAGS)
def test_flag_the_stage_does_not_read_exits_2(tmp_path, capsys, stage, flag):
    # argparse refuses it before the stage runs: no artifact, no ledger line
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    value = {"--eps": "0.4", "--rho-samples": "9"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([stage, "--config", cfg, "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_parser_subcommands_are_the_stages():
    parser = build_parser()
    assert build_parser() is parser  # built once per process
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_STAGES)


def test_grid_over_the_node_budget_exits_2(tmp_path):
    # eps = 0.01 asks for a 150M-node scan grid; the address-space limit
    # keeps a missing guard from taking the machine's memory
    import resource
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    proc = subprocess.run(
        [sys.executable, "-m", "shellwave.cli", "scan", "--config",
         str(root / "configs" / "sine_n2.json"), "--eps", "0.01",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 2, proc.stderr
    assert "config invalid: grid on" in proc.stderr
    assert "150,002,311 nodes, over the budget of 8,388,608" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rho_samples_over_the_node_budget_exits_2(tmp_path):
    # one more sample than grids.MAX_NODES, from --rho-samples or from the
    # config, is refused before the scan allocates its sample arrays, and
    # the config's count is refused when it loads, for any stage; the
    # address-space limit keeps a missing guard from taking the machine's
    # memory with a trillion samples.  Too few samples from --rho-samples
    # meet the same check; each message names the field
    import resource
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "sine_n2.json").read_text())
    cfg["rho_samples"] = 10**12
    big = tmp_path / "big.json"
    big.write_text(json.dumps(cfg))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    shipped = str(root / "configs" / "sine_n2.json")
    for stage, extra, field, count in (
            ("scan", [shipped, "--rho-samples", "8388609"], "--rho-samples", "8,388,609"),
            ("scan", [str(big)], "rho_samples", "1,000,000,000,000"),
            ("mpot", [str(big)], "rho_samples", "1,000,000,000,000"),
            ("scan", [shipped, "--rho-samples", "7"], "--rho-samples", "7")):
        proc = subprocess.run(
            [sys.executable, "-m", "shellwave.cli", stage, "--config", *extra,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert proc.returncode == 2, proc.stderr
        assert (f"config invalid: {field}: need between 8 and 8,388,608 rho samples, "
                f"got {count}" in proc.stderr)
        assert "Traceback" not in proc.stderr
