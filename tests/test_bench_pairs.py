"""Summary arithmetic of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 3.0]  # pair 1 is a tie
    s = bench_pairs.summarize(parent, change, "lower")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (2.0, 3.0, 4.0)
    # inclusive quartiles of the sorted change runs 0.5, 2, 2.5, 3, 4.5
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (2.0, 2.5, 3.0)
    assert s["change_wins"] == "3/5"
    assert s["median_change"] == "-16.7%"
    up = bench_pairs.summarize(parent, change, "higher")
    assert up["change_wins"] == "1/5"
    assert up["median_change"] == "-16.7%"


def test_summary_rounds_to_four_decimals_and_signs_the_change():
    s = bench_pairs.summarize([0.81231, 0.81233], [0.81236, 0.81238], "lower")
    assert s["parent_median"] == 0.8123 and s["change_median"] == 0.8124
    assert s["change_wins"] == "0/2"
    assert s["median_change"] == "+0.0%"


def test_summary_needs_complete_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "lower")


PIPELINE_OUTPUT = """\
workload pipeline-sine-n2  seed 0  trace 0  jobs 1  job_s 0.7712 s (min 0.7712, max 0.7712)
failed_frac 0.0435 (2/46 operations)
check_failures 0 of 12 checks
stage.scan_s 0.1301 s
stage.solve_s 0.0802 s
stage.continue_s 0.2903 s
stage.normalize_s 0.2504 s
job_s 0.7712 s
setup_s 0.6612 s
peak_rss_mb 85.25 MB
{"correct": true, "attempted": 46, "failed": 2, "metrics": {"job_s": {"value": 0.7712, "unit": "s"}}}
"""


def test_parse_output_reads_the_result_and_stage_times():
    res, stages = bench_pairs.parse_output(PIPELINE_OUTPUT)
    assert res["attempted"] == 46 and res["failed"] == 2
    assert res["metrics"]["job_s"]["value"] == 0.7712
    assert stages == {"stage.scan_s": 0.1301, "stage.solve_s": 0.0802,
                      "stage.continue_s": 0.2903, "stage.normalize_s": 0.2504}


def test_parse_output_without_stage_lines():
    text = "\n".join(line for line in PIPELINE_OUTPUT.splitlines()
                     if not line.startswith("stage."))
    res, stages = bench_pairs.parse_output(text)
    assert res["correct"] is True
    assert stages == {}


def test_clear_needs_nine_of_ten_wins_and_a_gap_above_the_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    faster = [x - 0.6 for x in parent]
    s = bench_pairs.summarize(parent, faster, "lower")
    # parent quartiles 1.225 and 1.675: a 0.6 gap beats the 0.45 spread
    assert s["change_wins"] == "10/10" and s["clear"] is True
    assert bench_pairs.summarize(parent, faster, "higher")["clear"] is False
    # ten wins by less than the spread
    close = [x - 0.1 for x in parent]
    assert bench_pairs.summarize(parent, close, "lower")["clear"] is False
    # the gap, but two pairs lost
    lost = faster[:8] + [parent[8] + 0.1, parent[9] + 0.1]
    s = bench_pairs.summarize(parent, lost, "lower")
    assert s["change_wins"] == "8/10" and s["clear"] is False
    nine = faster[:9] + [parent[9] + 0.1]
    assert bench_pairs.summarize(parent, nine, "lower")["clear"] is True


@pytest.mark.parametrize("drop, clear", [(0.017, False), (0.019, True)])
def test_a_peak_rss_move_within_heap_layout_noise_is_not_clear(tmp_path, monkeypatch,
                                                                 drop, clear):
    # ten wins and no parent spread, but heap layout alone moves peak_rss_mb
    # by up to 1.8%, so only a larger move is clear
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "peak_rss_mb", "better": "lower"}]}')

    def run_once(checkout, workload, seed):
        rss = 50.0 if checkout == "parent" else 50.0 * (1.0 - drop)
        return ({"correct": True, "attempted": 10, "failed": 0,
                 "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}}, {})

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    argv = ["--parent", "parent", "--change", str(tmp_path), "--workload", "w",
            "--seed", "0", "--pairs", "10", "--tag", "t", "--claim", "none"]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    s = doc["workloads"]["w seed 0"]["summary"]["peak_rss_mb"]
    assert s["change_wins"] == "10/10" and s["clear"] is clear
    # the same numbers as another metric's are clear either way
    parent, change = [50.0] * 10, [50.0 * (1.0 - drop)] * 10
    assert bench_pairs.summarize(parent, change, "lower")["clear"] is True


def row(pair, correct=True, failed=0, attempted=46):
    return {"pair": pair, "correct": correct, "failed": failed, "attempted": attempted}


def test_run_health_counts_and_flags_worse_pairs():
    parent = [row(0, failed=2), row(1, failed=2), row(2, correct=False, failed=2)]
    change = [row(0, failed=2), row(1, failed=3), row(2, correct=False, failed=1)]
    h = bench_pairs.run_health(parent, change)
    assert h["parent"] == {"incorrect_runs": 1, "failed_ops": "6/138",
                           "failed_share": 0.0435}
    assert h["change"]["incorrect_runs"] == 1 and h["change"]["failed_ops"] == "6/138"
    # pair 1 fails one more operation, pair 2's change run is incorrect
    assert h["worse_pairs"] == [1, 2]
    assert bench_pairs.run_health(change, parent)["worse_pairs"] == [2]


def fake_run(results):
    """A run_once stand-in: the i-th run of a checkout returns its
    results[checkout][i] = (correct, failed), with job_s 0.5 for the parent
    and 0.4 for the change."""
    done = {side: 0 for side in results}

    def run_once(checkout, workload, seed):
        correct, failed = results[checkout][done[checkout]]
        done[checkout] += 1
        job_s = 0.5 if checkout == "parent" else 0.4
        return ({"correct": correct, "attempted": 46, "failed": failed,
                 "metrics": {"job_s": {"value": job_s, "unit": "s"}}}, {})

    return run_once


@pytest.mark.parametrize("change_runs, worse, code", [
    ([(True, 2), (True, 2)], [], 0),
    ([(True, 2), (False, 2)], [1], 1),
    ([(True, 3), (True, 1)], [0], 1),
])
def test_main_exits_1_when_a_change_run_is_worse(tmp_path, monkeypatch,
                                                 change_runs, worse, code):
    change = str(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "job_s", "better": "lower"}]}')
    results = {"parent": [(True, 2), (True, 2)], change: change_runs}
    monkeypatch.setattr(bench_pairs, "run_once", fake_run(results))
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    argv = ["--parent", "parent", "--change", change, "--workload", "w",
            "--seed", "0", "--pairs", "2", "--tag", "t", "--claim", "none"]
    assert bench_pairs.main(argv) == code
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    w = doc["workloads"]["w seed 0"]
    assert w["health"]["worse_pairs"] == worse
    assert w["summary"]["job_s"]["change_wins"] == "2/2"


@pytest.mark.parametrize("parent, warned", [("b", False), ("parent", True)])
def test_main_records_the_checkouts_and_warns_on_unequal_paths(
        tmp_path, monkeypatch, capsys, parent, warned):
    # peak_rss_mb has read up to 2% apart for the same code run from two
    # checkouts, so the file says where each side ran
    change = tmp_path / "a"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "job_s", "better": "lower"}]}')
    monkeypatch.chdir(tmp_path)
    results = {parent: [(True, 2), (True, 2)], str(change): [(True, 2), (True, 2)]}
    monkeypatch.setattr(bench_pairs, "run_once", fake_run(results))
    monkeypatch.setattr(bench_pairs, "ROOT", str(change))
    argv = ["--parent", parent, "--change", str(change), "--workload", "w",
            "--seed", "0", "--pairs", "2", "--tag", "t", "--claim", "none"]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert doc["checkouts"] == {"parent": str(tmp_path / parent), "change": str(change)}
    err = capsys.readouterr().err.splitlines()
    assert [line.startswith("warning: the checkout paths differ") for line in err] == (
        [True] if warned else [])
