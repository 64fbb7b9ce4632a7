"""Summary arithmetic of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
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
