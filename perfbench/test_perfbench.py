"""The benchmark's own test, at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import run  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def _check_result(record, result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert record["fail_ratio"] == 0
    for key in ("nproc", "python", "git_rev", "seed", "class_sizes",
                "loadavg_start", "loadavg_end"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = _run(workload, 0)
    _check_result(record, result)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())
    stages = record["stage_metrics"]
    assert {k: v["unit"] for k, v in stages.items()} == run.STAGE_METRICS[workload]
    assert all(v["value"] > 0 for v in stages.values())
    assert record["job_wall_s"] > 0 and record["setup_wall_s"] > 0
    assert all(len(s) == 2 and min(s) > 0 for pairs in record["samples"].values() for s in pairs)


def test_reference_seconds(tmp_path):
    # speeds 1, 1, 5 (one noisy sample), 1, 2, 2, 2: the median of the five
    # nearest samples drops the outlier and follows the switch to speed 2
    sampler = hostspeed.Sampler(str(tmp_path / "speed.txt"))
    speeds = [1, 1, 5, 1, 2, 2, 2]
    sampler.segments = [(i + 0.1, i + 1.0, v) for i, v in enumerate(speeds)]
    wall, norm = sampler.times(0.0, 7.0)
    assert wall == pytest.approx(7 * 0.9)
    assert norm == pytest.approx(0.9 * (1 + 1 + 1 + 2 + 2 + 2 + 2))
    # a span is cut at its ends; the gaps (the handler's own time) count nowhere
    assert sampler.times(0.5, 1.05) == pytest.approx((0.5, 0.5))
    # a span that forked workers ran in takes their mean speed over it
    sampler.forked = [(0.0, 2.0, 2.0), (0.0, 1.0, 1.0), (1.0, 2.0, 1.0)]
    assert sampler.times(0.5, 1.5) == pytest.approx((1.0, 1.5))

    # live: the process itself, then a forked pool
    sampler.start()
    try:
        t0 = hostspeed.clock()
        _busy(0.3)
        t1 = hostspeed.clock()
        with multiprocessing.get_context("fork").Pool(2) as pool:
            pool.map(_busy, [0.3, 0.3])
        t2 = hostspeed.clock()
    finally:
        sampler.stop()
    assert len(sampler.segments) >= 3 and len(sampler.forked) >= 6
    wall, norm = sampler.times(t0, t1)
    assert 0.2 < wall <= 0.3 and norm > 0
    wall, norm = sampler.times(t1, t2)
    assert wall == pytest.approx(t2 - t1) and norm > 0


def _busy(seconds):
    t0 = hostspeed.clock()
    while hostspeed.clock() - t0 < seconds:
        pass


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    record, result = _run(workload, 1)
    _check_result(record, result)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    assert values["identities.mismatches"] == 0 and values["identities.skipped"] == 0

    # self times partition the traced wall time; what no layer claims is the
    # benchmark's own glue, which must stay within the tracing overhead (at
    # toy sizes the overhead estimate is noise, hence the 5% floor)
    layers = [name for name in run.SELF_TIME_METRICS.values() if name != "trace.unattributed_s"]
    wall = values["trace.wall_s"]
    assert sum(values[name] for name in layers) + values["trace.unattributed_s"] == pytest.approx(wall)
    assert 0 <= values["trace.unattributed_s"] <= max(values["trace.overhead_s"], 0.05 * wall)

    # the layer each workload is predicted not to use stays untouched
    if workload == "enum":
        assert values["permstats.objects"] > 0 and values["multipoly.mul.calls"] == 0
    if workload == "algebra":
        assert values["multipoly.mul.calls"] > 0
        assert values["permstats.gen_poly.calls"] == 0 and values["permstats.objects"] == 0
    if workload == "registry":
        assert values["identities.comparisons"] > 0

    # exact counts repeat exactly for the same seed
    _, again = _run(workload, 1)
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert [values[c] for c in counts] == [again["metrics"][c]["value"] for c in counts]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
