"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

Each case runs ``perfbench/run.py`` in a fresh process, as the benchmark
is run, so a case takes about a minute (a cold Spark driver).

    python -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def test_workload_names_match_spec():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_smoke_run_reports_every_end_to_end_metric():
    code, result = run("--workload", "spotify_filter", "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_smoke_run_attributes_every_job():
    code, result = run("--workload", "spotify_groupby", "--seed", "3",
                       "--seconds", "1", "--trace", "1", "--smoke")
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    layer_jobs = sum(metrics[f"{layer}.jobs"]
                     for layer in ("interestingness", "partition", "contribution"))
    assert layer_jobs == metrics["trace.spark_jobs"] > 0
    assert (HERE / "out" / "spans-spotify_groupby-seed3.json").is_file()


def test_perturbed_contribution_counts_as_failure():
    code, result = run("--workload", "spotify_filter", "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--smoke", "--perturb", "1e-6")
    assert code != 0
    assert result is not None and not result["correct"]
    assert result["failed"] >= 1


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = run("--workload", "spotify_filter", "--seed", "1",
                       "--seconds", "10", "--trace", "0", cwd=tmp_path, timeout=180)
    assert code != 0 and result is None
