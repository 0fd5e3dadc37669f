"""Tests of the benchmark itself: the smoke run, the schema of its
records, and BENCHMARK.json against the metrics run.py reports.

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


def check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    units = {name: unit for name, unit, *_ in specs}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)


def test_smoke_runs_every_workload_and_writes_valid_records(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": True, "correct": True, "runs": 6}

    runs = json.loads(out.read_text())["runs"]
    layers = {}
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w, t) for w in run.WORKLOAD_NAMES for t in (0, 1)
    }
    for record in runs:
        check_result(record["result"], run.PER_LAYER if record["trace"] else run.END_TO_END)
        assert record["failed_frac"] == 0 and record["errors"] == []
        env = record["environment"]
        for key in ("git_sha", "python", "numpy", "nproc", "model_config", "train_config", "counts"):
            assert key in env
        assert env["blas"]["threads_pinned"] == run.BLAS_THREADS
        assert env["model_config"]["n_blocks"] >= 1
        samples = record["samples"]
        assert samples["setup"] >= 1
        if record["trace"]:
            assert samples["traced"] >= 1 and "training.step" in samples
            metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
            assert abs(metrics["trace.accounted_frac"] - 1) <= run.ACCOUNTING_TOLERANCE
            layers[record["workload"]] = metrics
        else:
            assert samples["op"]["n"] >= 1 and "tail_percentile" in samples["op"]

    # each workload exercises its own layers and bypasses the others
    assert layers["train-snli"]["training.steps"] == 2
    assert layers["train-snli"]["tensor.tape_records"] > 0
    assert layers["infer-long"]["tensor.backward_s"] == 0
    assert layers["infer-long"]["model.pairs_per_call"] == 4
    assert layers["conflicts-cli"]["conflicts.forward_calls_per_report"] == 28
    assert layers["conflicts-cli"]["model.pairs_per_call"] == 1
    assert layers["conflicts-cli"]["persistence.load_s"] > 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.latency([])["n"] == 0
    assert run.latency([1.0] * 5)["tail_percentile"] == 50
    assert run.latency([1.0] * 30)["tail_percentile"] == 66
    assert run.latency([1.0] * 100)["tail_percentile"] == 90
    assert run.latency(list(range(101)))["tail"] == 90.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
