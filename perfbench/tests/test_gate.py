"""The end-to-end gate catches an injected slowdown and passes unmodified runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _bound(metric):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _result(*args):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "warm-read", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _p50(*extra):
    result = _result("--seed", "3", "--seconds", "2", "--trace", "0", *extra)
    return result["metrics"]["query_p50_ms"]["value"]


def test_result_line_carries_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        metrics = _result("--seed", "1", "--seconds", "1", "--trace", trace)["metrics"]
        assert {m["name"]: m["unit"] for m in spec[kind]} == {
            name: value["unit"] for name, value in metrics.items()
        }


def test_snapshot_sleep_fails_the_gate_and_reruns_pass_it():
    bound = _bound("query_p50_ms")
    first, second = _p50(), _p50()
    assert abs(second / first - 1.0) <= bound
    slowed = _p50("--inject-snapshot-sleep-ms", "25")
    assert slowed > first * (1.0 + bound)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
