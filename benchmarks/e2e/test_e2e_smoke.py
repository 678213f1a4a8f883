"""Smoke test of the end-to-end benchmark: every workload at a tiny scale.

Runs ``run.py --smoke --seconds 0 --trace 1`` for each of the four
workloads (one untraced and one traced pass each, the workloads side by
side) and checks that every metric ``BENCHMARK.json`` declares is
emitted with its unit and that no operation failed; then checks that a
corrupted expected digest fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _benchmark() -> dict:
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _start(workload: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0", "--workload", workload, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    benchmark = _benchmark()
    runs = {
        workload["name"]: _start(
            workload["name"], "--trace", "1", "--out", str(tmp_path / f"{workload['name']}.json")
        )
        for workload in benchmark["workloads"]
    }
    try:
        outputs = {workload: run.communicate(timeout=120) for workload, run in runs.items()}
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.wait()
    sys.path.insert(0, str(HERE))
    try:
        from metrics import END_TO_END
    finally:
        sys.path.remove(str(HERE))
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == END_TO_END
    for workload, (stdout, stderr) in outputs.items():
        assert runs[workload].returncode == 0, stderr[-3000:]
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["correct"] is True
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert set(summary["metrics"]) == {m["name"] for m in benchmark["per_layer"]}
        for metric in benchmark["per_layer"]:
            emitted = summary["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (workload, metric)
            assert isinstance(emitted["value"], (int, float))
        (result,) = json.loads((tmp_path / f"{workload}.json").read_text())["results"]
        assert result["fail_ratio"] == 0
        assert set(result["end_to_end"]) == set(END_TO_END)
        assert all(value > 0 for value in result["end_to_end"].values()), result


def test_a_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected" / "digests.json").read_text())
    key = "counter/size=4/cw=-"
    expected[key] = "0" * 16
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(expected))
    run = _start("cached_lookup", "--expected", str(corrupted))
    stdout, stderr = run.communicate(timeout=120)
    assert run.returncode == 1
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is False
    assert key in stderr
