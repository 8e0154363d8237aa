"""Smoke test of the benchmark itself: every workload once at reduced size,
untraced and traced, must report every metric BENCHMARK.json declares.
This covers the by-hand workloads too, not only those BENCHMARK.json lists.

    python3 -m pytest perfbench/test_smoke.py

It is not part of the repository's test suite (``testpaths`` is ``tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_reported(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert m["better"] in ("lower", "higher")
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, "--workload", "dense-impulse", "--seed", "1",
              "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
