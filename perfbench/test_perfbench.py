"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each test runs ``run.py`` as a subprocess from the repository root, as the
benchmark is meant to be run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import EXACT_COUNTS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["logistic_klms", "codec_sweep"])
def test_traced_counts_repeat_exactly(workload):
    """Two traced runs of one seed report the same counts, so later changes
    can cite them as counts rather than timings."""
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(ROOT, *args)), _result(_run(ROOT, *args))
    for result in (first, second):
        assert result["correct"], result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["codec.encode_candidates"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "baselines", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
