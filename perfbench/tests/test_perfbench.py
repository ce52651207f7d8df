"""Tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark's entry module)

WORKLOADS = sorted(run.WORKLOADS)
TINY = ("--seed", "3", "--seconds", "0", "--scale", "0.1")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, hashseed: str = "0") -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


@lru_cache(maxsize=None)
def result(workload: str, trace: str, hashseed: str = "0", attempt: int = 0) -> dict:
    completed = bench("--workload", workload, "--trace", trace, *TINY, hashseed=hashseed)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {metric["name"]: (metric["unit"], metric["better"]) for metric in SPEC[section]}
        assert declared == {name: (unit, better) for name, (unit, _, better) in table.items()}
    assert [workload["name"] for workload in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    emitted = result(workload, trace)
    assert emitted["correct"] is True
    assert emitted["attempted"] >= 1 and emitted["failed"] == 0
    units = {name: metric["unit"] for name, metric in emitted["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _deterministic(emitted: dict, table: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in emitted["metrics"].items()
        if table[name][1] != run.HOST
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_counts_and_virtual_times_repeat_across_runs_and_hash_seeds(workload, trace, table):
    first = _deterministic(result(workload, trace, "0"), table)
    assert first
    assert _deterministic(result(workload, trace, "0", attempt=1), table) == first
    assert _deterministic(result(workload, trace, "1"), table) == first


def test_forced_verification_failure_exits_nonzero(monkeypatch, capsys):
    from repro.database.history import SiteHistory

    record_commit = SiteHistory.record_commit

    def lose_one_commit(self, committed):
        if self.site_id == "N2" and len(self) == 5:
            return
        record_commit(self, committed)

    monkeypatch.setattr(SiteHistory, "record_commit", lose_one_commit)
    assert run.main(["--workload", "flat_mixed", *TINY]) != 0
    assert capsys.readouterr().out == ""


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "flat_mixed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
