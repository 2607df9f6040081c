"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from siftmasks import engine  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.3


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_and_tracing_changes_no_bits(name):
    plain_detail, plain = run.execute(name, 5, SECONDS, False, size=workloads.TOY)
    traced_detail, traced = run.execute(name, 5, SECONDS, True, size=workloads.TOY)
    for detail, result in ((plain_detail, plain), (traced_detail, traced)):
        assert result["correct"] and result["failed"] == 0, detail["failures"]
    _check_result(plain, DECLARED["end_to_end"])
    _check_result(traced, DECLARED["per_layer"])
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # the traced run's untraced replay of its first pass is checked in-run
    # (trace_gate); across runs, both modes must also write the same bytes
    assert traced_detail["checkpoints_sha256"] == plain_detail["checkpoints_sha256"]
    assert traced_detail["ops_sha256"] == plain_detail["ops_sha256"]
    assert traced_detail["trace_self_sum_s"] == pytest.approx(traced_detail["trace_wall_s"])
    for key in ("python", "numpy", "blas", "threads", "nproc", "cpu", "seed"):
        assert key in plain_detail["env"]


def test_request_stream_depends_only_on_the_seed():
    def ops(seed):
        return run.execute("serve-delete", seed, 0.05, False, size=workloads.TOY)[0]["ops_sha256"]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_injected_digest_fault_is_counted_not_fatal(monkeypatch):
    original = engine.unlearn
    corrupted = []

    def unlearn_with_bad_digest(system, task_id, **kwargs):
        if not corrupted:
            system.replay_digests[task_id] = bytes(32)
            corrupted.append(task_id)
        return original(system, task_id, **kwargs)

    monkeypatch.setattr(engine, "unlearn", unlearn_with_bad_digest)
    detail, result = run.execute("serve-delete", 5, SECONDS, False, size=workloads.TOY)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["failed_frac"] == result["failed"] / result["attempted"] < 1
    assert any("ReplayMismatchError" in f for f in detail["failures"])
    _check_result(result, DECLARED["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lifecycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
