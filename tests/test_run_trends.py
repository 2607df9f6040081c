"""The accuracy-trend script runs end to end at a tiny size and writes both
flat CSVs."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_trends.py"
HEADER = "method,event_index,task_id,metric,value"


def test_run_trends_writes_flat_csvs(tmp_path):
    out = tmp_path / "trends"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--seeds", "1",
         "--task-counts", "2", "3", "--steps", "2", "--examples-per-task", "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    for name in ("merging_scale.csv", "post_unlearning.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) > 1
        assert all(len(line.split(",")) == 5 for line in lines)
