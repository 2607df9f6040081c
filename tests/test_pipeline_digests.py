"""The pipeline-digest script runs the README pipeline, then every other
method's chain, at 1 and 3 shards and prints one SHA-256 line per file
written, the same lines on a second run into the same directory."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from siftmasks.merging import METHOD_TAGS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pipeline_digests.py"
QUICKSTART = (".dataset.jsonl.parsed", "checkpoint.sftm", "cost_projection.csv",
              "cost_projection.json", "dataset.jsonl", "eval_held_in.csv", "exactness.csv",
              "gen_config.json", "report.csv", "report.json", "run_config.json")
# what each other method's chain writes into its own directory
CHAIN = ("checkpoint.sftm", "eval_held_out.csv", "exactness.csv", "run_config.json")
FILES = sorted([*QUICKSTART, *(f"{method}/{name}" for method in METHOD_TAGS
                               if method != "sift_masks" for name in CHAIN)],
               key=lambda name: name.split("/"))  # in path order, as the script lists them


def run(out):
    return subprocess.run([sys.executable, str(SCRIPT), str(out)],
                          capture_output=True, text=True, timeout=300)


def test_pipeline_digests_lists_every_file_the_same_way_twice(tmp_path):
    out = tmp_path / "digests"
    first = run(out)
    assert first.returncode == 0, first.stderr[-500:]
    lines = first.stdout.splitlines()
    assert [line[66:] for line in lines] == [f"k{k}/{name}" for k in (1, 3) for name in FILES]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert "exactness verified" in first.stderr
    refused = run(out)  # a directory with files in it
    assert refused.returncode == 2 and "not empty" in refused.stderr
    shutil.rmtree(out)
    assert run(out).stdout == first.stdout
