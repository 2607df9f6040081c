"""One writer per checkpoint: ``unlearn`` and ``train`` hold an exclusive
``flock`` on the checkpoint's directory while they rewrite it, so overlapping
writers are serialized and neither loses the other's deletion."""

import csv
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from siftmasks.checkpoint import load_checkpoint
from siftmasks.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
# the README quickstart's shape at 30 tasks: reading the data and replaying a
# task inside the lock take long enough that unlocked writers overlap
FLAGS = [
    "--num-tasks", "30", "--examples-per-task", "100", "--input-dim", "20",
    "--num-classes", "2", "--seed", "4",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 30-task sift_masks run: its data, run config and checkpoint."""
    out = tmp_path_factory.mktemp("run")
    assert main(["gen-data", "--out-dir", str(out), *FLAGS]) == 0
    data = str(out / "dataset.jsonl")
    assert main(["train", "--config", str(out / "gen_config.json"), "--data", data,
                 "--out-dir", str(out)]) == 0
    return data, str(out / "run_config.json"), out / "checkpoint.sftm"


def copy_run(trained, run: Path) -> tuple[list[str], Path]:
    """A fresh copy of the checkpoint in ``run``; the arguments that make a
    command act on it."""
    data, cfg, ckpt = trained
    run.mkdir()
    shutil.copyfile(ckpt, run / "checkpoint.sftm")
    args = ["--config", cfg, "--data", data, "--checkpoint", str(run / "checkpoint.sftm"),
            "--out-dir", str(run)]
    return args, run / "checkpoint.sftm"


def start_unlearn(args, task_id):
    return subprocess.Popen(
        [sys.executable, "-m", "siftmasks.cli", "unlearn", *args, "--id", str(task_id)],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc) -> None:
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err


def logged_ids(run: Path) -> list[tuple[str, str]]:
    with open(run / "exactness.csv", newline="", encoding="utf8") as fh:
        return sorted((row["event_index"], row["task_id"]) for row in csv.DictReader(fh))


@pytest.mark.parametrize("trial", range(5))
def test_overlapping_unlearns_both_land(trained, trial, tmp_path):
    args, ckpt = copy_run(trained, tmp_path / "run")
    procs = [start_unlearn(args, u) for u in (3, 17)]
    for proc in procs:
        finish(proc)
    assert sorted(load_checkpoint(ckpt).system.unlearned) == [3, 17]
    events = logged_ids(tmp_path / "run")
    assert len(events) == 8 and {t for _, t in events} == {"3", "17"}
    assert {e for e, _ in events} == {"1", "2"}  # the second writer read the first's result
    assert main(["verify", *args]) == 0


def test_held_lock_stops_a_writer_until_released(trained, tmp_path):
    args, ckpt = copy_run(trained, tmp_path / "run")
    before = ckpt.read_bytes()
    fd = os.open(tmp_path / "run", os.O_RDONLY)
    fcntl.flock(fd, fcntl.LOCK_EX)
    proc = start_unlearn(args, 3)
    try:
        time.sleep(4)  # an unblocked unlearn of this run takes about one second
        assert proc.poll() is None
        assert ckpt.read_bytes() == before
        assert not (tmp_path / "run" / "exactness.csv").exists()
    finally:
        os.close(fd)
    finish(proc)
    assert load_checkpoint(ckpt).system.unlearned == (3,)


def test_writer_killed_holding_the_lock_does_not_block_the_next(trained, tmp_path):
    args, ckpt = copy_run(trained, tmp_path / "run")
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from siftmasks.cli import _writer_lock\n"
         "with _writer_lock(sys.argv[1]):\n"
         "    print('locked', flush=True)\n"
         "    time.sleep(600)\n",
         str(ckpt)],
        env=ENV, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline() == "locked\n"
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    finish(start_unlearn(args, 17))
    assert load_checkpoint(ckpt).system.unlearned == (17,)
