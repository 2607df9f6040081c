#!/usr/bin/env python3
"""SHA-256 of every file the README pipeline writes, at 1 and 3 shards.

Usage: scripts/pipeline_digests.py DIR

Runs the README's CLI quickstart in this process, once into DIR/k1 and once
into DIR/k3 (``--clusters 3``): gen-data, train, eval, unlearn --verify,
verify, report and simulate, their own output sent to stderr. Then prints
one line per file under DIR, the datasets' parsed copies included: its
SHA-256 and its path below DIR, in path order. DIR must be new or empty.

Two checkouts that write the same bytes print the same lines when each runs
into the same DIR (remove it between the runs): the configs the commands
write hold the paths they were given.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from siftmasks.cli import main as cli_main

SHARDS = (1, 3)


def pipeline(out: Path, clusters: int) -> list[list[str]]:
    """The README quickstart's commands, writing into ``out``."""
    data = ["--config", f"{out}/run_config.json", "--data", f"{out}/dataset.jsonl"]
    ckpt = ["--checkpoint", f"{out}/checkpoint.sftm"]
    dest = ["--out-dir", str(out)]
    return [
        ["gen-data", *dest, "--num-tasks", "50", "--examples-per-task", "100",
         "--input-dim", "20", "--num-classes", "2", "--seed", "7"],
        ["train", "--config", f"{out}/gen_config.json", "--data", f"{out}/dataset.jsonl",
         *dest, "--clusters", str(clusters)],
        ["eval", *data, *ckpt, "--mode", "held_in", *dest],
        ["unlearn", *data, *ckpt, "--id", "3", "--id", "17", "--verify", *dest],
        ["verify", *data, *ckpt, *dest],
        ["report", *ckpt, *dest],
        ["simulate", "--num-tasks", "500", "--clusters", "4", "--input-dim", "20",
         "--num-classes", "2", *dest],
    ]


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    for clusters in SHARDS:
        for args in pipeline(root / f"k{clusters}", clusters):
            with contextlib.redirect_stdout(sys.stderr):
                code = cli_main(args)
            if code:
                print(f"siftmasks {args[0]} exited {code}", file=sys.stderr)
                return code
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{sha256(path)}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
