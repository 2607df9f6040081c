"""The README's CLI quickstart runs as written, so its flags and the CLI
cannot drift apart."""

import json
import shlex
from pathlib import Path

from siftmasks.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_commands() -> list[list[str]]:
    """The arguments of each `siftmasks ...` command of the quickstart block,
    continuation lines joined and comments dropped, in order."""
    text = README.read_text(encoding="utf8")
    block = text.split("## CLI quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "siftmasks", line
            commands.append(words[1:])
    return commands


def test_quickstart_runs_verbatim_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert [argv[0] for argv in commands] == [
        "gen-data", "train", "eval", "unlearn", "verify", "report", "simulate",
    ]
    for argv in commands:
        assert main(argv) == 0, shlex.join(argv)
    # step 6 projects what its comment says: 500 tasks over 4 shards
    summary = json.loads((tmp_path / "run" / "cost_projection.json").read_text())
    assert summary["sift_masks"]["total_task_finetunes"] == 500 - 4
