import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import siftmasks.cli
from siftmasks import datasets
from siftmasks.checkpoint import (
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.cli import cli, main
from siftmasks.config import ConfigError, RunConfig
from siftmasks.datasets import HeterogeneityRegime, load_tasks, save_tasks, synth_generate
from siftmasks.engine import build, evaluate, unlearn
from siftmasks.merging import LocalizationMethod
from siftmasks.trainer import ModelSpec, TrainConfig

SPEC = ModelSpec("logistic", 10, 3)
CFG = TrainConfig(steps=10, batch_size=16, learning_rate=0.05, seed=99)


def small_system(tag="sift_masks", num_tasks=4):
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0),
        num_tasks, 30, 10, 3, seed=11,
    )
    system, ledger = build(
        LocalizationMethod(tag), tasks, SPEC, CFG, base_seed=1, sign_seed=2
    )
    return tasks, system, ledger


# ---------- run config ----------


def test_run_config_roundtrip_lists_every_field():
    cfg = RunConfig(seed=5, method="emr", num_tasks=12)
    doc = json.loads(cfg.to_json())
    assert set(doc) == set(RunConfig.__dataclass_fields__)
    assert len(doc) == 21 and doc["data"] is None
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg


def test_run_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_json('{"nonsense": 1}')
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_json('{"threads": 1}')
    with pytest.raises(ConfigError, match="unknown method"):
        RunConfig.from_json('{"method": "magic"}')
    # the former two dataset fields are one, ``data``
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_json('{"dataset_source": "file"}')


def test_run_config_child_seeds_are_labeled():
    cfg = RunConfig(seed=9)
    seeds = {cfg.data_seed, cfg.init_seed, cfg.sign_seed, cfg.batch_seed, cfg.cluster_seed}
    assert len(seeds) == 5
    assert RunConfig(seed=9).data_seed == cfg.data_seed


# ---------- checkpoint format ----------


@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central"])
def test_checkpoint_roundtrip_all_methods(tag, tmp_path):
    tasks, system, ledger = small_system(tag)
    path = tmp_path / "ck.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), path)
    ckpt = load_checkpoint(path)
    resaved = tmp_path / "ck2.sftm"
    save_checkpoint(ckpt, resaved)
    assert path.read_bytes() == resaved.read_bytes()

    restored = system_from_checkpoint(ckpt, tasks)
    assert evaluate(restored, "held_in").per_task == evaluate(system, "held_in").per_task
    if tag != "central":
        assert np.array_equal(
            restored.shards[0].merged.accumulator.values,
            system.shards[0].merged.accumulator.values,
        )


def test_checkpoint_survives_unlearn_resume(tmp_path):
    tasks, system, ledger = small_system("sift_masks")
    system, _, delta = unlearn(system, 1)
    ledger.add(delta)
    path = tmp_path / "ck.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), path)
    restored = system_from_checkpoint(load_checkpoint(path), tasks)
    assert restored.unlearned == (1,)
    restored2, report, _ = unlearn(restored, 2)  # replays still verify
    assert report.replay_matches
    direct, _, _ = unlearn(system, 2)
    assert np.array_equal(
        restored2.shards[0].merged.accumulator.values,
        direct.shards[0].merged.accumulator.values,
    )


def test_unlearned_ids_read_back_as_held_in_memory(tmp_path):
    """A deletion from shard 2, then one from shard 0: the loaded system
    lists its unlearned ids in the order the system in memory does."""
    tasks = synth_generate(HeterogeneityRegime("conflicting"), 6, 30, 10, 3, seed=11)
    system, ledger = build(LocalizationMethod("sift_masks"), tasks, SPEC, CFG,
                           base_seed=1, sign_seed=2, clusters=3)
    for c in (2, 0):
        system, _, delta = unlearn(system, min(system.shards[c].retained))
        ledger.add(delta)
    path = tmp_path / "ck.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), path)
    assert load_checkpoint(path).system.unlearned == system.unlearned


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.sftm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        load_checkpoint(path)
    tasks, system, ledger = small_system("ft_merge")
    good = tmp_path / "good.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), good)
    raw = bytearray(good.read_bytes())
    raw[4] = 99  # version field
    bad = tmp_path / "vers.sftm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="unsupported version"):
        load_checkpoint(bad)


def test_checkpoint_missing_tasks_detected(tmp_path):
    tasks, system, ledger = small_system("ft_merge")
    path = tmp_path / "ck.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), path)
    with pytest.raises(CheckpointFormatError, match="missing task ids"):
        system_from_checkpoint(load_checkpoint(path), tasks[:2])


# ---------- CLI ----------


BASE_FLAGS = [
    "--num-tasks", "5", "--examples-per-task", "30", "--input-dim", "10",
    "--num-classes", "2", "--model-kind", "logistic", "--steps", "10", "--seed", "42",
]


def run_cli(*args):
    return main(list(args))


def test_cli_pipeline_happy_path(tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("gen-data", "--out-dir", out, *BASE_FLAGS) == 0
    data = f"{out}/dataset.jsonl"
    cfg = f"{out}/gen_config.json"
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out) == 0
    ckpt = f"{out}/checkpoint.sftm"
    assert run_cli("eval", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--mode", "held_in", "--out-dir", out) == 0
    assert run_cli("unlearn", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--id", "2", "--out-dir", out) == 0
    assert run_cli("verify", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--out-dir", out) == 0
    rows = Path(out, "eval_held_in.csv").read_text().splitlines()
    assert rows[0] == "method,event_index,task_id,metric,value"
    assert len(rows) == 1 + 5 + 1  # header, per-task, aggregate


def test_cli_unknown_id_exits_2(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    run_cli("train", "--config", cfg, "--data", data, "--out-dir", out)
    code = run_cli("unlearn", "--config", cfg, "--data", data,
                   "--checkpoint", f"{out}/checkpoint.sftm", "--id", "77",
                   "--out-dir", out)
    assert code == 2


def test_cli_usage_error_exits_1(tmp_path):
    assert run_cli("unlearn") == 1  # missing required --checkpoint
    out = str(tmp_path / "r")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    run_cli("train", "--config", f"{out}/gen_config.json",
            "--data", f"{out}/dataset.jsonl", "--out-dir", out)
    code = run_cli("unlearn", "--config", f"{out}/gen_config.json",
                   "--data", f"{out}/dataset.jsonl",
                   "--checkpoint", f"{out}/checkpoint.sftm", "--out-dir", out)
    assert code == 1  # no ids given


def test_cli_corrupted_checkpoint_verify_exits_3(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    run_cli("train", "--config", cfg, "--data", data, "--out-dir", out)
    ckpt_path = Path(out, "checkpoint.sftm")
    ckpt = load_checkpoint(ckpt_path)
    ckpt.system.shards[0].merged.accumulator.values[0] += 1
    save_checkpoint(ckpt, ckpt_path)
    code = run_cli("verify", "--config", cfg, "--data", data,
                   "--checkpoint", str(ckpt_path), "--out-dir", out)
    assert code == 3


def test_cli_full_pipeline_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
        run_cli("train", "--config", f"{out}/gen_config.json",
                "--data", f"{out}/dataset.jsonl", "--out-dir", out)
        run_cli("eval", "--config", f"{out}/gen_config.json",
                "--data", f"{out}/dataset.jsonl",
                "--checkpoint", f"{out}/checkpoint.sftm", "--mode", "held_out",
                "--out-dir", out)
        outs.append(out)
    a, b = outs
    assert Path(a, "dataset.jsonl").read_bytes() == Path(b, "dataset.jsonl").read_bytes()
    assert Path(a, "checkpoint.sftm").read_bytes() == Path(b, "checkpoint.sftm").read_bytes()
    assert Path(a, "eval_held_out.csv").read_bytes() == Path(b, "eval_held_out.csv").read_bytes()


def test_cli_merge_subset_matches_unlearn(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    run_cli("train", "--config", cfg, "--data", data, "--out-dir", out)
    run_cli("unlearn", "--config", cfg, "--data", data,
            "--checkpoint", f"{out}/checkpoint.sftm", "--id", "1", "--id", "3",
            "--out-dir", out)
    oracle_out = str(tmp_path / "oracle")
    assert run_cli("train", "--config", cfg, "--data", data, "--retain", "0,2,4",
                   "--out-dir", oracle_out) == 0
    after = load_checkpoint(f"{out}/checkpoint.sftm")
    oracle = load_checkpoint(f"{oracle_out}/checkpoint.sftm")
    assert np.array_equal(
        after.system.shards[0].merged.accumulator.values,
        oracle.system.shards[0].merged.accumulator.values,
    )


def test_cli_report_simulation_numbers(tmp_path, capsys):
    out = str(tmp_path / "rep")
    assert run_cli("simulate", "--num-tasks", "500",
                   "--out-dir", out) == 0
    text = capsys.readouterr().out
    assert "central vs merge-family total: 124750 vs 499 (250.0x)" in text
    summary = json.loads(Path(out, "cost_projection.json").read_text())
    assert summary["central"]["total_task_finetunes"] == 124750
    assert summary["sift_masks"]["total_task_finetunes"] == 499
    assert summary["tall_masks"]["first_event_steps"] == 9980


def test_cli_report_simulation_counts_uneven_shards(tmp_path):
    out = tmp_path / "rep"
    # logistic 499 -> 2 gives M = 1000 words
    assert run_cli("simulate", "--num-tasks", "10", "--clusters", "3",
                   "--model-kind", "logistic", "--input-dim", "499", "--num-classes", "2",
                   "--out-dir", str(out)) == 0
    with open(out / "cost_projection.csv", newline="") as fh:
        words = {row["method"]: int(row["value"]) for row in csv.DictReader(fh)
                 if row["metric"] == "storage_words"}
    # shards of 4/3/3 tasks: 3 * 1000 model words + 10 * ceil(1000/32) mask words
    assert words["sift_masks"] == words["tall_masks"] == words["emr"] == 3320
    assert words["ft_merge"] == words["ties"] == words["central"] == 3000


def test_cli_report_simulation_projects_the_configured_run(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("simulate", "--num-tasks", "40", "--steps", "5",
                   "--clusters", "3", "--out-dir", str(out)) == 0
    with open(out / "cost_projection.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for tag in ("sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central"):
        cumulative = [r for r in rows
                      if r["method"] == tag and r["metric"] == "cumulative_task_finetunes"]
        assert [int(r["event_index"]) for r in cumulative] == list(range(1, 41))
    words = {r["method"]: int(r["value"]) for r in rows if r["metric"] == "storage_words"}
    m = 20 * 32 + 32 + 32 * 2 + 2  # the default MLP 20-32-2: M = 738
    assert words["ft_merge"] == words["ties"] == words["central"] == 3 * m
    assert words["sift_masks"] == words["tall_masks"] == words["emr"] == 3 * m + 40 * 24
    summary = json.loads((out / "cost_projection.json").read_text())
    assert summary["sift_masks"]["total_task_finetunes"] == 40 - 3  # each shard's last is free
    # shards of 14/13/13: the first deletion rebuilds 13 tasks of 5 steps
    assert summary["central"]["first_event_steps"] == 13 * 5


EVERY_FIELD = {"config", *RunConfig.__dataclass_fields__}
DATASET = {
    "config", "seed", "out_dir", "data", "regime", "conflict_rate", "margin",
    "num_tasks", "examples_per_task",
}
OPTIONS = {
    "gen-data": EVERY_FIELD - {"data"},
    "train": EVERY_FIELD | {"retain", "retain_file"},
    "eval": DATASET | {"checkpoint", "mode"},
    "unlearn": DATASET | {"checkpoint", "task_ids", "ids_file", "do_verify"},
    "verify": DATASET | {"checkpoint"},
    "report": {"config", "out_dir", "checkpoint"},
    "simulate": {
        "config", "out_dir", "model_kind", "input_dim", "num_classes", "hidden_dim",
        "num_tasks", "steps", "clusters",
    },
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_cli_command_takes_only_the_settings_it_reads(command):
    names = [p.name for p in cli.commands[command].params]
    assert len(names) == len(set(names))
    assert set(names) == OPTIONS[command]


def test_cli_option_total():
    assert sorted(cli.commands) == sorted(OPTIONS)
    assert sum(len(c.params) for c in cli.commands.values()) == 91


def test_cli_report_checkpoint_summary(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    run_cli("train", "--config", f"{out}/gen_config.json",
            "--data", f"{out}/dataset.jsonl", "--out-dir", out)
    assert run_cli("report", "--checkpoint", f"{out}/checkpoint.sftm",
                   "--out-dir", out) == 0
    summary = json.loads(Path(out, "report.json").read_text())
    m = 10 * 2 + 2  # logistic d=10, C=2
    assert summary["param_count"] == m
    assert summary["storage_words"] == m + 5 * 1  # ceil(22/32) = 1 word per mask
    assert summary["ledger"]["build_finetunes"] == 5


def test_cli_clustered_pipeline(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out,
                   "--clusters", "2", "--method", "central") == 0
    ckpt = f"{out}/checkpoint.sftm"
    assert run_cli("eval", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--mode", "held_out", "--out-dir", out) == 0
    assert run_cli("unlearn", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--id", "0", "--out-dir", out) == 0
    assert run_cli("verify", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--out-dir", out) == 0


def test_cli_unlearn_ids_file(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    run_cli("train", "--config", cfg, "--data", data, "--out-dir", out)
    ids = tmp_path / "ids.txt"
    ids.write_text("1\n3\n")
    assert run_cli("unlearn", "--config", cfg, "--data", data,
                   "--checkpoint", f"{out}/checkpoint.sftm",
                   "--ids-file", str(ids), "--out-dir", out) == 0
    ckpt = load_checkpoint(f"{out}/checkpoint.sftm")
    assert ckpt.system.unlearned == (1, 3)


def _trained_run(tmp_path):
    """A run directory holding a trained sift checkpoint; its config, data
    and checkpoint paths."""
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out) == 0
    return out, cfg, data, f"{out}/checkpoint.sftm"


@pytest.mark.parametrize("form", ["flags", "file", "flag_and_file"])
def test_cli_unlearn_repeated_id_is_one_deletion(form, tmp_path):
    """An id given twice, as two --id flags, twice in --ids-file, or once each
    way, is deleted once: exit 0, one CSV event, and the checkpoint bytes of
    a single --id."""
    out, cfg, data, ckpt = _trained_run(tmp_path)
    common = ["--config", cfg, "--data", data, "--checkpoint", ckpt, "--out-dir", out]
    trained = Path(ckpt).read_bytes()
    assert run_cli("unlearn", *common, "--id", "2") == 0
    single = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(trained)
    Path(out, "exactness.csv").unlink()
    ids = tmp_path / "ids.txt"
    ids.write_text("2\n2\n" if form == "file" else "2\n")
    args = {"flags": ["--id", "2", "--id", "2"], "file": ["--ids-file", str(ids)],
            "flag_and_file": ["--id", "2", "--ids-file", str(ids)]}[form]
    assert run_cli("unlearn", *common, *args) == 0
    assert Path(ckpt).read_bytes() == single
    rows = list(csv.reader(Path(out, "exactness.csv").open(newline="")))[1:]
    assert {(row[1], row[2]) for row in rows} == {("1", "2")}


@pytest.mark.parametrize("command", ["eval", "report", "simulate", "unlearn"])
def test_cli_csv_is_replaced_whole_or_not_at_all(command, tmp_path, monkeypatch, capsys):
    """Every CSV goes through the atomic writer, ``exactness.csv`` too, which
    ``unlearn`` rewrites as its old bytes and the new rows: when its rename
    fails, the old file keeps its bytes and no temporary file is left beside
    it. For ``unlearn`` only that rename fails; its checkpoint is replaced
    before it."""
    out, cfg, data, ckpt = _trained_run(tmp_path)
    common = ["--config", cfg, "--data", data, "--checkpoint", ckpt]
    name, args = {
        "eval": ("eval_held_out.csv", common),
        "report": ("report.csv", ["--checkpoint", ckpt]),
        "simulate": ("cost_projection.csv", ["--config", cfg]),
        "unlearn": ("exactness.csv", [*common, "--id", "2"]),
    }[command]
    old = b"method,event_index,task_id,metric,value\r\nold,1,,row,0\r\n"
    Path(out, name).write_bytes(old)
    before = sorted(os.listdir(out))
    rename = os.replace

    def refuse(src, dst):
        if command == "unlearn" and Path(dst).name != name:
            return rename(src, dst)
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert run_cli(command, *args, "--out-dir", out) == 2
    assert "rename refused" in capsys.readouterr().err
    assert Path(out, name).read_bytes() == old
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("regime", ["distinct", "similar"])
def test_cli_gen_data_other_regimes(tmp_path, regime):
    out = str(tmp_path / regime)
    assert run_cli("gen-data", "--out-dir", out, "--regime", regime,
                   "--num-tasks", "3", "--examples-per-task", "20",
                   "--input-dim", "8", "--num-classes", "3", "--seed", "5") == 0
    assert Path(out, "dataset.jsonl").exists()


def test_cli_dimension_mismatch_exits_2(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    code = run_cli("train", "--config", f"{out}/gen_config.json",
                   "--data", f"{out}/dataset.jsonl", "--out-dir", out,
                   "--input-dim", "15")
    assert code == 2


@pytest.mark.parametrize("clusters", ["1", "2"])
def test_cli_unlearn_appends_exactness_log(tmp_path, clusters):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS, "--clusters", clusters)
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out) == 0
    ckpt = f"{out}/checkpoint.sftm"
    assert run_cli("unlearn", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--id", "0", "--out-dir", out) == 0
    assert run_cli("unlearn", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--id", "1", "--out-dir", out) == 0
    lines = Path(out, "exactness.csv").read_text().splitlines()
    assert lines.count("method,event_index,task_id,metric,value") == 1
    assert len(lines) == 1 + 2 * 4  # one header, four rows per deletion
    assert lines[1].startswith("sift_masks,1,0,replay_matches,1")
    assert lines[5].startswith("sift_masks,2,1,replay_matches,1")


def _aggregate(path):
    rows = Path(path).read_text().splitlines()
    return [r.split(",")[4] for r in rows if ",aggregate_" in r]


def _train_on_file_with_other_seed(tmp_path):
    """Trains on a dataset file under a seed whose synthetic tasks differ from
    the file's; returns the data, run config and checkpoint paths."""
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    data = f"{out}/dataset.jsonl"
    assert run_cli("train", "--config", f"{out}/gen_config.json", "--data", data,
                   "--seed", "7", "--out-dir", out) == 0
    return data, f"{out}/run_config.json", f"{out}/checkpoint.sftm"


def test_cli_eval_reads_the_data_file_of_the_run_config(tmp_path):
    data, cfg, ckpt = _train_on_file_with_other_seed(tmp_path)
    with_data, without = str(tmp_path / "with"), str(tmp_path / "without")
    assert run_cli("eval", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                   "--mode", "held_in", "--out-dir", with_data) == 0
    assert run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                   "--mode", "held_in", "--out-dir", without) == 0
    assert _aggregate(f"{without}/eval_held_in.csv") == _aggregate(
        f"{with_data}/eval_held_in.csv")
    assert json.loads(Path(cfg).read_text())["data"] == data


def test_cli_verify_reads_the_data_file_of_the_run_config(tmp_path):
    _, cfg, ckpt = _train_on_file_with_other_seed(tmp_path)
    assert run_cli("verify", "--config", cfg, "--checkpoint", ckpt,
                   "--out-dir", str(tmp_path)) == 0


def test_cli_report_refuses_simulation_flags(tmp_path, capsys):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    run_cli("train", "--config", f"{out}/gen_config.json",
            "--data", f"{out}/dataset.jsonl", "--out-dir", out)
    code = run_cli("report", "--checkpoint", f"{out}/checkpoint.sftm",
                   "--num-tasks", "40", "--out-dir", out)
    assert code == 1
    assert "No such option '--num-tasks'" in capsys.readouterr().err
    assert not Path(out, "report.json").exists()
    assert run_cli("report", "--out-dir", out) == 1  # --checkpoint is required


def test_cli_train_retain_unknown_id_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    code = run_cli("train", "--config", f"{out}/gen_config.json",
                   "--data", f"{out}/dataset.jsonl", "--retain", "0,9",
                   "--out-dir", out)
    assert code == 2
    assert "unknown task ids in --retain: [9]" in capsys.readouterr().err
    assert not Path(out, "checkpoint.sftm").exists()


def test_cli_missing_data_file_is_a_data_error_naming_it(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    code = run_cli("train", *BASE_FLAGS, "--data", missing, "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and missing in err


def test_cli_os_error_names_the_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "sub")
    assert run_cli("gen-data", *BASE_FLAGS, "--out-dir", target) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and target in err


def test_cli_config_with_former_dataset_fields_exits_1(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text('{"dataset_source": "file", "dataset_path": "d.jsonl"}')
    assert run_cli("train", "--config", str(cfg), "--out-dir", str(tmp_path)) == 1
    assert "unknown config fields: ['dataset_path', 'dataset_source']" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("bad", [-1, 2**32], ids=["-1", "2**32"])
def test_cli_task_id_outside_u32_is_a_data_error_before_training(bad, tmp_path, capsys):
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0), 3, 30, 10, 2, seed=11
    )
    data = tmp_path / "dataset.jsonl"
    save_tasks([replace(tasks[0], id=bad), *tasks[1:]], data)
    out = tmp_path / "run"
    code = run_cli("train", *BASE_FLAGS, "--data", str(data), "--out-dir", str(out))
    assert code == 2
    assert f"line 1: task_id {bad} outside [0, 2**32)" in capsys.readouterr().err
    assert not (out / "checkpoint.sftm").exists()


def test_cli_gen_data_only_generates(tmp_path, capsys):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS)
    assert run_cli("train", "--config", f"{out}/gen_config.json",
                   "--data", f"{out}/dataset.jsonl", "--out-dir", out) == 0
    copy = str(tmp_path / "copy")
    capsys.readouterr()
    assert run_cli("gen-data", "--config", f"{out}/run_config.json", "--out-dir", copy) == 1
    assert "config error: gen-data generates its tasks; the config sets 'data'" in (
        capsys.readouterr().err
    )
    assert run_cli("gen-data", "--data", f"{out}/dataset.jsonl", "--out-dir", copy) == 1
    assert "No such option '--data'" in capsys.readouterr().err
    assert not Path(copy).exists()


def test_cli_gen_data_leaves_the_parsed_copy(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("gen-data", "--out-dir", str(out), *BASE_FLAGS) == 0
    assert (out / ".dataset.jsonl.parsed").exists()

    def no_parse(*args):
        raise AssertionError("train parsed the file gen-data read back")

    monkeypatch.setattr(datasets, "_parse_jsonl", no_parse)
    assert run_cli("train", "--config", str(out / "gen_config.json"),
                   "--data", str(out / "dataset.jsonl"), "--out-dir", str(out)) == 0


def test_cli_gen_data_exits_2_when_the_file_does_not_read_back(tmp_path, monkeypatch, capsys):
    def save_one_feature_off(tasks, path):
        task = tasks[3]
        features = task.features.copy()
        features[4, 1] = np.nextafter(features[4, 1], np.inf)
        save_tasks([*tasks[:3], replace(task, features=features), *tasks[4:]], path)

    monkeypatch.setattr(siftmasks.cli, "save_tasks", save_one_feature_off)
    out = tmp_path / "run"
    assert run_cli("gen-data", "--out-dir", str(out), *BASE_FLAGS) == 2
    assert f"{out / 'dataset.jsonl'}: task 3 does not read back as generated" in (
        capsys.readouterr().err
    )
    assert not (out / "gen_config.json").exists()


@pytest.mark.parametrize(
    "command", [["eval", "--mode", "held_in"], ["verify"]], ids=["eval-held_in", "verify"]
)
def test_cli_output_is_the_same_with_and_without_the_parsed_copy(command, tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen-data", "--out-dir", str(out), *BASE_FLAGS)
    args = ["--config", str(out / "gen_config.json"), "--data", str(out / "dataset.jsonl"),
            "--out-dir", str(out)]
    assert run_cli("train", *args) == 0
    capsys.readouterr()
    results = []
    for _ in range(2):
        code = run_cli(*command, *args, "--checkpoint", str(out / "checkpoint.sftm"))
        csv_bytes = [p.read_bytes() for p in sorted(out.glob("eval_*.csv"))]
        results.append((code, capsys.readouterr(), csv_bytes))
        (out / ".dataset.jsonl.parsed").unlink()
    assert results[0] == results[1]
    assert results[0][0] == 0


def test_cli_run_config_data_path_read_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("gen-data", "--out-dir", "run", *BASE_FLAGS)
    assert run_cli("train", "--config", "run/gen_config.json",
                   "--data", "run/dataset.jsonl", "--out-dir", "run") == 0
    recorded = json.loads(Path("run/run_config.json").read_text())["data"]
    assert os.path.isabs(recorded) and os.path.samefile(recorded, "run/dataset.jsonl")
    Path("sub").mkdir()
    monkeypatch.chdir("sub")
    assert run_cli("eval", "--config", "../run/run_config.json",
                   "--checkpoint", "../run/checkpoint.sftm", "--out-dir", "../run") == 0


@pytest.mark.parametrize(
    "config, flags, field",
    [('{"steps": "abc"}', [], "steps"),
     ('{"num_tasks": 2.5}', [], "num_tasks"),
     ('{"density_grid": 5}', [], "density_grid"),
     ("{}", ["--density-grid", "0.1,abc"], "density_grid")],
    ids=["steps-str", "num_tasks-float", "density_grid-int", "density_grid-flag"],
)
def test_cli_config_value_of_the_wrong_type_is_a_config_error(
    config, flags, field, tmp_path, capsys
):
    path = tmp_path / "bad.json"
    path.write_text(config)
    out = str(tmp_path / "run")
    assert run_cli("train", "--config", str(path), *flags, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field '{field}' must be")
    assert "Traceback" not in err
    assert not Path(out, "checkpoint.sftm").exists()


@pytest.mark.parametrize(
    "field, value",
    [("seed", True), ("learning_rate", "0.1"), ("data", 3), ("method", None),
     ("alpha_grid", [0.5, "x"]), ("alpha_grid", "0.5"), ("num_tasks", np.int64(3))],
)
def test_run_config_checks_each_field_against_its_annotation(field, value):
    with pytest.raises(ConfigError, match=f"config field '{field}'"):
        RunConfig(**{field: value})


def test_run_config_takes_any_number_for_a_float_and_a_list_for_a_grid():
    cfg = RunConfig(learning_rate=1, density_grid=[0.5, 1], data="d.jsonl")
    assert cfg.density_grid == (0.5, 1) and cfg == RunConfig.from_json(cfg.to_json())


def test_cli_forgetting_needs_no_forgotten_data(tmp_path, capsys):
    """After task 3 is deleted and its records dropped, only held-out
    evaluation, which measures what was forgotten, asks for them."""
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS, "--num-tasks", "6")
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    ckpt = f"{out}/checkpoint.sftm"
    common = ["--config", cfg, "--data", data, "--checkpoint", ckpt, "--out-dir", out]
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out) == 0
    assert run_cli("unlearn", *common, "--id", "3") == 0
    records = Path(data).read_text().splitlines(keepends=True)
    kept = [r for r in records if json.loads(r)["task_id"] != 3]
    assert 0 < len(kept) < len(records)
    Path(data).write_text("".join(kept))
    capsys.readouterr()
    assert run_cli("verify", *common) == 0
    assert run_cli("eval", *common, "--mode", "held_in") == 0
    assert run_cli("unlearn", *common, "--id", "5") == 0
    assert run_cli("verify", *common) == 0
    capsys.readouterr()
    assert run_cli("eval", *common, "--mode", "held_out") == 2
    assert "data error: dataset is missing task ids [3]" in capsys.readouterr().err
    # a deleted task's data is attached, and read, when it is given
    Path(data).write_text("".join(records))
    assert run_cli("eval", *common, "--mode", "held_out") == 0
    rows = Path(out, "eval_held_out.csv").read_text().splitlines()
    assert len(rows) == 1 + 6 + 1


def test_checkpoint_attaches_a_deleted_task_only_at_the_model_dimension(tmp_path):
    tasks, system, ledger = small_system("sift_masks")
    system, _, delta = unlearn(system, 2)
    ledger.add(delta)
    path = tmp_path / "ck.sftm"
    save_checkpoint(checkpoint_from_system(system, ledger), path)
    retained = [t for t in tasks if t.id != 2]
    assert sorted(system_from_checkpoint(load_checkpoint(path), retained).registry) == [0, 1, 3]
    wide = replace(tasks[2], features=np.zeros((tasks[2].n_examples, 11)))
    with pytest.raises(CheckpointFormatError, match="task 2 has feature dim 11"):
        system_from_checkpoint(load_checkpoint(path), [*retained, wide])


# ---------- each input checked once, with the exit code of its kind ----------


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    """A 5-task dataset; copies with a 1-record task, with 3 tasks and with one
    non-finite feature; and a checkpoint whose accumulator entry 0 is past the
    fixed-point range."""
    root = tmp_path_factory.mktemp("probes")
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0), 5, 30, 10, 2, seed=11
    )
    save_tasks(tasks, root / "data.jsonl")
    save_tasks(tasks[:3], root / "three.jsonl")
    lines = (root / "data.jsonl").read_text().splitlines(keepends=True)
    (root / "one_record.jsonl").write_text("".join(lines) + lines[0].replace('"task_id": 0', '"task_id": 7'))
    for bad in ("NaN", "Infinity", "1e400"):
        head, tail = lines[3].split("[", 1)
        (root / f"{bad}.jsonl").write_text(
            "".join(lines[:3]) + f"{head}[{bad},{tail.split(',', 1)[1]}" + "".join(lines[4:])
        )
    out = str(root / "run")
    assert run_cli("train", *BASE_FLAGS, "--data", str(root / "data.jsonl"), "--out-dir", out) == 0
    ckpt = load_checkpoint(Path(out, "checkpoint.sftm"))
    ckpt.system.shards[0].merged.accumulator.values[0] = 2**62 + 5  # saved unchecked, sealed
    save_checkpoint(ckpt, root / "overflow.sftm")
    return root


# (argv, exit code, what the message names); "{root}" is the probe directory
PROBES = [
    *[(["gen-data", flag, value], 1, [field]) for flag, value, field in [
        ("--steps", "-1", "steps"), ("--batch-size", "0", "batch_size"),
        ("--hidden-dim", "0", "hidden_dim"), ("--clusters", "99", "clusters"),
        ("--input-dim", "3", "input_dim")]],
    *[(["train", *flags], 1, [field]) for flags, field in [
        (["--steps", "-1"], "steps"), (["--learning-rate", "0"], "learning_rate"),
        (["--model-kind", "cnn"], "model_kind"), (["--ties-density", "0"], "ties_density"),
        (["--density-grid", "2.0"], "density_grid"), (["--regime", "bogus"], "regime"),
        (["--conflict-rate", "2"], "conflict_rate"), (["--num-classes", "1"], "num_classes"),
        (["--num-tasks", "0"], "num_tasks"), (["--examples-per-task", "1"], "examples_per_task"),
        (["--clusters", "99"], "clusters"), (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", "inf"], "learning_rate"),
        (["--method", "tall_masks", "--alpha-grid", "nan,1.0"], "alpha_grid"),
        (["--method", "tall_masks", "--alpha-grid", "-5"], "alpha_grid"),
        (["--central-max-steps", "-1"], "central_max_steps"),
        # checkpoints store these as u32: a bound at config time, not a struct.error at save
        (["--steps", "4294967296"], "need steps and batch_size < 2**32"),
        (["--batch-size", "4294967296"], "need steps and batch_size < 2**32"),
        (["--input-dim", "4294967296"], "need input_dim, hidden_dim and num_classes < 2**32"),
        (["--hidden-dim", "4294967296"], "need input_dim, hidden_dim and num_classes < 2**32"),
        (["--num-classes", "4294967296"], "need input_dim, hidden_dim and num_classes < 2**32"),
        (["--central-max-steps", "4294967296"], "central_max_steps' must lie in [0, 2**32)")]],
    (["simulate", "--num-tasks", "0"], 1, ["num_tasks"]),
    (["train", *BASE_FLAGS, "--data", "{root}/one_record.jsonl"], 2, ["task 7"]),
    (["train", *BASE_FLAGS, "--data", "{root}/data.jsonl", "--input-dim", "15"], 2,
     ["task 0", "input_dim"]),
    (["train", *BASE_FLAGS, "--data", "{root}/three.jsonl", "--clusters", "5"], 2, ["clusters"]),
    (["train", *BASE_FLAGS, "--data", "{root}/data.jsonl", "--retain", ","], 2,
     ["at least one task"]),
    *[(["train", *BASE_FLAGS, "--data", f"{{root}}/{bad}.jsonl"], 2, ["line 4: non-finite"])
      for bad in ("NaN", "Infinity", "1e400")],
    (["report", "--checkpoint", "{root}/overflow.sftm"], 2,
     ["{root}/overflow.sftm: shard 0: accumulator"]),
    (["train", *BASE_FLAGS, "--learning-rate", "1e308"], 2, ["non-finite gradient"]),
    (["train", *BASE_FLAGS, "--learning-rate", "1e300"], 2, ["out of quantization range"]),
]


@pytest.mark.parametrize(
    "argv, code, names", PROBES, ids=[" ".join(argv[:1] + argv[-2:]) for argv, _, _ in PROBES]
)
def test_cli_each_input_is_checked_once_with_the_exit_code_of_its_kind(
    argv, code, names, probe_files, tmp_path, capsys
):
    """A config value is a config error (exit 1), found before anything is
    read or trained; a dataset, checkpoint or diverging run is a data error
    (exit 2). Either names what is wrong and prints no traceback."""
    out = tmp_path / "out"
    assert run_cli(*[a.format(root=probe_files) for a in argv], "--out-dir", str(out)) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 1 else "data error: ")
    for name in names:
        assert name.format(root=probe_files) in err
    assert "Traceback" not in err
    if code == 1:
        assert not out.exists()


def test_cli_diverging_run_prints_only_its_data_error(tmp_path):
    """numpy's overflow warnings would repeat the error; stderr is its one line."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "siftmasks.cli", "train", "--num-tasks", "3",
         "--examples-per-task", "20", "--steps", "5", "--learning-rate", "1e308",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "data error: non-finite gradient: training diverged\n"


def test_cli_library_bug_is_not_reported_as_a_data_error(tmp_path, monkeypatch, capsys):
    def broken_build(*args, **kwargs):
        raise ValueError("a library bug")

    monkeypatch.setattr("siftmasks.cli.build", broken_build)
    with pytest.raises(ValueError, match="a library bug"):
        run_cli("train", *BASE_FLAGS, "--out-dir", str(tmp_path))
    assert "data error" not in capsys.readouterr().err


def test_cli_eval_csv_values_are_floats_equal_to_evaluate(tmp_path):
    out = str(tmp_path / "run")
    run_cli("gen-data", "--out-dir", out, *BASE_FLAGS, "--num-tasks", "3")
    cfg, data = f"{out}/gen_config.json", f"{out}/dataset.jsonl"
    assert run_cli("train", "--config", cfg, "--data", data, "--out-dir", out) == 0
    ckpt = f"{out}/checkpoint.sftm"
    tasks = load_tasks(data)
    for mode in ("held_in", "held_out"):
        assert run_cli("eval", "--config", cfg, "--data", data, "--checkpoint", ckpt,
                       "--mode", mode, "--out-dir", out) == 0
        with open(Path(out, f"eval_{mode}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = evaluate(system_from_checkpoint(load_checkpoint(ckpt), tasks), mode)
        per_task = {int(r["task_id"]): float(r["value"]) for r in rows if r["task_id"]}
        assert per_task == report.per_task
        assert [float(r["value"]) for r in rows if not r["task_id"]] == [report.aggregate]


def test_run_config_builds_what_its_fields_feed_and_checks_a_synthetic_run_only():
    cfg = RunConfig(method="ties", model_kind="logistic", steps=3, ties_density=0.5)
    assert cfg.model_spec == ModelSpec("logistic", 20, 2, 32)
    assert cfg.train_cfg == TrainConfig(3, 32, 0.05, seed=cfg.batch_seed)
    assert cfg.localization == LocalizationMethod("ties", ties_density=0.5)
    assert cfg.heterogeneity == HeterogeneityRegime("conflicting", 0.5, 1.0)
    assert json.loads(cfg.to_json()) == json.loads(RunConfig.from_json(cfg.to_json()).to_json())
    assert len(json.loads(cfg.to_json())) == 21  # the objects are no fields
    # a data run reads its tasks from the file, so the synthetic fields are not checked
    RunConfig(data="d.jsonl", regime="bogus", num_tasks=0, clusters=99)
    with pytest.raises(ConfigError, match="config fields regime, conflict_rate, margin"):
        RunConfig(regime="bogus")


def test_cli_config_file_is_checked_with_the_flags_over_it(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"clusters": 99, "steps": -1}')
    out = str(tmp_path / "run")
    assert run_cli("gen-data", "--config", str(path), *BASE_FLAGS, "--out-dir", out) == 1
    assert "config fields clusters, num_tasks" in capsys.readouterr().err
    assert run_cli("gen-data", "--config", str(path), *BASE_FLAGS, "--clusters", "2",
                   "--out-dir", out) == 0
    saved = json.loads(Path(out, "gen_config.json").read_text())
    assert (saved["clusters"], saved["steps"]) == (2, 10)
