"""Command-line workbench: gen-data, train, merge, eval, unlearn, verify, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 exactness violation.
Reports are flat CSV files with columns (method, event_index, task_id,
metric, value) plus a JSON summary; checkpoints are binary (see checkpoint.py).
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import click

from .checkpoint import (
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from .config import ConfigError, RunConfig
from .datasets import (
    DataFormatError,
    HeterogeneityRegime,
    load_tasks,
    save_tasks,
    synth_generate,
)
from .engine import (
    ReplayMismatchError,
    UnknownTaskError,
    build,
    cluster_sizes,
    evaluate,
    project_total_cost,
    shard_ids,
    storage_words,
    unlearn,
    verify_exactness,
)
from .merging import METHOD_TAGS, LocalizationMethod
from .trainer import ModelSpec, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXACTNESS = 3


class ExactnessViolation(RuntimeError):
    pass


def _config_from(ctx_params) -> RunConfig:
    """Build the run config from --config plus any explicitly set flags."""
    path = ctx_params.pop("config", None)
    base = RunConfig.load(path) if path else RunConfig()
    overrides = {k: v for k, v in ctx_params.items() if v is not None}
    if not overrides:
        return base
    merged = {f.name: getattr(base, f.name) for f in dataclass_fields(RunConfig)}
    merged.update(overrides)
    for grid in ("density_grid", "alpha_grid"):
        if isinstance(merged[grid], str):
            merged[grid] = tuple(float(x) for x in merged[grid].split(","))
    return RunConfig(**merged)


def _config_options(fn):
    """Flags mirroring RunConfig fields 1:1; unset flags fall back to --config."""
    opts = [click.option("--config", type=click.Path(exists=True), default=None)]
    for f in dataclass_fields(RunConfig):
        kind = type(f.default) if type(f.default) in (int, float) else str
        opts.append(click.option("--" + f.name.replace("_", "-"), f.name, type=kind, default=None))
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _model_spec(cfg: RunConfig) -> ModelSpec:
    return ModelSpec(
        cfg.model_kind, cfg.input_dim, cfg.num_classes, cfg.hidden_dim
    )


def _train_cfg(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        steps=cfg.steps,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        seed=cfg.batch_seed,
    )


def _method(cfg: RunConfig) -> LocalizationMethod:
    return LocalizationMethod(
        cfg.method,
        density_grid=cfg.density_grid,
        alpha_grid=cfg.alpha_grid,
        ties_density=cfg.ties_density,
    )


def _tasks_for(cfg: RunConfig, data: str | None):
    if data:
        return load_tasks(data, num_classes=cfg.num_classes)
    if cfg.dataset_source == "file":
        return load_tasks(cfg.dataset_path, num_classes=cfg.num_classes)
    regime = HeterogeneityRegime(
        cfg.regime, conflict_rate=cfg.conflict_rate, margin=cfg.margin
    )
    return synth_generate(
        regime,
        cfg.num_tasks,
        cfg.examples_per_task,
        cfg.input_dim,
        cfg.num_classes,
        cfg.data_seed,
    )


def _build_from_config(cfg: RunConfig, tasks):
    return build(
        _method(cfg),
        tasks,
        _model_spec(cfg),
        _train_cfg(cfg),
        base_seed=cfg.init_seed,
        sign_seed=cfg.sign_seed,
        central_max_steps=cfg.central_max_steps,
        clusters=cfg.clusters,
        cluster_seed=cfg.cluster_seed,
    )


def _write_rows(path, rows, append: bool = False) -> None:
    path = Path(path)
    fresh = not (append and path.exists())
    with open(path, "a" if append else "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["method", "event_index", "task_id", "metric", "value"])
        writer.writerows(rows)


def _eval_rows(method: str, event_index: int, report) -> list:
    rows = [
        [method, event_index, t, f"accuracy_{report.mode}", repr(acc)]
        for t, acc in sorted(report.per_task.items())
    ]
    rows.append([method, event_index, "", f"aggregate_{report.mode}", repr(report.aggregate)])
    return rows


@click.group()
def cli():
    """Exact-unlearning workbench over merged task vectors."""


@cli.command("gen-data")
@_config_options
def cmd_gen_data(**params):
    """Write the configured synthetic dataset as JSONL plus its config."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(cfg, None)
    save_tasks(tasks, out / "dataset.jsonl")
    cfg.save(out / "gen_config.json")
    click.echo(f"wrote {out / 'dataset.jsonl'} ({len(tasks)} tasks)")


@cli.command("train")
@_config_options
@click.option("--data", type=click.Path(exists=True), default=None, help="JSONL dataset")
def cmd_train(data, **params):
    """Train every task, merge, and write a checkpoint."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(cfg, data)
    system, ledger = _build_from_config(cfg, tasks)
    save_checkpoint(checkpoint_from_system(system, ledger), out / "checkpoint.sftm")
    cfg.save(out / "run_config.json")
    click.echo(
        f"built {cfg.method} over {len(tasks)} tasks: "
        f"{ledger.task_finetunes} task-finetunes, {ledger.finetune_steps} steps"
    )
    click.echo(f"wrote {out / 'checkpoint.sftm'}")


@cli.command("merge")
@_config_options
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--retain", type=str, default=None, help="comma-separated ids to keep")
@click.option(
    "--retain-file", type=click.Path(exists=True), default=None,
    help="file with one task id per line",
)
def cmd_merge(data, retain, retain_file, **params):
    """Fresh build restricted to a task subset (the from-scratch oracle)."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(cfg, data)
    keep = _parse_ids(retain, retain_file)
    if keep is not None:
        known = {t.id for t in tasks}
        missing = sorted(set(keep) - known)
        if missing:
            raise DataFormatError(f"unknown task ids in --retain: {missing}")
        tasks = [t for t in tasks if t.id in keep]
    system, ledger = _build_from_config(cfg, tasks)
    save_checkpoint(checkpoint_from_system(system, ledger), out / "checkpoint.sftm")
    click.echo(f"merged {len(tasks)} tasks into {out / 'checkpoint.sftm'}")


def _parse_ids(inline: str | None, path: str | None) -> set[int] | None:
    if inline is None and path is None:
        return None
    ids: set[int] = set()
    try:
        if inline:
            ids.update(int(x) for x in inline.split(",") if x.strip())
        if path:
            with open(path, "r", encoding="utf8") as fh:
                ids.update(int(line) for line in fh if line.strip())
    except ValueError as exc:
        raise DataFormatError(f"malformed task id list: {exc}") from None
    return ids


def _load_system(cfg: RunConfig, data: str | None, checkpoint: str):
    tasks = _tasks_for(cfg, data)
    ckpt = load_checkpoint(checkpoint)
    return ckpt, system_from_checkpoint(ckpt, tasks)


@cli.command("eval")
@_config_options
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option(
    "--mode", type=click.Choice(["held_in", "held_out"]), default="held_out"
)
def cmd_eval(data, checkpoint, mode, **params):
    """Evaluate the checkpoint; writes a per-task accuracy CSV."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt, system = _load_system(cfg, data, checkpoint)
    report = evaluate(system, mode)
    path = out / f"eval_{mode}.csv"
    _write_rows(path, _eval_rows(ckpt.method.tag, len(system.unlearned), report))
    click.echo(f"{mode} aggregate accuracy: {report.aggregate:.4f}")
    click.echo(f"wrote {path}")


@cli.command("unlearn")
@_config_options
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--id", "task_ids", type=int, multiple=True, help="task id to delete")
@click.option("--ids-file", type=click.Path(exists=True), default=None)
@click.option("--verify/--no-verify", "do_verify", default=False)
def cmd_unlearn(data, checkpoint, task_ids, ids_file, do_verify, **params):
    """Process deletion requests and rewrite the checkpoint in place."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = list(task_ids)
    if ids_file:
        ids.extend(sorted(_parse_ids(None, ids_file)))
    if not ids:
        raise click.UsageError("nothing to unlearn: pass --id or --ids-file")
    ckpt, system = _load_system(cfg, data, checkpoint)
    ledger = ckpt.ledger
    base_event = len(system.unlearned)
    reports = []
    for u in ids:
        system, report, delta = unlearn(system, u, verify=do_verify)
        if not report.exact:  # keep the checkpoint as it was read
            raise ExactnessViolation(
                f"after deleting task {u} the state does not match a fresh merge"
            )
        ledger.add(delta)
        reports.append((u, report, delta))
    save_checkpoint(checkpoint_from_system(system, ledger), checkpoint)
    rows = []
    for i, (u, report, delta) in enumerate(reports):
        rows.append([ckpt.method.tag, base_event + i + 1, u, "replay_matches", int(report.replay_matches)])
        rows.append([ckpt.method.tag, base_event + i + 1, u, "state_matches_oracle", int(report.state_matches_oracle)])
        rows.append([ckpt.method.tag, base_event + i + 1, u, "unlearn_task_finetunes", delta.unlearn_finetunes])
        rows.append([ckpt.method.tag, base_event + i + 1, u, "unlearn_finetune_steps", delta.unlearn_steps])
    path = out / "exactness.csv"
    _write_rows(path, rows, append=True)
    for u, report, delta in reports:
        click.echo(
            f"unlearned task {u}: replay_matches={report.replay_matches} "
            f"state_matches_oracle={report.state_matches_oracle} "
            f"cost={delta.unlearn_finetunes} task-finetunes"
        )
    click.echo(f"rewrote {checkpoint}; wrote {path}")


@cli.command("verify")
@_config_options
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
def cmd_verify(data, checkpoint, **params):
    """Replay all retained tasks; compare the stored accumulator and sift masks.

    Central retrains each shard and compares its parameters. Not re-derived:
    TALL (lambda, alpha, masks), EMR (unified vector, scales, masks) and TIES
    vectors.
    """
    cfg = _config_from(params)
    _, system = _load_system(cfg, data, checkpoint)
    report = verify_exactness(system)
    click.echo(
        f"replay_matches={report.replay_matches} "
        f"state_matches_oracle={report.state_matches_oracle}"
    )
    if not report.exact:
        raise ExactnessViolation("stored state does not match a fresh merge")
    click.echo("exactness verified")


@cli.command("report")
@_config_options
@click.option("--checkpoint", type=click.Path(exists=True), default=None)
@click.option("--simulate-unlearn-all", is_flag=True, default=False)
@click.option("--tasks", "sim_tasks", type=int, default=500)
@click.option("--sim-steps", type=int, default=20)
@click.option("--sim-clusters", type=int, default=1)
def cmd_report(checkpoint, simulate_unlearn_all, sim_tasks, sim_steps, sim_clusters, **params):
    """Ledger/storage summaries; --simulate-unlearn-all needs no training."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if simulate_unlearn_all:
        rows = []
        summary = {}
        m = _model_spec(cfg).param_count
        sizes = cluster_sizes(sim_tasks, sim_clusters)
        for tag in METHOD_TAGS:
            proj = project_total_cost(sim_tasks, tag, sim_steps, sim_clusters)
            words = storage_words(tag, m, sizes)
            summary[tag] = {
                "total_task_finetunes": proj.total_finetunes,
                "total_finetune_steps": proj.total_steps,
                "first_event_finetunes": proj.per_event[0],
                "first_event_steps": proj.first_event_steps,
                "storage_words": words,
            }
            rows.extend(
                [tag, i + 1, "", "cumulative_task_finetunes", c]
                for i, c in enumerate(proj.cumulative)
            )
            rows.append([tag, "", "", "storage_words", words])
            click.echo(
                f"{tag}: total {proj.total_finetunes} task-finetunes "
                f"({proj.total_steps} steps), first deletion {proj.per_event[0]} "
                f"({proj.first_event_steps} steps), {words} stored words at M={m}"
            )
        central = summary["central"]["total_task_finetunes"]
        merge_total = summary["sift_masks"]["total_task_finetunes"]
        if merge_total:
            click.echo(
                f"central vs merge-family total: {central} vs {merge_total} "
                f"({central / merge_total:.1f}x)"
            )
        _write_rows(out / "cost_projection.csv", rows)
        with open(out / "cost_projection.json", "w", encoding="utf8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"wrote {out / 'cost_projection.csv'}")
        return
    if not checkpoint:
        raise click.UsageError("pass --checkpoint or --simulate-unlearn-all")
    ckpt = load_checkpoint(checkpoint)
    ids = shard_ids(ckpt.assignment, ckpt.unlearned)
    m = ckpt.model_spec.param_count
    total_words = 0
    rows = []
    for c in range(len(ckpt.shards)):
        words = storage_words(ckpt.method.tag, m, [len(ids[c][0])])
        total_words += words
        rows.append([ckpt.method.tag, c, "", "storage_words", words])
    led = ckpt.ledger
    summary = {
        "method": ckpt.method.tag,
        "param_count": m,
        "clusters": len(ckpt.shards),
        "retained": len(ckpt.assignment) - len(ckpt.unlearned),
        "unlearned": len(ckpt.unlearned),
        "storage_words": total_words,
        "ledger": {
            "build_finetunes": led.build_finetunes,
            "build_steps": led.build_steps,
            "unlearn_finetunes": led.unlearn_finetunes,
            "unlearn_steps": led.unlearn_steps,
            "task_finetunes": led.task_finetunes,
            "finetune_steps": led.finetune_steps,
        },
    }
    rows.append([ckpt.method.tag, "", "", "task_finetunes", led.task_finetunes])
    rows.append([ckpt.method.tag, "", "", "finetune_steps", led.finetune_steps])
    _write_rows(out / "report.csv", rows)
    with open(out / "report.json", "w", encoding="utf8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    click.echo(f"wrote {out / 'report.csv'}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except (ConfigError,) as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_USAGE
    except (ReplayMismatchError, ExactnessViolation) as exc:
        click.echo(f"exactness violation: {exc}", err=True)
        return EXIT_EXACTNESS
    except (
        DataFormatError,
        CheckpointFormatError,
        UnknownTaskError,
        OverflowError,
        ValueError,
        OSError,
    ) as exc:
        msg = exc.args[0] if exc.args else exc
        click.echo(f"data error: {msg}", err=True)
        return EXIT_DATA
    except click.exceptions.Exit as exc:
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
