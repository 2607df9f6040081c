"""Command-line workbench: gen-data, train, eval, unlearn, verify, report, simulate.

Each command takes only the settings it reads, as flags that mirror
``RunConfig`` fields and override ``--config``:

* ``gen-data`` generates, so it takes every field but ``data``. ``train``
  builds, so it takes every field, and records ``data`` as an absolute path.
  ``train --retain`` builds a subset, the from-scratch oracle of a deletion.
* ``eval``, ``unlearn`` and ``verify`` act on a checkpoint, which fixes the
  method, the model and the training settings; they take only the dataset
  fields (``DATASET_FIELDS``), and the data is read from ``data``, or
  regenerated, at the checkpoint's input dimension and class count.
* ``report`` summarises a checkpoint and takes only ``out_dir``.
* ``simulate`` projects a run without training and takes the fields it
  projects (``SIMULATION_FIELDS``).

Exit codes: 0 success, 1 usage error, 2 data error, 3 exactness violation.
Reports are flat CSV files with columns (method, event_index, task_id,
metric, value) plus a JSON summary; checkpoints are binary (see checkpoint.py).
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import io
import itertools
import json
import os
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path

import click

from .checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from .config import ConfigError, RunConfig
from .datasets import DataFormatError, load_tasks, save_tasks, synth_generate
from .engine import (
    ReplayMismatchError,
    UnknownTaskError,
    build,
    cluster_sizes,
    evaluate,
    project_total_cost,
    storage_words,
    unlearn,
    verify_exactness,
)
from .merging import METHOD_TAGS
from .paramcore import FxpOverflowError
from .sealed import write_atomic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXACTNESS = 3

# the settings that say which tasks a run has; all a checkpoint command reads
DATASET_FIELDS = (
    "seed", "out_dir", "data", "regime", "conflict_rate", "margin",
    "num_tasks", "examples_per_task",
)
# every field but the data file, which `gen-data` would only copy
GENERATION_FIELDS = tuple(f.name for f in dataclass_fields(RunConfig) if f.name != "data")
# what `simulate` projects, plus where it writes
SIMULATION_FIELDS = (
    "out_dir", "model_kind", "input_dim", "num_classes", "hidden_dim",
    "num_tasks", "steps", "clusters",
)


class ExactnessViolation(RuntimeError):
    pass


def _config_from(ctx_params) -> RunConfig:
    """The run config of --config with the explicitly set flags over it,
    checked once, as a whole."""
    path = ctx_params.pop("config", None)
    overrides = {k: v for k, v in ctx_params.items() if v is not None}
    for grid in ("density_grid", "alpha_grid"):
        if grid in overrides:  # left a string, which RunConfig rejects, if bad
            with contextlib.suppress(ValueError):
                overrides[grid] = tuple(float(x) for x in overrides[grid].split(","))
    return RunConfig.load(path, **overrides) if path else RunConfig(**overrides)


def _config_options(*names):
    """Flags mirroring the named RunConfig fields 1:1, every field when none is
    named; unset flags fall back to --config."""

    def decorate(fn):
        opts = [click.option("--config", type=click.Path(exists=True), default=None)]
        for f in dataclass_fields(RunConfig):
            if names and f.name not in names:
                continue
            kind = type(f.default) if type(f.default) in (int, float) else str
            opts.append(
                click.option("--" + f.name.replace("_", "-"), f.name, type=kind, default=None)
            )
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return decorate


@contextlib.contextmanager
def _writer_lock(checkpoint):
    """An exclusive ``flock`` on the checkpoint's directory: writers run one at
    a time, and the lock dies with its process. Readers take none; the atomic
    rename gives them the old file or the new one."""
    fd = os.open(os.path.dirname(os.path.abspath(checkpoint)), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _tasks_for(cfg: RunConfig):
    """The tasks of the configured file, else of the configured synthetic regime."""
    if cfg.data:
        return load_tasks(cfg.data, num_classes=cfg.num_classes)
    return synth_generate(
        cfg.heterogeneity, cfg.num_tasks, cfg.examples_per_task, cfg.input_dim,
        cfg.num_classes, cfg.data_seed,
    )


def _write_rows(path, rows, append: bool = False) -> None:
    """Replace ``path``, whole, by ``write_atomic``: with the header and
    ``rows``, or with ``append`` its old bytes and then ``rows``, after the
    header only when the file is new."""
    old = Path(path).read_bytes() if append and os.path.exists(path) else None
    buf = io.StringIO()
    writer = csv.writer(buf)
    if old is None:
        writer.writerow(["method", "event_index", "task_id", "metric", "value"])
    writer.writerows(rows)
    write_atomic(path, [old or b"", buf.getvalue().encode()])


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
@_config_options(*GENERATION_FIELDS)
def cmd_gen_data(**params):
    """Write the configured synthetic dataset as JSONL plus its config."""
    cfg = _config_from(params)
    if cfg.data:
        raise ConfigError("gen-data generates its tasks; the config sets 'data'")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(cfg)
    save_tasks(tasks, out / "dataset.jsonl")
    _check_read_back(tasks, out / "dataset.jsonl", cfg.num_classes)
    cfg.save(out / "gen_config.json")
    click.echo(f"wrote {out / 'dataset.jsonl'} ({len(tasks)} tasks)")


def _check_read_back(tasks, path, num_classes: int) -> None:
    """Raise DataFormatError unless ``path`` reads back as ``tasks`` bit for
    bit. The read leaves the file's parsed copy, so later commands parse none."""

    def bits(task):
        return (task.id, task.n_eval, task.features.shape,
                task.features.tobytes(), task.labels.tobytes())

    read = load_tasks(path, num_classes=num_classes)
    for a, b in itertools.zip_longest(map(bits, tasks), map(bits, read)):
        if a != b:
            raise DataFormatError(f"{path}: task {(a or b)[0]} does not read back as generated")


@cli.command("train")
@_config_options()
@click.option("--retain", type=str, default=None, help="comma-separated ids to keep")
@click.option(
    "--retain-file", type=click.Path(exists=True), default=None,
    help="file with one task id per line",
)
def cmd_train(retain, retain_file, **params):
    """Train every task, merge, and write a checkpoint.

    --retain/--retain-file restrict the build to those task ids: the
    from-scratch oracle that deletion results are compared against.
    """
    cfg = _config_from(params)
    if cfg.data:  # recorded absolute, so the run config reads the same file from anywhere
        cfg = replace(cfg, data=os.path.abspath(cfg.data))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(cfg)
    keep = _parse_ids(retain, retain_file)
    if keep is not None:
        missing = sorted(keep - {t.id for t in tasks})
        if missing:
            raise DataFormatError(f"unknown task ids in --retain: {missing}")
        tasks = [t for t in tasks if t.id in keep]
    system, ledger = build(
        cfg.localization, tasks, cfg.model_spec, cfg.train_cfg,
        base_seed=cfg.init_seed, sign_seed=cfg.sign_seed,
        clusters=cfg.clusters, cluster_seed=cfg.cluster_seed,
    )
    with _writer_lock(out / "checkpoint.sftm"):
        save_checkpoint(Checkpoint(system, ledger), out / "checkpoint.sftm")
    cfg.save(out / "run_config.json")
    click.echo(
        f"built {cfg.method} over {len(tasks)} tasks: "
        f"{ledger.task_finetunes} task-finetunes, {ledger.task_finetunes * cfg.steps} steps"
    )
    click.echo(f"wrote {out / 'checkpoint.sftm'}")


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


def _load_system(cfg: RunConfig, checkpoint: str):
    """The checkpoint, then its tasks, read (and checked) at the checkpoint's model dims."""
    ckpt = load_checkpoint(checkpoint)
    spec = ckpt.system.model_spec
    cfg = replace(cfg, input_dim=spec.input_dim, num_classes=spec.num_classes)
    return ckpt, system_from_checkpoint(ckpt, _tasks_for(cfg))


@cli.command("eval")
@_config_options(*DATASET_FIELDS)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option(
    "--mode", type=click.Choice(["held_in", "held_out"]), default="held_out"
)
def cmd_eval(checkpoint, mode, **params):
    """Evaluate the checkpoint; writes a per-task accuracy CSV."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, system = _load_system(cfg, checkpoint)
    report = evaluate(system, mode)
    path = out / f"eval_{mode}.csv"
    _write_rows(path, _eval_rows(system.method.tag, len(system.unlearned), report))
    click.echo(f"{mode} aggregate accuracy: {report.aggregate:.4f}")
    click.echo(f"wrote {path}")


@cli.command("unlearn")
@_config_options(*DATASET_FIELDS)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--id", "task_ids", type=int, multiple=True, help="task id to delete")
@click.option("--ids-file", type=click.Path(exists=True), default=None)
@click.option("--verify/--no-verify", "do_verify", default=False)
def cmd_unlearn(checkpoint, task_ids, ids_file, do_verify, **params):
    """Process deletion requests and rewrite the checkpoint in place."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a repeated id is one request: first the --id values, then the file's ascending
    ids = list(dict.fromkeys([*task_ids, *sorted(_parse_ids(None, ids_file) or ())]))
    if not ids:
        raise click.UsageError("nothing to unlearn: pass --id or --ids-file")
    with _writer_lock(checkpoint):  # held from the read through the CSV rewrite
        ckpt, system = _load_system(cfg, checkpoint)
        ledger = ckpt.ledger
        base_event = len(system.unlearned)
        reports = []
        for u in ids:
            system, report, delta = unlearn(system, u, verify=do_verify)
            if not report.exact:  # keep the checkpoint as it was read
                raise ExactnessViolation(
                    f"after deleting task {u} the state does not match a fresh merge: {report}"
                )
            ledger.add(delta)
            reports.append((u, report, delta))
        save_checkpoint(Checkpoint(system, ledger), checkpoint)
        tag, steps = system.method.tag, system.train_cfg.steps
        rows = []
        for event, (u, report, delta) in enumerate(reports, base_event + 1):
            rows.append([tag, event, u, "replay_matches", int(report.replay_matches)])
            rows.append([tag, event, u, "state_matches_oracle", int(report.state_matches_oracle)])
            rows.append([tag, event, u, "unlearn_task_finetunes", delta.unlearn_finetunes])
            rows.append([tag, event, u, "unlearn_finetune_steps", delta.unlearn_finetunes * steps])
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
@_config_options(*DATASET_FIELDS)
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
def cmd_verify(checkpoint, **params):
    """Rebuild every shard from its retained tasks; compare all it serves.

    Each replay digest must match, and the accumulator, masks and method
    artifacts (TALL lambdas and alphas, EMR unified vector and scales, TIES
    vector) must equal the stored ones bit for bit.
    """
    cfg = _config_from(params)
    _, system = _load_system(cfg, checkpoint)
    report = verify_exactness(system)
    click.echo(
        f"replay_matches={report.replay_matches} "
        f"state_matches_oracle={report.state_matches_oracle}"
    )
    if not report.exact:
        raise ExactnessViolation("stored state does not match a fresh merge")
    click.echo("exactness verified")


def _write_json(path, doc) -> None:
    write_atomic(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


@cli.command("report")
@_config_options("out_dir")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
def cmd_report(checkpoint, **params):
    """Ledger and storage summary of a checkpoint."""
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = load_checkpoint(checkpoint)
    system, led = ckpt.system, ckpt.ledger
    tag, m, steps = system.method.tag, system.model_spec.param_count, system.train_cfg.steps
    total_words = 0
    rows = []
    for c, shard in enumerate(system.shards):
        words = storage_words(tag, m, [len(shard.retained)])
        total_words += words
        rows.append([tag, c, "", "storage_words", words])
    summary = {
        "method": tag,
        "param_count": m,
        "clusters": len(system.shards),
        "retained": len(system.retained),
        "unlearned": len(system.unlearned),
        "storage_words": total_words,
        "ledger": {
            "build_finetunes": led.build_finetunes,
            "build_steps": led.build_finetunes * steps,
            "unlearn_finetunes": led.unlearn_finetunes,
            "unlearn_steps": led.unlearn_finetunes * steps,
            "task_finetunes": led.task_finetunes,
            "finetune_steps": led.task_finetunes * steps,
        },
    }
    rows.append([tag, "", "", "task_finetunes", led.task_finetunes])
    rows.append([tag, "", "", "finetune_steps", led.task_finetunes * steps])
    _write_rows(out / "report.csv", rows)
    _write_json(out / "report.json", summary)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    click.echo(f"wrote {out / 'report.csv'}")


@cli.command("simulate")
@_config_options(*SIMULATION_FIELDS)
def cmd_simulate(**params):
    """Project the cost of deleting every task; needs no training.

    Deletes, one by one, every task of the configured run (num_tasks tasks
    over clusters shards, steps per finetune) under each method, and counts
    the words each method stores for the configured model.
    """
    cfg = _config_from(params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    summary = {}
    m = cfg.model_spec.param_count
    sizes = cluster_sizes(cfg.num_tasks, cfg.clusters)
    for tag in METHOD_TAGS:
        proj = project_total_cost(cfg.num_tasks, tag, cfg.steps, cfg.clusters)
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
    _write_json(out / "cost_projection.json", summary)
    click.echo(f"wrote {out / 'cost_projection.csv'}")


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
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_USAGE
    except (ReplayMismatchError, ExactnessViolation) as exc:
        click.echo(f"exactness violation: {exc}", err=True)
        return EXIT_EXACTNESS
    except (
        DataFormatError, CheckpointFormatError, UnknownTaskError, FxpOverflowError, OSError
    ) as exc:
        # a KeyError's str() quotes its message; an OSError's args[0] is its errno
        msg = exc.args[0] if isinstance(exc, UnknownTaskError) else exc
        click.echo(f"data error: {msg}", err=True)
        return EXIT_DATA
    except click.exceptions.Exit as exc:
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
