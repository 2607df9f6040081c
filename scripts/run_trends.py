#!/usr/bin/env python3
"""Accuracy trends across merged-task counts and deletion fractions.

Sweeps the contested-data regime over a grid of task counts, building plain
merging, sign-fixed masking, TALL, EMR, TIES, and central systems, then
tracks held-in/held-out accuracy while half the tasks are deleted. Writes
flat CSVs (method, event_index, task_id, metric, value) under --out.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import build, evaluate, unlearn
from siftmasks.merging import LocalizationMethod
from siftmasks.trainer import ModelSpec, TrainConfig, accuracy, ft_finetune, init_params


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="runs/trends")
    p.add_argument("--seeds", type=int, nargs="+", default=[101, 202, 303])
    p.add_argument("--task-counts", type=int, nargs="+", default=[5, 10, 25, 50])
    p.add_argument("--methods", nargs="+",
                   default=["ft_merge", "sift_masks", "tall_masks", "emr", "ties", "central"])
    p.add_argument("--examples-per-task", type=int, default=100)
    p.add_argument("--input-dim", type=int, default=20)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--conflict-rate", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--unlearn-fraction", type=float, default=0.5)
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = ModelSpec("mlp", args.input_dim, 2, hidden_dim=args.hidden_dim)
    cfg = TrainConfig(steps=args.steps, batch_size=32,
                      learning_rate=args.learning_rate, seed=7)
    regime = HeterogeneityRegime("conflicting", conflict_rate=args.conflict_rate,
                                 margin=1.0)

    scale_rows = []
    for seed in args.seeds:
        for num_tasks in args.task_counts:
            tasks = synth_generate(regime, num_tasks, args.examples_per_task,
                                   args.input_dim, 2, seed=seed)
            m0 = init_params(spec, seed + 1)
            local = float(np.mean([
                accuracy(m0 + ft_finetune(t, m0, spec, cfg).delta, spec, *t.eval_xy())
                for t in tasks
            ]))
            scale_rows.append(["local", seed, num_tasks, "held_in", local])
            for tag in args.methods:
                t0 = time.monotonic()
                system, ledger = build(LocalizationMethod(tag), tasks, spec, cfg,
                                       base_seed=seed + 1, sign_seed=seed + 2)
                acc = evaluate(system, "held_in").aggregate
                scale_rows.append([tag, seed, num_tasks, "held_in", acc])
                print(f"seed {seed} T={num_tasks:3d} {tag:11s}: held_in {acc:.3f} "
                      f"({ledger.task_finetunes} finetunes, {time.monotonic()-t0:.1f}s)")

    with open(out / "merging_scale.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "event_index", "task_id", "metric", "value"])
        for tag, seed, num_tasks, metric, value in scale_rows:
            w.writerow([tag, num_tasks, f"seed{seed}", metric, repr(value)])

    # deletion sweep at the largest task count, cheap-unlearn methods only
    num_tasks = max(args.task_counts)
    deletion_rows = []
    for seed in args.seeds:
        tasks = synth_generate(regime, num_tasks, args.examples_per_task,
                               args.input_dim, 2, seed=seed)
        for tag in ("ft_merge", "sift_masks"):
            system, _ = build(LocalizationMethod(tag), tasks, spec, cfg,
                              base_seed=seed + 1, sign_seed=seed + 2)
            budget = int(args.unlearn_fraction * num_tasks)
            for mode in ("held_in", "held_out"):
                deletion_rows.append([tag, 0, f"seed{seed}", f"accuracy_{mode}",
                                      evaluate(system, mode).aggregate])
            for i in range(budget):
                system, _, _ = unlearn(system, tasks[i].id)
                if (i + 1) % max(budget // 5, 1) == 0:
                    for mode in ("held_in", "held_out"):
                        deletion_rows.append([
                            tag, i + 1, f"seed{seed}", f"accuracy_{mode}",
                            evaluate(system, mode).aggregate,
                        ])
            print(f"seed {seed} {tag}: deletion sweep done")

    with open(out / "post_unlearning.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "event_index", "task_id", "metric", "value"])
        for row in deletion_rows:
            w.writerow(row[:4] + [repr(row[4])])
    print(f"wrote {out / 'merging_scale.csv'} and {out / 'post_unlearning.csv'}")


if __name__ == "__main__":
    main()
