#!/usr/bin/env python3
"""Compute/storage cost tables for the unlearn-all policy. Pure arithmetic.

Prints, per method, the cumulative task-finetunes for deleting every task one
by one, the single-deletion cost, and stored 32-bit words, optionally across
cluster counts (storage-for-compute tradeoff). No training runs.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from siftmasks.engine import cluster_sizes, project_total_cost, storage_words
from siftmasks.merging import METHOD_TAGS


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--tasks", type=int, default=500)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--model-words", type=int, default=1_000_000)
    p.add_argument("--clusters", type=int, nargs="+", default=[1, 4, 20, 100])
    p.add_argument("--out", default="runs/costs")
    args = p.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"T={args.tasks}, {args.steps} steps/finetune, M={args.model_words} words")
    header = f"{'method':12s} {'clusters':>8s} {'first':>8s} {'total':>9s} {'steps':>10s} {'storage':>12s}"
    print(header)
    print("-" * len(header))
    for clusters in args.clusters:
        sizes = cluster_sizes(args.tasks, clusters)
        for method in METHOD_TAGS:
            proj = project_total_cost(args.tasks, method, args.steps, clusters)
            words = storage_words(method, args.model_words, sizes).words
            print(
                f"{method:12s} {clusters:8d} {proj.per_event[0]:8d} "
                f"{proj.total_finetunes:9d} {proj.total_steps:10d} {words:12d}"
            )
            rows.append([method, clusters, "", "first_event_finetunes", proj.per_event[0]])
            rows.append([method, clusters, "", "total_task_finetunes", proj.total_finetunes])
            rows.append([method, clusters, "", "total_finetune_steps", proj.total_steps])
            rows.append([method, clusters, "", "storage_words", words])
    central = project_total_cost(args.tasks, "central", args.steps).total_finetunes
    cheap = project_total_cost(args.tasks, "sift_masks", args.steps).total_finetunes
    print(f"\nunlearn-all ratio, central vs merge-family: {central / cheap:.1f}x")

    with open(out / "cost_table.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "event_index", "task_id", "metric", "value"])
        w.writerows(rows)
    print(f"wrote {out / 'cost_table.csv'}")


if __name__ == "__main__":
    main()
