"""The benchmark's three closed-loop workloads: lifecycle, serve-delete and cli.

Each workload has one caller that waits for every reply before sending the
next request. All inputs derive from the workload seed: the dataset, the
base/sign/batch seeds, deletion order and request order. The program only
sees the generated inputs.

Every operation's output is checked; an operation that raises or fails its
check is counted in ``Run.failed`` and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import siftmasks.cli
from siftmasks import checkpoint, datasets, engine, paramcore, trainer
from siftmasks.merging import LocalizationMethod

import probe

METHODS = ("sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central")
REGIME = datasets.HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
EVAL_REPEATS = 9  # lifecycle evaluates each system this often; one call is ~3 ms
WARMUP_FINETUNES = 5  # lifecycle set-up; ~0.1 s, long enough to time steadily
DELETE_SHARE = 0.05  # serve-delete: share of requests that are deletions
CLI_DELETIONS = 2  # cli: ids passed to the one `unlearn` command of a pass


@dataclass(frozen=True)
class Size:
    """Problem size of one workload."""

    name: str
    tasks: int
    examples: int
    input_dim: int
    hidden_dim: int
    setup_repeats: int
    steps: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    min_retained: int = 20  # serve-delete ends a segment before fewer remain

    @property
    def spec(self) -> trainer.ModelSpec:
        return trainer.ModelSpec("mlp", self.input_dim, 2, self.hidden_dim)

    def train_cfg(self, batch_seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            steps=self.steps, batch_size=self.batch_size,
            learning_rate=self.learning_rate, seed=batch_seed,
        )


SIZES = {
    "lifecycle": Size("full", tasks=50, examples=100, input_dim=20, hidden_dim=32,
                      setup_repeats=5),
    "serve-delete": Size("full", tasks=120, examples=100, input_dim=64, hidden_dim=256,
                         setup_repeats=2),
    "cli": Size("full", tasks=50, examples=100, input_dim=20, hidden_dim=32,
                setup_repeats=5),
}
TOY = Size("toy", tasks=6, examples=20, input_dim=8, hidden_dim=4, setup_repeats=2,
           steps=3, batch_size=8, min_retained=2)

_REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class OpFailed(Exception):
    """Raised by Run.op after a failed operation has been counted."""


class Run:
    """Closed-loop bookkeeping for one workload run.

    ``samples`` holds the latency of every successful operation by kind, in
    seconds. ``values`` holds the samples of each end-to-end metric in its
    own unit, each with the interval it was measured over, so that it can
    be scaled by the machine's speed in that interval (see probe.py); the
    reported metric is their median.
    """

    def __init__(self, workload: str, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.deadline = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.last_s = self.last_t0 = self.last_t1 = 0.0
        self.ops_sha256 = ""
        self.checkpoints = hashlib.sha256()
        self.recording = False  # hash written checkpoint bytes while true
        self.probe = probe.SpeedProbe()
        reference = _REFERENCE[size.name]
        self.accuracy_ref = reference[workload]
        self.accuracy_tol = reference["tolerance"]

    def start_clock(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {problem}")

    def op(self, kind, fn, *args, check=None, **kwargs):
        """Time one operation and check its output; raise OpFailed if either fails."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            self.last_t0, self.last_t1 = start, time.perf_counter()
            self.last_s = self.last_t1 - start
            problem = check(result) if check is not None else None
        except Exception as exc:  # the closed loop counts the failure and goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(kind, problem)
            raise OpFailed(kind)
        self.samples[kind].append(self.last_s)
        return result

    def value(self, metric: str, value: float, t0: float, t1: float) -> None:
        """One sample of an end-to-end metric, measured from t0 to t1."""
        self.values[metric].append((value, t0, t1))

    def op_value(self, metric: str, value: float) -> None:
        """One sample measured over the last operation."""
        self.value(metric, value, self.last_t0, self.last_t1)

    def check(self, kind: str, problem: str | None) -> None:
        """Count one check that is not part of an operation."""
        self.attempted += 1
        if problem:
            self.fail(kind, problem)

    def setup(self, fn) -> list:
        """Run set-up ``size.setup_repeats`` times; returns every result."""
        results = []
        for _ in range(self.size.setup_repeats):
            start = time.perf_counter()
            results.append(fn())
            end = time.perf_counter()
            self.value("setup_s", end - start, start, end)
        return results

    def record_checkpoint(self, path: Path) -> None:
        if self.recording:
            self.checkpoints.update(path.read_bytes())

    def set_ops(self, ops) -> None:
        blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
        self.ops_sha256 = hashlib.sha256(blob).hexdigest()

    def accuracy_problem(self, method: str, aggregate: float) -> str | None:
        ref = self.accuracy_ref[method]
        if abs(aggregate - ref) > self.accuracy_tol:
            return (f"{method} held-in accuracy {aggregate:.4f} is not within "
                    f"{self.accuracy_tol} of {ref}")
        return None


def _seeds(rng: random.Random) -> dict[str, int]:
    return {k: rng.getrandbits(63) for k in ("data", "base", "sign", "batch")}


def _exact(report) -> str | None:
    return None if report.exact else f"not exact: {report}"


def _roundtrip_problem(path: Path) -> str | None:
    """save -> load -> save must reproduce the checkpoint bytes."""
    again = path.with_suffix(".again")
    checkpoint.save_checkpoint(checkpoint.load_checkpoint(path), again)
    if again.read_bytes() != path.read_bytes():
        return f"save -> load -> save changed the bytes of {path.name}"
    return None


def _generate(size: Size, seeds: dict[str, int]):
    return datasets.synth_generate(
        REGIME, size.tasks, size.examples, size.input_dim, 2, seeds["data"]
    )


# ----------------------------------------------------------------- lifecycle


class Lifecycle:
    """Per method: build, checkpoint round trip, one deletion, verify, evaluate."""

    def __init__(self, run: Run):
        self.run = run
        self.seeds = _seeds(random.Random(f"lifecycle/{run.seed}"))
        self.spec = run.size.spec
        self.cfg = run.size.train_cfg(self.seeds["batch"])
        self.tasks = run.setup(self._setup)[-1]
        self.round_index = 0

    def _setup(self):
        tasks = _generate(self.run.size, self.seeds)
        # a few finetunes warm numpy and the trainer, so the first build is warm
        m0 = trainer.init_params(self.spec, self.seeds["base"])
        signs = paramcore.gen_sign_vector(self.seeds["sign"], self.spec.param_count)
        for task in tasks[:WARMUP_FINETUNES]:
            trainer.sift_finetune(task, m0, self.spec, signs, self.cfg)
        return tasks

    def restart(self) -> None:
        self.round_index = 0

    def one_pass(self) -> None:
        """One round over the six methods in fixed order."""
        run = self.run
        rng = random.Random(f"lifecycle/{run.seed}/round/{self.round_index}")
        victims = {m: rng.randrange(run.size.tasks) for m in METHODS}
        if self.round_index == 0:
            run.set_ops({"seeds": self.seeds, "victims": victims, "methods": METHODS})
        self.round_index += 1
        start = time.perf_counter()
        totals = Counter()
        for tag in METHODS:
            with contextlib.suppress(OpFailed):
                self._method(tag, victims[tag], totals)
        end = time.perf_counter()
        run.value("pass_s", end - start, start, end)
        if totals["methods"]:
            for metric, value in (
                ("build_finetunes_per_s", totals["build_ft"] / totals["build_s"]),
                ("delete_ms", 1e3 * totals["delete_s"] / totals["methods"]),
                ("verify_finetunes_per_s", totals["replays"] / totals["verify_s"]),
                ("serve_us", 1e6 * totals["eval_s"] / totals["served"]),
            ):
                run.value(metric, value, start, end)

    def _method(self, tag: str, victim: int, totals: Counter) -> None:
        """Run one method's chain; add its timings to ``totals`` if all succeed."""
        run, seeds, tasks = self.run, self.seeds, self.tasks
        path = run.workdir / f"{tag}.sftm"
        system, ledger = run.op(
            "build", engine.build, LocalizationMethod(tag), tasks, self.spec,
            self.cfg, base_seed=seeds["base"], sign_seed=seeds["sign"],
        )
        build_s = run.last_s

        def roundtrip():
            checkpoint.save_checkpoint(checkpoint.checkpoint_from_system(system, ledger), path)
            return checkpoint.system_from_checkpoint(checkpoint.load_checkpoint(path), tasks)

        system = run.op("checkpoint", roundtrip, check=lambda _: _roundtrip_problem(path))
        run.record_checkpoint(path)

        def delete():
            new_system, report, cost = engine.unlearn(system, victim)
            ledger.add(cost)
            checkpoint.save_checkpoint(checkpoint.checkpoint_from_system(new_system, ledger), path)
            return new_system, report

        system, _ = run.op("delete", delete, check=lambda r: _exact(r[1]))
        delete_s = run.last_s
        run.record_checkpoint(path)
        run.op("verify", engine.verify_exactness, system, check=_exact)
        verify_s = run.last_s
        walls, aggregates = [], set()
        for _ in range(EVAL_REPEATS):
            report = run.op("evaluate", engine.evaluate, system, "held_in",
                            check=lambda r: run.accuracy_problem(tag, r.aggregate))
            walls.append(run.last_s)
            aggregates.add(report.aggregate)
        run.check("evaluate", None if len(aggregates) == 1
                  else f"{tag}: repeated evaluations disagree: {sorted(aggregates)}")
        retained = len(system.retained)
        totals.update(methods=1, build_s=build_s, build_ft=ledger.build_finetunes,
                      delete_s=delete_s, verify_s=verify_s, replays=retained,
                      eval_s=statistics.median(walls), served=retained)

    def final_checks(self) -> None:
        """Every operation of a round is checked as it runs."""


# -------------------------------------------------------------- serve-delete


class ServeDelete:
    """A seeded stream of ~95% serves and ~5% deletions on one sift_masks system.

    The stream comes in segments. Each starts from the built system, as after
    a restart, and ends with the deletion that leaves ``min_retained`` tasks.
    """

    def __init__(self, run: Run):
        self.run = run
        self.seeds = _seeds(random.Random(f"serve-delete/{run.seed}"))
        self.spec = run.size.spec
        self.cfg = run.size.train_cfg(self.seeds["batch"])
        self.base_path = run.workdir / "base.sftm"
        self.path = run.workdir / "checkpoint.sftm"
        results = run.setup(self._setup)
        self.tasks = results[-1][0]
        for _, rate, _, t0, t1 in results:
            run.value("build_finetunes_per_s", rate, t0, t1)
        run.check("setup", None if len({digest for _, _, digest, _, _ in results}) == 1
                  else "repeated builds wrote different checkpoints")
        self.queries = {t.id: t.eval_xy()[0] for t in self.tasks}
        self.rows = math.ceil(0.2 * run.size.examples)  # held-out rows per task
        self.segment = 0
        self.system = self.ledger = None

    def _setup(self):
        tasks = _generate(self.run.size, self.seeds)
        start = time.perf_counter()
        system, ledger = engine.build(
            LocalizationMethod("sift_masks"), tasks, self.spec, self.cfg,
            base_seed=self.seeds["base"], sign_seed=self.seeds["sign"],
        )
        end = time.perf_counter()
        checkpoint.save_checkpoint(checkpoint.checkpoint_from_system(system, ledger), self.base_path)
        digest = hashlib.sha256(self.base_path.read_bytes()).hexdigest()
        return tasks, ledger.build_finetunes / (end - start), digest, start, end

    def restart(self) -> None:
        self.segment = 0

    def segment_ops(self, index: int):
        rng = random.Random(f"serve-delete/{self.run.seed}/segment/{index}")
        retained = [t.id for t in self.tasks]
        ops = []
        while len(retained) > self.run.size.min_retained:
            if rng.random() < DELETE_SHARE:
                ops.append(("delete", retained.pop(rng.randrange(len(retained)))))
            else:
                ops.append(("serve", rng.choice(retained)))
        return ops

    def one_pass(self) -> None:
        """One segment; stops early once the clock has run out after a full one."""
        run = self.run
        ops = self.segment_ops(self.segment)
        if self.segment == 0:
            run.set_ops({"seeds": self.seeds, "ops": ops})
        self.segment += 1
        ckpt = checkpoint.load_checkpoint(self.base_path)
        system = checkpoint.system_from_checkpoint(ckpt, self.tasks)
        ledger = ckpt.ledger
        start = time.perf_counter()
        for kind, task_id in ops:
            if run.values["pass_s"] and not run.time_left():
                break
            try:
                if kind == "serve":
                    run.op("serve", self._serve, system, task_id, check=self._labels_problem)
                    run.op_value("serve_us", 1e6 * run.last_s)
                else:
                    system = run.op("delete", self._delete, system, ledger, task_id)
                    run.op_value("delete_ms", 1e3 * run.last_s)
                    run.record_checkpoint(self.path)
            except OpFailed:
                continue
        else:
            end = time.perf_counter()
            run.value("pass_s", end - start, start, end)
        self.system, self.ledger = system, ledger

    def _serve(self, system, task_id):
        params = engine.serve_for_task(system, task_id)
        return trainer.predict_labels(params, self.spec, self.queries[task_id])

    def _labels_problem(self, labels) -> str | None:
        if labels.shape != (self.rows,):
            return f"served labels of shape {labels.shape}, expected ({self.rows},)"
        if labels.min() < 0 or labels.max() >= self.spec.num_classes:
            return "served a label outside the class range"
        return None

    def _delete(self, system, ledger, task_id):
        """Unlearn, then rewrite the checkpoint file as the CLI does."""
        system, report, cost = engine.unlearn(system, task_id)
        if not report.exact:
            raise RuntimeError(f"deletion of task {task_id} not exact: {report}")
        ledger.add(cost)
        checkpoint.save_checkpoint(checkpoint.checkpoint_from_system(system, ledger), self.path)
        return system

    def final_checks(self) -> None:
        """Audit the state the last request left, outside the measured window."""
        run, system = self.run, self.system
        with contextlib.suppress(OpFailed):
            run.op("final_verify", engine.verify_exactness, system, check=_exact)
            run.op_value("verify_finetunes_per_s", len(system.retained) / run.last_s)
        with contextlib.suppress(OpFailed):
            run.op("final_evaluate", engine.evaluate, system, "held_in",
                   check=lambda r: run.accuracy_problem("sift_masks", r.aggregate))
        checkpoint.save_checkpoint(checkpoint.checkpoint_from_system(system, self.ledger), self.path)
        run.check("final_roundtrip", _roundtrip_problem(self.path))


# ----------------------------------------------------------------------- cli


class Cli:
    """The README quickstart; each command is a fresh ``python -m siftmasks.cli``.

    A command runs as ``python -c probe.BOOTSTRAP``, which runs the CLI module
    as ``-m`` does, with the speed probe inside the command's process. With
    ``in_process`` (the traced run) each command calls
    ``siftmasks.cli.main(argv)`` in this process instead.
    """

    def __init__(self, run: Run, src: Path, in_process: bool = False):
        self.run = run
        self.in_process = in_process
        rng = random.Random(f"cli/{run.seed}")
        self.cli_seed = rng.getrandbits(31)
        self.victims = rng.sample(range(run.size.tasks), CLI_DELETIONS)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self.passdir = run.workdir / "pass"
        self.passdir.mkdir(parents=True, exist_ok=True)
        # set-up starts the interpreter and imports the CLI, which fills the
        # page cache and the bytecode cache before the first timed command
        imports = run.setup(self._import_cli)
        bare = []
        for _ in range(run.size.setup_repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            bare.append(time.perf_counter() - start)
        self.import_s = statistics.median(imports) - statistics.median(bare)
        run.set_ops({"argv": self.commands()})

    def _import_cli(self) -> float:
        wall, proc = self._probed([])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import siftmasks.cli: {proc.stderr.strip()[-300:]}")
        return wall

    def _probed(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run ``python -m siftmasks.cli *argv`` under the speed probe.

        With no arguments the process only imports the CLI. Returns the wall
        time and the finished process; the probe's samples join the run's.
        """
        samples = self.run.workdir / "probe.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", probe.BOOTSTRAP, str(Path(probe.__file__).parent),
             str(samples), *argv],
            cwd=self.passdir, env=self.env, capture_output=True, text=True, timeout=170,
        )
        wall = time.perf_counter() - start
        if samples.exists():
            self.run.probe.samples.extend(map(tuple, json.loads(samples.read_text())))
            samples.unlink()
        return wall, proc

    def restart(self) -> None:
        self.in_process = False

    def commands(self) -> list[list[str]]:
        s = self.run.size
        data = ["--data", "run/dataset.jsonl"]
        cfg = ["--config", "run/run_config.json"]
        ckpt = ["--checkpoint", "run/checkpoint.sftm"]
        out = ["--out-dir", "run"]
        ids = [a for v in self.victims for a in ("--id", str(v))]
        return [
            ["gen-data", *out, "--num-tasks", str(s.tasks), "--examples-per-task",
             str(s.examples), "--input-dim", str(s.input_dim), "--num-classes", "2",
             "--hidden-dim", str(s.hidden_dim), "--steps", str(s.steps),
             "--batch-size", str(s.batch_size), "--seed", str(self.cli_seed)],
            ["train", "--config", "run/gen_config.json", *data, *out],
            ["eval", *cfg, *data, *ckpt, "--mode", "held_in", *out],
            ["unlearn", *cfg, *data, *ckpt, *ids, *out],
            ["verify", *cfg, *data, *ckpt, *out],
            ["report", *ckpt, *out],
        ]

    def _invoke(self, argv) -> str | None:
        """Run one command; returns a problem description or None."""
        if self.in_process:
            cwd = os.getcwd()
            os.chdir(self.passdir)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = siftmasks.cli.main(argv)
            finally:
                os.chdir(cwd)
            return None if code == 0 else f"exit code {code}"
        _, proc = self._probed(argv)
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return None

    def one_pass(self) -> None:
        run, size = self.run, self.run.size
        rundir = self.passdir / "run"
        shutil.rmtree(rundir, ignore_errors=True)
        checks = {
            "train": lambda: _roundtrip_problem(rundir / "checkpoint.sftm"),
            "eval": lambda: self._eval_problem(rundir / "eval_held_in.csv"),
            "unlearn": lambda: (self._unlearn_problem(rundir / "exactness.csv")
                                or _roundtrip_problem(rundir / "checkpoint.sftm")),
            "report": lambda: self._report_problem(rundir / "report.json"),
        }
        walls, start = {}, time.perf_counter()
        for argv in self.commands():
            name = argv[0]
            after = checks.get(name, lambda: None)
            try:
                run.op(f"cli.{name}", self._invoke, argv,
                       check=lambda problem, after=after: problem or after())
            except OpFailed:
                return
            walls[name] = (run.last_s, run.last_t0, run.last_t1)
            if name in ("train", "unlearn"):
                run.record_checkpoint(rundir / "checkpoint.sftm")
        run.value("pass_s", sum(w for w, _, _ in walls.values()), start, time.perf_counter())
        for metric, command, value in (
            ("build_finetunes_per_s", "train", lambda s: size.tasks / s),
            ("serve_us", "eval", lambda s: 1e6 * s / size.tasks),
            ("delete_ms", "unlearn", lambda s: 1e3 * s / CLI_DELETIONS),
            ("verify_finetunes_per_s", "verify", lambda s: (size.tasks - CLI_DELETIONS) / s),
        ):
            wall, t0, t1 = walls[command]
            run.value(metric, value(wall), t0, t1)

    def _eval_problem(self, path: Path) -> str | None:
        rows = [r.split(",") for r in path.read_text().splitlines()]
        aggregate = [r for r in rows if r[3] == "aggregate_held_in"]
        if len(aggregate) != 1:
            return "eval wrote no aggregate row"
        return self.run.accuracy_problem("sift_masks", float(aggregate[0][4]))

    def _unlearn_problem(self, path: Path) -> str | None:
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        flags = [r[4] for r in rows if r[3] in ("replay_matches", "state_matches_oracle")]
        if len(flags) != 2 * CLI_DELETIONS or set(flags) != {"1"}:
            return f"unlearn reported {flags}"
        return None

    def _report_problem(self, path: Path) -> str | None:
        doc = json.loads(path.read_text())
        tasks = self.run.size.tasks
        got = (doc["retained"], doc["unlearned"], doc["ledger"]["build_finetunes"],
               doc["ledger"]["unlearn_finetunes"])
        want = (tasks - CLI_DELETIONS, CLI_DELETIONS, tasks, CLI_DELETIONS)
        return None if got == want else f"report gives {got}, expected {want}"

    def final_checks(self) -> None:
        """Every command of a pass is checked as it runs."""


WORKLOADS = {"lifecycle": Lifecycle, "serve-delete": ServeDelete, "cli": Cli}
