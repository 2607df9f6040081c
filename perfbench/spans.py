"""Per-layer timing for the traced benchmark run.

Spans are recorded only here, around calls into each layer's public
functions. ``installed`` swaps every traced function for a thin wrapper in
each ``siftmasks`` module that holds a reference to it, which is where
callers look it up (``siftmasks.engine.sift_finetune`` as well as
``siftmasks.trainer.sift_finetune``), and patches methods on their class
(``BitMask.to_bools``). A wrapper reads the clock and adds to counters; it
never touches arguments, results, RNG state or arithmetic, so traced and
untraced runs compute the same bits.

Spans are aggregated in memory by name: call count, inclusive time and self
time (inclusive time minus the time covered by child spans). Because every
span's self time is counted exactly once, the self times of all names add up
to the inclusive time of the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

_NS = 1e-9


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _finetune_counts(args, kwargs, result):
    tv = result[0] if isinstance(result, tuple) else result
    return {"trainer.finetune.steps": tv.steps_used}


def _build_counts(args, kwargs, result):
    return {"engine.ledger.build_finetunes": result[1].build_finetunes}


def _unlearn_counts(args, kwargs, result):
    return {
        "engine.ledger.unlearn_finetunes": result[2].unlearn_finetunes,
        "engine.unlearn.deletions": 1,
    }


def _bytes_of(index, name, counter):
    def counts(args, kwargs, result):
        return {counter: os.path.getsize(_arg(args, kwargs, index, name))}

    return counts


# (module, attribute, span name, counter hook). The span name of engine.build
# and engine.unlearn gets the method tag appended at call time.
FUNCTIONS = (
    ("siftmasks.trainer", "ft_finetune", "trainer.finetune", _finetune_counts),
    ("siftmasks.trainer", "sift_finetune", "trainer.finetune", _finetune_counts),
    ("siftmasks.trainer", "loss_and_grad", "trainer.loss_and_grad", None),
    ("siftmasks.trainer", "adam_step", "trainer.adam_step", None),
    ("siftmasks.trainer", "project_sign", "trainer.project_sign", None),
    ("siftmasks.trainer", "init_params", "trainer.init_params", None),
    ("siftmasks.trainer", "predict_logits", "trainer.predict_logits", None),
    ("siftmasks.trainer", "accuracy", "trainer.accuracy", None),
    ("siftmasks.paramcore", "mask_apply", "paramcore.mask_apply", None),
    ("siftmasks.paramcore", "dequantize", "paramcore.dequantize", None),
    ("siftmasks.paramcore", "quantize", "paramcore.quantize", None),
    ("siftmasks.paramcore", "fxp_add", "paramcore.fxp_add", None),
    ("siftmasks.paramcore", "fxp_sub", "paramcore.fxp_sub", None),
    ("siftmasks.paramcore", "gen_sign_vector", "paramcore.gen_sign_vector", None),
    ("siftmasks.merging", "tall_tune", "merging.tall_tune", None),
    ("siftmasks.merging", "tall_lambda_for_density", "merging.tall_lambda_for_density", None),
    ("siftmasks.merging", "tall_mask", "merging.tall_mask", None),
    ("siftmasks.merging", "emr_build", "merging.emr_build", None),
    ("siftmasks.merging", "ties_merge", "merging.ties_merge", None),
    ("siftmasks.merging", "merge", "merging.merge", None),
    ("siftmasks.merging", "unmerge", "merging.unmerge", None),
    ("siftmasks.merging", "localize_sift", "merging.localize_sift", None),
    ("siftmasks.engine", "build", "engine.build", _build_counts),
    ("siftmasks.engine", "unlearn", "engine.unlearn", _unlearn_counts),
    ("siftmasks.engine", "verify_exactness", "engine.verify_exactness", None),
    ("siftmasks.engine", "serve_for_task", "engine.serve_for_task", None),
    ("siftmasks.engine", "evaluate", "engine.evaluate", None),
    ("siftmasks.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint",
     _bytes_of(1, "path", "checkpoint.save_checkpoint.bytes")),
    ("siftmasks.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint",
     _bytes_of(0, "path", "checkpoint.load_checkpoint.bytes")),
    ("siftmasks.checkpoint", "checkpoint_from_system", "checkpoint.checkpoint_from_system", None),
    ("siftmasks.checkpoint", "system_from_checkpoint", "checkpoint.system_from_checkpoint", None),
    ("siftmasks.datasets", "synth_generate", "datasets.synth_generate", None),
    ("siftmasks.datasets", "save_tasks", "datasets.save_tasks",
     _bytes_of(1, "path", "datasets.save_tasks.bytes")),
    ("siftmasks.datasets", "load_tasks", "datasets.load_tasks",
     _bytes_of(0, "path", "datasets.load_tasks.bytes")),
    ("siftmasks.cli", "main", "cli.main", None),
)

# (module, class, method, span name); from_bools is a classmethod
METHODS = (
    ("siftmasks.prng", "PrngStream", "randint_block", "prng.randint_block"),
    ("siftmasks.prng", "PrngStream", "gaussian_block", "prng.gaussian_block"),
    ("siftmasks.paramcore", "BitMask", "to_bools", "paramcore.BitMask.to_bools"),
    ("siftmasks.paramcore", "BitMask", "from_bools", "paramcore.BitMask.from_bools"),
    ("siftmasks.datasets", "TaskSpec", "train_xy", "datasets.TaskSpec.train_xy"),
)

_TAGGED = {"engine.build": lambda a, kw: _arg(a, kw, 0, "method").tag,
           "engine.unlearn": lambda a, kw: _arg(a, kw, 0, "system").method.tag}


class Tracer:
    """In-memory span aggregate: name -> [calls, inclusive ns, self ns]."""

    def __init__(self):
        self.spans: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: Counter = Counter()
        self._child_ns: list[int] = []

    def _close(self, name, start):
        elapsed = time.perf_counter_ns() - start
        child = self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += elapsed
        entry = self.spans[name]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child

    def call(self, name, fn, args, kwargs):
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark itself (the root span)."""
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, start)

    def calls(self, name) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def seconds(self, name) -> float:
        return self.spans[name][1] * _NS if name in self.spans else 0.0

    def self_seconds(self, name) -> float:
        return self.spans[name][2] * _NS if name in self.spans else 0.0

    def table(self) -> dict:
        return {
            name: {"calls": c, "s": incl * _NS, "self_s": own * _NS}
            for name, (c, incl, own) in sorted(self.spans.items())
        }

    def _wrap(self, fn, name, hook):
        tag_of = _TAGGED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = f"{name}.{tag_of(args, kwargs)}" if tag_of else name
            result = self.call(span, fn, args, kwargs)
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function and method; restore them on exit."""
        import siftmasks.cli  # noqa: F401  (load every module before patching)

        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "siftmasks" or n.startswith("siftmasks.")]
        try:
            for mod_name, attr, name, hook in FUNCTIONS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            for mod_name, cls_name, attr, name in METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                raw = cls.__dict__[attr]
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, None)))
                else:
                    setattr(cls, attr, self._wrap(raw, name, None))
            group = sys.modules["siftmasks.cli"].cli
            for cmd_name, command in group.commands.items():
                undo.append((command, "callback", command.callback))
                command.callback = self._wrap(command.callback, f"cli.{cmd_name}", None)
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


QUICKSTART = ("gen-data", "train", "eval", "unlearn", "verify", "report")
SPAN_NAMES = tuple(sorted(
    {name for _, _, name, _ in FUNCTIONS if name not in _TAGGED}
    | {name for *_, name in METHODS}
))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, methods, cpu_s: float, import_s: float) -> dict:
    """Every per-layer metric of a traced run, zero for layers it never called."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.s"] = tracer.seconds(name)
        out[f"{name}.self_s"] = tracer.self_seconds(name)
    for tag in methods:
        out[f"engine.build.{tag}.s"] = tracer.seconds(f"engine.build.{tag}")
        out[f"engine.unlearn.{tag}.s"] = tracer.seconds(f"engine.unlearn.{tag}")
    for command in QUICKSTART:
        out[f"cli.{command}.s"] = tracer.seconds(f"cli.{command}")
    # the CLI's own time: click, RunConfig and CSV/JSON writing, which run in
    # cli.main and in the command callbacks outside every other layer's span
    out["cli.main.self_s"] = sum(
        tracer.self_seconds(n) for n in tracer.spans if n.startswith("cli."))
    out["cli.import_s"] = import_s
    counts = tracer.counts
    for name in ("checkpoint.save_checkpoint.bytes", "checkpoint.load_checkpoint.bytes",
                 "datasets.save_tasks.bytes", "datasets.load_tasks.bytes",
                 "engine.ledger.build_finetunes", "engine.ledger.unlearn_finetunes"):
        out[name] = counts[name]
    out["trainer.us_per_step"] = 1e6 * _ratio(
        tracer.seconds("trainer.finetune"), counts["trainer.finetune.steps"])
    out["paramcore.unpacks_per_serve"] = _ratio(
        tracer.calls("paramcore.BitMask.to_bools"), tracer.calls("engine.serve_for_task"))
    out["merging.tall_masks_per_lambda"] = _ratio(
        tracer.calls("merging.tall_mask"), tracer.calls("merging.tall_lambda_for_density"))
    out["engine.unlearn.useful_ratio"] = _ratio(
        counts["engine.unlearn.deletions"], counts["engine.ledger.unlearn_finetunes"])
    out["proc.cpu_s"] = cpu_s
    return out
