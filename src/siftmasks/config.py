"""Run configuration: one JSON document, one top-level seed.

Every field is explicit in the serialized form (no hidden defaults), and all
randomness in a run flows from `seed` through labeled child streams: data
generation, parameter init, the sign vector, batch sampling, and clustering.

A config is checked once, when made: ``RunConfig`` checks each field's type,
then builds the objects its fields feed (``model_spec``, ``train_cfg``,
``localization`` and, for a synthetic run, ``heterogeneity``, whose task and
cluster counts it checks too). A value they reject is a ``ConfigError``
naming the fields that feed it. The objects are attributes, not fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property

from .datasets import HeterogeneityRegime, check_synthetic
from .engine import CENTRAL_MAX_STEPS_DEFAULT, cluster_sizes
from .merging import ALPHA_GRID_DEFAULT, DENSITY_GRID_DEFAULT, LocalizationMethod
from .prng import mix_seed
from .trainer import ModelSpec, TrainConfig


class ConfigError(ValueError):
    """The run configuration is missing fields or holds invalid values."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    method: str = "sift_masks"
    out_dir: str = "runs/out"
    # dataset: the JSONL file when set, else the synthetic regime below
    data: str | None = None
    regime: str = "conflicting"
    conflict_rate: float = 0.5
    margin: float = 1.0
    num_tasks: int = 8
    examples_per_task: int = 64
    input_dim: int = 20
    num_classes: int = 2
    # model
    model_kind: str = "mlp"
    hidden_dim: int = 32
    # training
    steps: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    central_max_steps: int = CENTRAL_MAX_STEPS_DEFAULT
    # localization
    density_grid: tuple[float, ...] = DENSITY_GRID_DEFAULT
    alpha_grid: tuple[float, ...] = ALPHA_GRID_DEFAULT
    ties_density: float = 1.0
    # system
    clusters: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, f.type):
                raise ConfigError(f"config field {f.name!r} must be {f.type}, got {value!r}")
            if f.type.startswith("tuple"):
                object.__setattr__(self, f.name, tuple(value))
        if self.central_max_steps < 0:
            raise ConfigError("config field 'central_max_steps' must be >= 0")
        checks = {
            "model_kind, input_dim, num_classes, hidden_dim": lambda: self.model_spec,
            "steps, batch_size, learning_rate": lambda: self.train_cfg,
            "method, density_grid, alpha_grid, ties_density": lambda: self.localization,
        }
        if self.data is None:  # a synthetic run: its tasks must be drawable
            checks["regime, conflict_rate, margin"] = lambda: self.heterogeneity
            checks["regime, num_tasks, examples_per_task, input_dim, num_classes"] = (
                lambda: check_synthetic(self.heterogeneity, self.num_tasks,
                                        self.examples_per_task, self.input_dim, self.num_classes)
            )
            checks["clusters, num_tasks"] = lambda: cluster_sizes(self.num_tasks, self.clusters)
        for names, check in checks.items():
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"config fields {names}: {exc}") from None

    # the library objects the fields feed: attributes, not fields
    @cached_property
    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.model_kind, self.input_dim, self.num_classes, self.hidden_dim)

    @cached_property
    def train_cfg(self) -> TrainConfig:
        return TrainConfig(self.steps, self.batch_size, self.learning_rate, seed=self.batch_seed)

    @cached_property
    def localization(self) -> LocalizationMethod:
        return LocalizationMethod(self.method, self.density_grid, self.alpha_grid, self.ties_density)

    @cached_property
    def heterogeneity(self) -> HeterogeneityRegime:
        return HeterogeneityRegime(self.regime, self.conflict_rate, self.margin)

    # labeled child seeds; pure functions of the top-level seed
    @property
    def data_seed(self) -> int:
        return mix_seed(self.seed, "data")

    @property
    def init_seed(self) -> int:
        return mix_seed(self.seed, "init")

    @property
    def sign_seed(self) -> int:
        return mix_seed(self.seed, "signs")

    @property
    def batch_seed(self) -> int:
        return mix_seed(self.seed, "batches")

    @property
    def cluster_seed(self) -> int:
        return mix_seed(self.seed, "clustering")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"  # tuples as lists

    @classmethod
    def from_json(cls, text: str, **overrides) -> "RunConfig":
        """The config of a JSON document with ``overrides`` set over it."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return cls(**{**doc, **overrides})  # every field is known; __post_init__ checks all

    @classmethod
    def load(cls, path, **overrides) -> "RunConfig":
        with open(path, "r", encoding="utf8") as fh:
            return cls.from_json(fh.read(), **overrides)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf8") as fh:
            fh.write(self.to_json())


def _conforms(value, annotation: str) -> bool:
    """Whether a value has its field's annotated type as JSON gives it: an int
    field takes an integer, a float field any number, a grid a list or tuple
    of numbers; a bool is no number."""
    if annotation.startswith("tuple"):
        return isinstance(value, (list, tuple)) and all(_conforms(x, "float") for x in value)
    kinds = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}
    return isinstance(value, kinds[annotation]) and not isinstance(value, bool)
