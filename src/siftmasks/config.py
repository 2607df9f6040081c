"""Run configuration: one JSON document, one top-level seed.

Every field is explicit in the serialized form (no hidden defaults), and all
randomness in a run flows from `seed` through labeled child streams: data
generation, parameter init, the sign vector, batch sampling, and clustering.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .engine import CENTRAL_MAX_STEPS_DEFAULT
from .merging import ALPHA_GRID_DEFAULT, DENSITY_GRID_DEFAULT, METHOD_TAGS
from .prng import mix_seed

DATASET_SOURCES = ("synthetic", "file")


class ConfigError(ValueError):
    """The run configuration is missing fields or holds invalid values."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    method: str = "sift_masks"
    out_dir: str = "runs/out"
    # dataset
    dataset_source: str = "synthetic"
    dataset_path: str | None = None
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
        if self.method not in METHOD_TAGS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.dataset_source not in DATASET_SOURCES:
            raise ConfigError(f"dataset_source must be one of {DATASET_SOURCES}")
        if self.dataset_source == "file" and not self.dataset_path:
            raise ConfigError("dataset_source 'file' requires dataset_path")
        if self.clusters < 1:
            raise ConfigError("clusters must be >= 1")

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
        doc = asdict(self)
        doc["density_grid"] = list(self.density_grid)
        doc["alpha_grid"] = list(self.alpha_grid)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
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
        for grid in ("density_grid", "alpha_grid"):
            if grid in doc:
                doc[grid] = tuple(doc[grid])
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf8") as fh:
            fh.write(self.to_json())
