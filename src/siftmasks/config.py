"""Run configuration: one JSON document, one top-level seed.

Every field is explicit in the serialized form (no hidden defaults), and all
randomness in a run flows from `seed` through labeled child streams: data
generation, parameter init, the sign vector, batch sampling, and clustering.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .engine import CENTRAL_MAX_STEPS_DEFAULT
from .merging import ALPHA_GRID_DEFAULT, DENSITY_GRID_DEFAULT, METHOD_TAGS
from .prng import mix_seed


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
        if self.method not in METHOD_TAGS:
            raise ConfigError(f"unknown method {self.method!r}")
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
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"  # tuples as lists

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
        return cls(**doc)  # every field is known, and __post_init__ checks its type

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf8") as fh:
            return cls.from_json(fh.read())

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
