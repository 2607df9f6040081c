"""Exact machine unlearning via task-vector merging with sign-fixed masks."""

from .config import RunConfig
from .datasets import HeterogeneityRegime, TaskSpec, load_tasks, save_tasks, synth_generate
from .engine import (
    CostLedger,
    EvalReport,
    ExactnessReport,
    SystemState,
    build,
    cluster_random,
    evaluate,
    project_total_cost,
    unlearn,
    verify_exactness,
)
from .merging import (
    LocalizationMethod,
    MergedState,
    emr_build,
    localize_sift,
    merge,
    serve_merged,
    tall_mask,
    ties_merge,
    unmerge,
)
from .paramcore import BitMask, FxpVector, dequantize, gen_sign_vector, quantize
from .prng import PrngStream, mix_seed
from .trainer import (
    AdamState,
    ModelSpec,
    TaskVector,
    TrainConfig,
    adam_step,
    ft_finetune,
    init_params,
    loss_and_grad,
    project_sign,
    sift_finetune,
)

__version__ = "0.1.0"
