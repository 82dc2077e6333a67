"""Two-stage multigraph message passing with exact manual gradients."""

from .agg import AggSpec, GroupedFeatures, segment_reduce
from .graph import (
    Multigraph,
    SupportIndex,
    apply_permutation,
    build_reverse_index,
    build_support_index,
    random_connected_multigraph,
)
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .nn import weighted_bce_loss
from .train import ExperimentRecord, TaskData, TrainConfig, train_model

__version__ = "0.1.0"

__all__ = [
    "AggSpec",
    "ExperimentRecord",
    "GroupedFeatures",
    "Model",
    "ModelConfig",
    "Multigraph",
    "SupportIndex",
    "TaskData",
    "TrainConfig",
    "apply_permutation",
    "build_reverse_index",
    "build_support_index",
    "load_checkpoint",
    "random_connected_multigraph",
    "save_checkpoint",
    "segment_reduce",
    "train_model",
    "weighted_bce_loss",
]
