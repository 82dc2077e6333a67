"""Training and evaluation driver for node- and edge-level tasks.

Desk-scale trainer: the whole graph fits in memory, mini-batches partition
the labeled items (nodes or edges) and every step runs a full-graph
forward pass with the loss restricted to the batch. Model selection keeps
the parameters with the best validation minority-class F1.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import Multigraph, build_reverse_index, build_support_index
from .heap import trimmed_heap
from .metrics import evaluate_scores
from .model import Model, ModelConfig
from .nn import AdamState, NnError, adam_step, weighted_bce_loss


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; the defaults are the reference ones,
    which the command line also builds from.

    Widths, depth and the dropout used live in ModelConfig. The dropout
    field here is recorded but never read; it stays because the benchmark
    harness (perfbench/workloads.py) passes it.
    """

    learning_rate: float = 0.003
    batch_size: int = 8192
    dropout: float = 0.1
    class_weights: tuple[float, float] = (1.0, 6.27)
    epochs: int = 80
    patience: int = 10

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise NnError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise NnError("dropout must be in [0, 1)")
        if min(self.batch_size, self.epochs) < 1 or self.patience < 0:
            raise NnError("batch_size and epochs must be >= 1, patience >= 0")
        if self.class_weights[0] <= 0 or self.class_weights[1] <= 0:
            raise NnError("class weights must be positive")


@dataclass
class ExperimentRecord:
    """Everything needed to reproduce and audit one training run."""

    config: dict
    seed: int
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_f1s: list[float] = field(default_factory=list)
    final_metrics: dict = field(default_factory=dict)
    best_epoch: int = -1
    wall_clock: float = 0.0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


@dataclass
class TaskData:
    """A graph plus labeled items and their split."""

    graph: Multigraph
    labels: np.ndarray        # aligned with items
    items: np.ndarray         # node ids (node task) or edge ids (edge task)
    task_type: str            # "node" or "edge"
    train_idx: np.ndarray     # indices into items
    val_idx: np.ndarray
    test_idx: np.ndarray


def random_item_split(num_items: int, seed: int,
                      fractions=(0.6, 0.2, 0.2)):
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_items)
    n1 = int(num_items * fractions[0])
    n2 = int(num_items * (fractions[0] + fractions[1]))
    return order[:n1], order[n1:n2], order[n2:]


@trimmed_heap()
def train_model(task: TaskData, model_config: ModelConfig,
                train_config: TrainConfig, seed: int):
    """Train one model; returns (model, ExperimentRecord).

    The heap is trimmed when the run starts and when it ends
    (heap.trimmed_heap), so the run holds only what it keeps alive.
    """
    start = time.perf_counter()
    g = task.graph
    supp = build_support_index(g)
    rev = (build_reverse_index(g, supp)
           if model_config.two_stage and model_config.bidirectional else None)
    roots = task.items if task.task_type == "node" else None

    model = Model(model_config, g.node_features.shape[1],
                  g.edge_features.shape[1], seed=seed)
    adam = AdamState.zeros(model.params.size, model.params.dtype)
    rng = np.random.default_rng(seed + 1)
    weights = train_config.class_weights

    record = ExperimentRecord(
        config={"model": asdict(model_config),
                "train": asdict(train_config),
                "task_type": task.task_type},
        seed=seed,
    )
    best_f1 = -1.0
    best_params = model.params.copy()
    stale = 0
    step = 0

    for epoch in range(train_config.epochs):
        order = rng.permutation(task.train_idx.size)
        epoch_losses = []
        for lo in range(0, order.size, train_config.batch_size):
            batch = task.train_idx[order[lo:lo + train_config.batch_size]]
            items = task.items[batch]
            logits, cache = model.forward(g, supp, rev, roots=roots,
                                          train_mode=True, seed=seed * 7919 + step)
            step += 1
            batch_logits = logits[items]
            if not np.isfinite(batch_logits).all():
                raise TrainingError(f"non-finite logits at epoch {epoch}")
            loss, dlogits_batch = weighted_bce_loss(batch_logits,
                                                    task.labels[batch], weights)
            if not np.isfinite(loss):
                record.final_metrics = {"aborted": True, "loss": float(loss)}
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            dlogits = np.zeros_like(logits)
            dlogits[items] = dlogits_batch
            model.backward(cache, dlogits)
            adam_step(model.params, model.grads, adam,
                      train_config.learning_rate)
            epoch_losses.append(loss)
        record.train_losses.append(float(np.mean(epoch_losses)))

        val_logits, _ = model.forward(g, supp, rev, roots=roots)
        val_items = task.items[task.val_idx]
        if not np.isfinite(val_logits).all():
            raise TrainingError(f"non-finite logits at epoch {epoch}")
        val_loss, _ = weighted_bce_loss(val_logits[val_items],
                                        task.labels[task.val_idx], weights)
        val_metrics = evaluate_scores(val_logits[val_items],
                                      task.labels[task.val_idx])
        record.val_losses.append(float(val_loss))
        record.val_f1s.append(val_metrics["f1"])
        if val_metrics["f1"] > best_f1:
            best_f1 = val_metrics["f1"]
            best_params = model.params.copy()
            record.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > train_config.patience:
                break

    model.params[...] = best_params
    test_logits, _ = model.forward(g, supp, rev, roots=roots)
    test_items = task.items[task.test_idx]
    record.final_metrics = evaluate_scores(test_logits[test_items],
                                           task.labels[task.test_idx])
    record.wall_clock = time.perf_counter() - start
    return model, record


def evaluate_model(model: Model, task: TaskData, split: str = "test") -> dict:
    g = task.graph
    supp = build_support_index(g)
    rev = (build_reverse_index(g, supp)
           if model.config.two_stage and model.config.bidirectional else None)
    roots = task.items if task.task_type == "node" else None
    logits, _ = model.forward(g, supp, rev, roots=roots)
    idx = {"train": task.train_idx, "val": task.val_idx,
           "test": task.test_idx}[split]
    items = task.items[idx]
    return evaluate_scores(logits[items], task.labels[idx])
