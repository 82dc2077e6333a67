"""Training and evaluation driver for node- and edge-level tasks.

Desk-scale trainer: the whole graph fits in memory and mini-batches
partition the labeled items (nodes or edges). Every forward runs on the
exact receptive field of the items whose logits it returns: a view from
data.sample_neighborhood with hops = num_layers and every neighbour
taken, or the whole graph when that walk reaches every node. Each train
step builds its batch's view, except that a batch holding the whole train
split builds it once; validation and test build theirs once per run. Eval
logits through a view are the whole graph's, and so are a train step's
when dropout is 0 (its masks are drawn over the view's rows). The loss
reads the batch's logits and its gradient goes to backward as is. Model
selection keeps the parameters with the best validation minority-class
F1. Training and evaluation refuse an empty split and, since no ego node
is marked, an ego_ids model (ConfigError).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import ConfigError, sample_neighborhood
from .graph import Multigraph, build_reverse_index, build_support_index
from .heap import trimmed_heap
from .metrics import evaluate_scores
from .model import Model, ModelConfig, ModelError
from .nn import AdamState, NnError, adam_step, weighted_bce_loss


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; the defaults are the reference ones,
    which the command line also builds from.

    Widths, depth and the dropout used live in ModelConfig; train_model
    refuses a dropout here that differs from the model's (ConfigError).
    """

    learning_rate: float = 0.003
    batch_size: int = 8192
    dropout: float = 0.1
    class_weights: tuple[float, float] = (1.0, 6.27)
    epochs: int = 80
    patience: int = 10

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise NnError("learning_rate must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise NnError("dropout must be in [0, 1)")
        if min(self.batch_size, self.epochs) < 1 or self.patience < 0:
            raise NnError("batch_size and epochs must be >= 1, patience >= 0")
        if not all(0 < w < np.inf for w in self.class_weights):
            raise NnError("class weights must be positive and finite")


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


def random_item_split(num_items: int, seed: int):
    """A random 60/20/20 train/val/test split of range(num_items)."""
    order = np.random.default_rng(seed).permutation(num_items)
    n1, n2 = int(num_items * 0.6), int(num_items * 0.8)
    return order[:n1], order[n1:n2], order[n2:]


def node_split(num_items: int, seed: int) -> dict:
    """The train/val/test split of a node task's items under a run seed."""
    tr, va, te = random_item_split(num_items, seed + 101)
    return dict(train_idx=tr, val_idx=va, test_idx=te)


@trimmed_heap()
def train_model(task: TaskData, model_config: ModelConfig,
                train_config: TrainConfig, seed: int):
    """Train one model; returns (model, ExperimentRecord).

    The model's readout must match the task type (ModelError otherwise);
    an empty split, an ego_ids model and a train_config.dropout other than
    the model's raise ConfigError. The heap is trimmed when the run starts
    and when it ends (heap.trimmed_heap), so the run holds only what it
    keeps alive.
    """
    _check_model(model_config, task, "train on")
    for split in ("train", "val", "test"):
        _split_items(task, split)
    if train_config.dropout != model_config.dropout:
        raise ConfigError(f"TrainConfig.dropout {train_config.dropout} is "
                          f"not the model's dropout {model_config.dropout}")
    start = time.perf_counter()
    g = task.graph
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)       # the model decides if it reads it
    hops = model_config.num_layers
    val_view = _view(task, task.val_idx, supp, rev, hops)
    val_rows = val_view.local(task.items[task.val_idx], task.task_type)

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
    step = 0
    v = None

    for epoch in range(train_config.epochs):
        order = rng.permutation(task.train_idx.size)
        epoch_losses = []
        for lo in range(0, order.size, train_config.batch_size):
            batch = task.train_idx[order[lo:lo + train_config.batch_size]]
            # a batch of the whole split holds the same items every step
            if v is None or batch.size < order.size:
                v = _view(task, batch, supp, rev, hops)
            rows = v.local(task.items[batch], task.task_type)
            logits, cache = model.forward(v.graph, v.supp, v.rev,
                                          train_mode=True,
                                          seed=seed * 7919 + step, rows=rows)
            step += 1
            if not np.isfinite(logits).all():
                raise TrainingError(f"non-finite logits at epoch {epoch}")
            loss, dlogits = weighted_bce_loss(logits, task.labels[batch],
                                              weights)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            model.backward(cache, dlogits)
            adam_step(model.params, model.grads, adam,
                      train_config.learning_rate)
            epoch_losses.append(loss)
        record.train_losses.append(float(np.mean(epoch_losses)))

        val_logits, _ = model.forward(val_view.graph, val_view.supp,
                                      val_view.rev, rows=val_rows)
        if not np.isfinite(val_logits).all():
            raise TrainingError(f"non-finite logits at epoch {epoch}")
        val_loss, _ = weighted_bce_loss(val_logits, task.labels[task.val_idx],
                                        weights)
        val_metrics = evaluate_scores(val_logits, task.labels[task.val_idx])
        record.val_losses.append(float(val_loss))
        record.val_f1s.append(val_metrics["f1"])
        if val_metrics["f1"] > best_f1:
            best_f1 = val_metrics["f1"]
            best_params = model.params.copy()
            record.best_epoch = epoch
        elif epoch - record.best_epoch > train_config.patience:
            break

    model.params[...] = best_params
    del val_view, v
    record.final_metrics = _evaluate(model, task, task.test_idx, supp, rev)
    record.wall_clock = time.perf_counter() - start
    return model, record


def _check_model(config: ModelConfig, task: TaskData, verb: str) -> None:
    if config.readout != task.task_type:
        raise ModelError(f"a {config.readout}-readout model cannot "
                         f"{verb} a {task.task_type} task")
    if config.ego_ids:
        raise ConfigError("ego_ids waits for sampled training: no forward "
                          "here marks an ego node")


def _split_items(task: TaskData, split: str) -> np.ndarray:
    """The indices into task.items of one split; ConfigError for an unknown
    or empty split."""
    idx = {"train": task.train_idx, "val": task.val_idx,
           "test": task.test_idx}.get(split)
    if idx is None:
        raise ConfigError(f"split {split!r} is not train, val or test")
    if len(idx) == 0:
        raise ConfigError(f"the {split} split of the task is empty")
    return idx


def _view(task: TaskData, idx, supp, rev, hops: int):
    """The exact receptive field of task.items[idx], hops layers deep."""
    seeds = "seed_edges" if task.task_type == "edge" else "seed_nodes"
    return sample_neighborhood(task.graph, supp, rev, hops=hops, per_hop=None,
                               **{seeds: task.items[idx]})


def _evaluate(model: Model, task: TaskData, idx, supp, rev) -> dict:
    """Metrics of model on task.items[idx], from an eval forward on their
    receptive field."""
    v = _view(task, idx, supp, rev, model.config.num_layers)
    logits, _ = model.forward(v.graph, v.supp, v.rev,
                              rows=v.local(task.items[idx], task.task_type))
    return evaluate_scores(logits, task.labels[idx])


def evaluate_model(model: Model, task: TaskData, split: str = "test") -> dict:
    """Metrics of model on one split ("train", "val" or "test") of task,
    computed on the split's receptive field (as in train_model). The task
    type must match the model's readout (ModelError otherwise); an ego_ids
    model or an unknown or empty split raises ConfigError."""
    _check_model(model.config, task, "evaluate")
    idx = _split_items(task, split)
    supp = build_support_index(task.graph)
    return _evaluate(model, task, idx, supp,
                     build_reverse_index(task.graph, supp))
