import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from meganet import train as train_module
from meganet.agg import AggSpec
from meganet.data import ConfigError, generate_planted_task
from meganet.graph import build_support_index, random_connected_multigraph
from meganet.model import Model, ModelConfig, ModelError
from meganet.nn import NnError
from meganet.train import (
    ExperimentRecord,
    TaskData,
    TrainConfig,
    TrainingError,
    evaluate_model,
    random_item_split,
    train_model,
)


def small_task(seed=0, num_nodes=60):
    g, labels = generate_planted_task(num_nodes, 2, 2, "max_of_sums", seed)
    items = np.flatnonzero(labels >= 0)
    tr, va, te = random_item_split(items.size, seed + 1)
    return TaskData(graph=g, labels=labels[items], items=items,
                    task_type="node", train_idx=tr, val_idx=va, test_idx=te)


def fast_configs():
    mc = ModelConfig(num_layers=1, bidirectional=False, readout="node",
                     hidden_node=8, hidden_edge=8, mlp_hidden=8, dropout=0.0)
    tc = TrainConfig(learning_rate=0.01, batch_size=1024, dropout=0.0,
                     class_weights=(1.0, 3.0), epochs=4, patience=10)
    return mc, tc


def test_random_item_split_partitions():
    tr, va, te = random_item_split(100, seed=0)
    joined = np.concatenate([tr, va, te])
    assert sorted(joined.tolist()) == list(range(100))
    assert len(tr) == 60 and len(va) == 20 and len(te) == 20


def test_train_model_record_shape():
    task = small_task()
    mc, tc = fast_configs()
    model, rec = train_model(task, mc, tc, seed=0)
    assert len(rec.train_losses) == len(rec.val_losses) == len(rec.val_f1s)
    assert 0 < len(rec.train_losses) <= tc.epochs
    assert set(rec.final_metrics) >= {"f1", "precision", "recall", "pr_auc"}
    assert rec.best_epoch >= 0
    assert rec.wall_clock > 0
    assert rec.config["model"]["num_layers"] == 1


def test_train_deterministic_given_seed():
    task = small_task()
    mc, tc = fast_configs()
    _, rec1 = train_model(task, mc, tc, seed=3)
    _, rec2 = train_model(task, mc, tc, seed=3)
    d1, d2 = asdict(rec1), asdict(rec2)
    d1.pop("wall_clock"), d2.pop("wall_clock")
    assert d1 == d2


def test_train_seed_changes_trajectory():
    task = small_task()
    mc, tc = fast_configs()
    _, rec1 = train_model(task, mc, tc, seed=0)
    _, rec2 = train_model(task, mc, tc, seed=1)
    assert rec1.train_losses != rec2.train_losses


def test_record_save_is_json(tmp_path):
    task = small_task()
    mc, tc = fast_configs()
    _, rec = train_model(task, mc, tc, seed=0)
    p = tmp_path / "rec.json"
    rec.save(p)
    loaded = json.loads(p.read_text())
    assert loaded["seed"] == 0
    assert loaded["final_metrics"] == rec.final_metrics


def test_record_json_bytes_pinned(tmp_path):
    rec = ExperimentRecord(config={"model": {"b": 1, "a": [0.5]},
                                   "task_type": "node"},
                           seed=3, train_losses=[0.25, 0.125], val_losses=[0.5],
                           val_f1s=[1.0], final_metrics={"f1": 0.75},
                           best_epoch=0, wall_clock=1.5)
    p = tmp_path / "rec.json"
    rec.save(p)
    assert p.read_text() == (
        '{\n  "best_epoch": 0,\n  "config": {\n    "model": {\n      "a": [\n'
        '        0.5\n      ],\n      "b": 1\n    },\n    "task_type": "node"\n'
        '  },\n  "final_metrics": {\n    "f1": 0.75\n  },\n  "seed": 3,\n'
        '  "train_losses": [\n    0.25,\n    0.125\n  ],\n  "val_f1s": [\n'
        '    1.0\n  ],\n  "val_losses": [\n    0.5\n  ],\n  "wall_clock": 1.5\n}')


def test_model_selection_breaks_f1_ties_by_validation_loss():
    """With no positive label, validation F1 reads 0 in every epoch while
    the validation loss falls; the epoch kept is the one of lowest
    validation loss, not the first."""
    g = random_connected_multigraph(40, 120, seed=0)
    task = TaskData(graph=g, labels=np.zeros(40, dtype=np.int64),
                    items=np.arange(40), task_type="node",
                    **train_module.node_split(40, 0))
    mc, tc = fast_configs()
    _, rec = train_model(task, mc, replace(tc, epochs=6), seed=0)
    assert set(rec.val_f1s) == {0.0}
    assert rec.val_losses[-1] < rec.val_losses[0]
    assert rec.best_epoch == int(np.argmin(rec.val_losses)) != 0


def test_evaluate_model_matches_record():
    task = small_task()
    mc, tc = fast_configs()
    model, rec = train_model(task, mc, tc, seed=0)
    again = evaluate_model(model, task, split="test")
    assert again == rec.final_metrics


def edge_task(seed=0):
    g = random_connected_multigraph(20, 60, seed=seed)
    tr, va, te = random_item_split(g.num_edges, seed)
    return TaskData(graph=g, labels=np.arange(g.num_edges) % 2,
                    items=np.arange(g.num_edges), task_type="edge",
                    train_idx=tr, val_idx=va, test_idx=te)


@pytest.mark.parametrize("task_fn,readout", [(edge_task, "node"),
                                             (small_task, "edge")],
                         ids=["node-readout-edge-task",
                              "edge-readout-node-task"])
def test_train_model_rejects_readout_of_other_task_type(monkeypatch, task_fn,
                                                        readout):
    """The readout is checked against the task before any forward runs."""
    forwards = []
    monkeypatch.setattr(Model, "forward",
                        lambda *args, **kwargs: forwards.append(args))
    task = task_fn()
    mc, tc = fast_configs()
    with pytest.raises(ModelError, match=f"a {readout}-readout model cannot "
                       f"train on a {task.task_type} task"):
        train_model(task, replace(mc, readout=readout), tc, seed=0)
    assert forwards == []


@pytest.mark.parametrize("task_fn", [small_task, edge_task],
                         ids=["node-task", "edge-task"])
def test_full_graph_runs_refuse_ego_ids(task_fn):
    """No forward marks ego nodes, so no ego_ids model reaches training or
    evaluation: ModelConfig has no such field, and a config dict that names
    it, on or off, is refused as it is read."""
    task = task_fn()
    mc, tc = fast_configs()
    mc = replace(mc, readout=task.task_type)
    with pytest.raises(TypeError, match="ego_ids"):
        ModelConfig(ego_ids=True)
    for value in (True, False):
        with pytest.raises(ModelError, match=r"unknown \['ego_ids'\]$"):
            ModelConfig.from_dict({**asdict(mc), "ego_ids": value})
    _, record = train_model(task, mc, replace(tc, epochs=1), seed=0)
    assert "ego_ids" not in record.config["model"]


def test_train_model_refuses_a_second_dropout():
    """The record cannot carry a dropout the model did not use."""
    mc, tc = fast_configs()
    with pytest.raises(ConfigError, match="dropout 0.3 is not the model's "
                       "dropout 0.0"):
        train_model(small_task(), mc, replace(tc, dropout=0.3), seed=0)


@pytest.mark.parametrize("split", ["dev", "Test", ""])
def test_evaluate_model_names_the_splits(split):
    task = small_task()
    mc, _ = fast_configs()
    with pytest.raises(ConfigError, match="is not train, val or test"):
        evaluate_model(Model(mc, 2, 2), task, split)


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_empty_split_is_refused(split):
    """An empty split is a configuration error, not NaN losses and an F1
    of 0: training refuses it, and so does evaluating on it."""
    task = replace(small_task(), **{f"{split}_idx": np.array([], dtype=int)})
    mc, tc = fast_configs()
    with pytest.raises(ConfigError, match=f"the {split} split .* is empty"):
        train_model(task, mc, tc, seed=0)
    with pytest.raises(ConfigError, match=f"the {split} split .* is empty"):
        evaluate_model(Model(mc, 1, 1), task, split)


def test_two_stage_learns_planted_task():
    task = small_task(num_nodes=200)
    mc = ModelConfig(num_layers=2, bidirectional=False, readout="node",
                     hidden_node=16, hidden_edge=16, mlp_hidden=32,
                     edge_agg=AggSpec("sum"), node_agg=AggSpec("sum"),
                     dropout=0.0)
    tc = TrainConfig(learning_rate=0.01, batch_size=4096, dropout=0.0,
                     class_weights=(1.0, 3.0), epochs=120, patience=40)
    _, rec = train_model(task, mc, tc, seed=0)
    assert rec.final_metrics["f1"] >= 0.8


def test_training_error_on_divergence():
    task = small_task()
    mc, _ = fast_configs()
    tc = TrainConfig(learning_rate=1e154, batch_size=1024, dropout=0.0,
                     class_weights=(1.0, 3.0), epochs=10, patience=10)
    with np.errstate(all="ignore"), pytest.raises(TrainingError):
        train_model(task, mc, tc, seed=0)


def test_train_config_validation():
    with pytest.raises(NnError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(NnError):
        TrainConfig(dropout=1.0)
    with pytest.raises(NnError):
        TrainConfig(class_weights=(1.0, -1.0))
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.003
    assert cfg.batch_size == 8192
    assert cfg.dropout == 0.1
    assert cfg.class_weights == (1.0, 6.27)


@pytest.mark.parametrize("task_fn,readout", [(edge_task, "edge"),
                                             (small_task, "node")])
def test_train_step_holds_only_its_own_cache(monkeypatch, task_fn, readout):
    """When a train or validation forward starts, nothing of an earlier
    train step is alive: not its logits, nor a hidden activation its cache
    held."""
    import weakref

    import meganet.model as model_module

    held, real_forward, real_mlp = [], Model.forward, model_module.mlp_forward

    def forward(self, *args, **kwargs):
        assert all(ref() is None for ref in held)
        logits, cache = real_forward(self, *args, **kwargs)
        if kwargs.get("train_mode"):
            held.append(weakref.ref(logits))
        return logits, cache

    def mlp_forward(net, x, train_mode=False, dropout_mask_seed=0):
        out, cache = real_mlp(net, x, train_mode, dropout_mask_seed)
        if train_mode:
            held.extend(weakref.ref(h) for h in cache["inputs"][1:])
        return out, cache

    monkeypatch.setattr(Model, "forward", forward)
    monkeypatch.setattr(model_module, "mlp_forward", mlp_forward)
    task = task_fn()
    mc, tc = fast_configs()
    train_model(task, replace(mc, readout=readout, num_layers=2),
                replace(tc, batch_size=16, epochs=2, patience=2), seed=0)
    # two epochs of at least two steps each, every one recorded
    assert task.train_idx.size > 16 and len(held) >= 4 * 5


@pytest.mark.parametrize("task_fn,readout", [(edge_task, "edge"),
                                             (small_task, "node")])
def test_train_model_asks_each_forward_for_its_items(monkeypatch, task_fn,
                                                     readout):
    """Train steps ask for their batch's logits; validation and test
    forwards for their split's. Rows are local to each forward's view and
    map back to the items through its node or edge map."""
    calls, views = [], {}
    real, sample = Model.forward, train_module.sample_neighborhood

    def spy(self, g, *args, **kwargs):
        v = views[id(g)]
        parent = v.edge_map if readout == "edge" else v.node_map
        calls.append((kwargs.get("train_mode", False),
                      parent[kwargs.get("rows")]))
        return real(self, g, *args, **kwargs)

    def record_view(*args, **kwargs):
        v = sample(*args, **kwargs)
        views[id(v.graph)] = v
        return v

    monkeypatch.setattr(Model, "forward", spy)
    monkeypatch.setattr(train_module, "sample_neighborhood", record_view)
    task = task_fn()
    mc, tc = fast_configs()
    train_model(task, replace(mc, readout=readout),
                replace(tc, batch_size=16, epochs=2, patience=2), seed=0)
    n_train = task.train_idx.size
    sizes = [min(16, n_train - lo) for lo in range(0, n_train, 16)]
    steps = len(sizes)
    val, test = task.items[task.val_idx], task.items[task.test_idx]
    epoch = [(True, size) for size in sizes] + [(False, val.size)]
    assert [(t, len(r)) for t, r in calls] == epoch * 2 + [(False, test.size)]
    for e in range(2):
        batches = [r for _, r in calls[e * (steps + 1):(e + 1) * (steps + 1) - 1]]
        assert sorted(np.concatenate(batches)) == sorted(task.items[task.train_idx])
        assert np.array_equal(calls[(e + 1) * (steps + 1) - 1][1], val)
    assert np.array_equal(calls[-1][1], test)
