"""Views: the sampler walk and the full view, forwards through
them (a batch's exact receptive field gives the whole graph's logits and
gradients), and train_model, which runs every forward on one."""

import dataclasses
import itertools

import numpy as np
import pytest

from meganet import train as train_module
from meganet.agg import AggSpec
from meganet.data import full_view, generate_planted_task, sample_neighborhood
from meganet.graph import (
    GraphError,
    Multigraph,
    build_reverse_index,
    build_support_index,
    random_connected_multigraph,
)
from meganet.model import Model, ModelConfig
from meganet.train import TaskData, TrainConfig, node_split, train_model

SHAPES = list(itertools.product([True, False], ["node", "edge"],
                                [True, False]))
SHAPE_IDS = [f"{'two' if two else 'single'}-stage-{readout}-"
             f"{'bi' if bi else 'uni'}" for two, readout, bi in SHAPES]
# the items whose logits are asked for, nodes or edges
ITEMS = {"node": np.array([3, 17, 5, 30]), "edge": np.array([7, 2, 40, 11])}


def several_components(seed, n=40, m=56):
    """A random multigraph of several weak components; a third of its
    edges repeat an earlier pair."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = np.concatenate([edges, edges[rng.integers(0, m, m // 3)]])
    edges = edges[rng.permutation(len(edges))]
    return Multigraph(n, rng.random((n, 2)), edges,
                      rng.random((len(edges), 3)))


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed_kind", ["seed_nodes", "seed_edges"])
@pytest.mark.parametrize("make_graph", [
    several_components,
    lambda seed: random_connected_multigraph(12, 30, seed=seed)],
    ids=["several-components", "connected"])
def test_unbounded_walk_equals_a_cap_no_node_reaches(make_graph, seed_kind):
    """The walk draws no neighbours: it takes what a cap above every degree
    took, every edge at each node it reached within hops - 1. Where it
    reaches every node it returns the graph itself, with its own indices;
    elsewhere a view of fewer nodes."""
    reached = []
    for seed in range(4):
        g = make_graph(seed)
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        rng = np.random.default_rng(seed)
        for hops in range(4):
            width = g.num_nodes if seed_kind == "seed_nodes" else g.num_edges
            seeds = {seed_kind: rng.choice(width, 3, replace=False)}
            v = sample_neighborhood(g, supp, rev, hops=hops, **seeds)
            reached.append(v.graph is g)
            if hops:
                inner = sample_neighborhood(g, supp, rev, hops=hops - 1,
                                            **seeds).node_map
                at_inner = np.isin(g.src, inner) | np.isin(g.dst, inner)
                assert np.isin(np.flatnonzero(at_inner), v.edge_map).all()
            if v.graph is g:
                assert v.supp is supp and v.rev is rev
                assert same_array(v.node_map, np.arange(g.num_nodes))
                assert same_array(v.edge_map, np.arange(g.num_edges))
            else:
                assert v.graph.num_nodes == np.unique(v.node_map).size
                assert v.graph.num_nodes < g.num_nodes
    # both outcomes occur: no 0-hop walk reaches every node, and only the
    # connected graphs are ever reached whole
    assert any(reached) == (make_graph is not several_components)
    assert not all(reached)


def test_full_view_maps_ids_to_themselves():
    g = random_connected_multigraph(6, 10, seed=1)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    v = full_view(g, supp, rev)
    assert v.graph is g and v.supp is supp and v.rev is rev
    assert v.local([4, 0, 4], "node").tolist() == [4, 0, 4]
    assert v.local([9, 2], "edge").tolist() == [9, 2]


def test_view_local_rows_map_back_and_reject_outsiders():
    g = random_connected_multigraph(30, 45, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_edges=[3, 7], hops=1)
    assert s.graph is not g
    assert s.edge_map[s.local([7, 3], "edge")].tolist() == [7, 3]
    nodes = s.node_map[::-1]
    assert np.array_equal(s.node_map[s.local(nodes, "node")], nodes)
    assert s.local([], "node").size == 0
    outside = np.setdiff1d(np.arange(g.num_nodes), s.node_map)[:1]
    for items, kind in ((outside, "node"), ([g.num_edges], "edge"),
                        ([-1], "edge")):
        with pytest.raises(GraphError, match="outside the view"):
            s.local(items, kind)


def models_and_views(two_stage, readout, bidirectional, dtypes):
    """(model, graph, supp, rev, view) over agg kinds, 1-3 layers, dtypes
    and two graphs; every view is a strict subset of its graph."""
    for (agg, layers, dtype), seed in itertools.product(
            itertools.product(["sum", "max", "pna"], [1, 2, 3], dtypes),
            [0, 1]):
        g = several_components(seed)
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        cfg = ModelConfig(num_layers=layers, bidirectional=bidirectional,
                          edge_agg=AggSpec(agg), node_agg=AggSpec(agg),
                          readout=readout, two_stage=two_stage, hidden_node=8,
                          hidden_edge=8, mlp_hidden=8, dropout=0.0,
                          dtype=dtype)
        seeds = "seed_nodes" if readout == "node" else "seed_edges"
        v = sample_neighborhood(g, supp, rev, hops=layers,
                                **{seeds: ITEMS[readout]})
        assert v.graph.num_edges < g.num_edges
        yield Model(cfg, 2, 3, seed=seed), g, supp, rev, v


@pytest.mark.parametrize("two_stage,readout,bidirectional", SHAPES,
                         ids=SHAPE_IDS)
def test_view_eval_logits_equal_the_whole_graphs(two_stage, readout,
                                                 bidirectional):
    items = ITEMS[readout]
    for model, g, supp, rev, v in models_and_views(
            two_stage, readout, bidirectional, ["float32", "float64"]):
        full, _ = model.forward(g, supp, rev, rows=items)
        through_view, _ = model.forward(v.graph, v.supp, v.rev,
                                        rows=v.local(items, readout))
        assert np.array_equal(through_view, full)


@pytest.mark.parametrize("two_stage,readout,bidirectional", SHAPES,
                         ids=SHAPE_IDS)
def test_view_train_step_matches_the_whole_graphs(two_stage, readout,
                                                  bidirectional):
    """Without dropout a train step's logits through the view are the whole
    graph's and its gradients agree to float64 rounding."""
    items = ITEMS[readout]
    dlogits = np.array([1.0, -2.0, 0.5, 3.0])
    for model, g, supp, rev, v in models_and_views(
            two_stage, readout, bidirectional, ["float64"]):
        logits, cache = model.forward(g, supp, rev, train_mode=True, seed=5,
                                      rows=items)
        grads = model.backward(cache, dlogits).copy()
        v_logits, v_cache = model.forward(v.graph, v.supp, v.rev,
                                          train_mode=True, seed=5,
                                          rows=v.local(items, readout))
        v_grads = model.backward(v_cache, dlogits)
        assert np.array_equal(v_logits, logits)
        assert np.abs(v_grads - grads).max() <= 1e-12 * np.abs(grads).max()


def record_views(monkeypatch):
    """Every view train_model builds, in order."""
    views, sample = [], train_module.sample_neighborhood

    def recorded(*args, **kwargs):
        views.append(sample(*args, **kwargs))
        return views[-1]

    monkeypatch.setattr(train_module, "sample_neighborhood", recorded)
    return views


def view_builds(task, tc):
    """Views a full run of train_model builds: validation, one per train
    step (one in all for a lone batch, whose items never change) and
    test."""
    batches = -(-task.train_idx.size // tc.batch_size)
    return 1 + (tc.epochs * batches if batches > 1 else 1) + 1


def stars_task(seed=0):
    """max_of_sums: disjoint stars, one receiver and its senders each."""
    g, labels = generate_planted_task(60, 2, 2, "max_of_sums", seed)
    items = np.flatnonzero(labels >= 0)
    return TaskData(graph=g, labels=labels[items], items=items,
                    task_type="node", **node_split(items.size, seed))


def configs(**model):
    mc = ModelConfig(num_layers=2, bidirectional=True, hidden_node=8,
                     hidden_edge=8, mlp_hidden=8, dropout=0.0,
                     dtype="float64", **model)
    tc = TrainConfig(learning_rate=0.01, batch_size=16, dropout=0.0,
                     class_weights=(1.0, 3.0), epochs=3, patience=3)
    return mc, tc


def test_stars_train_on_strict_subsets(monkeypatch):
    """Each batch, and validation and test, get their own stars only."""
    views = record_views(monkeypatch)
    task = stars_task()
    mc, tc = configs()
    train_model(task, mc, tc, seed=0)
    assert len(views) == view_builds(task, tc)
    for v in views:
        assert v.graph is not task.graph
        assert v.graph.num_edges < task.graph.num_edges


def test_lone_batch_builds_its_view_once(monkeypatch):
    """A batch of the whole train split holds the same items every epoch,
    so its view is built once: validation, train and test build three."""
    views = record_views(monkeypatch)
    task = stars_task()
    mc, tc = configs()
    tc = dataclasses.replace(tc, batch_size=task.train_idx.size)
    train_model(task, mc, tc, seed=0)
    assert len(views) == view_builds(task, tc) == 3
    for v in views:
        assert v.graph.num_edges < task.graph.num_edges


@pytest.mark.parametrize("readout", ["node", "edge"])
def test_walk_reaching_every_node_trains_on_the_graph(monkeypatch, readout):
    """A connected task whose splits reach every node within two hops
    trains and evaluates on the task's graph itself, indices included."""
    views = record_views(monkeypatch)
    g = random_connected_multigraph(20, 80, seed=3)
    width = g.num_nodes if readout == "node" else g.num_edges
    task = TaskData(graph=g, labels=np.arange(width) % 2,
                    items=np.arange(width), task_type=readout,
                    **node_split(width, 0))
    mc, tc = configs(readout=readout)
    train_model(task, mc, tc, seed=0)
    assert len(views) == view_builds(task, tc)
    for v in views:
        assert v.graph is task.graph and v.supp is views[0].supp


def test_view_training_follows_whole_graph_training(monkeypatch):
    """Without dropout, a run through receptive-field views keeps the
    trajectory of the same run through full views."""
    g = several_components(seed=1)
    labels = np.random.default_rng(1).integers(0, 2, g.num_nodes)
    task = TaskData(graph=g, labels=labels, items=np.arange(g.num_nodes),
                    task_type="node", **node_split(g.num_nodes, 1))
    mc, tc = configs()
    _, through_views = train_model(task, mc, tc, seed=2)

    def whole_graph(g, supp, rev, **kwargs):
        return full_view(g, supp, rev)

    monkeypatch.setattr(train_module, "sample_neighborhood", whole_graph)
    _, whole = train_model(task, mc, tc, seed=2)
    assert through_views.val_f1s == whole.val_f1s
    assert through_views.best_epoch == whole.best_epoch
    np.testing.assert_allclose(through_views.train_losses, whole.train_losses,
                               rtol=1e-10)
    np.testing.assert_allclose(through_views.val_losses, whole.val_losses,
                               rtol=1e-10)
    assert through_views.final_metrics == pytest.approx(whole.final_metrics,
                                                        rel=1e-10)
