"""Tests of the benchmark's own logic (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gen
import layers
import workloads
from spans import Tracer, by_name, durations

BENCH = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 7.0, 0]]
    total, own = durations(spans)
    assert total == [10.0, 3.0, 1.0, 2.0]
    assert own == [5.0, 2.0, 1.0, 2.0]
    tot, self_by_name = by_name(spans)
    assert tot == {"a": 10.0, "b": 5.0, "c": 1.0}
    assert self_by_name == {"a": 5.0, "b": 4.0, "c": 1.0}


def test_tracer_records_parents_from_nesting():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: next(ticks))
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    assert [(n, p) for n, _, _, p in t.spans] == [("outer", -1), ("inner", 0),
                                                  ("inner", 0)]
    assert by_name(t.spans)[1] == {"outer": 3, "inner": 2}


def test_hook_on_missing_name_is_reported_absent_and_restores():
    import meganet.model as mm

    original = mm.mlp_forward
    t = Tracer()
    with t.installed([("meganet.model:no_such_layer", "x", None),
                      ("meganet.no_such_module:f", "y", None),
                      ("meganet.model:mlp_forward", "nn.mlp_fwd", None)]):
        assert mm.mlp_forward is not original
    assert mm.mlp_forward is original
    assert t.absent == ["meganet.model:no_such_layer", "meganet.no_such_module:f"]


@pytest.mark.parametrize("make", [
    lambda s: gen.aml_rows(s, num_rows=500, num_accounts=100),
    lambda s: gen.planted_max_of_sums(s, num_receivers=20),
    lambda s: gen.connected_multigraph(s, num_edges=400),
])
def test_generators_are_pure_functions_of_the_seed(make):
    def arrays(x):
        return list(x.values()) if isinstance(x, dict) else [
            x.edges, x.edge_features, x.node_labels]

    a, b, c = arrays(make(7)), arrays(make(7)), arrays(make(8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("seed", range(5))
def test_planted_labels_agree_with_the_oracle(seed):
    g = gen.planted_max_of_sums(seed, num_receivers=50)
    receivers = np.flatnonzero(g.node_labels >= 0)
    assert receivers.tolist() == list(range(50))
    assert gen.pair_stats(g.edges)["mean_multiplicity"] == 8
    oracle = gen.max_of_sums_oracle(g.edges, g.edge_features[:, 0], receivers)
    assert np.array_equal(oracle, g.node_labels[receivers])
    assert 0 < oracle.sum() < oracle.size


def test_oracle_on_a_hand_built_receiver():
    # sender 1 sends the single largest payment, sender 2 the largest total
    edges = np.array([[1, 0], [1, 0], [2, 0], [2, 0], [2, 0], [4, 3], [4, 3]])
    amounts = np.array([5.0, 0.1, 2.0, 2.0, 2.0, 1.0, 3.0])
    assert gen.max_of_sums_oracle(edges, amounts, np.array([0, 3])).tolist() == [1, 0]


def test_structure_graph_is_connected_with_distinct_rows_and_n_m_over_4():
    g = gen.connected_multigraph(3, num_edges=400)
    dist, _ = gen.hop_distances(g.edges, g.num_nodes, 0)
    assert g.num_nodes == 100 and (dist >= 0).all()
    assert np.unique(g.edge_features, axis=0).shape[0] == 400


def test_ego_net_keeps_hop_distances():
    # path 0 -> 1 <- 2 -> 3 plus a parallel edge 2 -> 3
    edges = np.array([[0, 1], [2, 1], [2, 3], [2, 3]])
    g = gen.GraphInput(4, edges, np.arange(8.0).reshape(4, 2), np.full(4, -1))
    sub, root, dist = gen.ego_net(g, 1, hops=1)
    assert sub.num_nodes == 3 and root == 1 and dist.tolist() == [1, 0, 1]
    sub, root, dist = gen.ego_net(g, 0, hops=2)
    assert sub.edges.shape[0] == 2 and dist.tolist() == [0, 1, 2]


def test_sample_check_rejects_a_split_parallel_group():
    edges = np.array([[0, 1], [0, 1], [1, 2]])

    def batch(edge_map, node_map):
        local = {v: i for i, v in enumerate(node_map)}
        sub = np.array([[local[s], local[d]] for s, d in edges[edge_map]])
        return SimpleNamespace(edge_map=np.array(edge_map),
                               node_map=np.array(node_map),
                               graph=SimpleNamespace(edges=sub))

    assert workloads.sample_is_whole(edges, [0], batch([0, 1], [0, 1]))
    assert not workloads.sample_is_whole(edges, [0], batch([0], [0, 1]))
    assert not workloads.sample_is_whole(edges, [2], batch([0, 1], [0, 1]))


def test_id_check_rejects_duplicates_and_wrong_lengths():
    dist = np.array([0, 1, 1])
    assert workloads.ids_are_valid([(1,), (1, 3), (1, 4)], dist)
    assert not workloads.ids_are_valid([(1,), (1, 3), (1, 3)], dist)
    assert not workloads.ids_are_valid([(1,), (1, 3), (1, 4, 2)], dist)


def test_hooks_count_rows_of_every_reduction_and_mlp():
    import meganet as mg

    gi = gen.planted_max_of_sums(0, num_receivers=10)
    g = mg.Multigraph(gi.num_nodes, np.ones((gi.num_nodes, 1)), gi.edges,
                      gi.edge_features)
    supp = mg.build_support_index(g)
    rev = mg.build_reverse_index(g, supp)
    w = workloads.WORKLOADS["planted-node-pna"]
    model = mg.Model(workloads.model_config(w), 1, 1, seed=0)
    t = Tracer()
    with t.installed(layers.HOOKS):
        logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
        model.backward(cache, np.ones_like(logits))
    assert t.absent == []
    m, pairs = g.num_edges, supp.num_pairs
    # 2 layers x 2 directions; the edge stage reduces edges, the node stage pairs
    assert t.counts["agg.edge.fwd.rows"] == t.counts["agg.edge.bwd.rows"] == 4 * m
    assert t.counts["agg.node.fwd.rows"] == t.counts["agg.node.bwd.rows"] == 4 * pairs
    assert t.counts["model.cache_mb"] > 0
    names = {n for n, *_ in t.spans}
    assert {"model.forward.train", "model.backward", "nn.mlp_fwd", "nn.mlp_bwd",
            "agg.edge.fwd", "agg.edge.bwd", "agg.node.fwd", "agg.node.bwd",
            "trace.cache_walk"} <= names
    values = layers.layer_metrics(t, gen.pair_stats(gi.edges), 1.0, 1.5)
    assert list(values) == [name for name, _, _ in layers.PER_LAYER]
    assert values["trace.overhead_share"] == 0.5
    assert values["model.forward.self_s"] > 0


def test_bracketed_scales_by_the_kernels_mean_relative_time():
    kernel = iter([2.0, 4.0])   # measured / reference time, before and after
    scale, result = workloads.bracketed(lambda: next(kernel), lambda: "op")
    assert result == "op" and scale == pytest.approx(1 / 3)


def test_reachable_bytes_follow_closures_and_count_views_once():
    a = np.zeros(1000)
    b = np.ones(10)

    def f():
        return b

    assert layers.reachable_array_bytes({"x": [a, a[:10]], "f": f}) == 8080


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]


def test_run_outside_a_source_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aml-edge-sum",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
