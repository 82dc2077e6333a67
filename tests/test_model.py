from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from meganet.agg import AggSpec
from meganet.graph import (
    Multigraph,
    build_reverse_index,
    build_support_index,
    random_connected_multigraph,
)
from meganet.model import (
    DirectionNets,
    LayerParams,
    Model,
    ModelConfig,
    ModelError,
    add_ego_ids,
    direction_fwd,
    edge_update_fwd,
    load_checkpoint,
    save_checkpoint,
    single_stage_layer_fwd,
    two_stage_layer_fwd,
)
from meganet.nn import Mlp, weighted_bce_loss


def make_graph(edges, edge_feats, n=None):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 1
    return Multigraph(n, np.ones((n, 1)), edges,
                      np.array(edge_feats, dtype=np.float64))


def constant_mlp(in_width, out_width, value=1.0):
    """Net that outputs a constant row regardless of input."""
    return Mlp([np.zeros((in_width, out_width))],
               [np.full(out_width, value)], activation="identity")


def slice_mlp(in_width, lo, hi):
    """Net that selects columns [lo, hi) of its input."""
    w = np.zeros((in_width, hi - lo))
    w[lo:hi] = np.eye(hi - lo)
    return Mlp([w], [np.zeros(hi - lo)], activation="identity")


def plain_params(dn, de, agg_edge="sum", agg_node="sum", directions=1):
    """Messages echo x_src, h echoes the reduced edges, e_next echoes e."""
    d_h_raw = AggSpec(agg_edge).out_width(de)
    w_a = AggSpec(agg_node).out_width(dn)
    nets = [DirectionNets(msg_net=slice_mlp(dn + de, 0, dn),
                          edge_update_net=slice_mlp(dn + 2 * de, dn, dn + de),
                          edge_agg_mlp=slice_mlp(d_h_raw, 0, de))
            for _ in range(directions)]
    return LayerParams(
        directions=nets,
        node_update_net=slice_mlp(dn + directions * w_a, 0, dn),
        agg_edge=AggSpec(agg_edge),
        agg_node=AggSpec(agg_node),
    )


def with_nets(params, d=0, **nets):
    params.directions[d] = params.directions[d]._replace(**nets)
    return params


def direction(x, e, supp, params, d=0):
    """(h, a) of direction d in evaluation mode."""
    h, a, _ = direction_fwd(x, e, supp, params.directions[d], params.agg_edge,
                            params.agg_node)
    return h, a


def edge_update(x, e, supp, params):
    h, _ = direction(x, e, supp, params)
    e_next, _ = edge_update_fwd(x, e, h, supp,
                                params.directions[0].edge_update_net)
    return e_next


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(num_layers=0)
    with pytest.raises(ModelError):
        ModelConfig(readout="graph")


def test_config_dict_roundtrip():
    cfg = ModelConfig(num_layers=3, bidirectional=False, ego_ids=True,
                      edge_agg=AggSpec("pna", mean_log_degree=0.8),
                      node_agg=AggSpec("max"), readout="edge",
                      two_stage=False, hidden_node=7)
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


def test_checkpoint_config_json_bytes_pinned(tmp_path):
    """The checkpoint's config is asdict(ModelConfig) in field order."""
    from meganet.model import save_checkpoint

    cfg = ModelConfig(num_layers=1, bidirectional=False, ego_ids=True,
                      edge_agg=AggSpec("pna", mean_log_degree=0.5),
                      node_agg=AggSpec("max"), readout="edge", hidden_node=2,
                      hidden_edge=3, mlp_hidden=2, dropout=0.0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(Model(cfg, 1, 1, seed=0), path)
    text = path.read_text()
    assert text[:text.index(', "d_node_in"')] == (
        '{"format_version": 1, "config": {"num_layers": 1, '
        '"bidirectional": false, "ego_ids": true, "edge_agg": {"kind": "pna", '
        '"mean_log_degree": 0.5}, "node_agg": {"kind": "max", '
        '"mean_log_degree": 1.0}, "readout": "edge", "two_stage": true, '
        '"hidden_node": 2, "hidden_edge": 3, "mlp_hidden": 2, "dropout": 0.0, '
        '"dtype": "float32"}')


def test_config_from_dict_post_agg_mlp_switch():
    """Version-1 checkpoints carry post_agg_mlp; only true is loadable."""
    cfg = ModelConfig(hidden_node=7)
    assert ModelConfig.from_dict({**asdict(cfg), "post_agg_mlp": True}) == cfg
    with pytest.raises(ModelError, match="post_agg_mlp"):
        ModelConfig.from_dict({**asdict(cfg), "post_agg_mlp": False})


def test_edge_stage_sum_of_parallel_pair():
    g = make_graph([(0, 1), (0, 1)], [[1.0, 0.0], [0.0, 1.0]])
    supp = build_support_index(g)
    h, _ = direction(np.ones((2, 1)), g.edge_features, supp, plain_params(1, 2))
    assert h.tolist() == [[1.0, 1.0]]


def test_edge_stage_singleton_groups_identity():
    g = make_graph([(0, 1), (1, 2)], [[3.0], [5.0]])
    supp = build_support_index(g)
    x = np.ones((3, 1))
    for kind in ("sum", "mean", "max", "min"):
        h, _ = direction(x, g.edge_features, supp,
                         plain_params(1, 1, agg_edge=kind))
        assert h.tolist() == [[3.0], [5.0]]
    h, _ = direction(x, g.edge_features, supp, plain_params(1, 1, agg_edge="std"))
    assert h.tolist() == [[0.0], [0.0]]


def test_node_stage_empty_in_neighbors_gets_zero():
    g = make_graph([(0, 1)], [[2.0]])
    supp = build_support_index(g)
    dn = 1
    params = plain_params(dn, 1)
    # node update echoes the aggregate so we can observe it
    params.node_update_net = slice_mlp(dn + dn, dn, 2 * dn)
    x = np.array([[4.0], [9.0]])
    _, a = direction(x, g.edge_features, supp, params)
    x_next, _, _ = two_stage_layer_fwd(params, x, [g.edge_features], [supp])
    assert a[0].tolist() == [0.0]        # node 0 has no in-neighbors
    assert x_next[0].tolist() == [0.0]


def test_node_stage_sum_doubles_identical_messages():
    # nodes 0 and 1 both point at 2, same x and same h
    g = make_graph([(0, 2), (1, 2)], [[5.0], [5.0]])
    supp = build_support_index(g)
    params = with_nets(plain_params(1, 1), msg_net=slice_mlp(2, 1, 2))  # = h
    _, a = direction(np.ones((3, 1)), g.edge_features, supp, params)
    assert a[2].tolist() == [10.0]


def test_edge_update_uses_pre_update_node_features():
    g = make_graph([(0, 1)], [[2.0]])
    supp = build_support_index(g)
    # e_next copies the source node feature slot
    params = with_nets(plain_params(1, 1), edge_update_net=slice_mlp(3, 0, 1))
    e_next = edge_update(np.array([[7.0], [1.0]]), g.edge_features, supp, params)
    assert e_next.tolist() == [[7.0]]


def test_edge_update_parallel_edges_differ_only_through_own_feature():
    g = make_graph([(0, 1), (0, 1)], [[2.0], [2.0]])
    supp = build_support_index(g)
    e_next = edge_update(np.ones((2, 1)), g.edge_features, supp,
                         plain_params(1, 1))
    assert e_next[0].tolist() == e_next[1].tolist()


def test_edge_update_locality_across_groups():
    feats = [[1.0], [2.0], [9.0]]
    g1 = make_graph([(0, 1), (0, 1), (2, 1)], feats)
    feats2 = [[1.0], [2.0], [50.0]]
    g2 = make_graph([(0, 1), (0, 1), (2, 1)], feats2)
    params = plain_params(1, 1)
    e1 = edge_update(np.ones((3, 1)), g1.edge_features,
                     build_support_index(g1), params)
    e2 = edge_update(np.ones((3, 1)), g2.edge_features,
                     build_support_index(g2), params)
    # the (0,1) pair never sees the (2,1) edge
    assert np.array_equal(e1[:2], e2[:2])


def test_bidirectional_single_edge_structure():
    g = make_graph([(0, 1)], [[3.0]])
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    dn, de = 1, 1
    params = plain_params(dn, de, directions=2)
    with_nets(params, 0, msg_net=constant_mlp(dn + de, dn, 1.0))
    with_nets(params, 1, msg_net=constant_mlp(dn + de, dn, 1.0))
    # x_next echoes [a || a_rev]
    params.node_update_net = slice_mlp(dn + 2 * dn, dn, 3 * dn)
    x_next, _, _ = two_stage_layer_fwd(params, np.zeros((2, 1)),
                                       [g.edge_features] * 2, [supp, rev])
    # node 0: no in-neighbors (a=0), one out-neighbor (a_rev=1); node 1 flipped
    assert x_next.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_bidirectional_out_degree_recoverable():
    # hub 0 points at 1..3; constant unit reverse messages summed = out-degree
    g = make_graph([(0, 1), (0, 2), (0, 3)], [[1.0], [2.0], [3.0]])
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    params = with_nets(plain_params(1, 1, directions=2), 1,
                       msg_net=constant_mlp(2, 1, 1.0))
    params.node_update_net = slice_mlp(3, 2, 3)  # echo a_rev
    x_next, _, _ = two_stage_layer_fwd(params, np.zeros((4, 1)),
                                       [g.edge_features] * 2, [supp, rev])
    assert x_next[0, 0] == 3.0
    assert x_next[1:, 0].tolist() == [0.0, 0.0, 0.0]


def test_single_stage_collapse_on_simple_graph():
    """With P_ij = 1 everywhere and message nets that read the same inputs,
    both layer types aggregate the same multiset of messages."""
    g = make_graph([(0, 2), (1, 2)], [[3.0], [4.0]])
    supp = build_support_index(g)
    params = with_nets(plain_params(1, 1),
                       msg_net=slice_mlp(2, 1, 2))  # message = edge latent
    params.node_update_net = slice_mlp(2, 1, 2)     # echo the aggregate
    x, e = np.ones((3, 1)), g.edge_features
    x_two, _, _ = two_stage_layer_fwd(params, x, [e], [supp])
    x_single, _, _ = single_stage_layer_fwd(params, x, [e], supp)
    assert np.allclose(x_two, x_single)


def test_add_ego_ids():
    feats = np.ones((4, 2))
    out = add_ego_ids(feats, [])
    assert out.shape == (4, 3)
    assert not out[:, 2].any()
    out = add_ego_ids(feats, [0, 1, 2, 3])
    assert out[:, 2].tolist() == [1, 1, 1, 1]
    with pytest.raises(ModelError):
        add_ego_ids(feats, [7])


def test_forward_shapes_and_readouts():
    g = random_connected_multigraph(6, 12, seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    for readout, n_out in (("node", 6), ("edge", 12)):
        cfg = ModelConfig(num_layers=2, readout=readout, hidden_node=4,
                          hidden_edge=4, mlp_hidden=5)
        model = Model(cfg, 2, 2, seed=1)
        logits, _ = model.forward(g, supp, rev)
        assert logits.shape == (n_out,)
        assert np.isfinite(logits).all()


def test_forward_requires_rev_when_bidirectional():
    g = random_connected_multigraph(4, 6, seed=0)
    supp = build_support_index(g)
    model = Model(ModelConfig(bidirectional=True), 2, 2)
    with pytest.raises(ModelError):
        model.forward(g, supp, None)


def test_unidirectional_ignores_rev():
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(bidirectional=False, hidden_node=4, hidden_edge=4,
                      mlp_hidden=5)
    model = Model(cfg, 2, 2, seed=3)
    a, _ = model.forward(g, supp, rev)
    b, _ = model.forward(g, supp, None)
    assert np.array_equal(a, b)


def test_forward_deterministic_under_dropout_seed():
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5, dropout=0.3)
    model = Model(cfg, 2, 2, seed=3)
    a, _ = model.forward(g, supp, rev, train_mode=True, seed=5)
    b, _ = model.forward(g, supp, rev, train_mode=True, seed=5)
    c, _ = model.forward(g, supp, rev, train_mode=True, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def cache_array_bytes(root) -> int:
    """Bytes of the distinct array buffers a forward cache keeps alive.

    Follows containers, object attributes and closure cells; a view counts
    its base once. Mlp objects are skipped: their parameters are not cache.
    """
    seen, buffers, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Mlp, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(buffers.values())


def test_train_cache_keeps_no_dropout_state():
    """Dropout and relu gates are read off cached inputs, not kept."""
    g = random_connected_multigraph(8, 20, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(bidirectional=True, hidden_node=4, hidden_edge=4,
                      mlp_hidden=5, dropout=0.3)
    model = Model(cfg, 2, 2, seed=3)
    undropped = Model(replace(cfg, dropout=0.0), 2, 2, seed=3)
    assert np.array_equal(model.params, undropped.params)
    train_logits, train = model.forward(g, supp, rev, train_mode=True, seed=5)
    plain_logits, plain = undropped.forward(g, supp, rev, train_mode=True,
                                            seed=5)
    assert not np.array_equal(train_logits, plain_logits)
    assert cache_array_bytes(train) == cache_array_bytes(plain) > 0


def test_eval_cache_keeps_only_final_state():
    g = random_connected_multigraph(8, 20, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5),
                  2, 2, seed=3)
    logits, cache = model.forward(g, supp, rev)
    assert list(cache) == ["final"]
    with pytest.raises(ModelError, match="train-mode"):
        model.backward(cache, np.ones_like(logits))
    _, train = model.forward(g, supp, rev, train_mode=True)
    assert "final" not in train           # backward does not read it


def test_eval_forward_frees_each_layer_cache():
    """Peak eval-forward memory does not grow with the layer count."""
    import tracemalloc

    g = random_connected_multigraph(50, 400, seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    peaks = []
    for num_layers in (1, 6):
        model = Model(ModelConfig(num_layers=num_layers, hidden_node=16,
                                  hidden_edge=16, mlp_hidden=16), 2, 2)
        tracemalloc.start()
        try:
            model.forward(g, supp, rev)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # keeping every layer's cache would give about 4.7x
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize("cfg", [
    ModelConfig(bidirectional=True, readout="edge"),
    ModelConfig(two_stage=False, readout="node"),
], ids=["two-stage-edge", "single-stage-node"])
def test_eval_forward_frees_each_mlp_cache(monkeypatch, cfg):
    """In eval mode an MLP's hidden activations die before the next MLP runs."""
    import weakref

    import meganet.model as model_module

    hidden = []
    real = model_module.mlp_forward

    def recording(net, x, train_mode=False, dropout_mask_seed=0):
        assert all(ref() is None for ref in hidden)
        out, cache = real(net, x, train_mode, dropout_mask_seed)
        hidden.extend(weakref.ref(h) for h in cache["inputs"][1:])
        return out, cache

    monkeypatch.setattr(model_module, "mlp_forward", recording)
    g = random_connected_multigraph(8, 20, seed=2)
    supp = build_support_index(g)
    cfg = replace(cfg, hidden_node=4, hidden_edge=4, mlp_hidden=5)
    Model(cfg, 2, 2, seed=3).forward(g, supp, build_reverse_index(g, supp))
    assert hidden


def test_flat_params_roundtrip():
    """Every weight and bias is a view into params, its gradient into grads."""
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5), 2, 2)
    arrays = [(p, q) for _, m in model.named_mlps()
              for p, q in zip((*m.weights, *m.biases),
                              (*m.grads.weights, *m.grads.biases))]
    assert sum(p.size for p, _ in arrays) == model.params.size
    assert model.grads.shape == model.params.shape
    flat = model.params.copy()
    model.params[...] = 0.0
    assert not any(p.any() for p, _ in arrays)
    model.params[...] = flat
    assert any(p.any() for p, _ in arrays)
    model.grads[...] = 1.0
    assert all(q.all() for _, q in arrays)


def test_backward_zero_upstream_zero_grads():
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5), 2, 2)
    logits, cache = model.forward(g, supp, rev, train_mode=True)
    model.grads[...] = 1.0                 # stale values must not survive
    assert not model.backward(cache, np.zeros_like(logits)).any()


def assert_gradient_matches_fd(model, g, supp, rev, labels):
    """Analytic gradient against central differences along 5 directions."""
    for _, mlp in model.named_mlps():
        if mlp.activation == "relu":
            mlp.activation = "gelu"  # smooth for the FD oracle
    logits, cache = model.forward(g, supp, rev, train_mode=True)
    _, dl = weighted_bce_loss(logits, labels)
    grads = model.backward(cache, dl).copy()

    flat = model.params.copy()
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = rng.normal(size=flat.size)
        d /= np.linalg.norm(d)

        def f(v):
            model.params[...] = v
            lg, _ = model.forward(g, supp, rev)
            return weighted_bce_loss(lg, labels)[0]

        fd = (f(flat + 1e-5 * d) - f(flat - 1e-5 * d)) / 2e-5
        rel = abs(fd - grads @ d) / max(abs(fd), abs(grads @ d), 1e-8)
        assert rel <= 1e-4
    model.params[...] = flat


def test_full_model_gradient_on_fixed_small_graph():
    """6 nodes, 10 edges, bidirectional, both stages: analytic vs FD."""
    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(num_layers=2, bidirectional=True,
                      edge_agg=AggSpec("mean"), node_agg=AggSpec("max"),
                      readout="node", hidden_node=3, hidden_edge=3,
                      mlp_hidden=4, dropout=0.0, dtype="float64")
    model = Model(cfg, 2, 2, seed=4)
    assert_gradient_matches_fd(model, g, supp, rev,
                               np.array([0, 1, 1, 0, 1, 0]))


@pytest.mark.parametrize("cfg", [
    # no edge update runs: the edge encoder learns through h alone
    ModelConfig(num_layers=1, readout="node"),
    ModelConfig(num_layers=1, readout="edge"),
    ModelConfig(two_stage=False, readout="node"),
], ids=["one-layer-node", "one-layer-edge", "single-stage-node"])
def test_gradient_where_last_layer_skips_edge_updates(cfg):
    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = replace(cfg, edge_agg=AggSpec("mean"), node_agg=AggSpec("max"),
                  hidden_node=3, hidden_edge=3, mlp_hidden=4, dropout=0.0,
                  dtype="float64")
    model = Model(cfg, 2, 2, seed=4)
    n = g.num_nodes if cfg.readout == "node" else g.num_edges
    assert_gradient_matches_fd(model, g, supp, rev, np.arange(n) % 2)


@pytest.mark.parametrize("cfg,skipped", [
    (ModelConfig(readout="node"),
     {"layer1.edge_update_net", "layer1.rev_edge_update_net"}),
    (ModelConfig(readout="edge"), {"layer1.rev_edge_update_net"}),
    (ModelConfig(two_stage=False, readout="node"), {"layer1.edge_update_net"}),
], ids=["node", "edge", "single-stage-node"])
def test_last_layer_runs_only_edge_updates_readout_reads(monkeypatch, cfg,
                                                         skipped):
    import meganet.model as model_module

    seen = set()

    def recorded(fn):
        def wrapper(m, *args, **kwargs):
            seen.add(id(m))
            return fn(m, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_module, "mlp_forward",
                        recorded(model_module.mlp_forward))
    monkeypatch.setattr(model_module, "mlp_backward",
                        recorded(model_module.mlp_backward))
    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(replace(cfg, num_layers=2, hidden_node=3, hidden_edge=3,
                          mlp_hidden=4), 2, 2, seed=4)
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
    model.backward(cache, np.ones_like(logits))
    mlps = dict(model.named_mlps())
    assert skipped <= set(mlps)
    assert {name for name, m in mlps.items() if id(m) not in seen} == skipped
    for name in skipped:          # inert: never moved by an optimizer
        assert not any(gw.any() for gw in mlps[name].grads.weights)
@pytest.mark.parametrize("cfg", [
    ModelConfig(readout="node"),
    ModelConfig(readout="edge"),
    ModelConfig(two_stage=False, readout="node"),
], ids=["node", "edge", "single-stage-node"])
def test_skipped_edge_updates_shift_no_dropout_seed(monkeypatch, cfg):
    """Running every last-layer edge update leaves train-mode logits as is."""
    import meganet.model as model_module

    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(replace(cfg, hidden_node=3, hidden_edge=3, mlp_hidden=4,
                          dropout=0.3), 2, 2, seed=4)
    want, _ = model.forward(g, supp, rev, train_mode=True, seed=1)
    for name in ("two_stage_layer_fwd", "single_stage_layer_fwd"):
        # drop the edge_updates argument: every direction updates
        monkeypatch.setattr(model_module, name,
                            lambda *args, fwd=getattr(model_module, name):
                            fwd(*args[:-1]))
    got, _ = model.forward(g, supp, rev, train_mode=True, seed=1)
    assert np.array_equal(got, want)


def test_checkpoint_roundtrip(tmp_path):
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(edge_agg=AggSpec("pna"), hidden_node=4, hidden_edge=4,
                      mlp_hidden=5)
    model = Model(cfg, 2, 2, seed=8)
    want, _ = model.forward(g, supp, rev)

    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    got, _ = loaded.forward(g, supp, rev)
    assert np.array_equal(want, got)
    assert loaded.config == cfg


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("reverse", [False, True], ids=["as-saved", "reversed"])
def test_checkpoint_listing_full_pna_sets_loads(tmp_path, reverse):
    """A checkpoint written while AggSpec still listed PNA's statistics and
    scalers (both aggregations pna, float32, edge readout) loads in either
    order and reproduces the logits it was saved with bit for bit."""
    import json

    payload = json.loads((DATA / "pna_checkpoint_v1.json").read_text())
    for agg in ("edge_agg", "node_agg"):
        spec = payload["config"][agg]
        assert spec["pna_stats"] == ["mean", "max", "min", "std"]
        if reverse:
            spec["pna_stats"].reverse()
            spec["pna_scalers"].reverse()
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload))
    model = load_checkpoint(path)
    assert model.config.edge_agg == AggSpec("pna", mean_log_degree=0.9)
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    logits, _ = model.forward(g, supp, build_reverse_index(g, supp))
    want = json.loads((DATA / "pna_checkpoint_v1_logits.json").read_text())
    assert np.array_equal(logits, np.array(want, dtype=logits.dtype))


@pytest.mark.parametrize("key,subset", [
    ("pna_stats", ["mean", "max", "min"]),
    ("pna_stats", ["mean", "max", "min", "std", "std"]),
    ("pna_scalers", ["identity"]),
], ids=["three-stats", "repeated-stat", "identity-only"])
def test_config_from_dict_rejects_pna_subsets(key, subset):
    d = asdict(ModelConfig(node_agg=AggSpec("pna")))
    d["node_agg"][key] = subset
    with pytest.raises(ModelError, match=f"{key}=.* is not supported"):
        ModelConfig.from_dict(d)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    import json
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5), 2, 2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError):
        load_checkpoint(path)


def test_ego_id_roots_change_output():
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(ego_ids=True, hidden_node=4, hidden_edge=4, mlp_hidden=5)
    model = Model(cfg, 2, 2, seed=3)
    a, _ = model.forward(g, supp, rev, roots=[0])
    b, _ = model.forward(g, supp, rev, roots=[1])
    assert not np.array_equal(a, b)


def test_config_rejects_unknown_dtype():
    assert ModelConfig().dtype == "float32"
    with pytest.raises(ModelError, match="dtype"):
        ModelConfig(dtype="float16")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_roundtrip_keeps_dtype(tmp_path, dtype):
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(edge_agg=AggSpec("pna"), readout="edge", hidden_node=4,
                      hidden_edge=4, mlp_hidden=5, dtype=dtype)
    model = Model(cfg, 2, 2, seed=8)
    want, _ = model.forward(g, supp, rev)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    got, _ = loaded.forward(g, supp, rev)
    assert loaded.config == cfg
    assert loaded.params.dtype == want.dtype == got.dtype == np.dtype(dtype)
    assert np.array_equal(want, got)


def test_checkpoint_without_dtype_loads_as_float64(tmp_path):
    """Checkpoints written before the dtype switch reproduce their logits."""
    import json

    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5,
                              dtype="float64"), 2, 2, seed=8)
    want, _ = model.forward(g, supp, rev)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    del payload["config"]["dtype"]
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    got, _ = loaded.forward(g, supp, rev)
    assert loaded.config.dtype == "float64"
    assert np.array_equal(want, got)


# edge and node aggregations, readouts and layer types the dtype must reach
DTYPE_CONFIGS = {
    "edge-sum-sum": ModelConfig(readout="edge"),
    "node-max-std-ego": ModelConfig(edge_agg=AggSpec("max"),
                                    node_agg=AggSpec("std"), ego_ids=True),
    "edge-std-pna-unidir": ModelConfig(readout="edge", bidirectional=False,
                                       edge_agg=AggSpec("std"),
                                       node_agg=AggSpec("pna")),
    "node-pna-max": ModelConfig(edge_agg=AggSpec("pna"),
                                node_agg=AggSpec("max")),
    "single-stage-edge-pna": ModelConfig(two_stage=False, readout="edge",
                                         node_agg=AggSpec("pna")),
    "single-stage-node-std": ModelConfig(two_stage=False,
                                         node_agg=AggSpec("std")),
}


def dtype_model(cfg, dtype, dropout=0.2):
    return Model(replace(cfg, hidden_node=4, hidden_edge=3, mlp_hidden=5,
                         dropout=dropout, dtype=dtype), 2, 2, seed=6)


def record_mlp_backward_upstreams(monkeypatch):
    """The upstream gradient of every mlp_backward call the model makes."""
    import meganet.model as model_module

    seen = []

    def wrapper(m, cache, upstream, fn=model_module.mlp_backward):
        seen.append(np.asarray(upstream))
        return fn(m, cache, upstream)

    monkeypatch.setattr(model_module, "mlp_backward", wrapper)
    return seen


def reachable_float_dtypes(root) -> set:
    """dtypes of the floating arrays reachable from root, as cache_array_bytes
    walks it, Mlp parameters included."""
    seen, dtypes, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype.kind == "f":
                dtypes.add(obj.dtype)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return dtypes


@pytest.mark.parametrize("cfg", DTYPE_CONFIGS.values(), ids=DTYPE_CONFIGS)
def test_float32_reaches_every_array(monkeypatch, cfg):
    """Caches, gradients and logits of a float32 model hold no float64."""
    upstreams = record_mlp_backward_upstreams(monkeypatch)
    g = random_connected_multigraph(9, 30, seed=4)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = dtype_model(cfg, "float32")
    f32 = np.dtype(np.float32)
    roots = [0, 2] if cfg.ego_ids else None
    logits, _ = model.forward(g, supp, rev, roots=roots)
    assert logits.dtype == f32
    logits, cache = model.forward(g, supp, rev, roots=roots, train_mode=True,
                                  seed=3)
    assert logits.dtype == f32
    assert reachable_float_dtypes(cache) == {f32}
    _, dl = weighted_bce_loss(logits, np.arange(logits.size) % 2)
    grads = model.backward(cache, dl)
    assert grads.dtype == model.params.dtype == f32
    assert grads.any()
    assert len(upstreams) > 5
    assert {u.dtype for u in upstreams} == {f32}


@pytest.mark.parametrize("cfg", DTYPE_CONFIGS.values(), ids=DTYPE_CONFIGS)
def test_float32_matches_float64_on_the_same_weights(cfg):
    """Same weights and dropout masks: logits and gradients agree to 1e-3."""
    g = random_connected_multigraph(9, 30, seed=4)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    m32, m64 = dtype_model(cfg, "float32"), dtype_model(cfg, "float64")
    m64.params[...] = m32.params              # the rounded float64 init
    roots = [0, 2] if cfg.ego_ids else None
    labels = np.arange(g.num_edges if cfg.readout == "edge"
                       else g.num_nodes) % 2
    got = {}
    for m in (m32, m64):
        eval_logits, _ = m.forward(g, supp, rev, roots=roots)
        train_logits, cache = m.forward(g, supp, rev, roots=roots,
                                        train_mode=True, seed=3)
        _, dl = weighted_bce_loss(train_logits, labels)
        got[m.params.dtype] = (eval_logits, train_logits,
                               m.backward(cache, dl).copy())
    for a, b in zip(got[np.dtype(np.float32)], got[np.dtype(np.float64)]):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() <= 1e-3 * np.abs(b).max()


@pytest.mark.parametrize("cfg", [ModelConfig(readout="edge"),
                                 ModelConfig(two_stage=False, readout="edge")],
                         ids=["two-stage", "single-stage"])
def test_train_step_groups_no_index_again(monkeypatch, cfg):
    """Gathered parts carry the support index's groups: once they are built,
    a train step's backward scatters through them and groups nothing."""
    import meganet.graph as graph_module

    calls = []

    def counted(*args, fn=graph_module.build_groups):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(graph_module, "build_groups", counted)
    g = random_connected_multigraph(9, 30, seed=4)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = dtype_model(cfg, "float32")
    for step in range(2):
        calls.clear()
        logits, cache = model.forward(g, supp, rev, train_mode=True, seed=step)
        model.backward(cache, np.ones_like(logits))
        # the first step builds the edges_by_src and edges_by_dst it reads
        assert len(calls) <= (3 if step == 0 else 0)


def test_float32_backward_passes_no_subnormal(monkeypatch):
    """Logit gradients under float32's resolution of the largest are dropped
    before they turn into subnormals."""
    upstreams = record_mlp_backward_upstreams(monkeypatch)
    g = random_connected_multigraph(9, 30, seed=4)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = dtype_model(ModelConfig(readout="edge"), "float32")
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=3)
    dl = np.full(logits.size, 1e-4)
    dl[::3] = 1e-40
    dl[1::3] = -1e-33
    model.backward(cache, dl)
    tiny = np.finfo(np.float32).tiny
    assert upstreams
    for u in upstreams:
        assert not ((u != 0) & (np.abs(u) < tiny)).any()
