import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from meganet.agg import AggError, AggSpec
from meganet.data import FeatureSpec, generate_planted_task
from meganet.graph import (
    Multigraph,
    apply_permutation,
    build_reverse_index,
    build_support_index,
    random_connected_multigraph,
    random_permutation,
)
from meganet.model import (
    DirectionNets,
    LayerParams,
    Model,
    ModelConfig,
    ModelError,
    direction_fwd,
    edge_update_fwd,
    layer_fwd,
    load_checkpoint,
    plan_layers,
    save_checkpoint,
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
               [np.full(out_width, value)])


def slice_mlp(in_width, lo, hi):
    """Net that selects columns [lo, hi) of its input."""
    w = np.zeros((in_width, hi - lo))
    w[lo:hi] = np.eye(hi - lo)
    return Mlp([w], [np.zeros(hi - lo)])


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
    (h, _), (a, _), _ = direction_fwd(x, e, supp, params.directions[d],
                                      params.agg_edge, params.agg_node,
                                      False, lambda: 0)
    return h, a


def whole(params, supports):
    """The plan of one layer that computes every row, as Model.forward
    builds it without rows."""
    return plan_layers([params], supports, None, None)[2][0]


def edge_update(x, e, supp, params):
    h, _ = direction(x, e, supp, params)
    parts = whole(params, [supp])[2][0]
    e_next, _ = edge_update_fwd(x, e, (h, None), params.directions[0], parts,
                                False, 0)
    return e_next


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(num_layers=0)
    with pytest.raises(ModelError):
        ModelConfig(readout="graph")
    # a float field takes an int, and mean_log_degree any real number
    assert ModelConfig(dropout=0).dropout == 0
    assert AggSpec("pna", mean_log_degree=np.float32(0.5)).mean_log_degree == 0.5


@pytest.mark.parametrize("key,value", [
    ("bidirectional", "no"), ("two_stage", 0), ("num_layers", True),
    ("num_layers", 2.0), ("dropout", "0.1"), ("hidden_node", "64"),
    ("dropout", False), ("readout", 1)])
def test_config_from_dict_refuses_a_field_of_the_wrong_type(key, value):
    """A field takes its declared type: a bool field a bool, an int field an
    int but not a bool, a float field an int or a float but not a bool."""
    d = {**asdict(ModelConfig()), key: value}
    with pytest.raises(ModelError, match=rf"^{key}: expected \w+, got "
                                         rf"{re.escape(repr(value))}$"):
        ModelConfig.from_dict(d)


@pytest.mark.parametrize("value", ["1.0", None, True])
def test_agg_spec_mean_log_degree_is_a_real_number(value):
    d = asdict(ModelConfig())
    d["node_agg"]["mean_log_degree"] = value
    with pytest.raises(AggError, match="mean_log_degree must be a real number"):
        ModelConfig.from_dict(d)


def test_config_dict_roundtrip():
    cfg = ModelConfig(num_layers=3, bidirectional=False,
                      edge_agg=AggSpec("pna", mean_log_degree=0.8),
                      node_agg=AggSpec("max"), readout="edge",
                      two_stage=False, hidden_node=7)
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


def test_checkpoint_config_json_bytes_pinned(tmp_path):
    """The checkpoint's config is asdict(ModelConfig) in field order."""
    from meganet.model import save_checkpoint

    cfg = ModelConfig(num_layers=1, bidirectional=False,
                      edge_agg=AggSpec("pna", mean_log_degree=0.5),
                      node_agg=AggSpec("max"), readout="edge", hidden_node=2,
                      hidden_edge=3, mlp_hidden=2, dropout=0.0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(Model(cfg, 1, 1, seed=0), path)
    text = path.read_text()
    assert text[:text.index(', "d_node_in"')] == (
        '{"format_version": 2, "config": {"num_layers": 1, '
        '"bidirectional": false, "edge_agg": {"kind": "pna", '
        '"mean_log_degree": 0.5}, "node_agg": {"kind": "max", '
        '"mean_log_degree": 1.0}, "readout": "edge", "two_stage": true, '
        '"hidden_node": 2, "hidden_edge": 3, "mlp_hidden": 2, "dropout": 0.0, '
        '"dtype": "float32"}')


def test_config_from_dict_post_agg_mlp_switch():
    """The post-aggregation MLP is part of every layer, so the retired
    post_agg_mlp switch is an unknown key, whatever its value."""
    cfg = ModelConfig(hidden_node=7)
    for value in (True, False):
        with pytest.raises(ModelError,
                           match=r"config: unknown \['post_agg_mlp'\]$"):
            ModelConfig.from_dict({**asdict(cfg), "post_agg_mlp": value})


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
    x_next, _, _ = layer_fwd(params, x, [g.edge_features],
                             whole(params, [supp]), False, lambda: 0)
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
    x_next, _, _ = layer_fwd(params, np.zeros((2, 1)),
                             [g.edge_features] * 2, whole(params, [supp, rev]),
                             False, lambda: 0)
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
    x_next, _, _ = layer_fwd(params, np.zeros((4, 1)),
                             [g.edge_features] * 2, whole(params, [supp, rev]),
                             False, lambda: 0)
    assert x_next[0, 0] == 3.0
    assert x_next[1:, 0].tolist() == [0.0, 0.0, 0.0]


def test_single_stage_collapse_on_simple_graph():
    """With P_ij = 1 everywhere and message nets that read the same inputs,
    the layer over pairs and the layer over per-edge sites (no multi-edge
    stage) aggregate the same multiset of messages."""
    g = make_graph([(0, 2), (1, 2)], [[3.0], [4.0]])
    supp = build_support_index(g)
    params = with_nets(plain_params(1, 1),
                       msg_net=slice_mlp(2, 1, 2))  # message = edge latent
    params.node_update_net = slice_mlp(2, 1, 2)     # echo the aggregate
    x, e = np.ones((3, 1)), g.edge_features
    x_two, _, _ = layer_fwd(params, x, [e], whole(params, [supp]), False,
                            lambda: 0)
    with_nets(params, edge_agg_mlp=None)
    x_single, _, _ = layer_fwd(params, x, [e], whole(params, [supp.per_edge]),
                               False, lambda: 0)
    assert np.allclose(x_two, x_single)


def permuted(a, perm):
    out = np.empty_like(a)
    out[perm] = a
    return out


SINGLE_STAGE_CASES = {
    f"{readout}-{node_agg}" + ("" if bi else "-unidirectional"):
        (readout, node_agg, bi)
    for readout in ("node", "edge") for node_agg in ("sum", "pna", "max")
    for bi in (True, False)}


@pytest.mark.parametrize("readout,node_agg,bidirectional",
                         SINGLE_STAGE_CASES.values(), ids=SINGLE_STAGE_CASES)
def test_single_stage_equivariance(readout, node_agg, bidirectional):
    """Relabeling the nodes and reordering the edges permutes the baseline's
    logits, node states and each direction's edge latents alike, to 1e-5 in
    float64."""
    cfg = ModelConfig(two_stage=False, bidirectional=bidirectional,
                      readout=readout, node_agg=AggSpec(node_agg),
                      hidden_node=6, hidden_edge=6, mlp_hidden=8,
                      dtype="float64")
    model = Model(cfg, 2, 2, seed=17)
    rng = np.random.default_rng(0)

    def forward(g):
        supp = build_support_index(g)
        return model.forward(g, supp, build_reverse_index(g, supp))

    for _ in range(8):
        n = int(rng.integers(2, 21))
        g = random_connected_multigraph(n, int(rng.integers(n, 81)),
                                        seed=int(rng.integers(1 << 30)))
        p = random_permutation(g, rng)
        (logits, cache), (logits_p, cache_p) = (
            forward(g), forward(apply_permutation(g, p)))
        (x, es), (x_p, es_p) = cache["final"], cache_p["final"]
        assert len(es) == len(es_p) == (2 if bidirectional else 1)
        item_perm = p.node_perm if readout == "node" else p.edge_perm
        for got, want, perm in ((logits_p, logits, item_perm),
                                (x_p, x, p.node_perm),
                                *((e_p, e, p.edge_perm)
                                  for e, e_p in zip(es, es_p))):
            np.testing.assert_allclose(got, permuted(want, perm), rtol=1e-5,
                                       atol=1e-7)


def test_bidirectional_baseline_has_reverse_nets():
    """bidirectional gives the baseline a reverse direction per layer; its
    node update reads [x || a_0 || a_1]. Under the default node readout the
    last layer updates no edge latents, so it has no edge-update net."""
    cfg = ModelConfig(two_stage=False, num_layers=2, hidden_node=4,
                      hidden_edge=3, mlp_hidden=5)
    bi = dict(Model(cfg, 2, 2).named_mlps())
    uni = dict(Model(replace(cfg, bidirectional=False), 2, 2).named_mlps())
    for li, nets in enumerate([("msg_net", "edge_update_net"), ("msg_net",)]):
        for net in nets:
            assert bi[f"layer{li}.rev_{net}"].layer_dims == \
                bi[f"layer{li}.{net}"].layer_dims
        assert bi[f"layer{li}.node_update_net"].layer_dims[0] == 4 + 2 * 4
        assert uni[f"layer{li}.node_update_net"].layer_dims[0] == 4 + 4
    assert not any("edge_agg_mlp" in name for name in bi)
    assert not any(".rev_" in name for name in uni)
    assert not any(name.startswith("layer1.") and "edge_update" in name
                   for name in {**bi, **uni})
    assert set(bi) - set(uni) == {"layer0.rev_msg_net", "layer1.rev_msg_net",
                                  "layer0.rev_edge_update_net"}


@pytest.mark.parametrize("bidirectional", [True, False],
                         ids=["bidirectional", "unidirectional"])
def test_baseline_reads_out_neighbours_only_when_bidirectional(bidirectional):
    """Node 0 only sends. Changing its out-neighbour's features moves its
    logit when the baseline runs the reverse direction, and not otherwise."""
    rng = np.random.default_rng(2)
    edges = [(0, 1), (0, 1), (1, 2), (3, 2)]
    cfg = ModelConfig(two_stage=False, bidirectional=bidirectional,
                      hidden_node=4, hidden_edge=3, mlp_hidden=5,
                      dtype="float64")
    model = Model(cfg, 2, 2, seed=5)
    feats = rng.normal(size=(4, 2))
    edge_feats = rng.normal(size=(len(edges), 2))
    logits = []
    for shift in (0.0, 1.0):
        moved = feats.copy()
        moved[1] += shift
        g = Multigraph(4, moved, edges, edge_feats)
        supp = build_support_index(g)
        logits.append(model.forward(g, supp,
                                    build_reverse_index(g, supp))[0][0])
    assert (logits[0] != logits[1]) == bidirectional


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


def test_backward_refuses_a_consumed_cache():
    g = random_connected_multigraph(8, 20, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5),
                  2, 2, seed=3)
    logits, cache = model.forward(g, supp, rev, train_mode=True)
    grads = model.backward(cache, np.ones_like(logits)).copy()
    with pytest.raises(ModelError, match="cache already consumed by backward"):
        model.backward(cache, np.ones_like(logits))
    assert np.array_equal(model.grads, grads)     # the refusal wrote nothing


@pytest.mark.parametrize("cfg", [
    ModelConfig(readout="edge"),
    ModelConfig(edge_agg=AggSpec("pna"), node_agg=AggSpec("pna")),
], ids=["sum-edge", "pna-node"])
def test_backward_frees_each_stage_before_the_encoders(monkeypatch, cfg):
    """Backward consumes its cache: once the encoder backward starts, no
    array the last layer's forward made (an MLP output or hidden
    activation, which a PNA reduction's VJP also keeps) is alive."""
    import weakref

    import meganet.model as model_module

    made = []                  # weak references, one list per layer forward
    real_layer = model_module.layer_fwd
    real_fwd = model_module.mlp_forward
    real_bwd = model_module.mlp_backward

    def layer(*args, **kwargs):
        made.append([])
        return real_layer(*args, **kwargs)

    def forward(net, x, train_mode=False, dropout_mask_seed=0):
        out, cache = real_fwd(net, x, train_mode, dropout_mask_seed)
        if made and net is not model.readout_net:
            made[-1].extend(weakref.ref(h) for h in [out, *cache["inputs"][1:]])
        return out, cache

    def backward(net, cache, upstream):
        if net is model.node_encoder:
            assert made[-1] and all(ref() is None for ref in made[-1])
            checked.append(net)
        return real_bwd(net, cache, upstream)

    monkeypatch.setattr(model_module, "layer_fwd", layer)
    monkeypatch.setattr(model_module, "mlp_forward", forward)
    monkeypatch.setattr(model_module, "mlp_backward", backward)
    g = pna_graph()
    supp = build_support_index(g)
    model = Model(replace(cfg, hidden_node=4, hidden_edge=4, mlp_hidden=5),
                  2, 2, seed=3)
    checked = []
    logits, cache = model.forward(g, supp, build_reverse_index(g, supp),
                                  train_mode=True, seed=1)
    model.backward(cache, np.ones_like(logits))
    assert len(made) == 2 and checked == [model.node_encoder]


@pytest.mark.parametrize("readout", ["edge", "node"])
@pytest.mark.parametrize("agg", ["sum", "pna"])
def test_train_cache_holds_no_rebuildable_direction_array(monkeypatch, agg,
                                                          readout):
    """A train-mode cache holds no direction's h, which backward rebuilds
    from the post-aggregation MLP's hidden activation, nor a multi-edge
    reduction's result h_raw where the edge update's cache holds e, which
    backward reduces again; PNA's statistics stay, and so does h_raw where
    no edge update holds e. Backward then gives the same gradients."""
    import gc
    import weakref

    import meganet.model as model_module

    raw, hs = [], []
    real_reduce = model_module.segment_reduce_with_vjp
    real_fwd = model_module.mlp_forward

    def reduce(spec, gf):
        (stats, scale), vjp = real_reduce(spec, gf)
        raw.append(weakref.ref(stats))
        return (stats, scale), vjp

    def forward(net, x, train_mode=False, dropout_mask_seed=0):
        out, cache = real_fwd(net, x, train_mode, dropout_mask_seed)
        if any(net is d.edge_agg_mlp for d in directions):
            hs.append(weakref.ref(out))
        return out, cache

    g = pna_graph()
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(ModelConfig(readout=readout, edge_agg=AggSpec(agg),
                              node_agg=AggSpec(agg), hidden_node=4,
                              hidden_edge=4, mlp_hidden=5), 2, 2, seed=3)
    directions = [d for lp in model.layers for d in lp.directions]
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
    want = model.backward(cache, np.ones_like(logits)).copy()
    monkeypatch.setattr(model_module, "segment_reduce_with_vjp", reduce)
    monkeypatch.setattr(model_module, "mlp_forward", forward)
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
    gc.collect()
    assert len(raw) == len(hs) == len(directions) == 4
    assert all(ref() is None for ref in hs)
    assert [ref() is not None for ref in raw] == [
        agg == "pna" or d.edge_update_net is None for d in directions]
    assert np.array_equal(model.backward(cache, np.ones_like(logits)), want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_leaves_logit_grads_unwritten(dtype):
    g = pna_graph()
    supp = build_support_index(g)
    model = Model(ModelConfig(readout="edge", dtype=dtype, hidden_node=4,
                              hidden_edge=4, mlp_hidden=5), 2, 2, seed=3)
    logits, cache = model.forward(g, supp, build_reverse_index(g, supp),
                                  train_mode=True, seed=1)
    logit_grads = np.linspace(-1, 1, logits.size, dtype=dtype)
    logit_grads[0] = 1e-30               # backward zeroes it in its copy
    before = logit_grads.copy()
    model.backward(cache, logit_grads)
    assert np.array_equal(logit_grads, before)


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
    """In eval mode an MLP keeps no cache, and its hidden activations die
    before the next MLP runs."""
    import weakref

    import meganet.model as model_module
    import meganet.nn as nn_module

    hidden = []
    real, real_act = model_module.mlp_forward, nn_module._act_forward

    def recording(net, x, train_mode=False, dropout_mask_seed=0):
        assert all(ref() is None for ref in hidden)
        out, cache = real(net, x, train_mode, dropout_mask_seed)
        assert cache is None
        return out, cache

    def act(name, z):
        h, aux = real_act(name, z)
        hidden.append(weakref.ref(h))
        return h, aux

    monkeypatch.setattr(model_module, "mlp_forward", recording)
    monkeypatch.setattr(nn_module, "_act_forward", act)
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
    # the baseline, in both directions and in one
    ModelConfig(two_stage=False, readout="node"),
    ModelConfig(two_stage=False, bidirectional=False, readout="node"),
    # the last edge update reads x_dst: its gradient reaches x and e
    ModelConfig(two_stage=False, readout="edge"),
    ModelConfig(two_stage=False, bidirectional=False, readout="edge"),
], ids=["one-layer-node", "one-layer-edge", "single-stage-node",
        "single-stage-node-unidirectional", "single-stage-edge",
        "single-stage-edge-unidirectional"])
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


LAST_LAYER_CONFIGS = {
    ("one-layer-" if layers == 1 else "")
    + ("" if two_stage else "single-stage-") + readout
    + ("" if bidirectional else "-unidirectional"):
    ModelConfig(num_layers=layers, two_stage=two_stage, readout=readout,
                bidirectional=bidirectional)
    for layers in (2, 1) for two_stage in (True, False)
    for readout in ("node", "edge") for bidirectional in (True, False)}


@pytest.mark.parametrize("cfg", LAST_LAYER_CONFIGS.values(),
                         ids=LAST_LAYER_CONFIGS)
def test_last_layer_runs_only_edge_updates_readout_reads(monkeypatch, cfg):
    """The last layer has an edge-update net only where the readout reads
    its latents, and one train step runs and differentiates every MLP the
    model builds."""
    import meganet.model as model_module

    seen = {"forward": set(), "backward": set()}

    def recorded(fn, calls):
        def wrapper(m, *args, **kwargs):
            calls.add(id(m))
            return fn(m, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(model_module, "mlp_forward",
                        recorded(model_module.mlp_forward, seen["forward"]))
    monkeypatch.setattr(model_module, "mlp_backward",
                        recorded(model_module.mlp_backward, seen["backward"]))
    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(replace(cfg, hidden_node=3, hidden_edge=3, mlp_hidden=4),
                  2, 2, seed=4)
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
    model.backward(cache, np.ones_like(logits))
    mlps = dict(model.named_mlps())
    last = f"layer{cfg.num_layers - 1}."
    assert {name for name in mlps if name.startswith(last)
            and name.endswith("edge_update_net")} == (
        {last + "edge_update_net"} if cfg.readout == "edge" else set())
    for calls in seen.values():
        assert {name for name, m in mlps.items() if id(m) not in calls} == set()


def test_checkpoint_roundtrip(tmp_path):
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(edge_agg=AggSpec("pna"), hidden_node=4, hidden_edge=4,
                      mlp_hidden=5)
    model = Model(cfg, 2, 2, seed=8)
    want, _ = model.forward(g, supp, rev)

    spec = FeatureSpec(ts_mean=5.5, ts_std=2.0, amount_mean=-1.0,
                       amount_std=0.25, categories={"currency": ["EUR", "USD"]})
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, spec)
    loaded, loaded_spec = load_checkpoint(path)
    got, _ = loaded.forward(g, supp, rev)
    assert np.array_equal(want, got)
    assert loaded.config == cfg
    assert loaded_spec == spec


DATA = Path(__file__).parent / "data"


def test_pna_checkpoint_reproduces_its_saved_logits():
    """A checkpoint of an earlier version of the model (both aggregations
    pna, float32, edge readout) loads and reproduces the logits it was
    saved with.

    The saved logits came from multiplying out PNA's 12·d block; the model
    now sums the scalers' weight blocks one by one, which reorders float32
    additions (about 2e-6 relative here), so equality is to 1e-5.
    """
    import json

    model, spec = load_checkpoint(DATA / "pna_checkpoint_v1.json")
    assert spec is None                  # saved without an input encoding
    assert model.config.edge_agg == AggSpec("pna", mean_log_degree=0.9)
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    logits, _ = model.forward(g, supp, build_reverse_index(g, supp))
    want = json.loads((DATA / "pna_checkpoint_v1_logits.json").read_text())
    assert np.allclose(logits, np.array(want, dtype=logits.dtype), rtol=1e-5,
                       atol=0.0)


def test_node_readout_checkpoint_reproduces_its_saved_logits():
    """A checkpoint of an earlier version of the model (float32,
    bidirectional, node readout, max/mean) loads and reproduces the logits
    it was saved with exactly."""
    import json

    model, spec = load_checkpoint(DATA / "node_checkpoint_v1.json")
    assert spec is None
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    logits, _ = model.forward(g, supp, build_reverse_index(g, supp))
    want = json.loads((DATA / "node_checkpoint_v1_logits.json").read_text())
    assert logits.dtype == np.float32
    assert np.array_equal(logits, np.array(want, dtype=np.float32))


def saved_payload(tmp_path):
    """The JSON payload of a small saved model, and the file it is in."""
    import json

    path = tmp_path / "ckpt.json"
    save_checkpoint(Model(ModelConfig(hidden_node=4, hidden_edge=4,
                                      mlp_hidden=5), 2, 2, seed=8), path)
    return json.loads(path.read_text()), path


def refused(payload, path, message):
    """load_checkpoint of payload raises ModelError matching message."""
    import json

    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("key,subset", [
    ("pna_stats", ["mean", "max", "min"]),
    ("pna_stats", ["mean", "max", "min", "std", "std"]),
    ("pna_scalers", ["identity"]),
], ids=["three-stats", "repeated-stat", "identity-only"])
def test_config_from_dict_rejects_pna_subsets(key, subset):
    """PNA's statistics and scalers are fixed, so an aggregation that lists
    any of them has an unknown key."""
    d = asdict(ModelConfig(node_agg=AggSpec("pna")))
    d["node_agg"][key] = subset
    with pytest.raises(ModelError,
                       match=rf"node_agg: unknown \['{key}'\]$"):
        ModelConfig.from_dict(d)


def test_config_from_dict_names_missing_and_unknown_keys():
    d = asdict(ModelConfig())
    del d["readout"], d["edge_agg"]["kind"]
    with pytest.raises(ModelError, match=r"config: missing \['readout'\]$"):
        ModelConfig.from_dict(d)
    d["readout"], d["extra"] = "node", 1
    with pytest.raises(ModelError, match=r"config: unknown \['extra'\]$"):
        ModelConfig.from_dict(d)
    del d["extra"]
    with pytest.raises(ModelError, match=r"edge_agg: missing \['kind'\]$"):
        ModelConfig.from_dict(d)


def _extra(mlps):
    mlps.insert(3, dict(mlps[-1], name="layer1.extra_net"))


def _swap_encoders(mlps):
    mlps[0], mlps[1] = mlps[1], mlps[0]


@pytest.mark.parametrize("edit,message", [
    (_extra, r"MLPs: unknown \['layer1.extra_net'\]$"),
    (lambda mlps: mlps.pop(2), r"MLPs: missing \['layer0.edge_agg_mlp'\]$"),
    (_swap_encoders, r"MLPs: \['edge_encoder', 'node_encoder', .*\] is not "
                     r"in the order \['node_encoder', 'edge_encoder'"),
    (lambda mlps: mlps.append(mlps[-1]),
     r"MLPs: \[.*'readout', 'readout'\] is not in the order"),
], ids=["extra", "missing", "reordered", "repeated"])
def test_checkpoint_mlps_other_than_the_models_are_refused(tmp_path, edit,
                                                           message):
    """A checkpoint holds exactly the model's MLPs in parameter order; an
    entry the model does not build is refused by name, not skipped."""
    payload, path = saved_payload(tmp_path)
    edit(payload["mlps"])
    refused(payload, path, message)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    """Version 2 is the only format; the message names the version read."""
    payload, path = saved_payload(tmp_path)
    for version in (1, 3, 999, "2", None):
        payload["format_version"] = version
        refused(payload, path, f"unsupported checkpoint version {version!r}: "
                               "only version 2 loads")


def test_forward_accepts_and_ignores_roots():
    """Callers may still pass roots; no model marks ego nodes."""
    g = random_connected_multigraph(5, 9, seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    cfg = ModelConfig(hidden_node=4, hidden_edge=4, mlp_hidden=5)
    model = Model(cfg, 2, 2, seed=3)
    a, _ = model.forward(g, supp, rev)
    b, _ = model.forward(g, supp, rev, roots=[1])
    assert np.array_equal(a, b)


def test_config_rejects_unknown_dtype():
    assert ModelConfig().dtype == "float32"
    with pytest.raises(ModelError, match="dtype"):
        ModelConfig(dtype="float16")


@pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5, float("nan")])
def test_config_refuses_dropout_outside_unit_interval(dropout):
    """Refused as the config is built, naming the field, not later inside
    the MLP stack."""
    with pytest.raises(ModelError, match=r"^dropout must be in \[0, 1\)"):
        ModelConfig(dropout=dropout)


@pytest.mark.parametrize("cfg", [
    ModelConfig(dropout=0.3),
    ModelConfig(dropout=0.0, two_stage=False, readout="edge"),
], ids=["two-stage", "single-stage-edge"])
def test_every_mlp_is_relu_with_the_config_dropout(cfg):
    """One activation for every MLP the model builds, the encoders
    included, which are one layer and so apply it nowhere."""
    mlps = dict(Model(replace(cfg, hidden_node=3, hidden_edge=3,
                              mlp_hidden=4), 2, 2).named_mlps())
    assert {(m.activation, m.dropout) for m in mlps.values()} == {
        ("relu", cfg.dropout)}
    assert [len(mlps[n].weights) for n in ("node_encoder", "edge_encoder")] \
        == [1, 1]


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
    loaded, _ = load_checkpoint(path)
    got, _ = loaded.forward(g, supp, rev)
    assert loaded.config == cfg
    assert loaded.params.dtype == want.dtype == got.dtype == np.dtype(dtype)
    assert np.array_equal(want, got)


def test_checkpoint_without_dtype_is_refused(tmp_path):
    """A config echoes every ModelConfig field: one without dtype is
    refused, not loaded in a default dtype."""
    payload, path = saved_payload(tmp_path)
    del payload["config"]["dtype"]
    refused(payload, path, r"config: missing \['dtype'\]$")


# edge and node aggregations, readouts and layer types the dtype must reach
DTYPE_CONFIGS = {
    "edge-sum-sum": ModelConfig(readout="edge"),
    "node-max-std": ModelConfig(edge_agg=AggSpec("max"),
                                node_agg=AggSpec("std")),
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
    logits, _ = model.forward(g, supp, rev)
    assert logits.dtype == f32
    logits, cache = model.forward(g, supp, rev, train_mode=True, seed=3)
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
    labels = np.arange(g.num_edges if cfg.readout == "edge"
                       else g.num_nodes) % 2
    got = {}
    for m in (m32, m64):
        eval_logits, _ = m.forward(g, supp, rev)
        train_logits, cache = m.forward(g, supp, rev, train_mode=True, seed=3)
        _, dl = weighted_bce_loss(train_logits, labels)
        got[m.params.dtype] = (eval_logits, train_logits,
                               m.backward(cache, dl).copy())
    for a, b in zip(got[np.dtype(np.float32)], got[np.dtype(np.float64)]):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() <= 1e-3 * np.abs(b).max()


@pytest.mark.parametrize("cfg,first_step", [
    (ModelConfig(readout="edge"), 3),
    (ModelConfig(two_stage=False, readout="edge"), 4),
], ids=["two-stage", "single-stage"])
def test_train_step_groups_no_index_again(monkeypatch, cfg, first_step):
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
        # the first step builds the edges_by_src and edges_by_dst it reads:
        # the two-stage forward edge update's and readout's and the reverse
        # edge update's; the baseline's per-edge sites of both directions
        assert len(calls) <= (first_step if step == 0 else 0)


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


def pna_graph():
    """Parallel edges of multiplicity 1 to 4; nodes 4 and 5 receive no
    pair, nodes 6 and 7 send none, and node 6 has no edge at all."""
    edges = ([(0, 1)] * 3 + [(0, 2)] + [(1, 2)] * 2 + [(2, 3)] + [(3, 1)] * 4
             + [(4, 3), (5, 0), (5, 0), (2, 7)])
    rng = np.random.default_rng(21)
    return Multigraph(8, rng.normal(size=(8, 2)), np.array(edges),
                      rng.normal(size=(len(edges), 2)))


def built_pna(reduce):
    """A reduction that multiplies PNA's block out and differentiates
    through it, as the model did before its scalers became MLP row
    weights: the test-side reference."""

    def wrapper(spec, gf):
        (stats, degree_scale), vjp = reduce(spec, gf)
        if degree_scale is None:
            return (stats, None), vjp
        # the [G, 3] scaler rows: zeros for an empty group, in no bucket
        scale = np.zeros((len(stats), degree_scale.width), dtype=stats.dtype)
        for gids, u in degree_scale.buckets:
            scale[gids] = u
        block = (stats[:, None, :] * scale[:, :, None]).reshape(len(stats), -1)
        assert block.shape[1] == spec.out_width(gf.values.shape[1])

        def block_vjp(gblock):
            per_scaler = gblock.reshape(*scale.shape, -1)
            return vjp((per_scaler * scale[:, :, None]).sum(axis=1))

        return (block, None), block_vjp

    return wrapper


PNA_CONFIGS = {
    f"{'-'.join(aggs)}-{'bi' if bi else 'uni'}-{readout}": ModelConfig(
        edge_agg=AggSpec(aggs[0], mean_log_degree=0.8),
        node_agg=AggSpec(aggs[1], mean_log_degree=1.3),
        bidirectional=bi, readout=readout, hidden_node=4, hidden_edge=3,
        mlp_hidden=5, dropout=0.2, dtype="float64")
    for aggs in (("pna", "sum"), ("sum", "pna"), ("pna", "pna"))
    for bi in (False, True) for readout in ("node", "edge")}


def pna_outputs(model, g, supp, rev):
    """Eval logits, train logits and gradients of one step."""
    eval_logits, _ = model.forward(g, supp, rev)
    train_logits, cache = model.forward(g, supp, rev, train_mode=True, seed=3)
    _, dl = weighted_bce_loss(train_logits, np.arange(train_logits.size) % 2)
    return eval_logits, train_logits, model.backward(cache, dl).copy()


@pytest.mark.parametrize("cfg", PNA_CONFIGS.values(), ids=PNA_CONFIGS)
def test_pna_scalers_as_row_weights_match_built_block(monkeypatch, cfg):
    """PNA fed to its MLPs as scaled parts gives the logits and gradients
    of multiplying its 12·d block out, to 1e-12 at float64."""
    import meganet.model as model_module

    g = pna_graph()
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    assert (supp.by_dst.counts == 0).any() and (rev.by_dst.counts == 0).any()
    model = Model(cfg, 2, 2, seed=7)
    got = pna_outputs(model, g, supp, rev)
    for name in ("segment_reduce_with_vjp", "reduce_or_default_with_vjp"):
        monkeypatch.setattr(model_module, name,
                            built_pna(getattr(model_module, name)))
    want = pna_outputs(model, g, supp, rev)
    assert got[2].any()
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def array_widths(root) -> set:
    """Column counts of the 2-d arrays reachable from root, walked as
    cache_array_bytes walks it."""
    seen, widths, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Mlp, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.ndim == 2:
                widths.add(obj.shape[1])
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj) and hasattr(obj, "__closure__"):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return widths


def test_pna_train_cache_holds_no_block_of_every_scaler():
    """The train cache keeps PNA's statistics and degree scale, never the
    out_width-wide block they stand for."""
    cfg = PNA_CONFIGS["pna-pna-bi-edge"]
    g = pna_graph()
    supp = build_support_index(g)
    _, cache = Model(cfg, 2, 2).forward(g, supp, build_reverse_index(g, supp),
                                        train_mode=True)
    widths = array_widths(cache)
    assert not widths & {cfg.edge_agg.out_width(cfg.hidden_edge),
                         cfg.node_agg.out_width(cfg.hidden_node)}
    assert {4 * cfg.hidden_edge, 4 * cfg.hidden_node} <= widths


ROWS_CONFIGS = {
    f"{readout}-{'bi' if bi else 'uni'}-{'two' if two else 'single'}-stage-"
    f"{layers}-layer{'' if agg == 'mean' else '-' + agg}": ModelConfig(
        num_layers=layers, bidirectional=bi, two_stage=two, readout=readout,
        edge_agg=AggSpec(agg), node_agg=AggSpec("sum" if agg == "mean" else agg),
        hidden_node=4, hidden_edge=3, mlp_hidden=5, dropout=0.0,
        dtype="float64")
    for readout in ("edge", "node") for bi in (True, False)
    for two in (True, False) for layers in (1, 2, 3)
    for agg in ("mean", "pna", "max")}


@pytest.mark.parametrize("cfg", ROWS_CONFIGS.values(), ids=ROWS_CONFIGS)
def test_rows_forward_matches_full_forward(cfg):
    """A forward asked for some rows gives the full forward's logits at
    those rows and, backward, its gradients for a gradient that is zero
    elsewhere, to 1e-12: each layer computes only the rows that later
    layers and the readout read, in other row counts, so matmuls may round
    otherwise."""
    g = pna_graph()
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    model = Model(cfg, 2, 2, seed=7)
    width = g.num_edges if cfg.readout == "edge" else g.num_nodes
    rng = np.random.default_rng(3)
    rows = rng.choice(width, width // 2 + 1, replace=False)
    dl = rng.normal(size=rows.size)
    dl_full = np.zeros(width)
    dl_full[rows] = dl

    full, cache = model.forward(g, supp, rev, train_mode=True, seed=2)
    want = model.backward(cache, dl_full).copy()
    got_logits, cache = model.forward(g, supp, rev, train_mode=True, seed=2,
                                      rows=rows)
    got = model.backward(cache, dl)
    eval_logits, _ = model.forward(g, supp, rev, rows=rows)
    for a, b in ((got_logits, full[rows]), (eval_logits, full[rows]),
                 (got, want)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_rows_forward_computes_only_what_is_read(monkeypatch):
    """On a planted max_of_sums graph asked for its receivers' logits, the
    last layer's reverse direction reduces no pair (receivers send nothing),
    its node update runs on the rows alone, and layer 0's reverse edge
    update, which only that direction would read, runs on no edge. Counted
    by rebinding the reductions and mlp_forward, as complexity_suite does."""
    import meganet.model as model_module

    calls = []

    def counted(name, real):
        def wrapper(first, second, *args, **kwargs):
            rows = (second.values if name != "mlp" else second).shape[0]
            calls.append((name, first, rows))
            return real(first, second, *args, **kwargs)
        return wrapper

    for name, attr in (("edge", "segment_reduce_with_vjp"),
                       ("node", "reduce_or_default_with_vjp"),
                       ("mlp", "mlp_forward")):
        monkeypatch.setattr(model_module, attr,
                            counted(name, getattr(model_module, attr)))
    g, labels = generate_planted_task(12, 3, 2, "max_of_sums", 0)
    rows = np.flatnonzero(labels >= 0)
    supp = build_support_index(g)
    model = Model(ModelConfig(edge_agg=AggSpec("pna"), node_agg=AggSpec("pna"),
                              hidden_node=4, hidden_edge=4, mlp_hidden=5),
                  1, 1, seed=0)
    model.forward(g, supp, build_reverse_index(g, supp), train_mode=True,
                  rows=rows)

    reductions = [c for c in calls if c[0] != "mlp"]
    # per layer and direction, an edge reduce then a node reduce
    assert [c[0] for c in reductions] == ["edge", "node"] * 4
    assert [c[2] for c in reductions[6:]] == [0, 0]
    assert reductions[4][2] == g.num_edges       # forward: every pair
    mlp_rows = {id(net): n for name, net, n in calls if name == "mlp"}
    first, last = model.layers
    assert mlp_rows[id(last.node_update_net)] == len(rows)
    assert mlp_rows[id(first.directions[1].edge_update_net)] == 0
    assert mlp_rows[id(first.directions[0].edge_update_net)] == g.num_edges


@pytest.mark.parametrize("readout", ["edge", "node"])
@pytest.mark.parametrize("rows", [[-1], "width", [[0]]],
                         ids=["negative", "past-the-end", "two-dimensional"])
def test_rows_outside_the_graph_raise(readout, rows):
    g = random_connected_multigraph(6, 10, seed=13)
    supp = build_support_index(g)
    model = Model(ModelConfig(readout=readout, bidirectional=False), 2, 2)
    if rows == "width":
        rows = [g.num_edges if readout == "edge" else g.num_nodes]
    for train_mode in (False, True):
        with pytest.raises(ModelError, match="rows must index"):
            model.forward(g, supp, train_mode=train_mode, rows=rows)


@pytest.mark.parametrize("readout", ["node", "edge"])
@pytest.mark.parametrize("kind", ["sum", "mean", "max", "min", "std", "pna"])
def test_edgeless_graph_runs_forward_and_backward(kind, readout):
    """A graph with no edges (as a sampled batch of edgeless seeds would be),
    with or without nodes, gives finite logits and gradients under every
    edge aggregation, PNA's zero-row scaled parts included, and so does a
    forward given no rows."""
    model = Model(ModelConfig(edge_agg=AggSpec(kind), node_agg=AggSpec(kind),
                              readout=readout, hidden_node=3, hidden_edge=3,
                              mlp_hidden=4), 1, 2)
    for n in (3, 0):
        g = make_graph([], np.zeros((0, 2)), n=n)
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        width = g.num_nodes if readout == "node" else 0
        logits, _ = model.forward(g, supp, rev)
        assert logits.shape == (width,) and np.isfinite(logits).all()
        logits, cache = model.forward(g, supp, rev, train_mode=True, seed=1)
        assert logits.shape == (width,)
        grads = model.backward(cache, np.ones_like(logits))
        assert np.isfinite(grads).all()
        for train_mode in (False, True):
            logits, _ = model.forward(g, supp, rev, train_mode=train_mode,
                                      rows=[])
            assert logits.shape == (0,)
