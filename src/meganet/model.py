"""Two-stage multigraph message-passing layers and the full model.

A layer is one direction step per message direction followed by the node
and edge updates. The direction step reduces the parallel edges of each
distinct (src, dst) pair at an artificial aggregation site, maps the result
through the post-aggregation MLP, builds one message per site from
[x_src || h] and aggregates those messages at the destination node.
Directions are data: a layer loops over its support indices, the forward
one and, when bidirectional, the support index of the transposed multigraph
(build_reverse_index), each with its own DirectionNets. The node update
reads [x || a_0 (|| a_1)]; each direction updates its own copy of the edge
latents, except in the last layer, which updates only the latents the
readout reads: none for a node readout, the forward direction's for an edge
readout. The skipped edge-update nets stay in Model.params and checkpoints
but are inert: nothing calls them and their gradient stays 0. A
single-stage layer (all edges aggregated at the node in one go) is kept as
the baseline.

Every MLP weight and bias is a view into Model.params and its gradient a
view into Model.grads, so backward accumulates in place and an optimizer
updates Model.params in place. ModelConfig.dtype (float32 by default, or
float64) is the dtype of both arenas, of the node and edge features a
forward casts, and so of every activation, cache and gradient.

MLP inputs that concatenate gathered rows ([x_src || h], [x_src || e || h],
[x || a_0 (|| a_1)], the edge readout's [x_src || e || x_dst]) are passed
as nn.GatheredConcat: nothing of per-edge width is built or cached, and
each backward returns the gradients already summed into x, e and h rows;
a gathered part carries the support index's Groups for its row index, so
the backward scatter groups nothing again.
Reductions read their rows where they lie: edge latents e with the support
index's by_pair groups, messages with its by_dst groups (agg.GroupedFeatures),
and their VJPs return gradients in the same row order, so no reduction
input is gathered and no gradient scattered back through a group order.

A train-mode forward records caches; Model.backward replays them in
reverse for exact gradients, including through max/min (lowest-index
tie-break), mean, std and the log-degree-scaled aggregator. An eval-mode
forward drops each MLP's cache as soon as the MLP returns and returns only
the final node and edge states; it trims the heap before it runs, and
train_model before and after a whole run (heap.trimmed_heap).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .agg import (
    PNA_SCALERS,
    PNA_STATS,
    AggSpec,
    GroupedFeatures,
    reduce_or_default_with_vjp,
    segment_reduce_with_vjp,
)
from .graph import Multigraph, SupportIndex
from .heap import trimmed_heap
from .nn import GatheredConcat, Mlp, init_mlp, mlp_backward, mlp_forward, mlp_size


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches and latent widths.

    The defaults are the reference hyperparameters, which the command line
    also builds from.
    """

    num_layers: int = 2
    bidirectional: bool = True
    ego_ids: bool = False
    edge_agg: AggSpec = AggSpec("sum")
    node_agg: AggSpec = AggSpec("sum")
    readout: str = "node"          # "node" or "edge"
    two_stage: bool = True         # False selects the single-stage baseline
    hidden_node: int = 64
    hidden_edge: int = 64
    mlp_hidden: int = 64
    dropout: float = 0.1
    dtype: str = "float32"         # or "float64"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ModelError("num_layers must be at least 1")
        if min(self.hidden_node, self.hidden_edge, self.mlp_hidden) < 1:
            raise ModelError("hidden widths must be at least 1")
        if self.readout not in ("node", "edge"):
            raise ModelError(f"unknown readout {self.readout!r}")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unknown dtype {self.dtype!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        # version-1 checkpoints may carry the switch; only its "on" value exists
        if not d.pop("post_agg_mlp", True):
            raise ModelError("post_agg_mlp=false is not supported: the "
                             "post-aggregation MLP is part of every layer")
        d["edge_agg"] = _agg_from_dict(d["edge_agg"])
        d["node_agg"] = _agg_from_dict(d["node_agg"])
        # checkpoints written before the dtype switch ran in float64
        d.setdefault("dtype", "float64")
        return cls(**d)


def _agg_from_dict(d: dict) -> AggSpec:
    # version-1 checkpoints list PNA's statistics and scalers; only the full
    # sets, which the command line always wrote, still load
    for key, full in (("pna_stats", PNA_STATS), ("pna_scalers", PNA_SCALERS)):
        if sorted(d.get(key, full)) != sorted(full):
            raise ModelError(f"{key}={d[key]} is not supported: pna uses "
                             f"all of {', '.join(full)}")
    return AggSpec(kind=d["kind"],
                   mean_log_degree=float(d.get("mean_log_degree", 1.0)))


class DirectionNets(NamedTuple):
    """Weights of one message direction."""

    msg_net: Mlp                   # builds messages from [x_src || h]
    edge_update_net: Mlp           # updates e from [x_src || e || h]
    edge_agg_mlp: Mlp | None       # maps reduced parallel edges to h


@dataclass
class LayerParams:
    """Weights of one message-passing layer."""

    directions: list[DirectionNets]    # forward first, then reverse
    node_update_net: Mlp               # updates x from [x || a_0 (|| a_1)]
    agg_edge: AggSpec
    agg_node: AggSpec


def add_ego_ids(node_features: np.ndarray, roots) -> np.ndarray:
    """Append a binary root-marker column."""
    roots = np.asarray(roots, dtype=np.int64)
    col = np.zeros((node_features.shape[0], 1), dtype=node_features.dtype)
    if roots.size:
        if roots.min() < 0 or roots.max() >= node_features.shape[0]:
            raise ModelError("root index out of range")
        col[roots] = 1.0
    return np.concatenate([node_features, col], axis=1)


# ---------------------------------------------------------------------------
# direction step and edge update (forward + cached backward)
# ---------------------------------------------------------------------------

def _mlp(net: Mlp, x, train: bool, seed: int):
    """mlp_forward; in eval mode the cache is dropped at once, so the MLP's
    hidden activations are freed before the next MLP runs."""
    out, cache = mlp_forward(net, x, train, seed)
    return out, cache if train else None


def direction_fwd(x, e, supp: SupportIndex, nets: DirectionNets,
                  agg_edge: AggSpec, agg_node: AggSpec, train=False,
                  seeds=(0, 0)):
    """Multi-edge reduce, post-aggregation MLP, message MLP and node reduce.

    Returns (h, a, cache): h holds one latent per support pair, a one
    aggregate per node (zeros where no pair arrives). seeds are the
    dropout seeds of the two MLPs.
    """
    h_raw, edge_vjp = segment_reduce_with_vjp(
        agg_edge, GroupedFeatures(e, supp.by_pair))
    h, agg_cache = _mlp(nets.edge_agg_mlp, h_raw, train, seeds[0])
    msg, msg_cache = _mlp(nets.msg_net,
                          GatheredConcat((x, supp.by_src), (h, None)),
                          train, seeds[1])
    a, node_vjp = reduce_or_default_with_vjp(
        agg_node, GroupedFeatures(msg, supp.by_dst))
    cache = (nets, edge_vjp, agg_cache, msg_cache, node_vjp) if train else None
    return h, a, cache


def direction_bwd(cache, ga, gx, gh, ge):
    """Backward of direction_fwd.

    gh and ge are the h and e gradients of the direction's edge update, or
    None when it did not run; the x gradient is added into gx. Returns the
    e gradient.
    """
    nets, edge_vjp, agg_cache, msg_cache, node_vjp = cache
    (gx_msg, gh_msg), _ = mlp_backward(nets.msg_net, msg_cache, node_vjp(ga))
    gx += gx_msg
    gh_raw, _ = mlp_backward(nets.edge_agg_mlp, agg_cache,
                             gh_msg if gh is None else gh + gh_msg)
    ge_dir = edge_vjp(gh_raw)
    return ge_dir if ge is None else ge + ge_dir


def edge_update_fwd(x, e, h, supp: SupportIndex, net: Mlp, train=False,
                    seed=0):
    """Per-edge update from pre-update node features: [x_src || e || h]."""
    inp = GatheredConcat((x, supp.edges_by_src), (e, None), (h, supp.by_pair))
    out, net_cache = _mlp(net, inp, train, seed)
    return out, (net, net_cache)


def edge_update_bwd(cache, gout, gx):
    """Backward of edge_update_fwd; adds into gx and returns (ge, gh)."""
    net, net_cache = cache
    (gx_eu, ge, gh), _ = mlp_backward(net, net_cache, gout)
    gx += gx_eu
    return ge, gh


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def two_stage_layer_fwd(lp: LayerParams, x, es, supports, train=False,
                        seq=lambda: 0, edge_updates=None):
    """One layer over len(supports) directions; es holds their edge latents.

    Only the first edge_updates directions (default: all) update their edge
    latents; the others return theirs unchanged but still draw their seed.
    """
    if edge_updates is None:
        edge_updates = len(supports)
    hs, parts, dir_caches = [], [(x, None)], []
    for supp, nets, e in zip(supports, lp.directions, es):
        h, a, c = direction_fwd(x, e, supp, nets, lp.agg_edge, lp.agg_node,
                                train, (seq(), seq()))
        hs.append(h)
        parts.append((a, None))
        dir_caches.append(c)
    x1, gv_cache = _mlp(lp.node_update_net, GatheredConcat(*parts), train,
                        seq())
    es1, eu_caches = list(es), []
    for d, (supp, nets, e, h) in enumerate(zip(supports, lp.directions, es,
                                               hs)):
        seed = seq()
        if d < edge_updates:
            es1[d], c = edge_update_fwd(x, e, h, supp, nets.edge_update_net,
                                        train, seed)
            eu_caches.append(c)
    return x1, es1, (lp, dir_caches, gv_cache, eu_caches, x.shape)


def two_stage_layer_bwd(cache, gx1, ges1):
    """ges1 holds the e gradients of the directions whose edge update ran."""
    lp, dir_caches, gv_cache, eu_caches, x_shape = cache
    gx0 = np.zeros(x_shape, dtype=gx1.dtype)
    eu_grads = [edge_update_bwd(c, ge1, gx0)
                for c, ge1 in zip(eu_caches, ges1)]
    eu_grads += [(None, None)] * (len(dir_caches) - len(eu_grads))
    (gx_nu, *gas), _ = mlp_backward(lp.node_update_net, gv_cache, gx1)
    gx0 += gx_nu
    return gx0, [direction_bwd(c, ga, gx0, gh, ge0)
                 for c, ga, (ge0, gh) in zip(dir_caches, gas, eu_grads)]


def single_stage_layer_fwd(lp: LayerParams, x, es, supp: SupportIndex,
                           train=False, seq=lambda: 0, edge_updates=1):
    """Baseline layer: all incoming edges aggregated at the node in one stage.

    Edges are read through supp's edges_by_src and edges_by_dst groups; es
    holds one edge latent, returned unchanged when edge_updates is 0.
    """
    (e,) = es
    nets = lp.directions[0]
    src, dst = supp.edges_by_src, supp.edges_by_dst
    msg, msg_cache = _mlp(nets.msg_net, GatheredConcat((x, src), (e, None)),
                          train, seq())
    a, vjp = reduce_or_default_with_vjp(lp.agg_node,
                                        GroupedFeatures(msg, dst))
    x1, gv_cache = _mlp(lp.node_update_net,
                        GatheredConcat((x, None), (a, None)), train, seq())
    seed = seq()
    ge_cache = None
    if edge_updates:
        e, ge_cache = _mlp(nets.edge_update_net,
                           GatheredConcat((x, src), (e, None), (x, dst)),
                           train, seed)
    return x1, [e], (lp, msg_cache, vjp, gv_cache, ge_cache)


def single_stage_layer_bwd(cache, gx1, ges1):
    lp, msg_cache, vjp, gv_cache, ge_cache = cache
    nets = lp.directions[0]

    (gx_nu, ga), _ = mlp_backward(lp.node_update_net, gv_cache, gx1)
    (gx_msg, ge_msg), _ = mlp_backward(nets.msg_net, msg_cache, vjp(ga))
    if ge_cache is None:
        return gx_nu + gx_msg, [ge_msg]
    (gx_src, ge0, gx_dst), _ = mlp_backward(nets.edge_update_net, ge_cache,
                                            ges1[0])
    return gx_src + gx_dst + gx_nu + gx_msg, [ge0 + ge_msg]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class Model:
    """Full message-passing model with encoders, L layers and a readout head."""

    def __init__(self, config: ModelConfig, d_node_in: int, d_edge_in: int,
                 seed: int = 0):
        self.config = config
        self.d_node_in = d_node_in
        self.d_edge_in = d_edge_in
        self.seed = seed
        rng = np.random.default_rng(seed)
        dn, de = config.hidden_node, config.hidden_edge
        hid = config.mlp_hidden
        n_dir = 2 if config.two_stage and config.bidirectional else 1
        prefixes = [[f"layer{li}." + ("rev_" if d else "") for d in range(n_dir)]
                    for li in range(config.num_layers)]

        # layer widths of every MLP by checkpoint name, in parameter order
        specs = {"node_encoder": [d_node_in + int(config.ego_ids), dn],
                 "edge_encoder": [d_edge_in, de]}
        eu_in = dn + 2 * de if config.two_stage else 2 * dn + de
        for li, layer_prefixes in enumerate(prefixes):
            for p in layer_prefixes:
                if config.two_stage:
                    specs[p + "edge_agg_mlp"] = [config.edge_agg.out_width(de),
                                                 hid, de]
                specs[p + "msg_net"] = [dn + de, hid, dn]
                specs[p + "edge_update_net"] = [eu_in, hid, de]
            specs[f"layer{li}.node_update_net"] = [
                dn + n_dir * config.node_agg.out_width(dn), hid, dn]
        specs["readout"] = [dn if config.readout == "node" else 2 * dn + de,
                            hid, 1]

        sizes = [mlp_size(dims) for dims in specs.values()]
        self.params = np.empty(sum(sizes), dtype=config.dtype)
        self.grads = np.zeros(sum(sizes), dtype=config.dtype)
        nets: dict[str, Mlp] = {}
        pos = 0
        for (name, dims), size in zip(specs.items(), sizes):
            arena = (self.params[pos:pos + size], self.grads[pos:pos + size])
            if name.endswith("_encoder"):
                nets[name] = init_mlp(dims, rng, "identity", arena=arena)
            else:
                nets[name] = init_mlp(dims, rng, "relu", config.dropout, arena)
            pos += size
        self._mlps: list[tuple[str, Mlp]] = list(nets.items())

        self.node_encoder = nets["node_encoder"]
        self.edge_encoder = nets["edge_encoder"]
        self.readout_net = nets["readout"]
        self.layers = [
            LayerParams([DirectionNets(nets[p + "msg_net"],
                                       nets[p + "edge_update_net"],
                                       nets.get(p + "edge_agg_mlp"))
                         for p in layer_prefixes],
                        nets[f"layer{li}.node_update_net"],
                        config.edge_agg, config.node_agg)
            for li, layer_prefixes in enumerate(prefixes)]

    def named_mlps(self) -> list[tuple[str, Mlp]]:
        return list(self._mlps)

    # -- forward ------------------------------------------------------------

    def forward(self, g: Multigraph, supp: SupportIndex,
                rev: SupportIndex | None = None, roots=None,
                train_mode: bool = False, seed: int = 0):
        """Returns (logits, cache). Logits are per node or per edge.

        rev is build_reverse_index(g, supp); only the bidirectional
        two-stage model reads it. A train-mode cache holds what backward
        reads and nothing else. An eval-mode cache is {"final": (x, es)}:
        the last node states and each direction's latest edge latents.
        An eval forward outside train_model trims the heap before it runs
        (heap.trimmed_heap).
        """
        if train_mode:
            return self._forward(g, supp, rev, roots, True, seed)
        with trimmed_heap(on_exit=False):
            return self._forward(g, supp, rev, roots, False, seed)

    def _forward(self, g, supp, rev, roots, train_mode, seed):
        cfg = self.config
        supports = [supp]
        if cfg.two_stage and cfg.bidirectional:
            if rev is None:
                raise ModelError("bidirectional model needs a reverse "
                                 "SupportIndex")
            supports.append(rev)
        if cfg.ego_ids and roots is None:
            roots = np.zeros(0, dtype=np.int64)

        seq = _SeedSequence(seed)
        feats = g.node_features.astype(cfg.dtype, copy=False)
        if cfg.ego_ids:
            feats = add_ego_ids(feats, roots)
        x, c_nenc = _mlp(self.node_encoder, feats, train_mode, seq())
        e, c_eenc = _mlp(self.edge_encoder,
                         g.edge_features.astype(cfg.dtype, copy=False),
                         train_mode, seq())
        es = [e] * len(supports)

        # the readout reads no edge latent (node) or the forward one (edge)
        last_updates = 0 if cfg.readout == "node" else 1
        stages = []
        for li, lp in enumerate(self.layers):
            updates = (last_updates if li == len(self.layers) - 1
                       else len(supports))
            if cfg.two_stage:
                x, es, c = two_stage_layer_fwd(lp, x, es, supports,
                                               train_mode, seq, updates)
            else:
                x, es, c = single_stage_layer_fwd(lp, x, es, supp, train_mode,
                                                  seq, updates)
            if train_mode:
                stages.append(c)
            del c                 # eval: free it before the next layer runs

        if cfg.readout == "node":
            ro_in = x
        else:
            ro_in = GatheredConcat((x, supp.edges_by_src), (es[0], None),
                                   (x, supp.edges_by_dst))
        logits2d, c_ro = _mlp(self.readout_net, ro_in, train_mode, seq())
        if not train_mode:
            return logits2d[:, 0], {"final": (x, es)}
        return logits2d[:, 0], {"enc": (c_nenc, c_eenc), "stages": stages,
                                "readout": c_ro}

    # -- backward -----------------------------------------------------------

    def backward(self, cache, logit_grads) -> np.ndarray:
        """Exact reverse-mode gradients, written into and returned as self.grads.

        The returned array is overwritten by the next call. Logit gradients
        below the dtype's resolution of the largest one (eps * max |g|) are
        taken as 0: they change no gradient at that resolution, and in
        float32 they would carry subnormals, which slow every matmul they
        reach several times over.
        """
        if "stages" not in cache:
            raise ModelError("backward needs the cache of a train-mode "
                             "forward")
        self.grads[...] = 0.0
        gl = np.array(logit_grads, dtype=self.params.dtype).reshape(-1, 1)
        mag = np.abs(gl)
        gl[mag < np.finfo(gl.dtype).eps * mag.max(initial=0.0)] = 0.0

        gro_in, _ = mlp_backward(self.readout_net, cache["readout"], gl)
        if self.config.readout == "node":
            gx, ges = gro_in, []
        else:
            gx_src, ge, gx_dst = gro_in
            gx, ges = gx_src + gx_dst, [ge]

        layer_bwd = (two_stage_layer_bwd if self.config.two_stage
                     else single_stage_layer_bwd)
        for c in reversed(cache["stages"]):
            gx, ges = layer_bwd(c, gx, ges)

        c_nenc, c_eenc = cache["enc"]
        mlp_backward(self.node_encoder, c_nenc, gx)
        mlp_backward(self.edge_encoder, c_eenc, sum(ges[1:], ges[0]))
        return self.grads


class _SeedSequence:
    """Deterministic per-call dropout seeds derived from a base seed."""

    def __init__(self, base: int):
        self.base = int(base)
        self.counter = 0

    def __call__(self) -> int:
        self.counter += 1
        return (self.base * 1000003 + self.counter) % (2 ** 63)


CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    """JSON checkpoint: config echo plus per-MLP dims and row-major arrays."""
    import json

    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "d_node_in": model.d_node_in,
        "d_edge_in": model.d_edge_in,
        "seed": model.seed,
        "mlps": [
            {
                "name": name,
                "layer_dims": m.layer_dims,
                "activation": m.activation,
                "weights": [w.ravel().tolist() for w in m.weights],
                "biases": [b.tolist() for b in m.biases],
            }
            for name, m in model.named_mlps()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> Model:
    """Model saved by save_checkpoint; malformed content raises ModelError."""
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"checkpoint is not JSON: {exc}") from None
    try:
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version "
                             f"{payload.get('format_version')!r}")
        config = ModelConfig.from_dict(payload["config"])
        model = Model(config, payload["d_node_in"], payload["d_edge_in"],
                      seed=payload.get("seed", 0))
        by_name = {entry["name"]: entry for entry in payload["mlps"]}
        for name, m in model.named_mlps():
            entry = by_name.get(name)
            if (entry is None or entry["layer_dims"] != m.layer_dims
                    or len(entry["weights"]) != len(m.weights)
                    or len(entry["biases"]) != len(m.biases)):
                raise ModelError(f"checkpoint does not match model structure "
                                 f"at {name!r}")
            for w, flat in zip(m.weights, entry["weights"]):
                w[...] = np.asarray(flat, dtype=w.dtype).reshape(w.shape)
            for b, vals in zip(m.biases, entry["biases"]):
                b[...] = np.asarray(vals, dtype=b.dtype).reshape(b.shape)
    except ModelError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed checkpoint: {exc!r}") from None
    if not np.isfinite(model.params).all():
        raise ModelError("checkpoint holds non-finite weights")
    return model
