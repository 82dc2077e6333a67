"""Two-stage multigraph message-passing layers and the full model.

A layer is one direction step per message direction followed by the node
and edge updates. The direction step reduces the parallel edges of each
distinct (src, dst) pair at an artificial aggregation site, maps the result
through the post-aggregation MLP, builds one message per site from
[x_src || h] and aggregates those messages at the destination node.
Directions are data: a layer loops over its support indices, the forward
one and, when bidirectional, the support index of the transposed multigraph
(build_reverse_index), each with its own DirectionNets. The node update
reads [x || a_0 (|| a_1)]; each direction with an edge-update net updates
its own copy of the edge latents. Every layer but the last has one per
direction; the last has only those whose latents the readout reads: none
for a node readout, the forward direction's for an edge readout. A forward
given the rows whose logits it returns first plans, walking back from the
readout, which node states and edge latents each layer must compute
(GraphSAGE's minibatch forward, per layer and per direction); each
direction then runs on its support index restricted to its whole pairs,
with groups filtered from the index's own, so every reduction sums in the
same order as over the whole graph; a layer that reads nearly every node
computes them all. The single-stage baseline (every edge aggregated at
its node in one go) is the same engine, in the same one or two
directions, over each support index's per-edge sites
(SupportIndex.per_edge): each edge is its own site, there is no
multi-edge stage (edge_agg_mlp is None, so h is e), and the edge update
reads [x_src || e || x_dst].

Every MLP weight and bias is a view into Model.params and its gradient a
view into Model.grads, so backward accumulates in place and an optimizer
updates Model.params in place. ModelConfig.dtype (float32 by default, or
float64) is the dtype of both arenas, of the node and edge features a
forward casts, and so of every activation, cache and gradient.

MLP inputs that concatenate gathered rows ([x_src || h], [x_src || e || h],
[x || a_0 (|| a_1)], the edge readout's [x_src || e || x_dst]) are passed
as nn.GatheredConcat: nothing of per-edge width is built or cached, and
each backward returns the gradients already summed into x, e and h rows;
a gathered part carries the support index's Groups (or the restricted
ones) for its row index, so the backward scatter groups nothing again. A
reduction's result enters its MLP (the post-aggregation MLP, the node
update) as one part with the reduction's scale. Under PNA that is the
4·d statistics with an agg.DegreeScale: the size buckets the reduction
already formed, each with its three degree scalers. The pair stands for
the 12·d block the MLP's weights are laid out for. The MLP's first layer
folds each bucket's scalers into its weights, one product per group size,
and multiplies the rows of empty groups, whose statistics are zeros, by
nothing; the 12·d block is never built or cached. Every other kind has
no scale.
Reductions read their rows where they lie: edge latents e with the support
index's by_pair groups, messages with its by_dst groups (agg.GroupedFeatures),
and their VJPs return gradients in the same row order, so no reduction
input is gathered and no gradient scattered back through a group order.

A train-mode forward records caches; Model.backward replays them in
reverse for exact gradients, including through max/min (lowest-index
tie-break), mean, std and the log-degree-scaled aggregator. A cache holds
no direction's post-aggregation latent h: the backward of each MLP that
read h (the message MLP, the edge update) computes it again, bit for bit,
from the post-aggregation MLP's cached hidden activation (nn.mlp_output)
when it reaches h's input part, and drops it once that part's gradient is
formed. Where the direction's edge update caches e, a cache holds no
multi-edge reduction h_raw either: the post-aggregation MLP's backward
reduces e again for it (segment_reduce_with_vjp), and that run's VJP
carries the gradient on to e. PNA's statistics stay cached: reducing
them again costs four statistics and the max/min routing. Backward
consumes its cache as it goes: it takes the
readout's cache, then each layer's and each direction's, out before their
backward, and mlp_backward frees an MLP's inputs as it runs, so what
backward holds shrinks as it sweeps; a consumed cache is refused. An
eval-mode forward keeps no MLP cache (mlp_forward returns one in train mode
only) and returns only the final node and edge states.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .agg import (
    AggSpec,
    GroupedFeatures,
    reduce_or_default_with_vjp,
    scatter_add,
    segment_reduce_with_vjp,
)
from .data import FeatureSpec
from .graph import Groups, Multigraph, SupportIndex, build_groups
from .nn import (
    GatheredConcat,
    Mlp,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_output,
    mlp_size,
)


class ModelError(ValueError):
    pass


# what a ModelConfig field of each declared type takes; a bool is an int to
# isinstance, so only a bool field takes one
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str,
                "AggSpec": AggSpec}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches and latent widths.

    The defaults are the reference hyperparameters, which the command line
    also builds from.
    """

    num_layers: int = 2
    bidirectional: bool = True
    edge_agg: AggSpec = AggSpec("sum")
    node_agg: AggSpec = AggSpec("sum")
    readout: str = "node"          # "node" or "edge"
    two_stage: bool = True         # False: the same layers over per-edge sites
    hidden_node: int = 64
    hidden_edge: int = 64
    mlp_hidden: int = 64
    dropout: float = 0.1
    dtype: str = "float32"         # or "float64"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool) != (f.type == "bool")):
                raise ModelError(f"{f.name}: expected {f.type}, got {value!r}")
        if self.num_layers < 1:
            raise ModelError("num_layers must be at least 1")
        if min(self.hidden_node, self.hidden_edge, self.mlp_hidden) < 1:
            raise ModelError("hidden widths must be at least 1")
        if self.readout not in ("node", "edge"):
            raise ModelError(f"unknown readout {self.readout!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unknown dtype {self.dtype!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The inverse of asdict: d holds exactly the fields, and each
        aggregation exactly AggSpec's; ModelError names a key missing or
        unknown."""
        d = dict(d)
        _check_names("checkpoint config", sorted(d),
                     sorted(f.name for f in fields(cls)))
        for key in ("edge_agg", "node_agg"):
            _check_names(f"checkpoint {key}", sorted(d[key]),
                         sorted(f.name for f in fields(AggSpec)))
            d[key] = AggSpec(**d[key])
        return cls(**d)


def _check_names(what: str, got: list, want: list) -> None:
    """ModelError unless got is want, naming the names of want that got
    lacks and those it holds beyond them, or else got's order."""
    if got != want:
        wrong = {"missing": [k for k in want if k not in got],
                 "unknown": [k for k in got if k not in want]}
        raise ModelError(f"{what}: " + (", ".join(
            f"{kind} {names}" for kind, names in wrong.items() if names)
            or f"{got} is not in the order {want}"))


class DirectionNets(NamedTuple):
    """Weights of one message direction."""

    msg_net: Mlp                   # builds messages from [x_src || h]
    edge_update_net: Mlp | None    # updates e from [x_src || e || h]; None:
                                   # the direction keeps its latents
    edge_agg_mlp: Mlp | None       # maps reduced parallel edges to h; None:
                                   # per-edge sites, h = e, e reads x_dst


@dataclass
class LayerParams:
    """Weights of one message-passing layer."""

    directions: list[DirectionNets]    # forward first, then reverse
    node_update_net: Mlp               # updates x from [x || a_0 (|| a_1)]
    agg_edge: AggSpec
    agg_node: AggSpec


# ---------------------------------------------------------------------------
# the rows a forward computes
# ---------------------------------------------------------------------------

# A row set is a proper subset of range(total) that a stage computes, held
# as the int array of each row's number among the members in order, -1 for
# a row outside; None stands for the whole range.

def _rows(mask: np.ndarray) -> np.ndarray | None:
    """The row set of a boolean mask."""
    return None if mask.all() else np.where(mask, np.cumsum(mask) - 1, -1)


def _node_rows(mask: np.ndarray) -> np.ndarray | None:
    """The row set of a node mask, taken whole when it holds nine nodes in
    ten or more, or when the graph has no node: trimming a layer by a few
    rows saves little, and its arrays, a few rows short of the whole
    graph's, fragment the heap that the next step's whole-graph arrays reuse
    (aml-edge-sum reads 96% of its nodes; trimmed, its peak RSS rose about
    10 MB, and graph-structure's from 117.6 to 127.9 MB)."""
    return None if not mask.size or mask.mean() >= 0.9 else _rows(mask)


def _size(rows, total: int) -> int:
    return total if rows is None else int(rows.max()) + 1


def _restrict(groups: Groups, items, keys) -> Groups:
    """groups over the row set items, keyed by their group's number within
    the row set keys. order is filtered, not sorted again, so each group
    keeps its items in order and a reduction sums them as over groups."""
    if items is None and keys is None:
        return groups
    key, order, _ = groups
    if items is not None:
        key, order = key[items >= 0], items[order]
        order = order[order >= 0]
    num = _size(keys, groups.num_groups)
    key = key if keys is None else keys[key]
    return Groups(key, order,
                  np.append(0, np.cumsum(np.bincount(key, minlength=num))))


def _within(inner, outer) -> Groups | None:
    """The members of row set inner, which outer holds, as groups over the
    members of outer; None when they are the same rows."""
    if inner is None or _size(inner, 0) == _size(outer, inner.size):
        return None
    every = np.arange(inner.size + 1)
    return _restrict(Groups(every[:-1], every[:-1], every), inner, outer)


def _read(rows, ids: np.ndarray, total: int) -> Groups:
    """ids, read in order, as groups over the members of the row set rows."""
    return build_groups(ids if rows is None else rows[ids], _size(rows, total))


def _encoder_input(features: np.ndarray, rows, dtype) -> np.ndarray:
    return (features if rows is None else features[rows >= 0]).astype(
        dtype, copy=False)


def _update_parts(supp: SupportIndex, nets: DirectionNets, nodes_in, pairs,
                  edges, updated):
    """The indices of an edge update's parts (x_src, e, then h or x_dst)
    over the row set updated, into the rows of the row sets nodes_in, edges
    and pairs."""
    third = (_restrict(supp.edges_by_dst, updated, nodes_in)
             if nets.edge_agg_mlp is None
             else _restrict(supp.by_pair, updated, pairs))
    return (_restrict(supp.edges_by_src, updated, nodes_in),
            _within(updated, edges), third)


def plan_layers(layers: list[LayerParams], supports, nodes, updated):
    """Each layer's groupings, restricted to the rows it computes, for a
    readout that reads the last states of the row set nodes and the forward
    direction's last latents of the row set updated.

    Walked back from the readout, a layer updates the nodes that the next
    layer or the readout reads. In each direction it reduces the whole
    pairs whose destination is among them, and updates the edges of the
    pairs the next layer reduces there (the readout's, in the last layer),
    which its own pairs carry. It reads the nodes it updates and its pairs'
    sources. Returns the row sets of the nodes and, per direction, of the
    edges layer 0 reads, and per layer, layer 0 first, a (kept, supports,
    updates) triple: the nodes it updates among those it reads as groups
    (None: the same rows), per direction its support index over its pairs
    (by_src into the nodes it reads, by_dst into those it updates), and per
    direction its edge update's part indices (None: it has no update).
    """
    indices, k = [], len(supports)
    updated = [updated] + [None] * (k - 1)
    for lp in reversed(layers):
        nodes_in, pairs, edges = None, [None] * k, [None] * k
        if nodes is not None:
            into = [nodes[s.by_dst.key] >= 0 for s in supports]
            reads = nodes >= 0
            for s, m in zip(supports, into):
                reads[s.by_src.key[m]] = True
            nodes_in = _node_rows(reads)
            pairs = [_rows(m) for m in into]
            edges = [_rows(m[s.by_pair.key]) for s, m in zip(supports, into)]
        indices.append((
            _within(nodes, nodes_in),
            [SupportIndex(_size(nodes_in, s.num_nodes),
                          _restrict(s.by_pair, e, p),
                          by_dst=_restrict(s.by_dst, p, nodes),
                          by_src=_restrict(s.by_src, p, nodes_in))
             for s, p, e in zip(supports, pairs, edges)],
            [None if n.edge_update_net is None
             else _update_parts(s, n, nodes_in, p, e, u)
             for s, n, p, e, u in zip(supports, lp.directions, pairs, edges,
                                      updated)]))
        nodes, updated = nodes_in, edges
    return nodes, updated, indices[::-1]


# ---------------------------------------------------------------------------
# direction step and edge update (forward + cached backward)
# ---------------------------------------------------------------------------

def direction_fwd(x, e, supp: SupportIndex, nets: DirectionNets,
                  agg_edge: AggSpec, agg_node: AggSpec, train: bool, seq,
                  held=None):
    """Multi-edge reduce, post-aggregation MLP, message MLP and node reduce.

    Returns ((h, rebuild_h), a, cache): h holds one latent per support
    pair and rebuild_h computes it again (None where h is e, and in eval
    mode); a is the (statistics, scale) pair of the node reduce, one row
    per node that supp.by_dst groups into (zeros where no pair arrives).
    Without an edge_agg_mlp the pairs are edges and h is e: neither the
    reduce nor the MLP runs. seq draws the dropout seed of each MLP that
    runs.

    The cache holds no h: the message MLP's and the edge update's inputs
    release it with rebuild_h, which reads the edge_agg_mlp's cached
    hidden activation (nn.mlp_output), so each of their backwards computes
    h again when it reaches that part and drops it after. Where the
    direction's edge update caches e and the reduce returns no scale
    (every kind but PNA), the cache holds no h_raw and no reduce VJP
    either: the edge_agg_mlp's input releases h_raw with a _Reduction,
    whose VJP direction_bwd then applies. Elsewhere h_raw stays,
    since the cache would hold e, up to the pairs' multiplicity times
    larger, for it alone. held, where given, gets what the cache released,
    so that the caller decides when it is freed.
    """
    h, edge, rebuild_h = e, None, None
    if nets.edge_agg_mlp is not None:
        gf = GroupedFeatures(e, supp.by_pair)
        (h_raw, scale), edge_vjp = segment_reduce_with_vjp(agg_edge, gf)
        agg_in = GatheredConcat((h_raw, None, scale))
        h, agg_cache = mlp_forward(nets.edge_agg_mlp, agg_in, train, seq())
        if train:
            rebuild_h = partial(mlp_output, nets.edge_agg_mlp, agg_cache)
            if scale is None and nets.edge_update_net is not None:
                again = _Reduction(agg_edge, gf)
                agg_in.release(0, again)
                edge_vjp = again.vjp
                if held is not None:
                    held.append(h_raw)
        edge = (agg_cache, edge_vjp)
    msg_in = GatheredConcat((x, supp.by_src), (h, None))
    msg, msg_cache = mlp_forward(nets.msg_net, msg_in, train, seq())
    if rebuild_h is not None:
        msg_in.release(1, rebuild_h)
        if held is not None:
            held.append(h)
    a, node_vjp = reduce_or_default_with_vjp(
        agg_node, GroupedFeatures(msg, supp.by_dst))
    cache = (nets, edge, msg_cache, node_vjp) if train else None
    return (h, rebuild_h), a, cache


class _Reduction:
    """A multi-edge reduce run again in backward: called, it returns h_raw
    through segment_reduce_with_vjp; vjp applies that run's VJP."""

    def __init__(self, spec: AggSpec, gf: GroupedFeatures):
        self.spec, self.gf, self._vjp = spec, gf, None

    def __call__(self) -> np.ndarray:
        (h_raw, _), self._vjp = segment_reduce_with_vjp(self.spec, self.gf)
        return h_raw

    def vjp(self, g: np.ndarray) -> np.ndarray:
        return self._vjp(g)


def direction_bwd(cache, ga, gx, gh, ge):
    """Backward of direction_fwd.

    gh and ge are the h and e gradients of the direction's edge update, or
    None when it did not run; the x gradient is added into gx. Returns the
    e gradient.
    """
    nets, edge, msg_cache, node_vjp = cache
    gx_msg, gh_msg = mlp_backward(nets.msg_net, msg_cache, node_vjp(ga))
    gx += gx_msg
    if gh is None:
        gh = gh_msg
    else:
        gh += gh_msg
    if edge is not None:
        agg_cache, edge_vjp = edge
        (gh_raw,) = mlp_backward(nets.edge_agg_mlp, agg_cache, gh)
        gh = edge_vjp(gh_raw)
    if ge is None:
        return gh
    ge += gh
    return ge


def edge_update_fwd(x, e, h, nets: DirectionNets, parts, train: bool,
                    seed: int):
    """Per-edge update from pre-update node features: [x_src || e || h],
    or [x_src || e || x_dst] where the direction has no multi-edge stage.

    h is direction_fwd's (h, rebuild_h). parts holds the indices of the
    three parts into x, e and h (from plan_layers), which pick the edges it
    updates. The cache holds no h, which the backward rebuilds.
    """
    src, own, third = parts
    h, rebuild_h = h
    inp = GatheredConcat((x, src), (e, own),
                         (x if nets.edge_agg_mlp is None else h, third))
    out, net_cache = mlp_forward(nets.edge_update_net, inp, train, seed)
    if rebuild_h is not None:
        inp.release(2, rebuild_h)
    return out, (nets, net_cache)


def edge_update_bwd(cache, gout, gx):
    """Backward of edge_update_fwd; adds the x gradients into gx and returns
    (ge, gh), gh None where the third part is x_dst."""
    nets, net_cache = cache
    gx_src, ge, g3 = mlp_backward(nets.edge_update_net, net_cache, gout)
    gx += gx_src
    if nets.edge_agg_mlp is None:
        gx += g3
        return ge, None
    return ge, g3


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def layer_fwd(lp: LayerParams, x, es, index, train: bool, seq, held=None):
    """One layer over its directions; es holds their edge latents.

    index (from plan_layers) gives the rows it computes and the support
    indices it runs on: x and es hold the rows it reads, and it returns the
    node states it updates and, per direction with an edge-update net, the
    latents it updates. A direction without one returns its latents
    unchanged and draws no dropout seed for them. held goes to
    direction_fwd.
    """
    kept, restricted, updates = index
    hs, parts, dir_caches = [], [(x, kept)], []
    for supp, nets, e in zip(restricted, lp.directions, es):
        h, (a, scale), c = direction_fwd(x, e, supp, nets, lp.agg_edge,
                                         lp.agg_node, train, seq, held)
        hs.append(h)
        parts.append((a, None, scale))
        dir_caches.append(c)
    x1, gv_cache = mlp_forward(lp.node_update_net, GatheredConcat(*parts),
                               train, seq())
    es1, eu_caches = list(es), []
    for d, (nets, e, h, parts) in enumerate(zip(lp.directions, es, hs,
                                                updates)):
        if parts is not None:
            es1[d], c = edge_update_fwd(x, e, h, nets, parts, train, seq())
            eu_caches.append(c)
    return x1, es1, (lp, dir_caches, gv_cache, eu_caches, x.shape)


def layer_bwd(cache, gx1, ges1):
    """ges1 holds the e gradients of the directions whose edge update ran,
    which come first.

    Spends cache as it runs: mlp_backward consumes each MLP's cache, and
    each direction's cache is taken out before its backward. A direction's
    h, which no cache holds, is computed again by each MLP backward that
    reads it, the edge update's and the message MLP's, when it reaches
    that input part, and dropped once the part's gradient is formed.
    """
    lp, dir_caches, gv_cache, eu_caches, x_shape = cache
    gx0 = np.zeros(x_shape, dtype=gx1.dtype)
    eu_grads = [edge_update_bwd(c, ge1, gx0)
                for c, ge1 in zip(eu_caches, ges1)]
    eu_grads += [(None, None)] * (len(dir_caches) - len(eu_grads))
    gx_nu, *gas = mlp_backward(lp.node_update_net, gv_cache, gx1)
    gx0 += gx_nu
    return gx0, [direction_bwd(dir_caches.pop(0), ga, gx0, gh, ge0)
                 for ga, (ge0, gh) in zip(gas, eu_grads)]


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
        n_dir = 2 if config.bidirectional else 1
        last = config.num_layers - 1
        prefixes = [[f"layer{li}." + ("rev_" if d else "") for d in range(n_dir)]
                    for li in range(config.num_layers)]

        # layer widths of every MLP by checkpoint name, in parameter order
        specs = {"node_encoder": [d_node_in, dn],
                 "edge_encoder": [d_edge_in, de]}
        eu_in = dn + 2 * de if config.two_stage else 2 * dn + de
        for li, layer_prefixes in enumerate(prefixes):
            for d, p in enumerate(layer_prefixes):
                if config.two_stage:
                    specs[p + "edge_agg_mlp"] = [config.edge_agg.out_width(de),
                                                 hid, de]
                specs[p + "msg_net"] = [dn + de, hid, dn]
                # the last layer's edge latents feed only the readout
                if li < last or (config.readout == "edge" and d == 0):
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
            nets[name] = init_mlp(dims, rng, "relu", config.dropout, arena)
            pos += size
        self._mlps: list[tuple[str, Mlp]] = list(nets.items())

        self.node_encoder = nets["node_encoder"]
        self.edge_encoder = nets["edge_encoder"]
        self.readout_net = nets["readout"]
        self.layers = [
            LayerParams([DirectionNets(nets[p + "msg_net"],
                                       nets.get(p + "edge_update_net"),
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
                train_mode: bool = False, seed: int = 0, rows=None):
        """Returns (logits, cache). Logits are per node or per edge.

        rev is build_reverse_index(g, supp); a bidirectional model reads
        it (ModelError when it is None), and the single-stage baseline
        reads each index's per_edge sites. roots is accepted and ignored: no
        model marks ego nodes. rows lists the nodes or edges whose
        logits are returned, in that order (default: all); an index outside
        the graph raises ModelError. Given rows, each layer computes only
        the node states and edge latents that later layers and the readout
        read (plan_layers), and a train-mode forward draws its dropout masks
        over those rows only. Backward takes one logit gradient per row.

        A train-mode cache holds what backward reads and nothing else. An
        eval-mode cache is {"final": (x, es)}: the last states of the nodes
        the readout reads and each direction's latest latents, of every row
        without rows, in id order.
        """
        cfg = self.config
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            width = g.num_nodes if cfg.readout == "node" else g.num_edges
            if rows.ndim != 1 or (rows.size and (rows.min() < 0
                                                 or rows.max() >= width)):
                raise ModelError(f"rows must index the graph's {width} "
                                 f"{cfg.readout}s")
        supports = [supp, rev][:len(self.layers[0].directions)]
        if supports[-1] is None:
            raise ModelError("bidirectional model needs a reverse "
                             "SupportIndex")
        if not cfg.two_stage:
            supports = [s.per_edge for s in supports]

        nodes = updated = None      # what the readout reads: every row
        ro_index = ([None] if cfg.readout == "node" else
                    [supp.edges_by_src, None, supp.edges_by_dst])
        if rows is not None:
            # the rows' node states, or their endpoints' states and the
            # forward direction's latents of the rows
            ends = ([rows] if cfg.readout == "node"
                    else [g.src[rows], g.dst[rows]])
            nodes = _node_rows(np.bincount(np.concatenate(ends),
                                           minlength=g.num_nodes) > 0)
            ro_index = [_read(nodes, i, g.num_nodes) for i in ends]
            if cfg.readout == "edge":
                updated = _rows(np.bincount(rows, minlength=g.num_edges) > 0)
                ro_index.insert(1, _read(updated, rows, g.num_edges))
        nodes_in, first, plan = plan_layers(self.layers, supports, nodes,
                                            updated)
        # the directions share the encoded latents of the edges any of
        # them reads, and one that reads fewer gathers its own
        union = (None if any(r is None for r in first) else
                 _rows(np.logical_or.reduce([r >= 0 for r in first])))
        picks = [_within(r, union) for r in first]

        seq = _SeedSequence(seed)
        x, c_nenc = mlp_forward(self.node_encoder, _encoder_input(
            g.node_features, nodes_in, cfg.dtype), train_mode, seq())
        e, c_eenc = mlp_forward(self.edge_encoder, _encoder_input(
            g.edge_features, union, cfg.dtype), train_mode, seq())
        es = [e if i is None else e[i.key] for i in picks]

        # What the caches of every layer but the last release (h_raw and
        # h, which backward rebuilds) is freed only once the last layer has
        # run. Freed a layer at a time, its blocks were split by the next
        # layer's smaller arrays, and small allocations that outlive the
        # step took the pieces: in 3 of 10 graph-structure seeds that
        # raised the peak of what ran after training by 8-12 MB.
        stages, held = [], []
        for li, (lp, index) in enumerate(zip(self.layers, plan)):
            x, es, c = layer_fwd(lp, x, es, index, train_mode, seq,
                                 held if li < len(plan) - 1 else None)
            if train_mode:
                stages.append(c)
            del c                 # eval: free it before the next layer runs
        del held

        ro_in = GatheredConcat(*zip([x] if cfg.readout == "node"
                                    else [x, es[0], x], ro_index))
        logits2d, c_ro = mlp_forward(self.readout_net, ro_in, train_mode,
                                     seq())
        logits = logits2d[:, 0]
        if not train_mode:
            return logits, {"final": (x, es)}
        return logits, {"enc": (c_nenc, c_eenc, picks), "stages": stages,
                        "readout": c_ro}

    # -- backward -----------------------------------------------------------

    def backward(self, cache, logit_grads) -> np.ndarray:
        """Exact reverse-mode gradients, written into and returned as self.grads.

        Consumes cache: each stage's cache is taken out of it and freed once
        its backward has run, so a second backward on the same cache raises
        ModelError. The returned array is overwritten by the next call.
        Logit gradients below the dtype's resolution of the largest one
        (eps * max |g|) are taken as 0: they change no gradient at that
        resolution, and in float32 they would carry subnormals, which slow
        every matmul they reach several times over.
        """
        if "stages" not in cache:
            raise ModelError("backward needs the cache of a train-mode "
                             "forward")
        if "readout" not in cache:
            raise ModelError("cache already consumed by backward")
        self.grads[...] = 0.0
        gl = np.array(logit_grads, dtype=self.params.dtype).reshape(-1, 1)
        mag = np.abs(gl)
        gl[mag < np.finfo(gl.dtype).eps * mag.max(initial=0.0)] = 0.0

        gro_in = mlp_backward(self.readout_net, cache.pop("readout"), gl)
        if self.config.readout == "node":
            (gx,), ges = gro_in, []
        else:
            gx_src, ge, gx_dst = gro_in
            gx, ges = gx_src + gx_dst, [ge]

        stages = cache["stages"]
        while stages:
            gx, ges = layer_bwd(stages.pop(), gx, ges)

        c_nenc, c_eenc, picks = cache["enc"]
        mlp_backward(self.node_encoder, c_nenc, gx)
        mlp_backward(self.edge_encoder, c_eenc,
                     sum(ge if i is None else scatter_add(ge, i)
                         for ge, i in zip(ges, picks)))
        return self.grads


class _SeedSequence:
    """Deterministic per-call dropout seeds derived from a base seed."""

    def __init__(self, base: int):
        self.base = int(base)
        self.counter = 0

    def __call__(self) -> int:
        self.counter += 1
        return (self.base * 1000003 + self.counter) % (2 ** 63)


CHECKPOINT_VERSION = 2


def save_checkpoint(model: Model, path, feature_spec=None) -> None:
    """JSON checkpoint: config echo, feature spec, per-MLP dims and arrays."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "d_node_in": model.d_node_in,
        "d_edge_in": model.d_edge_in,
        "seed": model.seed,
        "feature_spec": None if feature_spec is None else asdict(feature_spec),
        "mlps": [
            {
                "name": name,
                "layer_dims": m.layer_dims,
                "weights": [w.ravel().tolist() for w in m.weights],
                "biases": [b.tolist() for b in m.biases],
            }
            for name, m in model.named_mlps()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps encodes in C; json.dump runs the pure-Python encoder
        fh.write(json.dumps(payload))


def load_checkpoint(path) -> tuple[Model, FeatureSpec | None]:
    """(model, feature spec) saved by save_checkpoint, the spec None if none
    was saved. The inverse of save_checkpoint: ModelError for any other
    format version, a config key missing or unknown, MLP names other than
    the model's in its parameter order, and any other malformed content."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"checkpoint is not JSON: {exc}") from None
    try:
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version "
                             f"{payload.get('format_version')!r}: only "
                             f"version {CHECKPOINT_VERSION} loads")
        config = ModelConfig.from_dict(payload["config"])
        model = Model(config, payload["d_node_in"], payload["d_edge_in"],
                      seed=payload["seed"])
        _check_names("checkpoint MLPs",
                     [entry["name"] for entry in payload["mlps"]],
                     [name for name, _ in model.named_mlps()])
        for entry, (name, m) in zip(payload["mlps"], model.named_mlps()):
            if (entry["layer_dims"] != m.layer_dims
                    or len(entry["weights"]) != len(m.weights)
                    or len(entry["biases"]) != len(m.biases)):
                raise ModelError(f"checkpoint does not match model structure "
                                 f"at {name!r}")
            for w, flat in zip(m.weights, entry["weights"]):
                w[...] = np.asarray(flat, dtype=w.dtype).reshape(w.shape)
            for b, vals in zip(m.biases, entry["biases"]):
                b[...] = np.asarray(vals, dtype=b.dtype).reshape(b.shape)
        spec = payload["feature_spec"]
        spec = spec if spec is None else FeatureSpec(**spec)
    except ModelError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed checkpoint: {exc!r}") from None
    if not np.isfinite(model.params).all():
        raise ModelError("checkpoint holds non-finite weights")
    return model, spec
