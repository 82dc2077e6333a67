"""The names each layer is called through, and the per-layer metrics.

HOOKS rebinds, for the traced run only, the attributes through which the
program reaches each layer: the benchmark's own calls go through the
``meganet``, ``meganet.data`` and ``meganet.ids`` attributes, and
``train_model`` and ``Model`` reach the rest through the module globals of
``meganet.train`` and ``meganet.model``. Rows are counted in the hooks,
never read from counters inside the program.
"""

from __future__ import annotations

import types

import numpy as np

from spans import Tracer, by_name

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("data.load_transactions.s", "s", "lower"),
    ("data.load_transactions.rows_per_s", "rows/s", "higher"),
    ("data.to_multigraph.s", "s", "lower"),
    ("data.sample_neighborhood.s", "s", "lower"),
    ("data.sample_neighborhood.edges", "count", "higher"),
    ("graph.build_support_index.s", "s", "lower"),
    ("graph.build_reverse_index.s", "s", "lower"),
    ("graph.edges", "count", "higher"),
    ("graph.pairs", "count", "higher"),
    ("graph.mean_multiplicity", "edges/pair", "higher"),
    ("graph.singleton_pair_share", "ratio", "higher"),
    ("agg.edge.fwd.s", "s", "lower"),
    ("agg.edge.fwd.rows", "count", "lower"),
    ("agg.edge.bwd.s", "s", "lower"),
    ("agg.edge.bwd.rows", "count", "lower"),
    ("agg.node.fwd.s", "s", "lower"),
    ("agg.node.fwd.rows", "count", "lower"),
    ("agg.node.bwd.s", "s", "lower"),
    ("agg.node.bwd.rows", "count", "lower"),
    ("nn.mlp_fwd.s", "s", "lower"),
    ("nn.mlp_bwd.s", "s", "lower"),
    ("nn.mlp.rows", "count", "lower"),
    ("nn.mlp.flop", "flop", "lower"),
    ("nn.adam.s", "s", "lower"),
    ("nn.loss.s", "s", "lower"),
    ("model.forward.train.s", "s", "lower"),
    ("model.forward.eval.s", "s", "lower"),
    ("model.forward.self_s", "s", "lower"),
    ("model.backward.self_s", "s", "lower"),
    ("model.cache_mb", "MB", "lower"),
    ("train.train_model.self_s", "s", "lower"),
    ("ids.label_edges_by_features.s", "s", "lower"),
    ("ids.bfs_assign_ids.s", "s", "lower"),
    ("ids.rounds", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def forward_span_name(args, kwargs) -> str:
    """Model.forward(self, g, supp, rev, roots, train_mode, seed)."""
    train = kwargs.get("train_mode", args[5] if len(args) > 5 else False)
    return "model.forward.train" if train else "model.forward.eval"


def reachable_array_bytes(root) -> int:
    """Bytes of the distinct array buffers reachable from ``root``.

    Follows containers, object attributes and closure cells, so the arrays
    a VJP closure keeps alive are counted; views count their base once.
    """
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Tracer, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:       # empty cell
                    pass
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(buffers.values())


def _count_rows(tracer, args, kwargs, table):
    tracer.counts["data.load_transactions.rows"] += table.num_rows
    return table


def _count_sampled(tracer, args, kwargs, sample):
    tracer.counts["data.sample_neighborhood.edges"] += sample.edge_map.size
    return sample


def _count_rounds(tracer, args, kwargs, state):
    tracer.counts["ids.rounds"] += state.rounds_used
    return state


def _count_mlp(tracer, args, kwargs, result):
    mlp, x = args[0], args[1]
    rows = x.shape[0]
    tracer.counts["nn.mlp.rows"] += rows
    tracer.counts["nn.mlp.flop"] += 2 * rows * sum(w.size for w in mlp.weights)
    return result


def _agg(kind: str):
    """Count rows of a reduction and trace the VJP it returns."""

    def after(tracer, args, kwargs, result):
        rows = args[1].values.shape[0]
        tracer.counts[f"agg.{kind}.fwd.rows"] += rows
        out, vjp = result

        def counted_vjp(gout):
            tracer.counts[f"agg.{kind}.bwd.rows"] += rows
            return vjp(gout)

        return out, tracer.wrap(counted_vjp, f"agg.{kind}.bwd")

    return after


def _measure_cache(tracer, args, kwargs, result):
    """Size the first train-mode forward cache, in a span of its own."""
    if (forward_span_name(args, kwargs) == "model.forward.train"
            and "model.cache_mb" not in tracer.counts):
        with tracer.span("trace.cache_walk"):
            tracer.counts["model.cache_mb"] = reachable_array_bytes(result[1]) / 2**20
    return result


HOOKS = (
    ("meganet.data:load_transactions", "data.load_transactions", _count_rows),
    ("meganet.data:to_multigraph", "data.to_multigraph", None),
    ("meganet.data:sample_neighborhood", "data.sample_neighborhood", _count_sampled),
    ("meganet:build_support_index", "graph.build_support_index", None),
    ("meganet.train:build_support_index", "graph.build_support_index", None),
    ("meganet:build_reverse_index", "graph.build_reverse_index", None),
    ("meganet.train:build_reverse_index", "graph.build_reverse_index", None),
    ("meganet.model:segment_reduce_with_vjp", "agg.edge.fwd", _agg("edge")),
    ("meganet.model:reduce_or_default_with_vjp", "agg.node.fwd", _agg("node")),
    ("meganet.model:mlp_forward", "nn.mlp_fwd", _count_mlp),
    ("meganet.model:mlp_backward", "nn.mlp_bwd", None),
    ("meganet.train:adam_step", "nn.adam", None),
    ("meganet.train:weighted_bce_loss", "nn.loss", None),
    ("meganet:Model.forward", forward_span_name, _measure_cache),
    ("meganet:Model.backward", "model.backward", None),
    ("meganet:train_model", "train.train_model", None),
    ("meganet.ids:label_edges_by_features", "ids.label_edges_by_features", None),
    ("meganet.ids:bfs_assign_ids", "ids.bfs_assign_ids", _count_rounds),
)


def layer_metrics(tracer: Tracer, pairs: dict, untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass over a fixed amount of work."""
    total, own = by_name(tracer.spans)
    c = tracer.counts
    load_s = total.get("data.load_transactions", 0.0)
    values = {
        "data.load_transactions.rows_per_s":
            c["data.load_transactions.rows"] / load_s if load_s else 0.0,
        "data.sample_neighborhood.edges": c["data.sample_neighborhood.edges"],
        "graph.edges": pairs["edges"],
        "graph.pairs": pairs["pairs"],
        "graph.mean_multiplicity": pairs["mean_multiplicity"],
        "graph.singleton_pair_share": pairs["singleton_pair_share"],
        "nn.mlp.rows": c["nn.mlp.rows"],
        "nn.mlp.flop": c["nn.mlp.flop"],
        "model.forward.self_s": (own.get("model.forward.train", 0.0)
                                 + own.get("model.forward.eval", 0.0)),
        "model.backward.self_s": own.get("model.backward", 0.0),
        "model.cache_mb": c["model.cache_mb"],
        "train.train_model.self_s": own.get("train.train_model", 0.0),
        "ids.rounds": c["ids.rounds"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    for kind in ("edge", "node"):
        for way in ("fwd", "bwd"):
            values[f"agg.{kind}.{way}.rows"] = c[f"agg.{kind}.{way}.rows"]
    # the rest are "<span name>.s" totals
    return {name: values[name] if name in values
            else total.get(name.removesuffix(".s"), 0.0)
            for name, _, _ in PER_LAYER}
