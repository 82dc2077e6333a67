"""Executable property suites.

Each suite returns a JSON-ready report dict with a top-level "passed"
flag. The acceptance tests and the `check` CLI subcommand both run these.
"""

from __future__ import annotations

import time

import numpy as np

from . import model as model_mod
from .agg import AggSpec, GroupedFeatures, segment_reduce
from .data import brute_force_planted_labels, generate_planted_task
from .graph import (
    apply_permutation,
    build_groups,
    build_reverse_index,
    build_support_index,
    is_weakly_connected,
    random_connected_multigraph,
    random_permutation,
    undirected_bfs_distances,
)
from .ids import bfs_assign_ids, label_edges_by_features, nonequivariance_witness
from .model import Model, ModelConfig
from .nn import weighted_bce_loss
from .train import TaskData, TrainConfig, random_item_split, train_model

AGG_KINDS = ("sum", "mean", "max", "min", "pna")


def _rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * 1e-2))


def equivariance_suite(num_graphs: int = 100, seed: int = 0,
                       rtol: float = 1e-5) -> dict:
    """Permuted-input outputs must equal permuted outputs for every
    EdgeAgg x AGG combination, bidirectional on and off, in float64: a
    permutation reorders additions, and 1e-5 is below float32's spread."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    models = {}
    for ek in AGG_KINDS:
        for nk in AGG_KINDS:
            for bidir in (False, True):
                cfg = ModelConfig(
                    num_layers=2, bidirectional=bidir, edge_agg=AggSpec(ek),
                    node_agg=AggSpec(nk), readout="node", hidden_node=6,
                    hidden_edge=6, mlp_hidden=8, dtype="float64")
                models[(ek, nk, bidir)] = Model(cfg, 2, 2, seed=17)

    failures = []
    checked = 0
    for gi in range(num_graphs):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(max(n - 1, 1), 81))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        p = random_permutation(g, rng)
        gp = apply_permutation(g, p)
        supp, suppp = build_support_index(g), build_support_index(gp)
        rev, revp = build_reverse_index(g, supp), build_reverse_index(gp, suppp)
        for key, model in models.items():
            logits, cache = model.forward(g, supp, rev)
            logits_p, cache_p = model.forward(gp, suppp, revp)
            (x, es), (x_p, es_p) = cache["final"], cache_p["final"]
            # permute original outputs, every direction's edge latents
            # included, and compare
            perm_logits = np.empty_like(logits)
            perm_logits[p.node_perm] = logits
            perm_x = np.empty_like(x)
            perm_x[p.node_perm] = x
            ok = (_rel_close(logits_p, perm_logits, rtol)
                  and _rel_close(x_p, perm_x, rtol))
            for e, e_p in zip(es, es_p):
                perm_e = np.empty_like(e)
                perm_e[p.edge_perm] = e
                ok = ok and _rel_close(e_p, perm_e, rtol)
            checked += 1
            if not ok:
                failures.append({"graph": gi, "combo": list(key[:2]),
                                 "bidirectional": key[2]})
    return {
        "suite": "equivariance",
        "passed": not failures,
        "graphs": num_graphs,
        "combinations_checked": checked,
        "failures": failures,
        "seconds": time.perf_counter() - started,
    }


def node_id_suite(num_graphs: int = 200, seed: int = 0) -> dict:
    """Unique IDs on random connected multigraphs plus the digit-count law."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    for gi in range(num_graphs):
        n = int(rng.integers(1, 31))
        m = int(rng.integers(max(n - 1, 0), 121))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        labels = label_edges_by_features(g)
        root = int(rng.integers(0, n))
        state = bfs_assign_ids(g, supp, rev, labels, root=root)
        ids = state.ids
        if len(set(ids)) != n:
            failures.append({"graph": gi, "reason": "duplicate ids"})
            continue
        dist = undirected_bfs_distances(g, root)
        lengths = np.array([len(i) for i in ids])
        if not np.array_equal(lengths, dist + 1):
            failures.append({"graph": gi, "reason": "digit-count law violated"})
    return {
        "suite": "node-ids",
        "passed": not failures,
        "graphs": num_graphs,
        "failures": failures,
        "seconds": time.perf_counter() - started,
    }


def port_witness_suite(n_values=tuple(range(4, 11)), trials: int = 10) -> dict:
    started = time.perf_counter()
    witnesses = []
    passed = True
    for n in n_values:
        try:
            report = nonequivariance_witness(n, trials=trials)
            witnesses.append({
                "n": n, "node": report.node,
                "embedding_base": list(report.embedding_base),
                "embedding_other": list(report.embedding_other),
            })
        except RuntimeError:
            passed = False
            witnesses.append({"n": n, "node": None})
    return {
        "suite": "port-witness",
        "passed": passed,
        "witnesses": witnesses,
        "seconds": time.perf_counter() - started,
    }


def expressivity_suite() -> dict:
    """Two groupings of the same four payments: single-stage reductions
    agree, max-of-sums does not."""
    started = time.perf_counter()
    payments = np.array([[5.0], [1.0], [3.0], [4.0]])
    # sender of each payment: {5, 1} and {3, 4}, or {5, 3} and {1, 4}
    g1 = GroupedFeatures(payments, build_groups([0, 0, 1, 1], 2))
    g2 = GroupedFeatures(payments, build_groups([0, 1, 0, 1], 2))
    union = GroupedFeatures(payments, build_groups([0, 0, 0, 0], 1))

    single_sum = float(segment_reduce(AggSpec("sum"), union)[0, 0])
    single_max = float(segment_reduce(AggSpec("max"), union)[0, 0])

    def max_of_sums(gf):
        sums = segment_reduce(AggSpec("sum"), gf)
        outer = GroupedFeatures(sums, build_groups([0] * gf.num_groups, 1))
        return float(segment_reduce(AggSpec("max"), outer)[0, 0])

    two_stage_1 = max_of_sums(g1)
    two_stage_2 = max_of_sums(g2)
    values = {
        "single_stage_sum": single_sum,
        "single_stage_max": single_max,
        "two_stage_max_of_sums_g1": two_stage_1,
        "two_stage_max_of_sums_g2": two_stage_2,
    }
    passed = (single_sum == 13.0 and single_max == 5.0
              and two_stage_1 == 7.0 and two_stage_2 == 8.0
              and two_stage_1 != two_stage_2)
    return {"suite": "expressivity", "passed": passed, "values": values,
            "seconds": time.perf_counter() - started}


def gradient_suite(num_graphs: int = 20, seed: int = 3,
                   eps: float = 1e-5, rtol: float = 1e-4,
                   directions: int = 3) -> dict:
    """Analytic full-model gradients vs central finite differences.

    Smooth activations keep the finite-difference oracle valid (so no
    dropout, which needs ReLU); max/min aggregation paths are exercised
    away from ties. The models run in float64, which central differences
    at eps=1e-5 need.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    combos = [("sum", "sum"), ("mean", "max"), ("max", "mean"),
              ("pna", "sum"), ("sum", "pna"), ("min", "min")]
    failures = []
    max_err = 0.0
    for gi in range(num_graphs):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(n, 2 * n + 3))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        ek, nk = combos[gi % len(combos)]
        readout = "edge" if gi % 2 else "node"
        cfg = ModelConfig(num_layers=2, bidirectional=True,
                          edge_agg=AggSpec(ek), node_agg=AggSpec(nk),
                          readout=readout, hidden_node=4, hidden_edge=4,
                          mlp_hidden=5, dropout=0.0, dtype="float64")
        model = Model(cfg, 2, 2, seed=int(rng.integers(1 << 30)))
        # smooth activations for a clean finite-difference oracle
        for _, mlp in model.named_mlps():
            if mlp.activation == "relu":
                mlp.activation = "gelu"
        num_items = g.num_edges if readout == "edge" else g.num_nodes
        labels = rng.integers(0, 2, size=num_items)

        def loss_at(flat):
            model.params[...] = flat
            logits, _ = model.forward(g, supp, rev)
            loss, _ = weighted_bce_loss(logits, labels, (1.0, 2.0))
            return loss

        flat = model.params.copy()
        logits, cache = model.forward(g, supp, rev, train_mode=True)
        _, dlogits = weighted_bce_loss(logits, labels, (1.0, 2.0))
        grads = model.backward(cache, dlogits)

        for _ in range(directions):
            d = rng.normal(size=flat.size)
            d /= np.linalg.norm(d)
            fd = (loss_at(flat + eps * d) - loss_at(flat - eps * d)) / (2 * eps)
            analytic = float(grads @ d)
            err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
            max_err = max(max_err, err)
            if err > rtol:
                failures.append({"graph": gi, "combo": [ek, nk],
                                 "rel_error": err})
        model.params[...] = flat
    return {
        "suite": "gradients",
        "passed": not failures,
        "graphs": num_graphs,
        "max_rel_error": max_err,
        "failures": failures,
        "seconds": time.perf_counter() - started,
    }


def complexity_suite(sizes=(1_000, 10_000, 100_000), tolerance: float = 0.05,
                     seed: int = 0) -> dict:
    """Rows reduced per forward pass must scale linearly with the edge count.

    The two reductions the model calls are wrapped for the suite's duration
    to count the value rows they receive.
    """
    started = time.perf_counter()
    cfg = ModelConfig(num_layers=2, bidirectional=True, edge_agg=AggSpec("sum"),
                      node_agg=AggSpec("sum"), readout="node", hidden_node=6,
                      hidden_edge=6, mlp_hidden=8)
    model = Model(cfg, 2, 2, seed=5)
    rows = 0

    def counted(reduce):
        def wrapper(spec, gf):
            nonlocal rows
            rows += gf.values.shape[0]
            return reduce(spec, gf)
        return wrapper

    names = ("segment_reduce_with_vjp", "reduce_or_default_with_vjp")
    originals = {name: getattr(model_mod, name) for name in names}
    counts = []
    try:
        for name, reduce in originals.items():
            setattr(model_mod, name, counted(reduce))
        for m in sizes:
            g = random_connected_multigraph(max(m // 4, 2), m, seed=seed)
            supp = build_support_index(g)
            rev = build_reverse_index(g, supp)
            rows = 0
            model.forward(g, supp, rev)
            counts.append(rows)
    finally:
        for name, reduce in originals.items():
            setattr(model_mod, name, reduce)
    ratios = []
    passed = True
    for i in range(1, len(sizes)):
        count_ratio = counts[i] / counts[0]
        size_ratio = sizes[i] / sizes[0]
        rel = abs(count_ratio - size_ratio) / size_ratio
        ratios.append({"sizes": [sizes[0], sizes[i]],
                       "count_ratio": count_ratio,
                       "size_ratio": size_ratio, "rel_dev": rel})
        if rel > tolerance:
            passed = False
    return {"suite": "complexity", "passed": passed, "counts": counts,
            "ratios": ratios, "seconds": time.perf_counter() - started}


def connectivity_suite(num_graphs: int = 1000, seed: int = 0) -> dict:
    """Random-graph generator always yields weakly connected output."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    bad = []
    for gi in range(num_graphs):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(max(n - 1, 0), 4 * n + 1))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        if not is_weakly_connected(g):
            bad.append(gi)
    return {"suite": "connectivity", "passed": not bad, "graphs": num_graphs,
            "failures": bad, "seconds": time.perf_counter() - started}


def _planted_task_data(task: str, num_nodes: int, seed: int) -> TaskData:
    g, labels = generate_planted_task(num_nodes, 2, 2, task, seed)
    items = np.flatnonzero(labels >= 0)
    oracle = brute_force_planted_labels(g, labels >= 0, task)
    assert np.array_equal(oracle, labels[items])
    tr, va, te = random_item_split(items.size, seed + 101)
    return TaskData(graph=g, labels=labels[items], items=items,
                    task_type="node", train_idx=tr, val_idx=va, test_idx=te)


def planted_separation_suite(num_nodes: int = 500, seeds=(0, 1, 2, 3, 4),
                             min_gap: float = 0.10,
                             epochs: int = 150) -> dict:
    """Trained-model separations on the planted tasks.

    max_of_sums: two-stage (sum EdgeAgg, sum AGG) vs the single-stage
    baseline. out_neighbor_count: bi-directional vs unidirectional MP.
    """
    started = time.perf_counter()
    tc = TrainConfig(learning_rate=0.01, batch_size=1 << 20, dropout=0.0,
                     class_weights=(1.0, 3.0), epochs=epochs, patience=40)

    def run(task, cfg):
        f1s = []
        for seed in seeds:
            data = _planted_task_data(task, num_nodes, seed)
            _, rec = train_model(data, cfg, tc, seed=seed)
            f1s.append(rec.final_metrics["f1"])
        return float(np.mean(f1s)), f1s

    base_kw = dict(num_layers=2, hidden_node=16, hidden_edge=16, mlp_hidden=32,
                   readout="node", edge_agg=AggSpec("sum"),
                   node_agg=AggSpec("sum"), dropout=0.0)
    two_stage_f1, two_stage_all = run(
        "max_of_sums", ModelConfig(bidirectional=False, two_stage=True, **base_kw))
    single_f1, single_all = run(
        "max_of_sums", ModelConfig(bidirectional=False, two_stage=False, **base_kw))
    bidir_f1, bidir_all = run(
        "out_neighbor_count", ModelConfig(bidirectional=True, two_stage=True,
                                          **base_kw))
    unidir_f1, unidir_all = run(
        "out_neighbor_count", ModelConfig(bidirectional=False, two_stage=True,
                                          **base_kw))
    passed = (two_stage_f1 >= single_f1 + min_gap
              and bidir_f1 >= unidir_f1 + min_gap)
    return {
        "suite": "planted-separation",
        "passed": passed,
        "max_of_sums": {"two_stage_f1": two_stage_f1, "single_stage_f1": single_f1,
                        "two_stage_per_seed": two_stage_all,
                        "single_stage_per_seed": single_all},
        "out_neighbor_count": {"bidirectional_f1": bidir_f1,
                               "unidirectional_f1": unidir_f1,
                               "bidirectional_per_seed": bidir_all,
                               "unidirectional_per_seed": unidir_all},
        "min_gap": min_gap,
        "seconds": time.perf_counter() - started,
    }


SUITES = {
    "equivariance": equivariance_suite,
    "node-ids": node_id_suite,
    "port-witness": port_witness_suite,
    "expressivity": expressivity_suite,
    "gradients": gradient_suite,
    "complexity": complexity_suite,
    "connectivity": connectivity_suite,
    "planted-separation": planted_separation_suite,
}
