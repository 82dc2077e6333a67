"""The workloads, the operations every run performs, and their checks.

Each run performs the same five kinds of operation on its own inputs, so
every run reports every end-to-end metric: set-up (inputs to a ready
model), training epochs through ``train_model``, eval-mode full-graph
forwards, neighbourhood sampling, and structural ID assignment. The
workloads differ in input shape and model configuration, which moves the
time between layers.

Only the stable surface is imported: names exported by ``meganet`` plus
the ``meganet.data`` and ``meganet.ids`` entry points. Calls go through
module attributes at call time so the traced run's hooks see them.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import meganet as mg
from meganet import data as mgdata
from meganet import ids as mgids

import gen
from layers import HOOKS, PER_LAYER, forward_span_name, layer_metrics
from spans import Tracer

END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("infer_edges_per_s", "edges/s"),
    ("peak_rss_mb", "MB"),
    ("ids_nodes_per_s", "nodes/s"),
    ("sample_edges_per_s", "edges/s"),
)

MIN_ROUNDS = 3           # rounds of operations in a timed run, at least
TRACE_EPOCHS = 2         # epochs of the traced run's single train_model call
# times of the two calibration kernels at reference speed, about their
# undisturbed times on a 2-vCPU machine with numpy 2.4 and OpenBLAS
INTERPRETER_REF_S = 1e-3
NUMPY_REF_S = 0.04
TRAIN_CONFIG = dict(learning_rate=0.003, batch_size=8192, dropout=0.1,
                    class_weights=(1.0, 6.27))   # the CLI defaults


@dataclass
class Inputs:
    """What a workload's generator made for one seed."""

    graph: gen.GraphInput            # the edge list, as the benchmark made it
    csv_path: Path | None            # the CSV the program ingests, if any
    edge_labels: np.ndarray | None   # the CSV's is_laundering column
    split: tuple | None              # item split for node tasks
    id_targets: list                 # (GraphInput, root, hop distances)
    problems: list


@dataclass
class Ready:
    """The result of one set-up: a task and its indices."""

    task: object
    supp: object
    rev: object

    @property
    def roots(self):
        return self.task.items if self.task.task_type == "node" else None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and the README."""

    name: str
    make_inputs: Callable[[int, Path], Inputs]
    aggregation: str
    readout: str
    sample_seeds: int   # training items seeding each sampler call
    per_round: dict     # per round: setups, epochs of one train_model call,
    #                     eval forwards, sampler calls, ID passes


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += 1
            self.problems.append(what)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _ego_targets(g: gen.GraphInput, roots) -> list:
    return [gen.ego_net(g, int(r)) for r in roots]


def aml_inputs(seed: int, scratch: Path) -> Inputs:
    rows = gen.aml_rows(seed)
    path = scratch / f"aml-seed{seed}.csv"
    gen.write_aml_csv(path, rows)
    feats = np.column_stack([rows[k] for k in ("timestamp", "amount", "currency",
                                               "payment_format")]).astype(float)
    n = int(max(rows["src"].max(), rows["dst"].max())) + 1
    g = gen.GraphInput(n, np.column_stack([rows["src"], rows["dst"]]), feats,
                       np.full(n, -1))
    # ID roots: senders of random transactions
    rows_picked = np.random.default_rng([seed, 5]).choice(rows["src"].size, 64,
                                                          replace=False)
    return Inputs(g, path, rows["label"], None,
                  _ego_targets(g, rows["src"][rows_picked]), [])


def planted_inputs(seed: int, scratch: Path) -> Inputs:
    g = gen.planted_max_of_sums(seed)
    receivers = np.flatnonzero(g.node_labels >= 0)
    oracle = gen.max_of_sums_oracle(g.edges, g.edge_features[:, 0], receivers)
    problems = ([] if np.array_equal(oracle, g.node_labels[receivers])
                else ["planted labels disagree with the max_of_sums oracle"])
    # ID roots: labeled receivers, each the centre of one planted star
    roots = np.random.default_rng([seed, 5]).choice(receivers, 8, replace=False)
    return Inputs(g, None, None, gen.item_split(receivers.size, seed),
                  _ego_targets(g, roots), problems)


def structure_inputs(seed: int, scratch: Path) -> Inputs:
    # 4000 edges keep one whole-graph ID pass near a second, short enough
    # for the interpreter calibration around it to track the machine's speed
    g = gen.connected_multigraph(seed, num_edges=4_000)
    dist, _ = gen.hop_distances(g.edges, g.num_nodes, 0)
    problems = [] if (dist >= 0).all() else ["structure graph is not connected"]
    return Inputs(g, None, None, gen.item_split(g.num_nodes, seed),
                  [(g, 0, dist)], problems)


WORKLOADS = {w.name: w for w in (
    Workload("aml-edge-sum", aml_inputs, "sum", "edge", 8,
             dict(setup=3, epochs=2, infer=2, sample=2, ids=2)),
    Workload("planted-node-pna", planted_inputs, "pna", "node", 16,
             dict(setup=10, epochs=2, infer=2, sample=4, ids=40)),
    Workload("graph-structure", structure_inputs, "sum", "node", 64,
             dict(setup=10, epochs=4, infer=4, sample=2, ids=3)),
)}


def model_config(w: Workload):
    agg = mg.AggSpec(w.aggregation)
    return mg.ModelConfig(num_layers=2, bidirectional=True, edge_agg=agg,
                          node_agg=agg, readout=w.readout, hidden_node=64,
                          hidden_edge=64, mlp_hidden=64, dropout=0.1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def setup(inp: Inputs, config, seed: int) -> Ready:
    """Inputs to ready to run: ingestion or conversion, indices, model."""
    if inp.csv_path is not None:
        table = mgdata.load_transactions(inp.csv_path, mgdata.AML_SCHEMA)
        tr, va, te = mgdata.temporal_split(table, mgdata.SplitSpec())
        spec = mgdata.compute_feature_spec(table, tr)
        g, labels, _ = mgdata.to_multigraph(table, spec)
        task = mg.TaskData(graph=g, labels=labels, items=np.arange(g.num_edges),
                           task_type="edge", train_idx=tr, val_idx=va, test_idx=te)
    else:
        gi = inp.graph
        g = mg.Multigraph(gi.num_nodes, np.ones((gi.num_nodes, 1)), gi.edges,
                          gi.edge_features)
        items = np.flatnonzero(gi.node_labels >= 0)
        tr, va, te = inp.split
        task = mg.TaskData(graph=g, labels=gi.node_labels[items], items=items,
                           task_type="node", train_idx=tr, val_idx=va, test_idx=te)
    supp = mg.build_support_index(g)
    rev = mg.build_reverse_index(g, supp)
    # a user builds the model before training; train_model builds its own
    mg.Model(config, g.node_features.shape[1], g.edge_features.shape[1], seed=seed)
    return Ready(task, supp, rev)


def check_setup(inp: Inputs, ready: Ready) -> list[str]:
    """The loaded task must be the generated one, up to account renaming."""
    g, gi, problems = ready.task.graph, inp.graph, []
    if g.num_edges != gi.edges.shape[0]:
        return [f"loaded {g.num_edges} edges, generated {gi.edges.shape[0]}"]
    if inp.csv_path is not None:
        rename = np.full(gi.num_nodes, -1)
        rename[gi.edges.ravel()] = g.edges.ravel()
        used = rename[rename >= 0]
        if (not np.array_equal(rename[gi.edges], g.edges)
                or np.unique(used).size != used.size):
            problems.append("ingested edges are not a renaming of the generated ones")
        if not np.array_equal(ready.task.labels, inp.edge_labels):
            problems.append("ingested is_laundering labels differ from the generated ones")
    elif not np.array_equal(g.edges, gi.edges):
        problems.append("graph edges differ from the generated ones")
    stats = gen.pair_stats(gi.edges)
    mult = np.asarray(ready.supp.multiplicity)
    if mult.size != stats["pairs"] or not math.isclose(
            float(np.mean(mult == 1)), stats["singleton_pair_share"]):
        problems.append("support index pairs differ from the generated pairs")
    return problems


def train(ready: Ready, config, epochs: int, seed: int, ops: Ops):
    """One train_model call; returns (model, epoch seconds, final loss).

    Epoch boundaries come from the ends of the eval-mode forwards
    train_model makes once per epoch (validation) and once after the last
    (test), so an epoch includes its validation pass.
    """
    tc = mg.TrainConfig(epochs=epochs, patience=epochs, **TRAIN_CONFIG)
    task = ready.task
    steps = epochs * math.ceil(task.train_idx.size / tc.batch_size)
    probe = Tracer()
    try:
        with probe.installed([("meganet:Model.forward", forward_span_name, None)]):
            start = time.perf_counter()
            model, record = mg.train_model(task, config, tc, seed=seed)
            wall = time.perf_counter() - start
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        ops.record(False, f"training failed: {exc}", steps)
        return None, [], math.nan
    losses = record.train_losses
    ops.record(len(losses) == epochs and bool(np.isfinite(losses).all()),
               f"training losses {losses}", steps)
    starts = [s for name, s, _, _ in probe.spans if name == "model.forward.train"]
    ends = [e for name, _, e, _ in probe.spans if name == "model.forward.eval"]
    if starts and len(ends) == epochs + 1:
        epoch_s = np.diff([starts[0]] + ends[:epochs]).tolist()
    else:
        print(f"# train_model made {len(ends)} eval forwards for {epochs} "
              "epochs; epoch_s falls back to wall time / epochs")
        epoch_s = [wall / epochs] * epochs
    return model, epoch_s, losses[-1] if losses else math.nan


def infer(ready: Ready, model, reference, ops: Ops):
    """One eval-mode full-graph forward; returns (seconds, logits)."""
    g = ready.task.graph
    start = time.perf_counter()
    logits, _ = model.forward(g, ready.supp, ready.rev, roots=ready.roots)
    seconds = time.perf_counter() - start
    width = g.num_edges if ready.task.task_type == "edge" else g.num_nodes
    ok = logits.shape == (width,) and bool(np.isfinite(logits).all())
    if ok and reference is not None:
        ok = np.array_equal(logits, reference)
    ops.record(ok, "eval forward gave non-finite or non-repeatable logits")
    return seconds, logits


def sample(ready: Ready, items: np.ndarray, ops: Ops):
    """One 2-hop sampler call seeded on task items; returns (seconds, edges).

    Items are nodes for a node task and edges for an edge task, as the
    seeds of a mini-batch would be.
    """
    g = ready.task.graph
    edge_task = ready.task.task_type == "edge"
    start = time.perf_counter()
    batch = mgdata.sample_neighborhood(
        g, ready.supp, ready.rev, hops=2,
        **{"seed_edges" if edge_task else "seed_nodes": items})
    seconds = time.perf_counter() - start
    seeds = np.unique(g.edges[items]) if edge_task else items
    ops.record(sample_is_whole(g.edges, seeds, batch),
               "sampled subgraph is inconsistent or splits a parallel-edge group")
    return seconds, batch.edge_map.size


def batch_items(ready: Ready, rng, count: int) -> np.ndarray:
    """A random mini-batch of training items."""
    task = ready.task
    return task.items[rng.choice(task.train_idx, count, replace=False)]


def sample_is_whole(edges: np.ndarray, seeds, batch) -> bool:
    """Seeds kept, local edges map back, and no parallel-edge group split."""
    emap, nmap = np.asarray(batch.edge_map), np.asarray(batch.node_map)
    if np.unique(emap).size != emap.size or not np.isin(seeds, nmap).all():
        return False
    if not np.array_equal(nmap[batch.graph.edges], edges[emap]):
        return False
    _, pair_of, mult = np.unique(edges, axis=0, return_inverse=True,
                                 return_counts=True)
    touched = np.unique(pair_of.ravel()[emap])
    return int(mult[touched].sum()) == emap.size


def id_graphs(inp: Inputs) -> list:
    """The ID targets as (graph, support, reverse, root, distances)."""
    out = []
    for gi, root, dist in inp.id_targets:
        g = mg.Multigraph(gi.num_nodes, np.ones((gi.num_nodes, 1)), gi.edges,
                          gi.edge_features)
        supp = mg.build_support_index(g)
        out.append((g, supp, mg.build_reverse_index(g, supp), root, dist))
    return out


def assign_ids(targets: list, ops: Ops):
    """Label edges and assign IDs on every target; returns (seconds, nodes)."""
    seconds, nodes = 0.0, 0
    for g, supp, rev, root, dist in targets:
        start = time.perf_counter()
        try:
            labels = mgids.label_edges_by_features(g)
            state = mgids.bfs_assign_ids(g, supp, rev, labels, root)
        except ValueError as exc:
            seconds += time.perf_counter() - start
            ops.record(False, f"ID assignment failed: {exc}")
            continue
        seconds += time.perf_counter() - start
        nodes += g.num_nodes
        ops.record(ids_are_valid(state.ids, dist),
                   "IDs are duplicated or break the digit-count law")
    return seconds, nodes


def ids_are_valid(ids, dist) -> bool:
    """Every node has a unique ID whose length is its hop distance + 1."""
    return (len(ids) == len(dist) and None not in ids
            and len(set(ids)) == len(ids)
            and all(len(i) == d + 1 for i, d in zip(ids, dist.tolist())))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Calibration:
    """Two fixed kernels that use no program code, timed next to operations.

    On a small shared machine the speed of interpreter-bound code swings
    about 2x, and of numpy-bound code about 1.3x, in modes lasting seconds
    to minutes. An operation's time divided by the time of the kernel of
    its kind, run just before and after it, holds far steadier; times are
    reported scaled to the kernels' reference times.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((20_000, 192))
        self._w = rng.random((192, 64))
        self._rows = rng.integers(0, 20_000, 20_000)
        self._starts = np.arange(0, 20_000, 4)
        self._small = np.arange(4096)

    def interpreter(self) -> float:
        """Dict, tuple and small-slice work, like the sampler's and ID loops."""
        start = time.perf_counter()
        seen: dict = {}
        for k in range(1500):
            seen.setdefault((k % 101, k % 7), []).append(self._small[k:k + 3])
        sorted(seen)
        return (time.perf_counter() - start) / INTERPRETER_REF_S

    def numpy(self) -> float:
        """A matmul, gather, segment sum and concatenation, like a layer's."""
        start = time.perf_counter()
        h = np.maximum(self._x @ self._w, 0.0)
        gathered = h[self._rows]
        np.add.reduceat(gathered, self._starts, axis=0)
        np.concatenate([gathered, h], axis=1)
        return (time.perf_counter() - start) / NUMPY_REF_S


def bracketed(kernel, op):
    """Run ``op`` between two runs of ``kernel``; return (scale, op's result).

    Multiplying the op's seconds by the scale gives reference-speed seconds.
    """
    before = kernel()
    result = op()
    after = kernel()
    return 2.0 / (before + after), result


def timed(fn, *args):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def timed_run(w: Workload, inp: Inputs, seed: int, seconds: float, ops: Ops):
    """Tracing off: rounds of every operation until ``seconds`` are used.

    Operations are interleaved round by round, so each metric's median
    samples the whole run. Every time is scaled to reference speed by the
    calibration kernel of its kind: the interpreter kernel for set-up,
    sampling and IDs, the numpy kernel for training and inference.
    """
    config = model_config(w)
    targets = id_graphs(inp)
    cal = Calibration()
    rng = np.random.default_rng([seed, 6])
    # reference-speed seconds per repetition, or per unit of work for the
    # sampler and IDs
    times = {"setup": [], "epoch": [], "infer": [], "sample": [], "ids": []}
    raw_epochs = []
    ready = model = reference = None
    final_loss = math.nan
    start = time.perf_counter()
    rounds = 0
    while True:
        for _ in range(w.per_round["setup"]):
            scale, (s, ready) = bracketed(cal.interpreter,
                                          lambda: timed(setup, inp, config, seed))
            times["setup"].append(s * scale)
        if rounds == 0:
            inp.problems += check_setup(inp, ready)
        scale, (model, epoch_s, final_loss) = bracketed(
            cal.numpy, lambda: train(ready, config, w.per_round["epochs"], seed, ops))
        times["epoch"] += [e * scale for e in epoch_s]
        raw_epochs += epoch_s
        if model is None:
            break
        for _ in range(w.per_round["infer"]):
            scale, (s, reference) = bracketed(
                cal.numpy, lambda: infer(ready, model, reference, ops))
            times["infer"].append(s * scale)
        for _ in range(w.per_round["sample"]):
            items = batch_items(ready, rng, w.sample_seeds)
            scale, (s, edges) = bracketed(cal.interpreter,
                                          lambda: sample(ready, items, ops))
            times["sample"].append(s * scale / max(edges, 1))
        for _ in range(w.per_round["ids"]):
            scale, (s, nodes) = bracketed(cal.interpreter,
                                          lambda: assign_ids(targets, ops))
            times["ids"].append(s * scale / max(nodes, 1))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break

    med = {k: float(np.median(v)) if v else math.nan for k, v in times.items()}
    print(f"# {rounds} rounds; repetitions: " + ", ".join(
        f"{k} {len(v)}" for k, v in times.items()))
    print(f"# final training loss (fingerprint): {final_loss!r}")
    if raw_epochs:
        print(f"# raw wall-clock median epoch: {np.median(raw_epochs):.6g} s")
    return {
        "setup_s": med["setup"],
        "epoch_s": med["epoch"],
        "infer_edges_per_s": ready.task.graph.num_edges / med["infer"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ids_nodes_per_s": 1.0 / med["ids"],
        "sample_edges_per_s": 1.0 / med["sample"],
    }


def traced_run(w: Workload, inp: Inputs, seed: int, ops: Ops, tracer: Tracer):
    """A fixed amount of work, each operation once untraced and once traced.

    The per-layer totals therefore compare across commits, and the
    difference between the two passes is the tracing overhead.
    """
    config = model_config(w)
    walls = [0.0, 0.0]
    calls = [0]

    def both(op):
        # alternate which pass goes first so warm-up does not bias the overhead
        calls[0] += 1
        for traced in ((False, True) if calls[0] % 2 else (True, False)):
            start = time.perf_counter()
            if traced:
                with tracer.installed(HOOKS):
                    out = op()
            else:
                out = op()
            walls[traced] += time.perf_counter() - start
            if traced:
                result = out
        return result

    ready = both(lambda: setup(inp, config, seed))
    inp.problems += check_setup(inp, ready)
    model, _, final_loss = both(lambda: train(ready, config, TRACE_EPOCHS, seed, ops))
    if model is not None:
        for _ in range(2):
            both(lambda: infer(ready, model, None, ops))
    rng = np.random.default_rng([seed, 6])
    for _ in range(2):
        items = batch_items(ready, rng, w.sample_seeds)
        both(lambda: sample(ready, items, ops))
    targets = id_graphs(inp)
    both(lambda: assign_ids(targets, ops))
    print(f"# final training loss (fingerprint): {final_loss!r}")
    return layer_metrics(tracer, gen.pair_stats(inp.graph.edges), *walls)


def run(name: str, seed: int, seconds: float, trace: bool, scratch: Path,
        tracer: Tracer | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    w = WORKLOADS[name]
    ops = Ops()
    inp = w.make_inputs(seed, scratch)
    try:
        stats = gen.pair_stats(inp.graph.edges)
        print("# inputs: " + ", ".join(f"{k} {v:.6g}" for k, v in stats.items()))
        if trace:
            values = traced_run(w, inp, seed, ops, tracer or Tracer())
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values = timed_run(w, inp, seed, seconds, ops)
            units = dict(END_TO_END)
    finally:
        if inp.csv_path is not None:
            inp.csv_path.unlink(missing_ok=True)
    problems = inp.problems + ops.problems
    for p in problems:
        print(f"# problem: {p}")
    print(f"# operations: {ops.attempted} attempted, {ops.failed} failed, "
          f"op_failure_rate {ops.failed / max(ops.attempted, 1):.6g}")
    correct = not problems and all(math.isfinite(v) for v in values.values())
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {k: {"value": float(v) if math.isfinite(v) else 0.0,
                            "unit": units[k]} for k, v in values.items()}}

