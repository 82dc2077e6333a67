"""Dataset plumbing: CSV transaction tables, synthetic planted tasks,
temporal splitting and neighborhood sampling.

Transaction tables model the usual financial-graph shape: accounts become
nodes, individual transactions become (parallel) directed edges carrying a
timestamp, an amount and a few categorical attributes. Labels sit either
on edges (illicit-transaction style) or on nodes (phishing-account style).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import (GraphError, Multigraph, SupportIndex, build_reverse_index,
                    build_support_index, group_items, neighbor_pairs)

_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class IngestionError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Schema:
    """Column mapping from CSV headers to transaction-table roles."""

    src: str
    dst: str
    timestamp: str
    amount: str
    categorical: tuple[str, ...] = ()
    label: str | None = None


# Named presets; the public releases do not pin exact column names, so
# these document our defaults and remain overridable.
AML_SCHEMA = Schema(
    src="src_account",
    dst="dst_account",
    timestamp="timestamp",
    amount="amount_received",
    categorical=("currency", "payment_format"),
    label="is_laundering",
)
ETH_SCHEMA = Schema(
    src="src",
    dst="dst",
    timestamp="timestamp",
    amount="amount",
)
GENERATED_SCHEMA = Schema(
    src="src",
    dst="dst",
    timestamp="timestamp",
    amount="amount",
    label="label",
)

SCHEMAS = {"aml": AML_SCHEMA, "eth": ETH_SCHEMA, "generated": GENERATED_SCHEMA}


@dataclass
class TransactionTable:
    """Densely re-indexed transaction rows, original order preserved."""

    num_accounts: int
    src: np.ndarray
    dst: np.ndarray
    timestamp: np.ndarray
    amount: np.ndarray
    categorical: np.ndarray            # [rows, n_cat] dictionary codes
    categorical_sizes: tuple[int, ...]
    labels: np.ndarray | None = None   # per-row binary labels
    node_labels: np.ndarray | None = None  # per-account labels (sidecar)
    # CSV value of each account id; load_node_labels maps sidecars through it
    account_names: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.src.size


def load_transactions(path, schema: Schema) -> TransactionTable:
    """Read a headered CSV into a transaction table.

    Accounts are renumbered densely in first-seen order (account_names
    keeps the CSV value of each id) and categorical columns are
    dictionary-encoded. A row must fill every column the schema reads and
    name both accounts. Timestamps and amounts must be finite numbers,
    timestamps within the int64 range, and edge labels 0 or 1. Errors carry
    1-based data row numbers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: file is empty")
        needed = [schema.src, schema.dst, schema.timestamp, schema.amount,
                  *schema.categorical]
        if schema.label is not None:
            needed.append(schema.label)
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise IngestionError(f"{path}: missing column(s) {missing}")
        # a short row lacks a suffix of the header's columns: test the last
        # column the schema reads
        last = max(needed, key=reader.fieldnames.index)

        accounts: dict[str, int] = {}
        cat_dicts: list[dict[str, int]] = [{} for _ in schema.categorical]
        src, dst, ts, amt, cats, labels = [], [], [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            def intern(table: dict, key: str) -> int:
                if key not in table:
                    table[key] = len(table)
                return table[key]

            def number(column: str, role: str) -> float:
                try:
                    x = float(row[column])
                except ValueError:
                    x = math.nan
                if not math.isfinite(x):
                    raise IngestionError(
                        f"{path} row {rownum}: {role} {row[column]!r} is not "
                        "a finite number")
                return x

            if row[last] is None:
                raise IngestionError(
                    f"{path} row {rownum}: fewer fields than the header")
            s, d = row[schema.src], row[schema.dst]
            if not (s and d):
                raise IngestionError(f"{path} row {rownum}: "
                                     f"{schema.dst if s else schema.src} is empty")
            src.append(intern(accounts, s))
            dst.append(intern(accounts, d))
            t = int(number(schema.timestamp, "timestamp"))
            if not _INT64_MIN <= t <= _INT64_MAX:
                raise IngestionError(
                    f"{path} row {rownum}: timestamp {row[schema.timestamp]!r} "
                    "is outside the int64 range")
            ts.append(t)
            amt.append(number(schema.amount, "amount"))
            cats.append([intern(d, row[c])
                         for d, c in zip(cat_dicts, schema.categorical)])
            if schema.label is not None:
                label = number(schema.label, "label")
                if label not in (0.0, 1.0):
                    raise IngestionError(
                        f"{path} row {rownum}: label {row[schema.label]!r} "
                        "must be 0 or 1")
                labels.append(int(label))
    if not src:
        raise IngestionError(f"{path}: no data rows")
    n_cat = len(schema.categorical)
    return TransactionTable(
        num_accounts=len(accounts),
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        timestamp=np.array(ts, dtype=np.int64),
        amount=np.array(amt, dtype=np.float64),
        categorical=(np.array(cats, dtype=np.int64)
                     if n_cat else np.zeros((len(src), 0), dtype=np.int64)),
        categorical_sizes=tuple(len(d) for d in cat_dicts),
        labels=np.array(labels, dtype=np.int64) if schema.label else None,
        account_names=list(accounts),
    )


def load_node_labels(path, account_names) -> np.ndarray:
    """Sidecar file with one 'node,label' pair per line (headered).

    node is an account as the transaction file writes it; its label lands
    on the account's id, the position of the name in account_names (a
    TransactionTable's). Labels are 0 or 1; -1, as write_node_labels_csv
    writes it, leaves the node unlabeled. A labeled node must appear in
    some transaction, and no node may be listed twice.
    """
    ids = {name: i for i, name in enumerate(account_names)}
    labels = np.full(len(ids), -1, dtype=np.int64)
    listed = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"node", "label"} <= set(reader.fieldnames):
            raise IngestionError(f"{path}: expected 'node,label' columns")
        for rownum, row in enumerate(reader, start=1):
            node = row["node"]
            if node in listed:
                raise IngestionError(
                    f"{path} row {rownum}: node {node!r} is listed twice")
            listed.add(node)
            try:
                label = int(row["label"])
            except (ValueError, TypeError):
                raise IngestionError(f"{path} row {rownum}: bad node label row") from None
            if label not in (-1, 0, 1):
                raise IngestionError(
                    f"{path} row {rownum}: label {label} must be in {{-1, 0, 1}}")
            if node in ids:
                labels[ids[node]] = label
            elif label != -1:
                raise IngestionError(
                    f"{path} row {rownum}: node {node!r} appears in no transaction")
    return labels


@dataclass(frozen=True)
class SplitSpec:
    """Time-ordered train/val/test fractions."""

    train: float = 0.65
    val: float = 0.15
    test: float = 0.20

    def __post_init__(self):
        fr = (self.train, self.val, self.test)
        if any(f <= 0 for f in fr):
            raise ConfigError("split fractions must be positive")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")


def temporal_split(t: TransactionTable, s: SplitSpec):
    """Contiguous prefix/middle/suffix after sorting by (timestamp, row)."""
    n = t.num_rows
    order = np.lexsort((np.arange(n), t.timestamp))
    n_train = int(n * s.train)
    n_val = int(n * (s.train + s.val)) - n_train
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise ConfigError(f"{n} rows are too few for non-empty splits")
    return (order[:n_train], order[n_train:n_train + n_val],
            order[n_train + n_val:])


@dataclass(frozen=True)
class FeatureSpec:
    """Normalization statistics, computed on the training split only."""

    ts_mean: float
    ts_std: float
    amount_mean: float
    amount_std: float


def compute_feature_spec(t: TransactionTable, train_idx=None) -> FeatureSpec:
    idx = np.arange(t.num_rows) if train_idx is None else np.asarray(train_idx)
    ts = t.timestamp[idx].astype(np.float64)
    amt = t.amount[idx]
    return FeatureSpec(
        ts_mean=float(ts.mean()),
        ts_std=float(ts.std()) or 1.0,
        amount_mean=float(amt.mean()),
        amount_std=float(amt.std()) or 1.0,
    )


def to_multigraph(t: TransactionTable, feature_spec: FeatureSpec):
    """Build the transaction multigraph.

    Edge features: z-scored timestamp and amount plus one-hot categoricals.
    Nodes carry a constant column (the datasets have no node attributes).
    Returns (graph, edge_labels or None, node_labels or None).
    """
    cols = [
        (t.timestamp - feature_spec.ts_mean) / feature_spec.ts_std,
        (t.amount - feature_spec.amount_mean) / feature_spec.amount_std,
    ]
    for c, size in enumerate(t.categorical_sizes):
        hot = np.zeros((t.num_rows, size))
        hot[np.arange(t.num_rows), t.categorical[:, c]] = 1.0
        cols.append(hot)
    edges = np.column_stack([t.src, t.dst])
    g = Multigraph(
        num_nodes=t.num_accounts,
        node_features=np.ones((t.num_accounts, 1)),
        edges=edges,
        edge_features=np.column_stack(cols),
    )
    return g, t.labels, t.node_labels


@dataclass
class BatchSample:
    """A view of a multigraph: a seeded neighbourhood, or the whole graph.

    sample_neighborhood keeps, whole, the seed edges' (src, dst) pairs, the
    pairs it takes leaving nodes within hops - 1 hops of the seeds in
    either direction (every one when per_hop is None), and the nodes they
    reach. A pair between two nodes first reached at the last hop is not
    kept, so this is not the induced subgraph: with every pair taken it is
    the receptive field of a hops-layer model at the seeds, whose logits
    through the view are the whole graph's. full_view is the graph itself,
    with identity maps and its own indices. supp and rev are the view's
    support and reverse indices, built on first use.
    """

    graph: Multigraph
    node_map: np.ndarray    # local node i -> parent node id
    edge_map: np.ndarray    # local edge k -> parent edge id, ascending

    @cached_property
    def supp(self) -> SupportIndex:
        return build_support_index(self.graph)

    @cached_property
    def rev(self) -> SupportIndex:
        return build_reverse_index(self.graph, self.supp)

    def local(self, items, kind: str) -> np.ndarray:
        """Local rows of parent node ids (kind "node") or edge ids (kind
        "edge"), in the order given; GraphError for an id not in the view."""
        parent = self.edge_map if kind == "edge" else self.node_map
        items = np.asarray(items, dtype=np.int64)
        order = np.argsort(parent, kind="stable")
        pos = np.searchsorted(parent, items, sorter=order)
        if pos.size and (pos.max() >= parent.size
                         or not np.array_equal(parent[order[pos]], items)):
            raise GraphError(f"{kind} id outside the view")
        return order[pos]


def full_view(g: Multigraph, supp: SupportIndex,
              rev: SupportIndex) -> BatchSample:
    """g as a view: identity maps and the given indices, nothing copied or
    built."""
    view = BatchSample(graph=g, node_map=np.arange(g.num_nodes),
                       edge_map=np.arange(g.num_edges))
    vars(view).update(supp=supp, rev=rev)
    return view


def sample_neighborhood(
    g: Multigraph,
    supp: SupportIndex,
    rev: SupportIndex,
    seed_nodes=None,
    seed_edges=None,
    hops: int = 2,
    per_hop: int | None = 100,
    rng_seed: int = 0,
) -> BatchSample:
    """Breadth-limited bidirectional expansion with whole-group inclusion.

    A node's neighbours are listed by graph.neighbor_pairs over (rev, supp):
    in-neighbours through the reverse index first, then out-neighbours.
    When a node has more than per_hop distinct neighbors a uniform subset
    of neighbors is drawn, but every parallel edge of a selected pair is
    kept so the multi-edge aggregation always sees complete groups. An
    edge seed keeps its pair and seeds both endpoints.

    per_hop=None takes every neighbour and draws nothing, so the result is
    the exact receptive field of a hops-layer model (BatchSample). When
    that walk reaches every node, it stops and returns full_view(g, supp, rev).
    """
    if (per_hop is not None and per_hop < 1) or hops < 0:
        raise ConfigError("per_hop must be at least 1 and hops at least 0")
    n = g.num_nodes
    seed_nodes, seed_edges = (np.asarray([] if s is None else s, dtype=np.int64)
                              for s in (seed_nodes, seed_edges))
    if np.any((seed_nodes < 0) | (seed_nodes >= n)):
        raise GraphError("seed node out of range")
    if np.any((seed_edges < 0) | (seed_edges >= g.num_edges)):
        raise GraphError("seed edge out of range")
    rng = np.random.default_rng(rng_seed)
    seen = np.zeros(n, dtype=bool)
    kept = np.zeros(supp.num_pairs, dtype=bool)
    pairs = [_mark_new(supp.edge_to_supp[seed_edges], kept)]
    hop_nodes = [_mark_new(np.append(seed_nodes, g.edges[seed_edges]), seen)]
    for _ in range(hops):
        if per_hop is None and seen.all():
            break
        pos, _, pair, u = neighbor_pairs((rev, supp), hop_nodes[-1])
        if per_hop is not None:
            key = pos * n + u
            distinct = np.unique(key)   # each node's distinct neighbours, sorted
            counts = np.bincount(distinct // n, minlength=hop_nodes[-1].size)
            over = np.flatnonzero(counts > per_hop)
            starts = (np.cumsum(counts) - counts)[over]
            drawn = [rng.choice(distinct[lo:lo + c], size=per_hop, replace=False)
                     for lo, c in zip(starts.tolist(), counts[over].tolist())]
            take = (counts[pos] <= per_hop) | np.isin(key, drawn)
            pair, u = pair[take], u[take]
        pairs.append(_mark_new(pair, kept))
        hop_nodes.append(_mark_new(u, seen))
    if per_hop is None and seen.all():
        return full_view(g, supp, rev)

    edge_ids = np.sort(group_items(supp.by_pair, np.concatenate(pairs))[1])
    node_map = np.concatenate(hop_nodes)
    local = np.empty(n, dtype=np.int64)
    local[node_map] = np.arange(node_map.size)
    sub = Multigraph(
        num_nodes=node_map.size,
        node_features=g.node_features[node_map],
        edges=local[g.edges[edge_ids]],
        edge_features=g.edge_features[edge_ids],
    )
    return BatchSample(graph=sub, node_map=node_map, edge_map=edge_ids)


def _mark_new(items: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Marks and returns the unmarked items, once each, in first order."""
    items = items[~seen[items]]
    new = items[np.sort(np.unique(items, return_index=True)[1])]
    seen[new] = True
    return new


# ---------------------------------------------------------------------------
# planted synthetic tasks
# ---------------------------------------------------------------------------

_MAX_SINGLE = 5.0
_LOW_SINGLE = 1.0
_NOISE = 0.05
_POSITIVE_RATE = 0.25


def _contender_values(p: int) -> tuple[float, float]:
    """Per-payment values (a, b) for the low- and high-total fillers.

    Chosen so that swapping which contender holds the b-payments flips
    which sender has the highest total while the highest single payment
    stays put, with a comfortable margin over the +-_NOISE jitter.
    """
    b = 4.8
    a = max(0.3, b - 5.0 / (p - 1)) if p > 1 else 0.3
    return a, b


def generate_planted_task(
    num_nodes: int,
    num_senders_per_node: int,
    payments_per_sender: int,
    task: str,
    seed: int,
):
    """Synthetic multigraphs whose labels need two-stage or reverse MP.

    max_of_sums: each labeled receiver has private senders; label 1 iff the
    sender with the largest payment total is not the sender of the single
    largest payment. The pooled payment multiset is label-independent, so
    single-stage aggregation carries no signal.

    out_neighbor_count: label 1 iff a subject node's distinct out-neighbor
    count exceeds the median count; without reverse message passing a
    subject (which has no incoming edges) never sees its out-degree.

    Returns (graph, labels) with labels[v] in {-1, 0, 1}; -1 marks
    auxiliary nodes outside the task.
    """
    if num_nodes < 1 or num_senders_per_node < 1 or payments_per_sender < 1:
        raise ConfigError("counts must be at least 1")
    if task == "max_of_sums":
        return _generate_max_of_sums(num_nodes, num_senders_per_node,
                                     payments_per_sender, seed)
    if task == "out_neighbor_count":
        return _generate_out_neighbor_count(num_nodes, num_senders_per_node,
                                            payments_per_sender, seed)
    raise ConfigError(f"unknown planted task {task!r}")


def _generate_max_of_sums(num_receivers, k, p, seed):
    if k < 2:
        raise ConfigError("max_of_sums needs at least 2 senders per node")
    if p < 2:
        raise ConfigError("max_of_sums needs at least 2 payments per sender "
                          "(with one payment, totals equal singles)")
    rng = np.random.default_rng(seed)
    a, b = _contender_values(p)
    edges, amounts = [], []
    total_nodes = num_receivers * (1 + k)
    labels = np.full(total_nodes, -1, dtype=np.int64)
    ts = []
    for r in range(num_receivers):
        label = int(rng.random() < _POSITIVE_RATE)
        labels[r] = label
        scale = rng.uniform(0.95, 1.05)
        sender_base = num_receivers + r * k
        senders = list(range(sender_base, sender_base + k))
        rng.shuffle(senders)
        # contender A always holds the single largest payment; contender B
        # holds the larger total exactly when the label is positive
        fill_a, fill_b = (a, b) if label else (b, a)
        payment_sets = {
            senders[0]: [_MAX_SINGLE] + [fill_a] * (p - 1),
            senders[1]: [_LOW_SINGLE] + [fill_b] * (p - 1),
        }
        for s in senders[2:]:
            payment_sets[s] = list(rng.uniform(0.2, 1.0, size=p))
        for s, values in payment_sets.items():
            for v in values:
                noisy = (v + rng.uniform(-_NOISE, _NOISE)) * scale
                edges.append((s, r))
                amounts.append(noisy)
                ts.append(len(ts))
    g = Multigraph(
        num_nodes=total_nodes,
        node_features=np.ones((total_nodes, 1)),
        edges=np.array(edges, dtype=np.int64),
        edge_features=np.array(amounts)[:, None],
    )
    check = brute_force_planted_labels(g, labels >= 0, "max_of_sums")
    assert np.array_equal(check, labels[labels >= 0]), \
        "generator produced a label its own oracle disagrees with"
    return g, labels


def _generate_out_neighbor_count(num_subjects, median_degree, p, seed):
    if median_degree < 2:
        raise ConfigError("out_neighbor_count needs a median out-degree of at "
                          "least 2 (a subject of degree 0 is in no transaction)")
    rng = np.random.default_rng(seed)
    quarter = max(num_subjects // 4, 1)
    degs = np.full(num_subjects, median_degree, dtype=np.int64)
    degs[:quarter] = median_degree - 1
    degs[quarter:2 * quarter] = median_degree + 1
    rng.shuffle(degs)
    labels_sub = (degs > np.median(degs)).astype(np.int64)

    num_sinks = int(degs.max()) + 2
    total_nodes = num_subjects + num_sinks
    labels = np.full(total_nodes, -1, dtype=np.int64)
    labels[:num_subjects] = labels_sub
    edges, amounts = [], []
    for v in range(num_subjects):
        sinks = rng.choice(num_sinks, size=int(degs[v]), replace=False)
        for sk in sinks:
            for _ in range(p):
                edges.append((v, num_subjects + int(sk)))
                amounts.append(rng.uniform(0.5, 1.5))
    g = Multigraph(
        num_nodes=total_nodes,
        node_features=np.ones((total_nodes, 1)),
        edges=np.array(edges, dtype=np.int64),
        edge_features=np.array(amounts)[:, None],
    )
    check = brute_force_planted_labels(g, labels >= 0, "out_neighbor_count")
    assert np.array_equal(check, labels[labels >= 0])
    return g, labels


def _incident_edges(endpoint: np.ndarray, nodes: np.ndarray) -> list[np.ndarray]:
    """Edges whose endpoint is each node, in edge order: one stable argsort."""
    order = np.argsort(endpoint, kind="stable")
    ends = endpoint[order]
    lo = np.searchsorted(ends, nodes, side="left")
    hi = np.searchsorted(ends, nodes, side="right")
    return [order[a:b] for a, b in zip(lo, hi)]


def brute_force_planted_labels(g: Multigraph, labeled_mask, task: str) -> np.ndarray:
    """Independent re-derivation of planted labels straight from the graph."""
    labeled = np.flatnonzero(np.asarray(labeled_mask))
    out = np.zeros(labeled.size, dtype=np.int64)
    if task == "max_of_sums":
        for i, incoming in enumerate(_incident_edges(g.dst, labeled)):
            senders = g.src[incoming]
            amounts = g.edge_features[incoming, 0]
            totals: dict[int, float] = {}
            maxima: dict[int, float] = {}
            for s, amt in zip(senders, amounts):
                s = int(s)
                totals[s] = totals.get(s, 0.0) + amt
                maxima[s] = max(maxima.get(s, -np.inf), amt)
            top_total = max(totals, key=lambda s: totals[s])
            top_single = max(maxima, key=lambda s: maxima[s])
            out[i] = int(top_total != top_single)
        return out
    if task == "out_neighbor_count":
        counts = np.array([np.unique(g.dst[outgoing]).size
                           for outgoing in _incident_edges(g.src, labeled)])
        return (counts > np.median(counts)).astype(np.int64)
    raise ConfigError(f"unknown planted task {task!r}")


def write_transactions_csv(path, g: Multigraph, edge_labels=None) -> int:
    """Write edges back out in the generated-dataset schema; returns rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["src", "dst", "timestamp", "amount"]
        if edge_labels is not None:
            header.append("label")
        writer.writerow(header)
        for k in range(g.num_edges):
            row = [int(g.src[k]), int(g.dst[k]), k,
                   repr(float(g.edge_features[k, 0]))]
            if edge_labels is not None:
                row.append(int(edge_labels[k]))
            writer.writerow(row)
    return g.num_edges


def write_node_labels_csv(path, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "label"])
        for v, lab in enumerate(labels):
            writer.writerow([v, int(lab)])
