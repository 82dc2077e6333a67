"""Dataset plumbing: CSV transaction tables, synthetic planted tasks,
temporal splitting and neighborhood sampling.

Transaction tables model the usual financial-graph shape: accounts become
nodes, individual transactions become (parallel) directed edges carrying a
timestamp, an amount and a few categorical attributes. Labels sit either
on edges (illicit-transaction style) or on nodes (phishing-account style).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .graph import Multigraph, SupportIndex


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
    dictionary-encoded. Errors carry 1-based data row numbers.
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

        accounts: dict[str, int] = {}
        cat_dicts: list[dict[str, int]] = [{} for _ in schema.categorical]
        src, dst, ts, amt, cats, labels = [], [], [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            def intern(table: dict, key: str) -> int:
                if key not in table:
                    table[key] = len(table)
                return table[key]

            src.append(intern(accounts, row[schema.src]))
            dst.append(intern(accounts, row[schema.dst]))
            try:
                ts.append(int(float(row[schema.timestamp])))
            except ValueError:
                raise IngestionError(
                    f"{path} row {rownum}: unparseable timestamp "
                    f"{row[schema.timestamp]!r}") from None
            try:
                amt.append(float(row[schema.amount]))
            except ValueError:
                raise IngestionError(
                    f"{path} row {rownum}: unparseable amount "
                    f"{row[schema.amount]!r}") from None
            cats.append([intern(d, row[c])
                         for d, c in zip(cat_dicts, schema.categorical)])
            if schema.label is not None:
                try:
                    labels.append(int(float(row[schema.label])))
                except ValueError:
                    raise IngestionError(
                        f"{path} row {rownum}: unparseable label "
                        f"{row[schema.label]!r}") from None
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
    some transaction.
    """
    ids = {name: i for i, name in enumerate(account_names)}
    labels = np.full(len(ids), -1, dtype=np.int64)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"node", "label"} <= set(reader.fieldnames):
            raise IngestionError(f"{path}: expected 'node,label' columns")
        for rownum, row in enumerate(reader, start=1):
            node = row["node"]
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
    one_hot_categoricals: bool = True


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
    feats = np.column_stack(cols)
    if feature_spec.one_hot_categoricals and t.categorical.shape[1]:
        hots = []
        for c, size in enumerate(t.categorical_sizes):
            hot = np.zeros((t.num_rows, size))
            hot[np.arange(t.num_rows), t.categorical[:, c]] = 1.0
            hots.append(hot)
        feats = np.concatenate([feats] + hots, axis=1)
    edges = np.column_stack([t.src, t.dst])
    g = Multigraph(
        num_nodes=t.num_accounts,
        node_features=np.ones((t.num_accounts, 1)),
        edges=edges,
        edge_features=feats,
    )
    return g, t.labels, t.node_labels


@dataclass
class BatchSample:
    """Induced subgraph of a sampled neighborhood."""

    graph: Multigraph
    node_map: np.ndarray    # local node i -> parent node id
    edge_map: np.ndarray    # local edge k -> parent edge id
    roots_local: np.ndarray
    hop_nodes: list[np.ndarray]


def sample_neighborhood(
    g: Multigraph,
    supp: SupportIndex,
    rev: SupportIndex,
    seed_nodes=None,
    seed_edges=None,
    hops: int = 2,
    per_hop: int = 100,
    rng_seed: int = 0,
) -> BatchSample:
    """Breadth-limited bidirectional expansion with whole-group inclusion.

    When a node has more than per_hop distinct neighbors a uniform subset
    of neighbors is drawn, but every parallel edge of a selected pair is
    kept so the multi-edge aggregation always sees complete groups.
    """
    if per_hop < 1:
        raise ConfigError("per_hop must be at least 1")
    rng = np.random.default_rng(rng_seed)
    seed_nodes = (np.zeros(0, dtype=np.int64) if seed_nodes is None
                  else np.asarray(seed_nodes, dtype=np.int64))
    seed_edges = (np.zeros(0, dtype=np.int64) if seed_edges is None
                  else np.asarray(seed_edges, dtype=np.int64))

    edge_set: set[int] = set()
    node_order: list[int] = []
    node_seen: set[int] = set()

    def add_node(v: int):
        if v not in node_seen:
            node_seen.add(v)
            node_order.append(v)

    edge_to_supp, edge_order, edge_offsets = supp.by_pair
    pair_src, out_order, out_offsets = supp.by_src
    pair_dst, in_order, in_offsets = supp.by_dst

    def add_group(s: int):
        for k in edge_order[edge_offsets[s]:edge_offsets[s + 1]]:
            edge_set.add(int(k))

    roots: list[int] = []
    for v in seed_nodes:
        add_node(int(v))
        roots.append(int(v))
    for k in seed_edges:
        add_group(int(edge_to_supp[k]))
        for v in (int(g.src[k]), int(g.dst[k])):
            add_node(v)
            roots.append(v)

    frontier = list(node_order)
    hop_nodes = [np.array(node_order, dtype=np.int64)]
    for _ in range(hops):
        next_frontier: list[int] = []
        for v in frontier:
            # candidate distinct neighbors over both directions
            pair_choices: list[tuple[int, int, int]] = []  # (neighbor, supp_id, dir)
            for s in in_order[in_offsets[v]:in_offsets[v + 1]]:
                pair_choices.append((int(pair_src[s]), int(s), 0))
            for s in out_order[out_offsets[v]:out_offsets[v + 1]]:
                pair_choices.append((int(pair_dst[s]), int(s), 0))
            if len({c[0] for c in pair_choices}) > per_hop:
                neighbors = sorted({c[0] for c in pair_choices})
                chosen = set(rng.choice(neighbors, size=per_hop, replace=False))
            else:
                chosen = {c[0] for c in pair_choices}
            for u, s, _ in pair_choices:
                if u in chosen:
                    add_group(s)
                    if u not in node_seen:
                        add_node(u)
                        next_frontier.append(u)
        frontier = next_frontier
        hop_nodes.append(np.array(next_frontier, dtype=np.int64))

    # endpoints of all included edges must be present
    edge_ids = np.array(sorted(edge_set), dtype=np.int64)
    for k in edge_ids:
        add_node(int(g.src[k]))
        add_node(int(g.dst[k]))

    node_map = np.array(node_order, dtype=np.int64)
    local_of = {int(v): i for i, v in enumerate(node_map)}
    local_edges = np.column_stack([
        [local_of[int(g.src[k])] for k in edge_ids],
        [local_of[int(g.dst[k])] for k in edge_ids],
    ]) if edge_ids.size else np.zeros((0, 2), dtype=np.int64)
    sub = Multigraph(
        num_nodes=node_map.size,
        node_features=g.node_features[node_map],
        edges=local_edges,
        edge_features=g.edge_features[edge_ids],
    )
    roots_local = np.array(sorted({local_of[r] for r in roots}), dtype=np.int64)
    return BatchSample(graph=sub, node_map=node_map, edge_map=edge_ids,
                       roots_local=roots_local, hop_nodes=hop_nodes)


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


def brute_force_planted_labels(g: Multigraph, labeled_mask, task: str) -> np.ndarray:
    """Independent re-derivation of planted labels straight from the graph."""
    labeled = np.flatnonzero(np.asarray(labeled_mask))
    out = np.zeros(labeled.size, dtype=np.int64)
    if task == "max_of_sums":
        for i, j in enumerate(labeled):
            incoming = np.flatnonzero(g.dst == j)
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
        counts = np.array([
            np.unique(g.dst[np.flatnonzero(g.src == j)]).size for j in labeled
        ])
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


def write_node_labels_csv(path, labels) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "label"])
        count = 0
        for v, lab in enumerate(labels):
            writer.writerow([v, int(lab)])
            count += 1
    return count
