"""Dataset plumbing: CSV transaction tables, synthetic planted tasks,
temporal splitting and neighborhood sampling.

Transaction tables model the usual financial-graph shape: accounts become
nodes, individual transactions become (parallel) directed edges carrying a
timestamp, an amount and a few categorical attributes. Labels sit either
on edges (illicit-transaction style) or on nodes (phishing-account style).
"""

from __future__ import annotations

import codecs
import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from operator import itemgetter

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
    categories: dict[str, list[str]]   # column -> its values in code order
    labels: np.ndarray | None = None   # per-row binary labels
    node_labels: np.ndarray | None = None  # per-account labels (sidecar)
    # CSV value of each account id; load_node_labels maps sidecars through it
    account_names: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.src.size


# rows csv.reader tokenizes before their columns are converted: large
# enough that each column's conversion runs in C, small enough that a
# block's Python strings add little to the output arrays' memory
_BLOCK_ROWS = 4096


def _csv_blocks(path, columns):
    """Yield (number of its first row, one list of field texts per column)
    for each block of up to _BLOCK_ROWS data rows of a headered UTF-8 CSV.
    Rows are numbered from 1, skipping blank lines; lines end in LF or
    CRLF, and a leading byte-order mark is dropped. IngestionError for an
    empty file, a column the header lacks or names twice, a row whose field
    count differs from the header's, or text that is not UTF-8 CSV. The
    rows ahead of such a row are yielded first, so a caller that checks
    each block raises for the first bad row in file order."""
    with open(path, "rb") as fh:
        # each line is decoded as csv.reader pulls it, so a decode error
        # surfaces at its own line, after the rows ahead of it
        head = fh.readline().removeprefix(codecs.BOM_UTF8)
        reader = csv.reader(map(bytes.decode,
                                chain([head] if head else [], fh)))
        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise IngestionError(f"{path}: not UTF-8 CSV text: {exc}") from None
        if header is None:
            raise IngestionError(f"{path}: file is empty")
        bad = [c for c in columns if header.count(c) != 1]
        if bad:
            raise IngestionError(f"{path}: the header must name column(s) "
                                 f"{bad} once")
        at = [header.index(c) for c in columns]
        rows = filter(None, reader)
        first = 1
        while True:
            block, error = [], None
            try:
                # list.extend keeps the rows read before a decode or
                # tokenizer error, so they are checked before it is raised
                block.extend(islice(rows, _BLOCK_ROWS))
            except (UnicodeDecodeError, csv.Error) as exc:
                error = IngestionError(f"{path}: not UTF-8 CSV text: {exc}")
            widths = np.fromiter(map(len, block), np.int64, len(block))
            wrong = _first(widths != len(header))
            if wrong < len(block):
                more = "more" if widths[wrong] > len(header) else "fewer"
                error = IngestionError(f"{path} row {first + wrong}: {more} "
                                       "fields than the header")
                del block[wrong:]
            if block:
                yield first, [list(map(itemgetter(i), block)) for i in at]
            if error is not None:
                raise error
            if len(block) < _BLOCK_ROWS:
                return
            first += _BLOCK_ROWS


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length when none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _float(text: str) -> float:
    """text as a float, NaN when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _floats(texts: list[str]) -> np.ndarray:
    """texts as float64, NaN where one is not a number."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return np.fromiter(map(_float, texts), np.float64, len(texts))


def _timestamp(text: str) -> int | None:
    """Integer text exactly, other text truncated from a finite float; None
    when that is not finite or lies outside the int64 range."""
    try:
        t = int(text)
    except ValueError:
        x = _float(text)
        if not math.isfinite(x):
            return None
        t = int(x)
    return t if _INT64_MIN <= t <= _INT64_MAX else None


def _timestamps(texts: list[str]) -> tuple[np.ndarray | None, int]:
    """(texts as int64 timestamps, len(texts)), or (None, the index of the
    first text that is no timestamp)."""
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts)), len(texts)
    except (ValueError, OverflowError):
        values = list(map(_timestamp, texts))
    if None in values:
        return None, values.index(None)
    return np.array(values, dtype=np.int64), len(texts)


def _problem(role: str, text: str) -> str:
    """What is wrong with a timestamp, amount or label text that failed."""
    if not math.isfinite(_float(text)):
        return f"{role} {text!r} is not a finite number"
    if role == "timestamp":
        return f"timestamp {text!r} is outside the int64 range"
    return f"label {text!r} must be 0 or 1"


def load_transactions(path, schema: Schema) -> TransactionTable:
    """Read a headered CSV into a transaction table.

    Accounts are renumbered densely in first-seen order (account_names
    keeps the CSV value of each id) and categorical columns are
    dictionary-encoded. A row must have as many fields as the header and
    name both accounts. Timestamps and amounts must be finite numbers,
    timestamps within the int64 range (integer text is read exactly, other
    text truncated), and edge labels 0 or 1. Errors carry 1-based data row
    numbers; the first bad row in the file raises, and within a row the
    accounts are checked first, then the timestamp, amount and label.
    Rows are read and converted a block at a time, column by column.
    """
    columns = [schema.src, schema.dst, schema.timestamp, schema.amount,
               *schema.categorical]
    if schema.label is not None:
        columns.append(schema.label)
    # each gives a text it lacks the next code, so codes are first-seen order
    accounts = defaultdict(count().__next__)
    cat_dicts = [defaultdict(count().__next__) for _ in schema.categorical]
    parts: list[tuple[np.ndarray, ...]] = []
    for first, (s, d, t_text, a_text, *rest) in _csv_blocks(path, columns):
        n = len(s)
        ends = [""] * (2 * n)             # src before dst within a row
        ends[::2], ends[1::2] = s, d
        ts, t_bad = _timestamps(t_text)
        amt = _floats(a_text)
        # (first bad row, role, its texts) in the order a row is checked
        checks = [
            (min(s.index("") if "" in s else n, d.index("") if "" in d else n),
             "", None),
            (t_bad, "timestamp", t_text),
            (_first(~np.isfinite(amt)), "amount", a_text)]
        if schema.label is not None:
            label = _floats(rest[-1])
            checks.append((_first((label != 0) & (label != 1)), "label",
                           rest[-1]))
        k, role, texts = min(checks, key=itemgetter(0))
        if k < n:
            why = (_problem(role, texts[k]) if role else
                   f"{schema.dst if s[k] else schema.src} is empty")
            raise IngestionError(f"{path} row {first + k}: {why}")
        ids = np.fromiter(map(accounts.__getitem__, ends), np.int64, 2 * n)
        # zip stops at the categoricals, before a trailing label
        cats = [np.fromiter(map(c.__getitem__, v), np.int64, n)
                for c, v in zip(cat_dicts, rest)]
        parts.append((
            ids[::2], ids[1::2], ts, amt,
            np.stack(cats, axis=1) if cats else np.zeros((n, 0), np.int64),
            label.astype(np.int64) if schema.label is not None
            else np.zeros(0, np.int64)))
    if not parts:
        raise IngestionError(f"{path}: no data rows")
    src, dst, ts, amt, cats, labels = map(np.concatenate, zip(*parts))
    return TransactionTable(
        num_accounts=len(accounts),
        src=src,
        dst=dst,
        timestamp=ts,
        amount=amt,
        categorical=cats,
        categories={c: list(d) for c, d in zip(schema.categorical, cat_dicts)},
        labels=labels if schema.label is not None else None,
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
    for first, (nodes, texts) in _csv_blocks(path, ["node", "label"]):
        for rownum, node, text in zip(count(first), nodes, texts):
            if node in listed:
                raise IngestionError(
                    f"{path} row {rownum}: node {node!r} is listed twice")
            listed.add(node)
            try:
                label = int(text)
            except ValueError:
                raise IngestionError(
                    f"{path} row {rownum}: bad node label row") from None
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
    """The input encoding a model is trained with: the training split's
    timestamp and amount statistics and each categorical column's values in
    one-hot column order. IngestionError unless the means are finite, the
    stds positive and finite and each column's values distinct strings."""

    ts_mean: float
    ts_std: float
    amount_mean: float
    amount_std: float
    categories: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        stats = (self.ts_mean, self.ts_std, self.amount_mean, self.amount_std)
        if not (all(map(math.isfinite, stats))
                and min(self.ts_std, self.amount_std) > 0
                and all(isinstance(v, list) and len(set(v)) == len(v)
                        and all(isinstance(x, str) for x in v)
                        for v in self.categories.values())):
            raise IngestionError("feature spec: means must be finite, stds "
                                 "positive and finite, values distinct strings")


def compute_feature_spec(t: TransactionTable, train_idx=None) -> FeatureSpec:
    """The encoding of t: statistics of the train_idx rows (default all),
    and every row's categorical values (no label statistic) in t's codes."""
    idx = np.arange(t.num_rows) if train_idx is None else np.asarray(train_idx)
    ts = t.timestamp[idx].astype(np.float64)
    amt = t.amount[idx]
    # finite amounts can sum or square past float64's range; int64
    # timestamps cannot
    with np.errstate(over="ignore", invalid="ignore"):
        amount_mean, amount_std = float(amt.mean()), float(amt.std())
    if not (math.isfinite(amount_mean) and math.isfinite(amount_std)):
        raise IngestionError("amount: the training rows' mean or standard "
                             "deviation overflows float64")
    return FeatureSpec(
        ts_mean=float(ts.mean()),
        ts_std=float(ts.std()) or 1.0,
        amount_mean=amount_mean,
        amount_std=amount_std or 1.0,
        categories=dict(t.categories),
    )


def to_multigraph(t: TransactionTable, feature_spec: FeatureSpec):
    """Build the transaction multigraph.

    Edge features: z-scored timestamp and amount plus one-hot categoricals,
    each value at its column in feature_spec, matched by name. Nodes carry
    a constant column (the datasets have no node attributes). Returns
    (graph, edge_labels or None, node_labels or None). IngestionError when
    the table's categorical columns are not the spec's, and for a row whose
    z-score is not finite in float64 or whose value the spec lacks, naming
    its column and its 1-based data row.
    """
    if list(t.categories) != list(feature_spec.categories):
        raise IngestionError(f"categorical columns {list(t.categories)} are "
                             f"not the encoding's {list(feature_spec.categories)}")
    # a row outside the training split can lie too far from its mean
    with np.errstate(over="ignore", invalid="ignore"):
        cols = [
            (t.timestamp - feature_spec.ts_mean) / feature_spec.ts_std,
            (t.amount - feature_spec.amount_mean) / feature_spec.amount_std,
        ]
    for name, z in zip(("timestamp", "amount"), cols):
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            raise IngestionError(
                f"{name}: row {bad[0] + 1} ({getattr(t, name)[bad[0]]:g}) lies "
                f"too far from the training rows' mean to standardise in float64")
    for c, (name, values) in enumerate(feature_spec.categories.items()):
        index = {v: i for i, v in enumerate(values)}
        codes = np.array([index.get(v, -1) for v in t.categories[name]],
                         dtype=np.int64)[t.categorical[:, c]]
        bad = np.flatnonzero(codes < 0)
        if bad.size:
            value = t.categories[name][t.categorical[bad[0], c]]
            raise IngestionError(f"{name}: row {bad[0] + 1} holds {value!r}, "
                                 "a value the encoding does not know")
        hot = np.zeros((t.num_rows, len(values)))
        hot[np.arange(t.num_rows), codes] = 1.0
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
    """A view of a multigraph: a seed's receptive field, or the whole graph.

    sample_neighborhood keeps, whole, the seed edges' (src, dst) pairs,
    every pair leaving a node within hops - 1 hops of the seeds in either
    direction, and the nodes they reach. A pair between two nodes first
    reached at the last hop is not kept, so this is not the induced
    subgraph: it is the receptive field of a hops-layer model at the seeds,
    whose logits through the view are the whole graph's. full_view is the
    graph itself, with identity maps and its own indices. supp and rev are
    the view's support and reverse indices, built on first use.
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
) -> BatchSample:
    """The exact receptive field of a hops-layer model at the seeds.

    A bidirectional walk from the seeds that takes every neighbour, and
    every parallel edge of each pair it takes, so the multi-edge
    aggregation always sees complete groups. A node's neighbours are
    listed by graph.neighbor_pairs over (rev, supp): in-neighbours through
    the reverse index first, then out-neighbours. An edge seed keeps its
    pair and seeds both endpoints. When the walk reaches every node, it
    stops and returns full_view(g, supp, rev).
    """
    if hops < 0:
        raise ConfigError("hops must be at least 0")
    n = g.num_nodes
    seed_nodes, seed_edges = (np.asarray([] if s is None else s, dtype=np.int64)
                              for s in (seed_nodes, seed_edges))
    if np.any((seed_nodes < 0) | (seed_nodes >= n)):
        raise GraphError("seed node out of range")
    if np.any((seed_edges < 0) | (seed_edges >= g.num_edges)):
        raise GraphError("seed edge out of range")
    seen = np.zeros(n, dtype=bool)
    kept = np.zeros(supp.num_pairs, dtype=bool)
    pairs = [_mark_new(supp.by_pair.key[seed_edges], kept)]
    hop_nodes = [_mark_new(np.append(seed_nodes, g.edges[seed_edges]), seen)]
    for _ in range(hops):
        if seen.all():
            break
        _, _, pair, u = neighbor_pairs((rev, supp), hop_nodes[-1])
        pairs.append(_mark_new(pair, kept))
        hop_nodes.append(_mark_new(u, seen))
    if seen.all():
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
    generate, oracle = _planted_task(task)
    g, labels = generate(num_nodes, num_senders_per_node,
                         payments_per_sender, seed)
    labeled = np.flatnonzero(labels >= 0)
    assert np.array_equal(oracle(g, labeled), labels[labeled]), \
        "generator produced a label its own oracle disagrees with"
    return g, labels


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
    g = Multigraph(
        num_nodes=total_nodes,
        node_features=np.ones((total_nodes, 1)),
        edges=np.array(edges, dtype=np.int64),
        edge_features=np.array(amounts)[:, None],
    )
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
    return g, labels


def _incident_edges(endpoint: np.ndarray, nodes: np.ndarray) -> list[np.ndarray]:
    """Edges whose endpoint is each node, in edge order: one stable argsort."""
    order = np.argsort(endpoint, kind="stable")
    ends = endpoint[order]
    lo = np.searchsorted(ends, nodes, side="left")
    hi = np.searchsorted(ends, nodes, side="right")
    return [order[a:b] for a, b in zip(lo, hi)]


def _max_of_sums_labels(g: Multigraph, labeled: np.ndarray) -> np.ndarray:
    out = np.zeros(labeled.size, dtype=np.int64)
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


def _out_neighbor_count_labels(g: Multigraph, labeled: np.ndarray) -> np.ndarray:
    counts = np.array([np.unique(g.dst[outgoing]).size
                       for outgoing in _incident_edges(g.src, labeled)])
    return (counts > np.median(counts)).astype(np.int64)


# the one list of planted tasks: name -> (generator, brute-force oracle of
# the labels of the given labeled nodes)
PLANTED_TASKS = {
    "max_of_sums": (_generate_max_of_sums, _max_of_sums_labels),
    "out_neighbor_count": (_generate_out_neighbor_count,
                           _out_neighbor_count_labels),
}


def _planted_task(task: str):
    if task not in PLANTED_TASKS:
        raise ConfigError(f"unknown planted task {task!r}")
    return PLANTED_TASKS[task]


def brute_force_planted_labels(g: Multigraph, labeled_mask, task: str) -> np.ndarray:
    """Independent re-derivation of planted labels straight from the graph."""
    oracle = _planted_task(task)[1]
    return oracle(g, np.flatnonzero(np.asarray(labeled_mask)))


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
