"""Seeded input generators owned by the benchmark.

The benchmark never calls the program's own generators, so a change to
``random_connected_multigraph``, ``generate_planted_task`` or the label
sidecar cannot change what is measured. Every generator is a pure function
of its seed and returns plain numpy arrays (or writes a CSV); the program
receives only these inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

AML_COLUMNS = ("src_account", "dst_account", "timestamp", "amount_received",
               "currency", "payment_format", "is_laundering")
_CURRENCIES = ("USD", "EUR", "GBP", "JPY", "CHF")
_FORMATS = ("ACH", "Wire", "Cheque", "Credit Card", "Cash", "Reinvestment",
            "Bitcoin")


def aml_rows(seed: int, num_rows: int = 20_000, num_accounts: int = 5_000):
    """Rows of an AML-schema transaction table, in timestamp order.

    Amounts are lognormal, currency and payment format are categorical,
    and ``is_laundering`` is set on rows sent by a small set of mule
    accounts through cash or cheque, so the label is learnable from the
    edge features and the sender.
    """
    rng = np.random.default_rng([seed, 1])
    src = rng.integers(0, num_accounts, size=num_rows)
    dst = rng.integers(0, num_accounts - 1, size=num_rows)
    dst = dst + (dst >= src)                     # no self-payments
    ts = np.sort(rng.integers(0, 10 * 24 * 3600, size=num_rows))
    amount = np.round(rng.lognormal(mean=7.0, sigma=1.5, size=num_rows), 2)
    currency = rng.integers(0, len(_CURRENCIES), size=num_rows)
    fmt = rng.integers(0, len(_FORMATS), size=num_rows)
    mules = rng.random(num_accounts) < 0.03
    label = (mules[src] & np.isin(fmt, (2, 4))).astype(np.int64)
    return {"src": src, "dst": dst, "timestamp": ts, "amount": amount,
            "currency": currency, "payment_format": fmt, "label": label}


def write_aml_csv(path, rows: dict) -> int:
    """Write ``aml_rows`` output with the AML schema's headers."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(AML_COLUMNS)
        for s, d, t, a, c, f, y in zip(
                rows["src"].tolist(), rows["dst"].tolist(),
                rows["timestamp"].tolist(), rows["amount"].tolist(),
                rows["currency"].tolist(), rows["payment_format"].tolist(),
                rows["label"].tolist()):
            w.writerow((f"A{s:06d}", f"A{d:06d}", t, f"{a:.2f}",
                        _CURRENCIES[c], _FORMATS[f], y))
    return rows["src"].size


@dataclass(frozen=True)
class GraphInput:
    """A multigraph as plain arrays, plus optional node labels (-1 = none)."""

    num_nodes: int
    edges: np.ndarray          # [m, 2] int64
    edge_features: np.ndarray  # [m, d] float64
    node_labels: np.ndarray    # [n] int64


# max_of_sums payment values: the "big" contender always holds the single
# largest payment; the other holds the larger total exactly when label = 1.
_BIG_SINGLE, _SMALL_SINGLE, _HIGH_FILL, _LOW_FILL, _NOISE = 5.0, 1.0, 4.8, 0.3, 0.05


def planted_max_of_sums(seed: int, num_receivers: int = 600,
                        senders: int = 4, payments: int = 8) -> GraphInput:
    """Receivers with private senders, every pair of multiplicity ``payments``.

    Nodes ``0..R-1`` are receivers (labeled); the rest are senders. Label 1
    iff the sender with the largest payment total is not the sender of the
    single largest payment. Edges are shuffled so pairs are not contiguous,
    as in time-ordered transaction data.
    """
    if senders < 2 or payments < 2:
        raise ValueError("max_of_sums needs >= 2 senders and >= 2 payments")
    rng = np.random.default_rng([seed, 2])
    r, k, p = num_receivers, senders, payments
    label = (rng.random(r) < 0.25).astype(np.int64)
    # values[r, k, p]: contender 0 holds the big single, contender 1 the small
    values = rng.uniform(0.2, 1.0, size=(r, k, p))
    big_fill = np.where(label == 1, _LOW_FILL, _HIGH_FILL)[:, None]
    values[:, 0, 0] = _BIG_SINGLE
    values[:, 0, 1:] = big_fill
    values[:, 1, 0] = _SMALL_SINGLE
    values[:, 1, 1:] = _HIGH_FILL + _LOW_FILL - big_fill
    scale = rng.uniform(0.95, 1.05, size=(r, 1, 1))
    values = (values + rng.uniform(-_NOISE, _NOISE, size=values.shape)) * scale
    # which private sender node plays which contender is random per receiver
    sender_ids = r + np.arange(r)[:, None] * k + rng.permuted(
        np.tile(np.arange(k), (r, 1)), axis=1)
    src = np.repeat(sender_ids, p, axis=1).ravel()
    dst = np.repeat(np.arange(r), k * p)
    perm = rng.permutation(src.size)
    n = r * (1 + k)
    labels = np.full(n, -1, dtype=np.int64)
    labels[:r] = label
    return GraphInput(n, np.column_stack([src, dst])[perm],
                      values.reshape(-1, 1)[perm], labels)


def max_of_sums_oracle(edges: np.ndarray, amounts: np.ndarray,
                       receivers: np.ndarray) -> np.ndarray:
    """Re-derive max_of_sums labels from the edge list, one receiver at a time."""
    out = np.zeros(receivers.size, dtype=np.int64)
    by_dst: dict[int, list[int]] = {}
    for k, d in enumerate(edges[:, 1].tolist()):
        by_dst.setdefault(d, []).append(k)
    for i, j in enumerate(receivers.tolist()):
        totals: dict[int, float] = {}
        single: dict[int, float] = {}
        for k in by_dst.get(j, ()):
            s, a = int(edges[k, 0]), float(amounts[k])
            totals[s] = totals.get(s, 0.0) + a
            single[s] = max(single.get(s, -np.inf), a)
        out[i] = int(max(totals, key=totals.get) != max(single, key=single.get))
    return out


def connected_multigraph(seed: int, num_edges: int = 8_000,
                         d_edge: int = 8) -> GraphInput:
    """Weakly connected multigraph with ``n = m / 4`` and distinct edge rows.

    A random recursive tree (each node attaches to an earlier one, random
    direction) connects every node; the other edges join uniform random
    pairs. Node label 1 iff the node's distinct out-neighbour count exceeds
    the median, a property only reverse message passing can see.
    """
    rng = np.random.default_rng([seed, 3])
    n, m = num_edges // 4, num_edges
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    flip = rng.random(n - 1) < 0.5
    tree = np.column_stack([np.where(flip, parent, child),
                            np.where(flip, child, parent)])
    extra = rng.integers(0, n, size=(m - (n - 1), 2))
    edges = np.concatenate([tree, extra])[rng.permutation(m)]
    feats = rng.random((m, d_edge))
    labels = out_degree_labels(n, edges)
    return GraphInput(n, edges, feats, labels)


def out_degree_labels(n: int, edges: np.ndarray) -> np.ndarray:
    pairs = np.unique(edges, axis=0)
    out_deg = np.bincount(pairs[:, 0], minlength=n)
    return (out_deg > np.median(out_deg)).astype(np.int64)


def item_split(num_items: int, seed: int):
    """Seeded 60/20/20 split of item indices."""
    order = np.random.default_rng([seed, 4]).permutation(num_items)
    a, b = int(0.6 * num_items), int(0.8 * num_items)
    return order[:a], order[a:b], order[b:]


def hop_distances(edges: np.ndarray, n: int, root: int, hops: int | None = None):
    """Undirected hop distance from ``root`` (-1 beyond ``hops`` or unreached).

    Also returns the mask of edges with an endpoint closer than ``hops``,
    which are the edges a ``hops``-hop expansion from ``root`` crosses.
    """
    src, dst = edges[:, 0], edges[:, 1]
    dist = np.full(n, -1, dtype=np.int64)
    dist[root] = 0
    crossed = np.zeros(edges.shape[0], dtype=bool)
    frontier, h = np.array([root]), 0
    while frontier.size and (hops is None or h < hops):
        touch = np.isin(src, frontier) | np.isin(dst, frontier)
        crossed |= touch
        ends = np.concatenate([src[touch], dst[touch]])
        frontier = np.unique(ends[dist[ends] < 0])
        h += 1
        dist[frontier] = h
    return dist, crossed


def ego_net(g: GraphInput, root: int, hops: int = 2):
    """The ``hops``-hop neighbourhood of ``root`` as a relabelled GraphInput.

    Returns (graph, local root, local hop distances). Shortest paths of
    length <= hops only cross kept edges, so the distances hold inside it.
    """
    dist, crossed = hop_distances(g.edges, g.num_nodes, root, hops)
    nodes = np.flatnonzero(dist >= 0)
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.size)
    sub = GraphInput(nodes.size, local[g.edges[crossed]],
                     g.edge_features[crossed], np.full(nodes.size, -1))
    return sub, int(local[root]), dist[nodes]


def pair_stats(edges: np.ndarray) -> dict:
    """Edges, distinct (src, dst) pairs, mean multiplicity, singleton share."""
    _, mult = np.unique(edges, axis=0, return_counts=True)
    return {"edges": int(edges.shape[0]), "pairs": int(mult.size),
            "mean_multiplicity": float(mult.mean()),
            "singleton_pair_share": float(np.mean(mult == 1))}
