"""Executable theory checks: BFS node-ID assignment and the port witness.

bfs_assign_ids realizes the round-based ID construction on a connected
directed multigraph: once a strict total order on the edges exists (here
derived from the edge features), every node ends up with a unique digit
sequence whose length is its hop distance from the root plus one.

nonequivariance_witness shows the converse failure mode of port numbering:
running the same deterministic ID construction with arbitrary per-node
port orders produces different embeddings under different port draws.

Both run one round engine over the forward support index and its reverse
(graph.neighbor_pairs); they differ only in the digit each pair appends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    GraphError,
    Multigraph,
    SupportIndex,
    build_reverse_index,
    build_support_index,
    neighbor_pairs,
)


class OrderError(ValueError):
    """Edge features do not induce a strict total order."""


class UnreachedError(ValueError):
    """ID assignment left nodes without an identifier."""

    def __init__(self, unreached):
        self.unreached = sorted(int(v) for v in unreached)
        super().__init__(f"nodes never reached: {self.unreached}")


@dataclass(frozen=True)
class EdgeLabeling:
    """Unique edge labels in [1, m]."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        labels, m = self.labels, self.labels.size
        # m labels in [1, m], none repeated, are a bijection onto [1, m]
        if m and (labels.ndim != 1 or labels.min() < 1 or labels.max() > m
                  or np.bincount(labels).max() > 1):
            raise OrderError("labels must be a bijection onto [1, m]")


def label_edges_by_features(g: Multigraph) -> EdgeLabeling:
    """1-based lexicographic ranks of the edge feature rows."""
    feats = g.edge_features
    m = feats.shape[0]
    if m == 0:
        return EdgeLabeling(np.zeros(0, dtype=np.int64))
    order = np.lexsort(feats.T[::-1])
    sorted_feats = feats[order]
    if m > 1 and (sorted_feats[1:] == sorted_feats[:-1]).all(axis=1).any():
        raise OrderError("duplicate edge feature rows admit no strict total order")
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.arange(1, m + 1)
    return EdgeLabeling(labels)


@dataclass
class IdState:
    """Digit-sequence identifiers and the number of rounds that made them."""

    ids: list[tuple[int, ...]]
    rounds_used: int = 0


def _pair_min_labels(supp: SupportIndex, labels: np.ndarray) -> np.ndarray:
    """Minimum edge label within each parallel-edge group."""
    _, order, offsets = supp.by_pair
    return np.minimum.reduceat(labels[order], offsets[:-1])


def _id_rounds(n: int, root: int, directions, digits: np.ndarray):
    """The round engine behind every ID construction; returns (ids, rounds).

    The root gets (1,). In each round every node that got its id in the
    previous round offers it, extended by digits[i, s], to the neighbour
    across each pair s that leaves it in directions[i]; a node without an
    id adopts the lexicographically smallest offer it receives. Rounds run
    while some node is new, so at most n of them; the last one is counted
    but not walked once every node has an id. Nodes never reached keep None.
    """
    ids: list[tuple[int, ...] | None] = [None] * n
    ids[root] = (1,)
    active = np.array([root])
    rounds, reached = 0, 1
    while active.size:
        rounds += 1
        if reached == n:
            break
        proposals: dict[int, list[tuple[int, ...]]] = {}
        pos, i, s, nbr = neighbor_pairs(directions, active)
        for v, digit, u in zip(active[pos].tolist(), digits[i, s].tolist(),
                               nbr.tolist()):
            proposals.setdefault(u, []).append(ids[v] + (digit,))
        new = [u for u in proposals if ids[u] is None]
        for u in new:
            ids[u] = min(proposals[u])
        active, reached = np.array(new, dtype=np.int64), reached + len(new)
    return ids, rounds


def bfs_assign_ids(
    g: Multigraph,
    supp: SupportIndex,
    rev: SupportIndex,
    labels: EdgeLabeling,
    root: int,
) -> IdState:
    """Round-based unique-ID assignment over a weakly connected multigraph.

    Digit sequences stand in for base-2n numerals: a pair's digit is the
    minimum label of its parallel edges, offset by m when the offer travels
    against the edge direction (through rev) so in- and out-proposals can
    never collide.
    """
    n, m = g.num_nodes, g.num_edges
    if not 0 <= root < n:
        raise GraphError("root out of range")
    # the reverse index groups each pair's edges as supp does
    pair_min = _pair_min_labels(supp, labels.labels)
    ids, rounds_used = _id_rounds(n, root, [supp, rev],
                                  np.array((pair_min, m + pair_min)))
    unreached = [v for v in range(n) if ids[v] is None]
    if unreached:
        raise UnreachedError(unreached)
    return IdState(ids=ids, rounds_used=rounds_used)


def assign_ports(g: Multigraph, supp: SupportIndex,
                 order_seed: int) -> list[dict[int, int]]:
    """Arbitrary per-node port orders in the style of port-numbered GNNs:
    entry v maps each distinct neighbor of v (incoming and outgoing
    numbered jointly) to a port in 1..k."""
    rng = np.random.default_rng(order_seed)
    n = g.num_nodes
    v, _, _, u = neighbor_pairs([supp, build_reverse_index(g, supp)],
                                np.arange(n))
    v, u = np.divmod(np.unique(v * n + u), n)   # distinct neighbours, sorted
    ends = np.cumsum(np.bincount(v, minlength=n)).tolist()
    return [dict(zip(u[lo:hi].tolist(),
                     (rng.permutation(hi - lo) + 1).tolist()))
            for lo, hi in zip([0] + ends[:-1], ends)]


def _port_embeddings(g: Multigraph, supp: SupportIndex, rev: SupportIndex,
                     ports: list[dict[int, int]],
                     root: int) -> list[tuple[int, ...]]:
    """Deterministic ID construction driven by port numbers instead of labels.

    The rounds of bfs_assign_ids, except that the digit a node appends is
    its port number for the receiving neighbour (offset by m against the
    edge direction). Nodes never reached get ().
    """
    m = g.num_edges
    directions = [supp, rev]
    digits = [[offset + ports[v][u]
               for v, u in zip(d.supp_src.tolist(), d.supp_dst.tolist())]
              for d, offset in zip(directions, (0, m))]
    ids, _ = _id_rounds(g.num_nodes, root, directions, np.array(digits))
    return [i if i is not None else () for i in ids]


@dataclass(frozen=True)
class WitnessReport:
    node: int
    other_seed: int
    embedding_base: tuple[int, ...]
    embedding_other: tuple[int, ...]


def make_star_graph(n: int) -> Multigraph:
    """Out-star: node 0 points at nodes 1..n-1, one edge each."""
    edges = np.column_stack([np.zeros(n - 1, dtype=np.int64),
                             np.arange(1, n, dtype=np.int64)])
    node_features = np.ones((n, 1))
    edge_features = np.ones((n - 1, 1))
    return Multigraph(n, node_features, edges, edge_features)


def nonequivariance_witness(n: int, trials: int = 10,
                            base_seed: int = 0) -> WitnessReport:
    """Find a node whose port-driven embedding changes under a port re-draw.

    Star graphs of order n > 3 always admit such a witness because the hub
    has at least three neighbors, so some re-draw of its port order moves a
    port between leaves.
    """
    if n <= 3:
        raise ValueError("witness construction needs a star of order n > 3")
    g = make_star_graph(n)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    base = assign_ports(g, supp, base_seed)
    emb_base = _port_embeddings(g, supp, rev, base, root=0)
    for t in range(1, trials + 1):
        other = assign_ports(g, supp, base_seed + t)
        emb_other = _port_embeddings(g, supp, rev, other, root=0)
        for v in range(n):
            if emb_base[v] != emb_other[v]:
                return WitnessReport(
                    node=v, other_seed=base_seed + t,
                    embedding_base=emb_base[v], embedding_other=emb_other[v])
    raise RuntimeError(
        f"no witness found for n={n} after {trials} trials; "
        "the port assignment degrees of freedom should make this impossible")
