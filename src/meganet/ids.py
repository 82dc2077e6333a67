"""Executable theory checks: BFS node-ID assignment and the port witness.

bfs_assign_ids realizes the round-based ID construction on a connected
directed multigraph: once a strict total order on the edges exists (here
derived from the edge features), every node ends up with a unique digit
sequence whose length is its hop distance from the root plus one.

nonequivariance_witness shows the converse failure mode of port numbering:
running the same deterministic ID construction with arbitrary per-node
port orders produces different embeddings under different port draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    GraphError,
    Multigraph,
    SupportIndex,
    build_reverse_index,
    build_support_index,
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
        m = self.labels.size
        if m and not np.array_equal(np.sort(self.labels), np.arange(1, m + 1)):
            raise OrderError("labels must be a bijection onto [1, m]")


def label_edges_by_features(g: Multigraph) -> EdgeLabeling:
    """1-based lexicographic ranks of the edge feature rows."""
    feats = g.edge_features
    m = feats.shape[0]
    if m == 0:
        return EdgeLabeling(np.zeros(0, dtype=np.int64))
    order = np.lexsort(feats.T[::-1])
    sorted_feats = feats[order]
    if m > 1 and np.any(np.all(sorted_feats[1:] == sorted_feats[:-1], axis=1)):
        raise OrderError("duplicate edge feature rows admit no strict total order")
    labels = np.empty(m, dtype=np.int64)
    labels[order] = np.arange(1, m + 1)
    return EdgeLabeling(labels)


@dataclass
class IdState:
    """Digit-sequence identifiers plus the active/finished bookkeeping sets."""

    ids: list[tuple[int, ...]]
    active: set[int]
    finished: set[int]
    rounds_used: int = 0


def _pair_min_labels(supp: SupportIndex, labels: np.ndarray) -> np.ndarray:
    """Minimum edge label within each parallel-edge group."""
    _, order, offsets = supp.by_pair
    return np.minimum.reduceat(labels[order], offsets[:-1])


def bfs_assign_ids(
    g: Multigraph,
    supp: SupportIndex,
    rev: SupportIndex,
    labels: EdgeLabeling,
    root: int,
    rounds: int | None = None,
) -> IdState:
    """Round-based unique-ID assignment over a weakly connected multigraph.

    Digit sequences stand in for base-2n numerals: every active node offers
    its own id extended by the minimum parallel-edge label of the connecting
    pair (offset by m on the incoming side so in- and out-proposals can
    never collide), and an unlabeled node adopts the lexicographically
    smallest proposal it receives.
    """
    n, m = g.num_nodes, g.num_edges
    if not 0 <= root < n:
        raise GraphError("root out of range")
    if rounds is None:
        rounds = n
    out_min = _pair_min_labels(supp, labels.labels)
    in_min = _pair_min_labels(rev, labels.labels)
    _, out_order, out_offsets = supp.by_src
    _, in_order, in_offsets = rev.by_src
    out_dst, in_dst = supp.supp_dst, rev.supp_dst

    ids: list[tuple[int, ...] | None] = [None] * n
    ids[root] = (1,)
    active: set[int] = {root}
    finished: set[int] = set()
    rounds_used = 0

    for _ in range(rounds):
        if not active:
            break
        rounds_used += 1
        proposals: dict[int, list[tuple[int, ...]]] = {}
        for v in active:
            # along edge direction: digit = min parallel label of the pair
            for s in out_order[out_offsets[v]:out_offsets[v + 1]]:
                u = int(out_dst[s])
                proposals.setdefault(u, []).append(ids[v] + (int(out_min[s]),))
            # against edge direction: digits offset by m
            for s in in_order[in_offsets[v]:in_offsets[v + 1]]:
                u = int(in_dst[s])
                proposals.setdefault(u, []).append(
                    ids[v] + (m + int(in_min[s]),))
        finished |= active
        active = set()
        for u, msgs in proposals.items():
            if u in finished or ids[u] is not None:
                continue
            ids[u] = min(msgs)
            active.add(u)

    unreached = [v for v in range(n) if ids[v] is None]
    if unreached:
        raise UnreachedError(unreached)
    return IdState(ids=[i for i in ids], active=active, finished=finished,
                   rounds_used=rounds_used)


@dataclass(frozen=True)
class PortAssignment:
    """Arbitrary per-scope port orders in the style of port-numbered GNNs.

    pair_ports[s] permutes 1..P over the parallel edges of support pair s
    (in group order). neighbor_ports[v] maps each distinct neighbor of v
    (incoming and outgoing numbered jointly) to a port in 1..k.
    """

    pair_ports: list[np.ndarray]
    neighbor_ports: list[dict[int, int]]


def assign_ports(g: Multigraph, supp: SupportIndex, order_seed: int) -> PortAssignment:
    rng = np.random.default_rng(order_seed)
    pair_ports = [rng.permutation(int(p)) + 1 for p in supp.multiplicity]
    pair_src, out_order, out_offsets = supp.by_src
    pair_dst, in_order, in_offsets = supp.by_dst
    neighbor_ports: list[dict[int, int]] = []
    for v in range(g.num_nodes):
        neigh = set()
        for s in out_order[out_offsets[v]:out_offsets[v + 1]]:
            neigh.add(int(pair_dst[s]))
        for s in in_order[in_offsets[v]:in_offsets[v + 1]]:
            neigh.add(int(pair_src[s]))
        neigh = sorted(neigh)
        ports = rng.permutation(len(neigh)) + 1
        neighbor_ports.append({u: int(p) for u, p in zip(neigh, ports)})
    return PortAssignment(pair_ports=pair_ports, neighbor_ports=neighbor_ports)


def _port_embeddings(g: Multigraph, supp: SupportIndex, ports: PortAssignment,
                     root: int, rounds: int) -> list[tuple[int, ...]]:
    """Deterministic ID construction driven by port numbers instead of labels.

    Mirrors bfs_assign_ids digit-for-digit, except the digit attached to a
    proposal is the sender's port number for the receiving neighbor.
    """
    n, m = g.num_nodes, g.num_edges
    pair_src, out_order, out_offsets = supp.by_src
    pair_dst, in_order, in_offsets = supp.by_dst
    ids: list[tuple[int, ...] | None] = [None] * n
    ids[root] = (1,)
    active = {root}
    finished: set[int] = set()
    for _ in range(rounds):
        if not active:
            break
        proposals: dict[int, list[tuple[int, ...]]] = {}
        for v in active:
            for s in out_order[out_offsets[v]:out_offsets[v + 1]]:
                u = int(pair_dst[s])
                digit = ports.neighbor_ports[v][u]
                proposals.setdefault(u, []).append(ids[v] + (digit,))
            for s in in_order[in_offsets[v]:in_offsets[v + 1]]:
                u = int(pair_src[s])
                digit = m + ports.neighbor_ports[v][u]
                proposals.setdefault(u, []).append(ids[v] + (digit,))
        finished |= active
        active = set()
        for u, msgs in proposals.items():
            if u in finished or ids[u] is not None:
                continue
            ids[u] = min(msgs)
            active.add(u)
    return [i if i is not None else () for i in ids]


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    n: int
    node: int | None
    base_seed: int
    other_seed: int | None
    embedding_base: tuple[int, ...] | None
    embedding_other: tuple[int, ...] | None
    trials_used: int


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
    base = assign_ports(g, supp, base_seed)
    emb_base = _port_embeddings(g, supp, base, root=0, rounds=n)
    for t in range(1, trials + 1):
        other = assign_ports(g, supp, base_seed + t)
        emb_other = _port_embeddings(g, supp, other, root=0, rounds=n)
        for v in range(n):
            if emb_base[v] != emb_other[v]:
                return WitnessReport(
                    found=True, n=n, node=v, base_seed=base_seed,
                    other_seed=base_seed + t,
                    embedding_base=emb_base[v], embedding_other=emb_other[v],
                    trials_used=t,
                )
    raise RuntimeError(
        f"no witness found for n={n} after {trials} trials; "
        "the port assignment degrees of freedom should make this impossible")
