"""Directed multigraph containers, support-set indexing and permutation machinery.

A multigraph keeps its edges as an ordered multiset: the same (src, dst)
pair may appear any number of times, and edge feature row k always belongs
to edge k. Every grouping (edges by pair, pairs by node, edges by node) is
one Groups value from build_groups; the support index is three of them,
and its mirror over the transposed edges is the same three with the
by-destination and by-source roles swapped. The edges-by-node groupings
a support index adds are built on first use, and so is its per-edge
index, whose sites are the edges themselves. All are built once and
treated as immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class GraphError(ValueError):
    """Structural problem with a multigraph or one of its indices."""


class InfeasibleError(GraphError):
    """Requested random graph cannot exist (m < n - 1)."""


def _as_int_array(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.int64))


def _as_float_matrix(x) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 2:
        raise GraphError(f"expected a 2-d feature matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Multigraph:
    """Directed attributed multigraph with dense feature storage.

    edges is an [m, 2] array of (src, dst) node indices; parallel edges are
    simply repeated rows. Feature rows are aligned with node/edge indices.
    """

    num_nodes: int
    node_features: np.ndarray
    edges: np.ndarray
    edge_features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_int_array(self.edges).reshape(-1, 2))
        object.__setattr__(self, "node_features", _as_float_matrix(self.node_features))
        object.__setattr__(self, "edge_features", _as_float_matrix(self.edge_features))
        if self.num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        if self.node_features.shape[0] != self.num_nodes:
            raise GraphError("node_features row count does not match num_nodes")
        if self.edge_features.shape[0] != self.num_edges:
            raise GraphError("edge_features row count does not match number of edges")
        if self.num_edges:
            lo, hi = self.edges.min(), self.edges.max()
            if lo < 0 or hi >= self.num_nodes:
                raise GraphError("edge endpoint out of range")
        if not np.isfinite(self.node_features).all():
            raise GraphError("node_features contain non-finite entries")
        if not np.isfinite(self.edge_features).all():
            raise GraphError("edge_features contain non-finite entries")

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def src(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def dst(self) -> np.ndarray:
        return self.edges[:, 1]


class Groups(NamedTuple):
    """Stable partition of items by integer key: the one grouping type.

    key[i] is the group of item i. order lists the item indices group by
    group, keeping their original relative order, so the items of group g
    are order[offsets[g]:offsets[g + 1]]. Reductions read their value rows
    in item order through key, or gather them transiently through order.
    """

    key: np.ndarray         # [num_items]
    order: np.ndarray       # [num_items]
    offsets: np.ndarray     # [num_groups + 1]

    @property
    def num_groups(self) -> int:
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def build_groups(keys, num_groups: int) -> Groups:
    """Group item indices by integer key in [0, num_groups)."""
    keys = _as_int_array(keys)
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_groups)
    offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Groups(keys, order, offsets)


@dataclass(frozen=True)
class SupportIndex:
    """Distinct (src, dst) pairs of a multigraph's edge multiset.

    Pairs are numbered in first-occurrence order. by_pair groups edges by
    their pair, by_dst groups pairs by destination node and by_src groups
    pairs by source node. edges_by_src and edges_by_dst group the edges by
    the source and destination node of their pair; each is built on first
    use and kept.
    """

    num_nodes: int
    by_pair: Groups         # m edges into S pairs
    by_dst: Groups          # S pairs into num_nodes nodes
    by_src: Groups          # S pairs into num_nodes nodes

    @property
    def num_pairs(self) -> int:
        return self.by_pair.num_groups

    @property
    def multiplicity(self) -> np.ndarray:
        return self.by_pair.counts

    @cached_property
    def edges_by_src(self) -> Groups:
        return build_groups(self.by_src.key[self.by_pair.key], self.num_nodes)

    @cached_property
    def edges_by_dst(self) -> Groups:
        return build_groups(self.by_dst.key[self.by_pair.key], self.num_nodes)

    @cached_property
    def per_edge(self) -> "SupportIndex":
        """The same edges with every edge its own site.

        by_pair is the identity and by_src / by_dst are this index's
        edges_by_src / edges_by_dst, which are also the per-edge index's own
        edges-by-node groupings, so no grouping is built.
        """
        ident = np.arange(self.by_pair.key.size, dtype=np.int64)
        src, dst = self.edges_by_src, self.edges_by_dst
        sites = SupportIndex(self.num_nodes,
                             Groups(ident, ident, np.arange(ident.size + 1)),
                             by_dst=dst, by_src=src)
        vars(sites).update(edges_by_src=src, edges_by_dst=dst)
        return sites


def build_support_index(g: Multigraph) -> SupportIndex:
    """Group parallel edges by their (src, dst) pair.

    Pairs are numbered in first-occurrence order so the result is
    deterministic for a given edge list.
    """
    n = g.num_nodes
    key = g.src * np.int64(n) + g.dst
    _, first_idx, inverse = np.unique(key, return_index=True, return_inverse=True)
    # renumber sorted-unique ids into first-occurrence order
    occ_order = np.argsort(first_idx, kind="stable")
    rank = np.empty(occ_order.shape[0], dtype=np.int64)
    rank[occ_order] = np.arange(occ_order.shape[0])
    pairs = g.edges[first_idx[occ_order]]
    return SupportIndex(
        num_nodes=n,
        by_pair=build_groups(rank[inverse], pairs.shape[0]),
        by_dst=build_groups(pairs[:, 1], n),
        by_src=build_groups(pairs[:, 0], n),
    )


def build_reverse_index(g: Multigraph, s: SupportIndex) -> SupportIndex:
    """Support index of the transposed multigraph: s read the other way.

    Transposing keeps the edges in order with (dst, src) endpoints, so
    reverse edge k is edge k and carries its features. Pair (u, v) becomes
    (v, u) at the same first occurrence, so by_pair stays as it is and only
    the pairs-by-destination and pairs-by-source groupings swap roles.
    """
    if s.num_nodes != g.num_nodes or s.by_pair.key.size != g.num_edges:
        raise GraphError("support index does not match graph")
    return SupportIndex(s.num_nodes, s.by_pair, by_dst=s.by_src, by_src=s.by_dst)


def group_items(groups: Groups, keys: np.ndarray):
    """(position, item) for the items of groups keys[0], keys[1], ...

    A CSR gather through order and offsets: items come group after group,
    each group's in group order, and item j is in group keys[position[j]].
    """
    ends = groups.offsets[1:][keys]
    counts = ends - groups.offsets[keys]
    position = np.arange(keys.size).repeat(counts)
    shift = ends - counts.cumsum()      # slot minus output index, per group
    return position, groups.order[np.arange(position.size) + shift[position]]


def neighbor_pairs(directions, nodes: np.ndarray):
    """(position, direction, pair, neighbour) for every pair leaving nodes.

    directions is a sequence of support indices, such as [supp, rev]:
    supp lists a node's out-neighbours and the reverse index its
    in-neighbours. Pairs come node by node (nodes[position]), then
    direction by direction, each in by_src group order, and a pair id
    indexes its own direction's groups.
    """
    found = [group_items(d.by_src, nodes) for d in directions]
    position = np.concatenate([p for p, _ in found])
    walk = position.argsort(kind="stable")
    direction = np.arange(len(found)).repeat([p.size for p, _ in found])
    pair = np.concatenate([s for _, s in found])
    neighbour = np.concatenate([d.by_dst.key[s]
                                for d, (_, s) in zip(directions, found)])
    return position[walk], direction[walk], pair[walk], neighbour[walk]


@dataclass(frozen=True)
class GraphPermutation:
    """Joint relabeling of nodes and edge positions.

    node_perm[i] is the new id of node i; edge_perm[k] is the new position
    of edge k. Node permutations do not induce edge permutations on a
    multigraph, so both are explicit.
    """

    node_perm: np.ndarray
    edge_perm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_perm", _as_int_array(self.node_perm))
        object.__setattr__(self, "edge_perm", _as_int_array(self.edge_perm))
        for name, p in (("node_perm", self.node_perm), ("edge_perm", self.edge_perm)):
            if p.size and not np.array_equal(np.sort(p), np.arange(p.size)):
                raise GraphError(f"{name} is not a bijection")


def apply_permutation(g: Multigraph, p: GraphPermutation) -> Multigraph:
    """Return the isomorphic graph with relabeled nodes and reordered edges."""
    if p.node_perm.size != g.num_nodes or p.edge_perm.size != g.num_edges:
        raise GraphError("permutation size does not match graph")
    new_node_features = np.empty_like(g.node_features)
    new_node_features[p.node_perm] = g.node_features
    new_edges = np.empty_like(g.edges)
    new_edges[p.edge_perm] = p.node_perm[g.edges]
    new_edge_features = np.empty_like(g.edge_features)
    new_edge_features[p.edge_perm] = g.edge_features
    return Multigraph(g.num_nodes, new_node_features, new_edges, new_edge_features)


def random_permutation(g: Multigraph, rng: np.random.Generator) -> GraphPermutation:
    return GraphPermutation(
        node_perm=rng.permutation(g.num_nodes),
        edge_perm=rng.permutation(g.num_edges),
    )


def random_connected_multigraph(
    n: int,
    m: int,
    seed: int,
    d_node: int = 2,
    d_edge: int = 2,
) -> Multigraph:
    """Weakly connected directed multigraph with exactly m edges.

    A spanning-tree backbone (each node attaches to a random earlier node,
    random direction) guarantees weak connectivity; the remaining edges are
    uniform random pairs, so parallel edges and self-loops can occur. Edge
    features are drawn until all rows are pairwise distinct, which supports
    a feature-induced strict total order on the edges.
    """
    if n < 1:
        raise InfeasibleError("need at least one node")
    if m < n - 1:
        raise InfeasibleError(f"m={m} cannot weakly connect n={n} nodes")
    rng = np.random.default_rng(seed)
    edges = np.zeros((m, 2), dtype=np.int64)
    if n > 1:
        attach = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        flip = rng.random(n - 1) < 0.5
        tree_src = np.where(flip, attach, np.arange(1, n))
        tree_dst = np.where(flip, np.arange(1, n), attach)
        edges[: n - 1, 0] = tree_src
        edges[: n - 1, 1] = tree_dst
    extra = m - max(n - 1, 0)
    if extra > 0:
        edges[n - 1:, 0] = rng.integers(0, n, size=extra)
        edges[n - 1:, 1] = rng.integers(0, n, size=extra)
    node_features = rng.random((n, d_node))
    edge_features = rng.random((m, d_edge))
    # redraw on the (practically impossible) duplicate feature row
    while m > 1:
        view = np.ascontiguousarray(edge_features).view(
            [("", edge_features.dtype)] * d_edge
        )
        if np.unique(view).shape[0] == m:
            break
        edge_features = rng.random((m, d_edge))
    return Multigraph(n, node_features, edges, edge_features)


def is_weakly_connected(g: Multigraph) -> bool:
    """Union-find check of weak connectivity."""
    if g.num_nodes <= 1:
        return True
    parent = np.arange(g.num_nodes)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for s, d in g.edges:
        ra, rb = find(int(s)), find(int(d))
        if ra != rb:
            parent[rb] = ra
    root0 = find(0)
    return all(find(i) == root0 for i in range(1, g.num_nodes))


def undirected_bfs_distances(g: Multigraph, root: int) -> np.ndarray:
    """Hop distance from root ignoring edge direction; -1 when unreached."""
    adj: list[set[int]] = [set() for _ in range(g.num_nodes)]
    for s, d in g.edges:
        adj[int(s)].add(int(d))
        adj[int(d)].add(int(s))
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist
