"""The array walk against the per-node walk it replaced.

neighbor_walk, the per-node sampler loop, the per-node ID rounds and the
per-node port numbering below are the earlier implementations, kept as
references: on random multigraphs with parallel edges and self-loops the
array versions in meganet must give the same outputs bit for bit.
"""

import numpy as np
import pytest

from meganet.data import sample_neighborhood
from meganet.graph import (
    Multigraph,
    build_reverse_index,
    build_support_index,
    neighbor_pairs,
)
from meganet.ids import (
    WitnessReport,
    _id_rounds,
    _pair_min_labels,
    _port_embeddings,
    assign_ports,
    label_edges_by_features,
    make_star_graph,
    nonequivariance_witness,
)


def neighbor_walk(directions, v):
    """Yield (direction, pair, neighbour) for every pair that leaves v."""
    for i, d in enumerate(directions):
        _, order, offsets = d.by_src
        pairs = order[offsets[v]:offsets[v + 1]]
        for s, u in zip(pairs.tolist(), d.by_dst.key[pairs].tolist()):
            yield i, s, u


def reference_sample(g, supp, rev, seed_nodes=None, seed_edges=None, hops=2):
    """(node_map, edge_ids, local edges) of the exact walk; the graph itself
    with identity maps when the walk reaches every node."""
    seed_nodes = [] if seed_nodes is None else seed_nodes
    seed_edges = [] if seed_edges is None else seed_edges
    edge_set, node_order, node_seen = set(), [], set()

    def add_node(v):
        if v not in node_seen:
            node_seen.add(v)
            node_order.append(v)

    def add_group(s):
        _, order, offsets = supp.by_pair
        edge_set.update(order[offsets[s]:offsets[s + 1]].tolist())

    for v in seed_nodes:
        add_node(int(v))
    for k in seed_edges:
        add_group(int(supp.by_pair.key[k]))
        for v in (int(g.src[k]), int(g.dst[k])):
            add_node(v)
    frontier = list(node_order)
    for _ in range(hops):
        next_frontier = []
        for v in frontier:
            for _, s, u in neighbor_walk((rev, supp), v):
                add_group(s)
                if u not in node_seen:
                    add_node(u)
                    next_frontier.append(u)
        frontier = next_frontier
    if len(node_seen) == g.num_nodes:
        return np.arange(g.num_nodes), np.arange(g.num_edges), g.edges
    edge_ids = np.array(sorted(edge_set), dtype=np.int64)
    for k in edge_ids:
        add_node(int(g.src[k]))
        add_node(int(g.dst[k]))
    node_map = np.array(node_order, dtype=np.int64)
    local_of = {int(v): i for i, v in enumerate(node_map)}
    local_edges = np.array([[local_of[int(g.src[k])], local_of[int(g.dst[k])]]
                            for k in edge_ids], dtype=np.int64).reshape(-1, 2)
    return node_map, edge_ids, local_edges


def reference_id_rounds(n, root, directions, digits):
    ids = [None] * n
    ids[root] = (1,)
    active = [root]
    rounds = 0
    while active:
        rounds += 1
        proposals = {}
        for v in active:
            for i, s, u in neighbor_walk(directions, v):
                proposals.setdefault(u, []).append(ids[v] + (int(digits[i][s]),))
        active = [u for u in proposals if ids[u] is None]
        for u in active:
            ids[u] = min(proposals[u])
    return ids, rounds


def reference_ports(g, supp, order_seed):
    rng = np.random.default_rng(order_seed)
    directions = [supp, build_reverse_index(g, supp)]
    neighbor_ports = []
    for v in range(g.num_nodes):
        neigh = sorted({u for _, _, u in neighbor_walk(directions, v)})
        ports = rng.permutation(len(neigh)) + 1
        neighbor_ports.append({u: int(p) for u, p in zip(neigh, ports)})
    return neighbor_ports


def reference_port_digits(g, supp, neighbor_ports):
    directions = [supp, build_reverse_index(g, supp)]
    return directions, [[offset + neighbor_ports[v][u]
                         for v, u in zip(d.by_src.key.tolist(), d.by_dst.key.tolist())]
                        for d, offset in zip(directions, (0, g.num_edges))]


def reference_witness(n, trials=10, base_seed=0):
    g = make_star_graph(n)
    supp = build_support_index(g)

    def embed(seed):
        ports = reference_ports(g, supp, seed)
        ids, _ = reference_id_rounds(n, 0, *reference_port_digits(g, supp, ports))
        return [i if i is not None else () for i in ids]

    emb_base = embed(base_seed)
    for t in range(1, trials + 1):
        emb_other = embed(base_seed + t)
        for v in range(n):
            if emb_base[v] != emb_other[v]:
                return WitnessReport(v, base_seed + t, emb_base[v],
                                     emb_other[v])
    return None


def random_multigraph(rng):
    """Sparse enough to leave isolated nodes; parallel edges and self-loops."""
    n = int(rng.integers(1, 30))
    m = int(rng.integers(0, 3 * n + 1))
    edges = rng.integers(0, n, size=(m, 2))
    if m > 2:
        edges[1] = edges[0]                 # a parallel edge
        edges[2] = [edges[2, 0], edges[2, 0]]   # a self-loop
    return Multigraph(n, np.ones((n, 1)), edges, rng.random((m, 2)))


GRAPHS = [random_multigraph(np.random.default_rng(s)) for s in range(60)]


def test_neighbor_pairs_follows_the_per_node_walk():
    for g in GRAPHS:
        supp = build_support_index(g)
        directions = (build_reverse_index(g, supp), supp)
        nodes = np.random.default_rng(g.num_edges).integers(0, g.num_nodes, 8)
        expected = [(k, i, s, u) for k, v in enumerate(nodes.tolist())
                    for i, s, u in neighbor_walk(directions, v)]
        got = list(zip(*(c.tolist() for c in neighbor_pairs(directions, nodes))))
        assert got == expected


@pytest.mark.parametrize("hops,max_seeds", [(0, 100), (1, 1), (2, 1), (2, 2),
                                            (3, 3), (2, 100)])
def test_sampler_matches_reference(hops, max_seeds):
    """Up to max_seeds seed nodes and as many seed edges per graph, drawn
    with repeats: a hundred repeat seeds and often cover the graph."""
    whole = []
    for gi, g in enumerate(GRAPHS):
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        rng = np.random.default_rng(gi)
        seed_nodes = rng.integers(0, g.num_nodes,
                                  int(rng.integers(0, max_seeds + 1)))
        seed_edges = (rng.integers(0, g.num_edges,
                                   int(rng.integers(0, max_seeds + 1)))
                      if g.num_edges else [])
        for nodes, edges in [(None, None), (seed_nodes, None),
                             (None, seed_edges), (seed_nodes, seed_edges)]:
            s = sample_neighborhood(g, supp, rev, seed_nodes=nodes,
                                    seed_edges=edges, hops=hops)
            node_map, edge_ids, local_edges = \
                reference_sample(g, supp, rev, nodes, edges, hops)
            whole.append(s.graph is g)
            assert whole[-1] == (node_map.size == g.num_nodes)
            assert np.array_equal(s.node_map, node_map)
            assert np.array_equal(s.edge_map, edge_ids)
            assert np.array_equal(s.graph.edges, local_edges)
            assert np.array_equal(s.graph.node_features, g.node_features[node_map])
            assert np.array_equal(s.graph.edge_features, g.edge_features[edge_ids])
            assert s.node_map.dtype == s.edge_map.dtype == np.int64
    assert any(whole) and not all(whole)


def test_sampler_isolated_seed_node():
    g = Multigraph(4, np.ones((4, 1)), [(0, 1), (1, 1)], np.ones((2, 1)))
    supp = build_support_index(g)
    s = sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[3, 0], hops=2)
    assert s.node_map.tolist() == [3, 0, 1]
    assert s.edge_map.tolist() == [0, 1]
    assert s.local([3, 0], "node").tolist() == [0, 1]


def test_id_rounds_match_reference():
    for g in GRAPHS:
        if not g.num_edges:
            continue
        supp = build_support_index(g)
        directions = [supp, build_reverse_index(g, supp)]
        pair_min = _pair_min_labels(supp, label_edges_by_features(g).labels)
        digits = np.stack([pair_min, g.num_edges + pair_min])
        for root in range(min(g.num_nodes, 4)):
            assert (_id_rounds(g.num_nodes, root, directions, digits)
                    == reference_id_rounds(g.num_nodes, root, directions, digits))


def test_ports_and_port_embeddings_match_reference():
    for g in GRAPHS:
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        for seed in (0, 1):
            ports = assign_ports(g, supp, seed)
            neighbor_ports = reference_ports(g, supp, seed)
            assert ports == neighbor_ports
            ids, _ = reference_id_rounds(
                g.num_nodes, 0, *reference_port_digits(g, supp, neighbor_ports))
            assert (_port_embeddings(g, supp, rev, ports, 0)
                    == [i if i is not None else () for i in ids])


@pytest.mark.parametrize("n,base_seed", [(4, 0), (5, 3), (8, 0), (12, 7)])
def test_witness_matches_reference(n, base_seed):
    assert (nonequivariance_witness(n, trials=10, base_seed=base_seed)
            == reference_witness(n, trials=10, base_seed=base_seed))
