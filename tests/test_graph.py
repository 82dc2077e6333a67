import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meganet.graph import (
    GraphError,
    GraphPermutation,
    InfeasibleError,
    Multigraph,
    apply_permutation,
    build_groups,
    build_reverse_index,
    build_support_index,
    is_weakly_connected,
    random_connected_multigraph,
    random_permutation,
    undirected_bfs_distances,
)


def make_graph(edges, n=None):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 1
    return Multigraph(
        num_nodes=n,
        node_features=np.ones((n, 1)),
        edges=edges,
        edge_features=np.arange(edges.shape[0], dtype=np.float64)[:, None],
    )


def test_multigraph_validates_endpoints():
    with pytest.raises(GraphError):
        make_graph([(0, 5)], n=3)
    with pytest.raises(GraphError):
        make_graph([(-1, 0)], n=2)


def test_multigraph_rejects_nonfinite_features():
    with pytest.raises(GraphError):
        Multigraph(2, np.array([[np.nan], [1.0]]),
                   np.array([[0, 1]]), np.ones((1, 1)))


def test_build_groups_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        num_groups = int(rng.integers(1, 8))
        keys = rng.integers(0, num_groups, size=int(rng.integers(0, 30)))
        groups = build_groups(keys, num_groups)
        key, order, offsets = groups
        assert key.tolist() == keys.tolist()
        assert offsets.size == num_groups + 1
        assert groups.counts.tolist() == np.bincount(
            keys, minlength=num_groups).tolist()
        for g in range(num_groups):
            got = sorted(order[offsets[g]:offsets[g + 1]].tolist())
            assert got == sorted(np.flatnonzero(keys == g).tolist())


def test_support_index_basic_grouping():
    g = make_graph([(0, 1), (0, 1), (2, 1)])
    supp = build_support_index(g)
    assert supp.num_pairs == 2
    assert supp.by_src.key.tolist() == [0, 2]
    assert supp.by_dst.key.tolist() == [1, 1]
    assert supp.multiplicity.tolist() == [2, 1]
    _, o, off = supp.by_pair
    groups = [sorted(o[off[s]:off[s + 1]].tolist())
              for s in range(supp.num_pairs)]
    assert groups == [[0, 1], [2]]


def test_support_index_empty_graph():
    g = make_graph([], n=3)
    supp = build_support_index(g)
    assert supp.num_pairs == 0
    assert supp.by_dst.order.size == 0
    assert supp.by_dst.offsets.tolist() == [0, 0, 0, 0]
    assert supp.by_src.offsets.tolist() == [0, 0, 0, 0]
    assert supp.by_pair.offsets.tolist() == [0]


def test_support_index_self_loop():
    g = make_graph([(0, 0)], n=2)
    supp = build_support_index(g)
    assert supp.by_src.key.tolist() == [0]
    assert supp.by_dst.key.tolist() == [0]
    _, in_order, in_offsets = supp.by_dst
    _, out_order, out_offsets = supp.by_src
    assert 0 in in_order[in_offsets[0]:in_offsets[1]]
    assert 0 in out_order[out_offsets[0]:out_offsets[1]]


def test_support_first_occurrence_order():
    g = make_graph([(2, 0), (1, 0), (2, 0)])
    supp = build_support_index(g)
    assert list(zip(supp.by_src.key, supp.by_dst.key)) == [(2, 0), (1, 0)]


def test_multiplicities_sum_to_edge_count():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(n - 1, 40))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        supp = build_support_index(g)
        assert supp.multiplicity.sum() == g.num_edges


def test_reverse_index_swaps_pairs():
    g = make_graph([(0, 1), (0, 1)])
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    assert rev.by_src.key.tolist() == [1]
    assert rev.by_dst.key.tolist() == [0]
    assert rev.multiplicity.tolist() == [2]
    # reverse edge k is edge k
    assert rev.by_pair.key.tolist() == [0, 0]
    assert rev.by_pair.order.tolist() == [0, 1]


def test_per_edge_index_reuses_the_edges_by_node_groupings(monkeypatch):
    """Every edge is its own site, grouped by the parent's edges-by-node
    groupings: nothing is grouped again, and the index is built once."""
    import meganet.graph as graph_module

    g = make_graph([(0, 1), (0, 1), (2, 1), (1, 0), (2, 2)])
    supp = build_support_index(g)
    by_src, by_dst = supp.edges_by_src, supp.edges_by_dst
    monkeypatch.setattr(graph_module, "build_groups", None)   # no new grouping
    sites = supp.per_edge
    ident = np.arange(g.num_edges)
    assert np.array_equal(sites.by_pair.key, ident)
    assert np.array_equal(sites.by_pair.order, ident)
    assert np.array_equal(sites.by_pair.offsets, np.arange(g.num_edges + 1))
    assert sites.by_src is by_src and sites.by_dst is by_dst
    assert sites.edges_by_src is by_src and sites.edges_by_dst is by_dst
    assert supp.per_edge is sites


def test_reverse_of_reverse_recovers_pair_multiset():
    g = random_connected_multigraph(8, 20, seed=3)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    as_graph = Multigraph(g.num_nodes, g.node_features,
                          np.column_stack([g.dst, g.src]), g.edge_features)
    rev2 = build_reverse_index(as_graph, build_support_index(as_graph))
    fwd_pairs = sorted(zip(supp.by_src.key, supp.by_dst.key))
    back_pairs = sorted(zip(rev2.by_src.key, rev2.by_dst.key))
    assert fwd_pairs == back_pairs


def assert_same_index(a, b):
    assert a.num_nodes == b.num_nodes
    for name in ("by_pair", "by_dst", "by_src"):
        for x, y in zip(getattr(a, name), getattr(b, name)):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


@st.composite
def multigraphs(draw):
    """Edge lists with isolated nodes, self-loops and heavy parallel pairs."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return make_graph(np.zeros((0, 2)), n=0)
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=12))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(pairs),
                            max_size=len(pairs)))
    edges = [p for p, r in zip(pairs, repeats) for _ in range(r)]
    order = draw(st.permutations(range(len(edges))))
    return make_graph([edges[k] for k in order], n=n)


def transposed(g):
    return Multigraph(g.num_nodes, g.node_features, g.edges[:, ::-1],
                      g.edge_features)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_reverse_index_is_the_support_index_of_the_transpose(g):
    supp = build_support_index(g)
    assert_same_index(build_reverse_index(g, supp),
                      build_support_index(transposed(g)))


@pytest.mark.parametrize("g", [
    make_graph(np.zeros((0, 2)), n=0),
    make_graph(np.zeros((0, 2)), n=4),
    make_graph([(0, 1), (3, 3), (1, 0), (3, 3), (2, 2)], n=6),
    make_graph([(2, 0)] * 10_000 + [(0, 2), (1, 2)], n=4),
], ids=["empty", "isolated-nodes", "self-loops", "multiplicity-1e4"])
def test_reverse_index_edge_cases(g):
    supp = build_support_index(g)
    assert_same_index(build_reverse_index(g, supp),
                      build_support_index(transposed(g)))


def test_apply_permutation_identity_and_roundtrip():
    g = random_connected_multigraph(6, 14, seed=2)
    ident = GraphPermutation(np.arange(6), np.arange(14))
    same = apply_permutation(g, ident)
    assert np.array_equal(same.edges, g.edges)
    assert np.array_equal(same.node_features, g.node_features)

    rng = np.random.default_rng(0)
    p = random_permutation(g, rng)
    inverse = GraphPermutation(np.argsort(p.node_perm), np.argsort(p.edge_perm))
    back = apply_permutation(apply_permutation(g, p), inverse)
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.edge_features, g.edge_features)


def test_apply_permutation_two_node_swap():
    g = make_graph([(0, 1)])
    p = GraphPermutation(np.array([1, 0]), np.array([0]))
    gp = apply_permutation(g, p)
    assert gp.edges.tolist() == [[1, 0]]


def test_permutation_preserves_multiplicity_multiset():
    g = random_connected_multigraph(7, 25, seed=9)
    p = random_permutation(g, np.random.default_rng(4))
    m1 = sorted(build_support_index(g).multiplicity.tolist())
    m2 = sorted(build_support_index(apply_permutation(g, p)).multiplicity.tolist())
    assert m1 == m2


def test_permutation_validation():
    g = make_graph([(0, 1)])
    with pytest.raises(GraphError):
        GraphPermutation(np.array([0, 0]), np.array([0]))


def test_random_graph_connected_and_deterministic():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(max(n - 1, 0), 3 * n + 1))
        g = random_connected_multigraph(n, m, seed=7)
        assert is_weakly_connected(g)
        assert g.num_edges == m
    g1 = random_connected_multigraph(10, 40, seed=7)
    g2 = random_connected_multigraph(10, 40, seed=7)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.edge_features, g2.edge_features)


def test_random_graph_edge_features_distinct():
    g = random_connected_multigraph(5, 30, seed=11)
    rows = {tuple(r) for r in g.edge_features}
    assert len(rows) == g.num_edges


def test_random_graph_single_node():
    g = random_connected_multigraph(1, 0, seed=0)
    assert g.num_nodes == 1 and g.num_edges == 0


def test_random_graph_infeasible():
    with pytest.raises(InfeasibleError):
        random_connected_multigraph(5, 2, seed=0)


def test_bfs_distances_on_path():
    g = make_graph([(0, 1), (1, 2), (2, 3)])
    assert undirected_bfs_distances(g, 0).tolist() == [0, 1, 2, 3]
    # direction does not matter for the weak distances
    assert undirected_bfs_distances(g, 3).tolist() == [3, 2, 1, 0]
