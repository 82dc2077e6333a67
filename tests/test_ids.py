import numpy as np
import pytest

from meganet.graph import (
    Multigraph,
    build_reverse_index,
    build_support_index,
    random_connected_multigraph,
    undirected_bfs_distances,
)
from meganet.ids import (
    OrderError,
    UnreachedError,
    _pair_min_labels,
    assign_ports,
    bfs_assign_ids,
    label_edges_by_features,
    make_star_graph,
    nonequivariance_witness,
)


def make_graph(edges, edge_feats, n=None):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 1
    return Multigraph(n, np.ones((n, 1)), edges,
                      np.array(edge_feats, dtype=np.float64))


def indices(g):
    supp = build_support_index(g)
    return supp, build_reverse_index(g, supp)


def test_label_edges_ranks():
    g = make_graph([(0, 1), (0, 1), (0, 1)], [[2.0], [1.0], [3.0]])
    assert label_edges_by_features(g).labels.tolist() == [2, 1, 3]


def test_label_edges_sorted_input():
    g = make_graph([(0, 1), (1, 2)], [[1.0], [2.0]])
    assert label_edges_by_features(g).labels.tolist() == [1, 2]


def test_label_edges_duplicate_rows_rejected():
    g = make_graph([(0, 1), (1, 2)], [[1.0], [1.0]])
    with pytest.raises(OrderError):
        label_edges_by_features(g)


@pytest.mark.parametrize("labels", [[1, 2, 2], [1, 3, 3]],
                         ids=["duplicate", "duplicate-and-missing"])
def test_edge_labeling_rejects_repeated_labels(labels):
    from meganet.ids import EdgeLabeling

    with pytest.raises(OrderError, match="bijection"):
        EdgeLabeling(np.array(labels))


@pytest.mark.parametrize("labels", [[0, 1, 2], [1, 2, 4], [-1, 1, 2]],
                         ids=["zero", "above-m", "negative"])
def test_edge_labeling_rejects_labels_out_of_range(labels):
    from meganet.ids import EdgeLabeling

    with pytest.raises(OrderError, match="bijection"):
        EdgeLabeling(np.array(labels))


def test_ids_parallel_pair():
    # 2 nodes, 2 parallel edges with labels {1,2}, m=2
    g = make_graph([(0, 1), (0, 1)], [[1.0], [2.0]])
    supp, rev = indices(g)
    state = bfs_assign_ids(g, supp, rev, label_edges_by_features(g), root=0)
    assert state.ids[0] == (1,)
    assert state.ids[1] == (1, 1)   # min parallel label wins


def test_ids_out_star():
    # root 0 with edges to 1,2,3 labeled 1,2,3
    g = make_graph([(0, 1), (0, 2), (0, 3)], [[1.0], [2.0], [3.0]])
    supp, rev = indices(g)
    state = bfs_assign_ids(g, supp, rev, label_edges_by_features(g), root=0)
    assert state.ids[1:] == [(1, 1), (1, 2), (1, 3)]


def test_ids_in_star_uses_m_offset():
    # leaves point at the root; proposals travel against edge direction,
    # so each leaf digit is m + its edge label
    g = make_graph([(1, 0), (2, 0), (3, 0)], [[1.0], [2.0], [3.0]])
    supp, rev = indices(g)
    state = bfs_assign_ids(g, supp, rev, label_edges_by_features(g), root=0)
    m = 3
    assert state.ids[1:] == [(1, m + 1), (1, m + 2), (1, m + 3)]
    assert len(set(state.ids)) == 4


def test_ids_unreached_error_lists_nodes():
    g = make_graph([(0, 1)], [[1.0]], n=4)
    supp, rev = indices(g)
    with pytest.raises(UnreachedError) as excinfo:
        bfs_assign_ids(g, supp, rev, label_edges_by_features(g), root=0)
    assert excinfo.value.unreached == [2, 3]


def test_ids_unique_and_digit_law_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(n - 1, 60))
        g = random_connected_multigraph(n, m, seed=int(rng.integers(1 << 30)))
        supp, rev = indices(g)
        root = int(rng.integers(0, n))
        state = bfs_assign_ids(g, supp, rev, label_edges_by_features(g), root)
        assert len(set(state.ids)) == n
        dist = undirected_bfs_distances(g, root)
        assert [len(i) for i in state.ids] == (dist + 1).tolist()
        # round k gives ids at distance k; one more round finds no one new
        assert state.rounds_used == dist.max() + 1


def test_ids_unique_under_relabeling():
    g = random_connected_multigraph(8, 20, seed=5)
    supp, rev = indices(g)
    base = label_edges_by_features(g)
    # a different strict order: reverse the ranks
    from meganet.ids import EdgeLabeling
    flipped = EdgeLabeling(g.num_edges + 1 - base.labels)
    s1 = bfs_assign_ids(g, supp, rev, base, root=0)
    s2 = bfs_assign_ids(g, supp, rev, flipped, root=0)
    assert len(set(s1.ids)) == 8
    assert len(set(s2.ids)) == 8


def test_assign_ports_are_permutations():
    g = make_graph([(0, 1), (0, 1), (0, 2)], [[1.0], [2.0], [3.0]])
    supp = build_support_index(g)
    ports = assign_ports(g, supp, order_seed=0)
    for v in range(3):
        vals = sorted(ports[v].values())
        assert vals == list(range(1, len(vals) + 1))


def test_assign_ports_seed_dependent():
    g = make_star_graph(8)
    supp = build_support_index(g)
    a = assign_ports(g, supp, order_seed=0)
    b = assign_ports(g, supp, order_seed=0)
    assert a == b
    different = any(
        assign_ports(g, supp, order_seed=s) != a
        for s in range(1, 6))
    assert different


def test_witness_found_for_small_stars():
    for n in range(4, 11):
        report = nonequivariance_witness(n, trials=10)
        assert report.embedding_base != report.embedding_other


def test_witness_rejects_tiny_star():
    with pytest.raises(ValueError):
        nonequivariance_witness(3)


def test_pair_min_labels_matches_group_loop():
    g = random_connected_multigraph(10, 60, seed=2)    # parallel edges
    supp = build_support_index(g)
    labels = label_edges_by_features(g).labels
    _, o, off = supp.by_pair
    loop = [labels[o[off[s]:off[s + 1]]].min() for s in range(supp.num_pairs)]
    assert max(supp.multiplicity) > 1
    assert _pair_min_labels(supp, labels).tolist() == loop
    empty = build_support_index(make_graph([], np.zeros((0, 1)), n=3))
    assert _pair_min_labels(empty, labels[:0]).size == 0
