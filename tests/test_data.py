import time

import numpy as np
import pytest

from meganet.data import (
    AML_SCHEMA,
    ConfigError,
    GENERATED_SCHEMA,
    IngestionError,
    Schema,
    SplitSpec,
    brute_force_planted_labels,
    compute_feature_spec,
    generate_planted_task,
    load_node_labels,
    load_transactions,
    sample_neighborhood,
    temporal_split,
    to_multigraph,
    write_node_labels_csv,
    write_transactions_csv,
)
from meganet.graph import (
    GraphError,
    Multigraph,
    build_reverse_index,
    build_support_index,
    is_weakly_connected,
    random_connected_multigraph,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_transactions_basic(tmp_path):
    p = write(tmp_path, "t.csv",
              "src,dst,timestamp,amount\n"
              "a,b,1,10.0\n"
              "b,a,2,20.0\n"
              "a,b,3,30.0\n")
    schema = Schema(src="src", dst="dst", timestamp="timestamp", amount="amount")
    t = load_transactions(p, schema)
    assert t.num_accounts == 2
    assert t.num_rows == 3
    assert t.src.tolist() == [0, 1, 0]
    assert t.amount.tolist() == [10.0, 20.0, 30.0]


def test_load_transactions_missing_column(tmp_path):
    p = write(tmp_path, "t.csv",
              "src_account,dst_account,timestamp,currency,payment_format,"
              "is_laundering\na,b,1,USD,wire,0\n")
    with pytest.raises(IngestionError, match="amount"):
        load_transactions(p, AML_SCHEMA)


def test_load_transactions_bad_row_number(tmp_path):
    p = write(tmp_path, "t.csv",
              "src,dst,timestamp,amount\na,b,1,1.0\na,b,oops,2.0\n")
    schema = Schema(src="src", dst="dst", timestamp="timestamp", amount="amount")
    with pytest.raises(IngestionError, match="row 2"):
        load_transactions(p, schema)


@pytest.mark.parametrize("row,message", [
    ("a,b,1,nan,0", "amount 'nan' is not a finite number"),
    ("a,b,1,-inf,0", "amount '-inf' is not a finite number"),
    ("a,b,inf,1.0,0", "timestamp 'inf' is not a finite number"),
    ("a,b,nan,1.0,0", "timestamp 'nan' is not a finite number"),
    ("a,b,1,1.0,2", "label '2' must be 0 or 1"),
    ("a,b,1,1.0,0.5", "label '0.5' must be 0 or 1"),
    ("a,b,1,1.0,inf", "label 'inf' is not a finite number"),
    ("a,b,1e300,1.0,0", "timestamp '1e300' is outside the int64 range"),
    ("a,b,-1e19,1.0,0", "timestamp '-1e19' is outside the int64 range"),
    ("1,2,2", "fewer fields than the header"),
    (",2,2,1.0,1", "src is empty"),
    ("a,,2,1.0,1", "dst is empty"),
], ids=["nan-amount", "-inf-amount", "inf-timestamp", "nan-timestamp",
        "label-2", "label-0.5", "inf-label", "huge-timestamp",
        "huge-negative-timestamp", "short-row", "empty-src", "empty-dst"])
def test_load_transactions_rejects_malformed_rows(tmp_path, row, message):
    p = write(tmp_path, "t.csv",
              f"src,dst,timestamp,amount,label\nb,a,0,1.0,1\n{row}\n")
    with pytest.raises(IngestionError, match="row 2") as excinfo:
        load_transactions(p, GENERATED_SCHEMA)
    assert message in str(excinfo.value)


def test_load_transactions_empty(tmp_path):
    p = write(tmp_path, "t.csv", "src,dst,timestamp,amount\n")
    schema = Schema(src="src", dst="dst", timestamp="timestamp", amount="amount")
    with pytest.raises(IngestionError):
        load_transactions(p, schema)


def test_categoricals_dictionary_encoded(tmp_path):
    p = write(tmp_path, "t.csv",
              "src_account,dst_account,timestamp,amount_received,currency,"
              "payment_format,is_laundering\n"
              "a,b,1,5.0,USD,wire,0\n"
              "b,c,2,6.0,EUR,wire,1\n"
              "c,a,3,7.0,USD,card,0\n")
    t = load_transactions(p, AML_SCHEMA)
    assert t.categorical_sizes == (2, 2)
    assert t.categorical[:, 0].tolist() == [0, 1, 0]
    assert t.labels.tolist() == [0, 1, 0]


ACCOUNTS = ["0", "1", "2", "3"]


def test_node_labels_sidecar(tmp_path):
    # an account without transactions may appear unlabeled
    p = write(tmp_path, "l.csv", "node,label\n0,1\n2,0\n3,-1\nghost,-1\n")
    labels = load_node_labels(p, ACCOUNTS)
    assert labels.tolist() == [1, -1, 0, -1]
    bad = write(tmp_path, "bad.csv", "account,flag\n0,1\n")
    with pytest.raises(IngestionError):
        load_node_labels(bad, ACCOUNTS)


def test_node_labels_map_through_account_names(tmp_path):
    p = write(tmp_path, "l.csv", "node,label\nb,1\nc,0\n")
    assert load_node_labels(p, ["c", "a", "b"]).tolist() == [0, -1, 1]


@pytest.mark.parametrize("row", ["-1,1", "4,0", "0,7", "1,-2", "2", "0,0"])
def test_node_labels_reject_out_of_range_rows(tmp_path, row):
    p = write(tmp_path, "l.csv", f"node,label\n0,1\n{row}\n")
    with pytest.raises(IngestionError, match="row 2"):
        load_node_labels(p, ACCOUNTS)


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        SplitSpec(1.0, -0.5, 0.5)


def make_table(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    from meganet.data import TransactionTable
    return TransactionTable(
        num_accounts=5,
        src=rng.integers(0, 5, n_rows),
        dst=rng.integers(0, 5, n_rows),
        timestamp=rng.integers(0, 1000, n_rows),
        amount=rng.uniform(1, 100, n_rows),
        categorical=np.zeros((n_rows, 0), dtype=np.int64),
        categorical_sizes=(),
    )


def test_temporal_split_ordering_and_coverage():
    t = make_table(100)
    tr, va, te = temporal_split(t, SplitSpec())
    assert len(tr) == 65 and len(va) == 15 and len(te) == 20
    joined = np.concatenate([tr, va, te])
    assert sorted(joined.tolist()) == list(range(100))
    # no later transaction in an earlier split
    assert t.timestamp[tr].max() <= t.timestamp[va].min()
    assert t.timestamp[va].max() <= t.timestamp[te].min()


def test_temporal_split_too_few_rows():
    with pytest.raises(ConfigError):
        temporal_split(make_table(2), SplitSpec())


def test_feature_spec_train_only_and_constant_amounts():
    t = make_table(50)
    t.amount[:] = 7.0
    spec = compute_feature_spec(t, np.arange(30))
    g, _, _ = to_multigraph(t, spec)
    # constant amounts z-score to an all-zero column
    assert not g.edge_features[:, 1].any()
    assert spec.ts_mean == pytest.approx(t.timestamp[:30].mean())


def test_to_multigraph_shapes(tmp_path):
    p = write(tmp_path, "t.csv",
              "src,dst,timestamp,amount\na,b,1,10\nb,a,2,20\na,b,3,30\n")
    schema = Schema(src="src", dst="dst", timestamp="timestamp", amount="amount")
    t = load_transactions(p, schema)
    g, edge_labels, node_labels = to_multigraph(t, compute_feature_spec(t))
    assert g.num_nodes == 2 and g.num_edges == 3
    assert edge_labels is None and node_labels is None


def test_roundtrip_through_csv(tmp_path):
    g, labels = generate_planted_task(20, 2, 2, "max_of_sums", seed=1)
    p = tmp_path / "tx.csv"
    write_transactions_csv(p, g)
    lp = tmp_path / "labels.csv"
    write_node_labels_csv(lp, labels)
    t = load_transactions(p, Schema(src="src", dst="dst",
                                    timestamp="timestamp", amount="amount"))
    assert t.num_rows == g.num_edges
    # amounts survive the round trip exactly (repr-based serialization)
    assert np.array_equal(t.amount, g.edge_features[:, 0])
    got = load_node_labels(lp, t.account_names)
    assert np.array_equal(got, labels[np.array(t.account_names, dtype=int)])


def test_node_labels_stay_with_their_account_through_csv(tmp_path):
    g, labels = generate_planted_task(200, 3, 2, "max_of_sums", seed=0)
    write_transactions_csv(tmp_path / "tx.csv", g)
    write_node_labels_csv(tmp_path / "labels.csv", labels)
    t = load_transactions(tmp_path / "tx.csv", Schema(
        src="src", dst="dst", timestamp="timestamp", amount="amount"))
    got = load_node_labels(tmp_path / "labels.csv", t.account_names)
    loaded = Multigraph(t.num_accounts, np.ones((t.num_accounts, 1)),
                        np.column_stack([t.src, t.dst]), t.amount[:, None])
    labeled = got >= 0
    assert labeled.sum() == 200
    oracle = brute_force_planted_labels(loaded, labeled, "max_of_sums")
    assert np.array_equal(oracle, got[labeled])


def test_sampler_hops_zero_is_seed_closure():
    g, _ = generate_planted_task(10, 2, 2, "max_of_sums", seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_edges=[0], hops=0)
    # seed edge group plus both endpoints
    k = supp.edge_to_supp[0]
    _, order, offsets = supp.by_pair
    group = order[offsets[k]:offsets[k + 1]]
    assert sorted(s.edge_map.tolist()) == sorted(group.tolist())


def test_sampler_large_cap_is_full_neighborhood():
    g, _ = generate_planted_task(10, 2, 2, "max_of_sums", seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=3,
                            per_hop=10_000)
    # receiver 0's whole component: itself plus its private senders
    assert s.graph.num_edges == int(np.sum(g.dst == 0))
    assert is_weakly_connected(s.graph)


def test_sampler_drops_pairs_between_last_hop_nodes():
    """A view keeps the pairs leaving nodes within hops - 1 hops, not the
    subgraph induced by every node it reaches: 1 -> 2 joins two nodes first
    reached at hop 1, so a 1-hop view leaves it out."""
    g = Multigraph(4, np.ones((4, 1)), [(0, 1), (0, 2), (1, 2)],
                   np.arange(3.0)[:, None])
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    for per_hop in (100, None):       # node 3 keeps the walk from every node
        s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=1,
                                per_hop=per_hop)
        assert s.node_map.tolist() == [0, 1, 2]
        assert s.edge_map.tolist() == [0, 1]
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=2, per_hop=None)
    assert s.edge_map.tolist() == [0, 1, 2]


def test_sampler_lists_in_neighbours_first():
    # node 0 sends to 1 and 3 and receives from 2 and 4
    g = Multigraph(5, np.ones((5, 1)), [(0, 3), (2, 0), (0, 1), (4, 0), (2, 0)],
                   np.arange(5.0)[:, None])
    supp = build_support_index(g)
    s = sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[0], hops=1)
    assert s.node_map.tolist() == [0, 2, 4, 3, 1]
    assert s.edge_map.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seeds", [dict(seed_nodes=[-1]), dict(seed_nodes=[3]),
                                   dict(seed_nodes=[0, 5]),
                                   dict(seed_edges=[-1]), dict(seed_edges=[2]),
                                   dict(seed_nodes=[0], seed_edges=[0, -2])])
def test_sampler_rejects_seeds_out_of_range(seeds):
    g = Multigraph(3, np.ones((3, 1)), [(0, 1), (1, 2)], np.ones((2, 1)))
    supp = build_support_index(g)
    with pytest.raises(GraphError, match="seed (node|edge) out of range"):
        sample_neighborhood(g, supp, build_reverse_index(g, supp), **seeds)


@pytest.mark.parametrize("bad", [dict(hops=-3), dict(per_hop=0)],
                         ids=["hops-3", "per-hop-0"])
def test_sampler_rejects_negative_hops_and_zero_per_hop(bad):
    g = Multigraph(3, np.ones((3, 1)), [(0, 1), (1, 2)], np.ones((2, 1)))
    supp = build_support_index(g)
    with pytest.raises(ConfigError, match="hops at least 0"):
        sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[0], **bad)


def test_sampler_keeps_parallel_groups_whole():
    g, _ = generate_planted_task(30, 3, 4, "max_of_sums", seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=2, per_hop=1,
                            rng_seed=7)
    kept = set(s.edge_map.tolist())
    _, order, offsets = supp.by_pair
    for k in kept:
        s_k = supp.edge_to_supp[k]
        group = order[offsets[s_k]:offsets[s_k + 1]]
        assert set(group.tolist()) <= kept


def test_sampler_time_follows_subgraph_not_graph():
    """Adding 10^5 isolated nodes leaves the cost of a 2-hop sample alone."""
    small = random_connected_multigraph(200, 600, seed=3)
    n_big = small.num_nodes + 100_000
    big = Multigraph(n_big, np.ones((n_big, small.node_features.shape[1])),
                     small.edges, small.edge_features)

    def best_of_3(g):
        supp = build_support_index(g)
        rev = build_reverse_index(g, supp)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            sample_neighborhood(g, supp, rev, seed_nodes=[0, 1, 2], hops=2)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(big) < 10 * best_of_3(small)


def test_sampler_subgraph_features_match_parent():
    g, _ = generate_planted_task(15, 2, 2, "out_neighbor_count", seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0, 1], hops=2)
    assert np.array_equal(s.graph.edge_features, g.edge_features[s.edge_map])
    local_src = s.node_map[s.graph.src]
    assert np.array_equal(local_src, g.src[s.edge_map])


def test_planted_config_errors():
    with pytest.raises(ConfigError):
        generate_planted_task(10, 2, 2, "nonsense", seed=0)
    with pytest.raises(ConfigError):
        generate_planted_task(10, 1, 2, "max_of_sums", seed=0)
    with pytest.raises(ConfigError):
        generate_planted_task(10, 2, 1, "max_of_sums", seed=0)


def test_max_of_sums_structure():
    g, labels = generate_planted_task(50, 3, 2, "max_of_sums", seed=4)
    labeled = np.flatnonzero(labels >= 0)
    assert labeled.tolist() == list(range(50))
    # senders are private: every sender has exactly one distinct receiver
    for s in range(50, g.num_nodes):
        receivers = np.unique(g.dst[g.src == s])
        assert receivers.size == 1
    oracle = brute_force_planted_labels(g, labels >= 0, "max_of_sums")
    assert np.array_equal(oracle, labels[labeled])


def test_max_of_sums_pooled_multiset_label_blind():
    """The unordered payment multiset at a receiver barely depends on the
    label; only the grouping by sender does."""
    g, labels = generate_planted_task(400, 2, 2, "max_of_sums", seed=6)
    sums = {0: [], 1: []}
    for r in range(400):
        sums[labels[r]].append(g.edge_features[g.dst == r, 0].sum())
    # totals distributions overlap: means within the jitter scale
    assert abs(np.mean(sums[0]) - np.mean(sums[1])) < 0.2


def test_out_neighbor_count_structure():
    g, labels = generate_planted_task(40, 3, 2, "out_neighbor_count", seed=1)
    labeled = np.flatnonzero(labels >= 0)
    # subjects never receive anything
    assert not np.isin(g.dst, labeled).any()
    oracle = brute_force_planted_labels(g, labels >= 0, "out_neighbor_count")
    assert np.array_equal(oracle, labels[labeled])
    assert 0 < labels[labeled].sum() < labeled.size


def test_planted_determinism():
    a, la = generate_planted_task(30, 2, 2, "max_of_sums", seed=9)
    b, lb = generate_planted_task(30, 2, 2, "max_of_sums", seed=9)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.edge_features, b.edge_features)
    assert np.array_equal(la, lb)


def scan_planted_labels(g, labeled_mask, task):
    """The oracle as it was before the argsort: one endpoint scan per node."""
    labeled = np.flatnonzero(np.asarray(labeled_mask))
    out = np.zeros(labeled.size, dtype=np.int64)
    if task == "max_of_sums":
        for i, j in enumerate(labeled):
            incoming = np.flatnonzero(g.dst == j)
            totals, maxima = {}, {}
            for s, amt in zip(g.src[incoming], g.edge_features[incoming, 0]):
                s = int(s)
                totals[s] = totals.get(s, 0.0) + amt
                maxima[s] = max(maxima.get(s, -np.inf), amt)
            top_total = max(totals, key=lambda s: totals[s])
            top_single = max(maxima, key=lambda s: maxima[s])
            out[i] = int(top_total != top_single)
        return out
    counts = np.array([np.unique(g.dst[np.flatnonzero(g.src == j)]).size
                       for j in labeled])
    return (counts > np.median(counts)).astype(np.int64)


@pytest.mark.parametrize("task,senders", [("max_of_sums", 3),
                                          ("out_neighbor_count", 3)])
def test_oracle_matches_endpoint_scans(task, senders):
    g, labels = generate_planted_task(120, senders, 2, task, seed=2)
    rng = np.random.default_rng(0)
    # ties: equal amounts and equal totals, so the dict tie order matters
    feats = np.round(g.edge_features * 2) / 2
    perm = rng.permutation(g.num_edges)
    for graph in (g, Multigraph(g.num_nodes, g.node_features, g.edges[perm],
                                feats[perm])):
        for mask in (labels >= 0, rng.random(g.num_nodes) < 0.5):
            if task == "max_of_sums":     # a receiver needs a sender
                mask = mask & np.isin(np.arange(g.num_nodes), graph.dst)
            assert np.array_equal(brute_force_planted_labels(graph, mask, task),
                                  scan_planted_labels(graph, mask, task))


def test_oracle_time_is_linear_in_edges():
    """Eight times the receivers and edges cost about eight times, not 64."""
    def best_of_3(num_nodes):
        g, labels = generate_planted_task(num_nodes, 2, 2, "max_of_sums", seed=0)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            brute_force_planted_labels(g, labels >= 0, "max_of_sums")
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_3(16000) < 16 * best_of_3(2000)
