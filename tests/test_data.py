import time

import numpy as np
import pytest

from meganet.data import (
    _BLOCK_ROWS,
    AML_SCHEMA,
    ConfigError,
    ETH_SCHEMA,
    FeatureSpec,
    GENERATED_SCHEMA,
    IngestionError,
    PLANTED_TASKS,
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
    assert t.categories == {"currency": ["USD", "EUR"],
                            "payment_format": ["wire", "card"]}
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


def _load_rows(kind, p):
    """The loaded values of a two-row transaction or node-label file."""
    if kind == "node-labels":
        return load_node_labels(p, ["a,1", "b"]).tolist()
    t = load_transactions(p, GENERATED_SCHEMA)
    return [t.account_names, t.src.tolist(), t.dst.tolist(),
            t.timestamp.tolist(), t.amount.tolist(), t.labels.tolist()]


FORMAT_CASES = {
    "transactions": (["src,dst,timestamp,amount,label",
                      '"a,1",b,1,2.5,1', "", 'b,"a,1",3,"4.0",0'],
                     "b,b,5,oops,0",
                     [["a,1", "b"], [0, 1], [1, 0], [1, 3], [2.5, 4.0],
                      [1, 0]]),
    "node-labels": (["node,label", '"a,1",1', "", "b,0"], "b,7", [1, 0]),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("kind", FORMAT_CASES)
def test_loaders_keep_the_csv_row_format(tmp_path, kind, newline):
    """Quoted fields may hold commas, CRLF ends a line as LF does, and a
    blank line is skipped and not counted in a later error's row number."""
    lines, bad_row, expected = FORMAT_CASES[kind]
    p = tmp_path / "f.csv"
    p.write_bytes(newline.join(lines + [""]).encode())
    assert _load_rows(kind, p) == expected
    p.write_bytes(newline.join(lines + [bad_row, ""]).encode())
    with pytest.raises(IngestionError, match="row 3:"):
        _load_rows(kind, p)


@pytest.mark.parametrize("kind,text,message", [
    ("transactions", "src,dst,timestamp,amount,label\n"
     "1,2,2,1.0,1\n3,1,5,2.0,0,7\n", "row 2: more fields than the header"),
    ("node-labels", "node,label\nb,0\n1,1,junk\n",
     "row 2: more fields than the header"),
    ("transactions", "src,dst,timestamp,amount,amount,label\n"
     "a,b,1,1.0,2.0,0\n", "the header must name column(s) ['amount'] once"),
    ("node-labels", "label,node,label\n0,b,1\n",
     "the header must name column(s) ['label'] once"),
], ids=["tx-more-fields", "labels-more-fields", "tx-column-twice",
        "labels-column-twice"])
def test_loaders_reject_extra_fields_and_read_columns_named_twice(
        tmp_path, kind, text, message):
    p = write(tmp_path, "f.csv", text)
    with pytest.raises(IngestionError) as excinfo:
        _load_rows(kind, p)
    assert message in str(excinfo.value)


def test_a_column_no_schema_reads_may_repeat(tmp_path):
    p = write(tmp_path, "t.csv", "src,dst,note,timestamp,amount,label,note\n"
              "a,b,x,1,1.0,0,y\nb,a,,2,3.0,1,\n")
    assert _load_rows("transactions", p) == [
        ["a", "b"], [0, 1], [1, 0], [1, 2], [1.0, 3.0], [0, 1]]


@pytest.mark.parametrize("kind,data", [
    ("transactions", b"src,dst,timestamp,amount,label\na,b,1,1.0,1\n"
                     b"\xff,b,2,1.0,0\n"),
    ("node-labels", b"node,label\nb,1\n\xe9,0\n"),
    ("transactions", b"src,dst,timestamp,amount,label\n"
                     + b"a" * 200_000 + b",b,1,1.0,1\n"),
], ids=["tx-not-utf8", "labels-not-utf8", "field-over-csv-limit"])
def test_loaders_reject_text_that_is_not_utf8_csv(tmp_path, kind, data):
    p = tmp_path / "f.csv"
    p.write_bytes(data)
    with pytest.raises(IngestionError, match="not UTF-8 CSV text"):
        _load_rows(kind, p)


def test_a_bad_row_before_a_decode_error_is_reported_first(tmp_path):
    """Each line is decoded as it is read, so a row ahead of text that is
    not UTF-8 is checked first, even within one read of the file."""
    p = tmp_path / "t.csv"
    p.write_bytes(b"src,dst,timestamp,amount\na,b,1,1.0\na,b,2,oops\n"
                  b"a,\xff,3,1.0\n")
    with pytest.raises(IngestionError,
                       match="row 2: amount 'oops' is not a finite number"):
        load_transactions(p, ETH_SCHEMA)
    p.write_bytes(b"src,dst,timestamp,amount\na,b,1,1.0\na,\xff,3,1.0\n")
    with pytest.raises(IngestionError, match="not UTF-8 CSV text"):
        load_transactions(p, ETH_SCHEMA)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_quoted_fields_may_hold_line_ends(tmp_path, newline):
    p = tmp_path / "t.csv"
    p.write_bytes(newline.join(["src,dst,timestamp,amount", '"a\nx",b,1,1.0',
                                'b,"a\r\nx",2,2.0', ""]).encode())
    t = load_transactions(p, ETH_SCHEMA)
    assert t.account_names == ["a\nx", "b", "a\r\nx"]
    assert t.timestamp.tolist() == [1, 2]


@pytest.mark.parametrize("kind", FORMAT_CASES)
def test_loaders_accept_a_byte_order_mark(tmp_path, kind):
    """Excel's "CSV UTF-8" export starts the file with a BOM."""
    lines, _, expected = FORMAT_CASES[kind]
    p = tmp_path / "f.csv"
    p.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines + [""]).encode())
    assert _load_rows(kind, p) == expected


def test_integer_timestamps_load_exactly(tmp_path):
    """Integer text is read as an integer, so nanosecond times past
    float64's exact range stay distinct and int64's ends load; other text
    is truncated from its float, in the same column."""
    stamps = ["1700000000123456789", "1700000000123456790",
              "9223372036854775807", "-9223372036854775808", "1.5e9", "-2.7"]
    p = write(tmp_path, "t.csv", "src,dst,timestamp,amount\n" + "".join(
        f"a,b,{t},1.0\n" for t in stamps))
    t = load_transactions(p, ETH_SCHEMA)
    assert t.timestamp.tolist() == [
        1700000000123456789, 1700000000123456790, 2 ** 63 - 1, -2 ** 63,
        1500000000, -2]
    for text in ["9223372036854775808", "-9223372036854775809"]:
        p = write(tmp_path, "t.csv", "src,dst,timestamp,amount\n"
                  f"a,b,1,1.0\na,b,{text},1.0\n")
        with pytest.raises(IngestionError, match=f"row 2: timestamp '{text}' "
                           "is outside the int64 range"):
            load_transactions(p, ETH_SCHEMA)


B = _BLOCK_ROWS
# rows over three blocks, with blank lines before these row indices: a
# block's first and last rows, and one inside the second block
LONG_ROWS = 2 * B + 37
LONG_BLANKS = {1, B - 1, B, B + 7, 2 * B}
AML_HEADER = ("src_account,dst_account,timestamp,amount_received,currency,"
              "payment_format,is_laundering")


def _long_rows():
    """AML-schema rows whose accounts and currencies are first seen in
    every block, and whose timestamps lie past float64's exact integers."""
    return [[f"a{i % 1013}", f"a{(7 * i + 500) % 2003}", str(2 ** 60 + 3 * i),
             f"{i % 1000}.5", "CHF" if i >= 2 * B else ("USD", "EUR")[i % 2],
             ("ACH", "Wire", "Cash")[i % 3], str(i % 2)]
            for i in range(LONG_ROWS)]


def _write_long(tmp_path, rows):
    p = tmp_path / "long.csv"
    p.write_text("\n".join([AML_HEADER] + [
        ("\n" if i in LONG_BLANKS else "") + ",".join(r)
        for i, r in enumerate(rows)]) + "\n")
    return p


def test_load_transactions_across_blocks(tmp_path):
    rows = _long_rows()
    t = load_transactions(_write_long(tmp_path, rows), AML_SCHEMA)
    ids, currencies, formats = {}, {}, {}
    ends = [[ids.setdefault(r[0], len(ids)), ids.setdefault(r[1], len(ids))]
            for r in rows]
    codes = [[currencies.setdefault(r[4], len(currencies)),
              formats.setdefault(r[5], len(formats))] for r in rows]
    assert t.account_names == list(ids) and t.num_accounts == len(ids)
    assert t.src.tolist() == [e[0] for e in ends]
    assert t.dst.tolist() == [e[1] for e in ends]
    assert t.timestamp.tolist() == [int(r[2]) for r in rows]
    assert t.amount.tolist() == [float(r[3]) for r in rows]
    assert t.categories == {"currency": ["USD", "EUR", "CHF"],
                            "payment_format": ["ACH", "Wire", "Cash"]}
    assert t.categorical.tolist() == codes
    assert t.labels.tolist() == [int(r[6]) for r in rows]


@pytest.mark.parametrize("edits,message", [
    ({(B + 10, 3): "oops", (2 * B + 5, 2): "inf"},
     f"row {B + 11}: amount 'oops' is not a finite number"),
    ({(B + 10, 3): "oops", (B + 10, 2): "1e300", (B + 10, 6): "2"},
     f"row {B + 11}: timestamp '1e300' is outside the int64 range"),
    ({(B + 12, 6): "0.5", (B + 12, 3): "nan", (B + 12, 0): ""},
     f"row {B + 13}: src_account is empty"),
    ({(2 * B + 3, 6): "0.5", (2 * B + 30, 1): ""},
     f"row {2 * B + 4}: label '0.5' must be 0 or 1"),
    ({B + 7: ["a", "b"], B + 9: ["a"] * 8, (B + 8, 3): "inf"},
     f"row {B + 8}: fewer fields than the header"),
    ({(B + 6, 3): "-inf", B + 7: ["a", "b"]},
     f"row {B + 7}: amount '-inf' is not a finite number"),
    ({(B + 6, 3): "-inf", B + 7: ["a" * 200_000] * 7},
     f"row {B + 7}: amount '-inf' is not a finite number"),
    ({B + 7: ["a" * 200_000] * 7}, "not UTF-8 CSV text"),
], ids=["amount-then-later-timestamp", "timestamp-before-amount-in-a-row",
        "account-first-in-a-row", "label-then-later-account",
        "short-row-after-a-blank-line", "amount-then-short-row",
        "amount-then-csv-error", "csv-error"])
def test_load_transactions_reports_the_first_bad_row_across_blocks(
        tmp_path, edits, message):
    """Row numbers count data rows across blocks, skipping blank lines; the
    first bad row raises, and within a row the accounts, timestamp, amount
    and label are checked in that order."""
    rows = _long_rows()
    for at, value in edits.items():
        if isinstance(at, int):
            rows[at] = value
        else:
            rows[at[0]][at[1]] = value
    with pytest.raises(IngestionError) as excinfo:
        load_transactions(_write_long(tmp_path, rows), AML_SCHEMA)
    assert message in str(excinfo.value)


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
        categories={},
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


def test_feature_spec_rejects_amounts_whose_statistics_overflow():
    """Finite amounts that sum past float64's range would standardise to
    NaN features; numpy's overflow warnings must not escape either."""
    t = make_table(10)
    t.amount[:3] = [1e308, 1.5e308, 1.7e308]
    with pytest.raises(IngestionError, match="amount: .* overflows float64"):
        compute_feature_spec(t)


def test_to_multigraph_shapes(tmp_path):
    p = write(tmp_path, "t.csv",
              "src,dst,timestamp,amount\na,b,1,10\nb,a,2,20\na,b,3,30\n")
    schema = Schema(src="src", dst="dst", timestamp="timestamp", amount="amount")
    t = load_transactions(p, schema)
    g, edge_labels, node_labels = to_multigraph(t, compute_feature_spec(t))
    assert g.num_nodes == 2 and g.num_edges == 3
    assert edge_labels is None and node_labels is None


AML_ROWS = ["a,b,1,5.0,USD,wire,0", "b,c,2,6.0,EUR,wire,1",
            "c,a,3,7.0,USD,card,0", "a,c,4,8.0,GBP,card,0"]


def aml_table(tmp_path, name, rows):
    return load_transactions(write(tmp_path, name, "\n".join(
        ["src_account,dst_account,timestamp,amount_received,currency,"
         "payment_format,is_laundering", *rows]) + "\n"), AML_SCHEMA)


def test_feature_spec_holds_every_rows_categories_in_first_seen_order(
        tmp_path):
    """Statistics come from the training rows; category values, which say
    nothing of a label, from all rows, so training rows keep their codes."""
    t = aml_table(tmp_path, "t.csv", AML_ROWS)
    spec = compute_feature_spec(t, [0, 1])
    assert spec.categories == {"currency": ["USD", "EUR", "GBP"],
                               "payment_format": ["wire", "card"]}
    assert spec.amount_mean == 5.5
    g, _, _ = to_multigraph(t, spec)
    assert g.edge_features[:, 2:].tolist() == [
        [1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 1]]


def test_to_multigraph_maps_categories_by_name(tmp_path):
    """A reordered table numbers its categories otherwise; each row still
    gets the spec's one-hot columns, and the spec's statistics."""
    t = aml_table(tmp_path, "t.csv", AML_ROWS)
    spec = compute_feature_spec(t, [0, 1])
    back = aml_table(tmp_path, "back.csv", AML_ROWS[::-1])
    assert back.categories["currency"] == ["GBP", "USD", "EUR"]
    want, _, _ = to_multigraph(t, spec)
    got, _, _ = to_multigraph(back, spec)
    assert np.array_equal(got.edge_features[::-1], want.edge_features)


def test_to_multigraph_refuses_a_value_the_spec_lacks(tmp_path):
    spec = compute_feature_spec(aml_table(tmp_path, "t.csv", AML_ROWS[:3]))
    with pytest.raises(IngestionError,
                       match="currency: row 4 holds 'GBP', a value the "
                             "encoding does not know"):
        to_multigraph(aml_table(tmp_path, "u.csv", AML_ROWS), spec)


def test_to_multigraph_refuses_other_categorical_columns(tmp_path):
    spec = compute_feature_spec(aml_table(tmp_path, "t.csv", AML_ROWS))
    t = make_table(5)
    with pytest.raises(IngestionError, match=r"categorical columns \[\] are "
                       r"not the encoding's \['currency', 'payment_format'\]"):
        to_multigraph(t, spec)


@pytest.mark.parametrize("entries", [
    dict(ts_mean=float("nan")), dict(amount_mean=float("inf")),
    dict(ts_std=0.0), dict(amount_std=-1.0), dict(ts_std=float("inf")),
    dict(categories={"currency": ("USD",)}),
    dict(categories={"currency": ["USD", "USD"]}),
    dict(categories={"currency": [None]}),
], ids=["nan-mean", "inf-mean", "zero-std", "negative-std", "inf-std",
        "tuple", "repeated-value", "not-a-string"])
def test_feature_spec_rejects_what_cannot_encode(entries):
    fields = dict(ts_mean=0.0, ts_std=1.0, amount_mean=0.0, amount_std=1.0)
    FeatureSpec(**fields)
    with pytest.raises(IngestionError, match="feature spec"):
        FeatureSpec(**{**fields, **entries})


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
    k = supp.by_pair.key[0]
    _, order, offsets = supp.by_pair
    group = order[offsets[k]:offsets[k + 1]]
    assert sorted(s.edge_map.tolist()) == sorted(group.tolist())


def test_sampler_large_cap_is_full_neighborhood():
    g, _ = generate_planted_task(10, 2, 2, "max_of_sums", seed=0)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=3)
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
    # node 3 keeps the walk from every node
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=1)
    assert s.node_map.tolist() == [0, 1, 2]
    assert s.edge_map.tolist() == [0, 1]
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=2)
    assert s.edge_map.tolist() == [0, 1, 2]


def test_sampler_lists_in_neighbours_first():
    # node 0 sends to 1 and 3 and receives from 2 and 4; node 5 is isolated
    g = Multigraph(6, np.ones((6, 1)), [(0, 3), (2, 0), (0, 1), (4, 0), (2, 0)],
                   np.arange(5.0)[:, None])
    supp = build_support_index(g)
    s = sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[0], hops=1)
    assert s.node_map.tolist() == [0, 2, 4, 3, 1]
    assert s.edge_map.tolist() == [0, 1, 2, 3, 4]


def test_sampler_keeps_every_neighbour_of_a_hub():
    """A view takes every distinct neighbour, however many: a hub's 150
    in-neighbours, each with two parallel edges, all stay in its 1-hop view."""
    senders = np.repeat(np.arange(1, 151), 2)
    g = Multigraph(152, np.ones((152, 1)),
                   np.column_stack([senders, np.zeros_like(senders)]),
                   np.ones((300, 1)))
    supp = build_support_index(g)
    s = sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[0], hops=1)
    assert s.graph is not g           # node 151 is never reached
    assert s.node_map.tolist() == list(range(151))
    assert s.edge_map.tolist() == list(range(300))
    assert build_support_index(s.graph).num_pairs == 150


@pytest.mark.parametrize("seeds", [dict(seed_nodes=[-1]), dict(seed_nodes=[3]),
                                   dict(seed_nodes=[0, 5]),
                                   dict(seed_edges=[-1]), dict(seed_edges=[2]),
                                   dict(seed_nodes=[0], seed_edges=[0, -2])])
def test_sampler_rejects_seeds_out_of_range(seeds):
    g = Multigraph(3, np.ones((3, 1)), [(0, 1), (1, 2)], np.ones((2, 1)))
    supp = build_support_index(g)
    with pytest.raises(GraphError, match="seed (node|edge) out of range"):
        sample_neighborhood(g, supp, build_reverse_index(g, supp), **seeds)


def test_sampler_rejects_negative_hops():
    g = Multigraph(3, np.ones((3, 1)), [(0, 1), (1, 2)], np.ones((2, 1)))
    supp = build_support_index(g)
    with pytest.raises(ConfigError, match="hops must be at least 0"):
        sample_neighborhood(g, supp, build_reverse_index(g, supp),
                            seed_nodes=[0], hops=-3)


def test_sampler_keeps_parallel_groups_whole():
    g, _ = generate_planted_task(30, 3, 4, "max_of_sums", seed=2)
    supp = build_support_index(g)
    rev = build_reverse_index(g, supp)
    s = sample_neighborhood(g, supp, rev, seed_nodes=[0], hops=2)
    assert s.graph is not g
    kept = set(s.edge_map.tolist())
    _, order, offsets = supp.by_pair
    for k in kept:
        s_k = supp.by_pair.key[k]
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
    # an unknown name is the same error from the generator and the oracle
    g, labels = generate_planted_task(10, 2, 2, "max_of_sums", seed=0)
    with pytest.raises(ConfigError, match="unknown planted task 'nonsense'"):
        generate_planted_task(10, 2, 2, "nonsense", seed=0)
    with pytest.raises(ConfigError, match="unknown planted task 'nonsense'"):
        brute_force_planted_labels(g, labels >= 0, "nonsense")
    with pytest.raises(ConfigError):
        generate_planted_task(10, 1, 2, "max_of_sums", seed=0)
    with pytest.raises(ConfigError):
        generate_planted_task(10, 2, 1, "max_of_sums", seed=0)


@pytest.mark.parametrize("task", sorted(PLANTED_TASKS))
def test_planted_task_runs_its_oracle_once(monkeypatch, task):
    generate, oracle = PLANTED_TASKS[task]
    calls = []

    def counted(g, labeled):
        calls.append(labeled)
        return oracle(g, labeled)

    monkeypatch.setitem(PLANTED_TASKS, task, (generate, counted))
    g, labels = generate_planted_task(40, 3, 2, task, seed=1)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.flatnonzero(labels >= 0))

    def flipped(g, labeled):
        return 1 - oracle(g, labeled)

    monkeypatch.setitem(PLANTED_TASKS, task, (generate, flipped))
    with pytest.raises(AssertionError, match="oracle disagrees"):
        generate_planted_task(40, 3, 2, task, seed=1)


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
