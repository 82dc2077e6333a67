import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meganet.agg import (
    AggError,
    AggSpec,
    GroupedFeatures,
    pna_scalers,
    reduce_or_default_with_vjp,
    scatter_add,
    segment_reduce,
    segment_reduce_with_vjp,
)
from meganet.graph import Groups, build_groups

KINDS = ("sum", "mean", "max", "min", "std")
# the PNA block's statistics, in column order
PNA_STATS = ("mean", "max", "min", "std")


def grouped(rows, offsets):
    """Rows already in group order, group g spanning offsets[g]:offsets[g+1]."""
    sizes = np.diff(offsets)
    keys = np.repeat(np.arange(sizes.size), sizes)
    return GroupedFeatures(np.array(rows, dtype=np.float64),
                           build_groups(keys, sizes.size))


def dense(scale, dtype=np.float64):
    """The [G, width] matrix a DegreeScale stands for: each bucket's scaler
    row on its groups, zeros on a group in no bucket."""
    out = np.zeros((scale.num_groups, scale.width), dtype=dtype)
    for gids, u in scale.buckets:
        out[gids] = u
    return out


def expand(stats, scale):
    """The nominal block a reduction's (stats, scale) stands for: stats, or
    under PNA every statistic under every degree scaler, scaler-major."""
    if scale is None:
        return stats
    s = dense(scale, stats.dtype)
    return (stats[:, None, :] * s[:, :, None]).reshape(len(stats), -1)


def fold(gblock, scale):
    """The gradient of stats from the gradient of expand(stats, scale)."""
    if scale is None:
        return gblock
    s = dense(scale, gblock.dtype)
    per_scaler = gblock.reshape(*s.shape, -1)
    return (per_scaler * s[:, :, None]).sum(axis=1)


def reduce_or_default(spec, gf):
    """The nominal block of reduce_or_default_with_vjp."""
    out, _ = reduce_or_default_with_vjp(spec, gf)
    return expand(*out)


def naive_reduce(kind, gf):
    """Per-group python loop over rows selected by key, the independent
    oracle; an empty group gives zeros."""
    out = []
    for g in range(gf.groups.num_groups):
        block = gf.values[gf.groups.key == g]
        if block.shape[0] == 0:
            out.append(np.zeros(gf.values.shape[1]))
        elif kind == "sum":
            out.append(block.sum(axis=0))
        elif kind == "mean":
            out.append(block.mean(axis=0))
        elif kind == "max":
            out.append(block.max(axis=0))
        elif kind == "min":
            out.append(block.min(axis=0))
        elif kind == "std":
            out.append(block.std(axis=0))
    return np.array(out)


def test_spec_validation():
    with pytest.raises(AggError):
        AggSpec("median")
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(AggError, match="positive and finite"):
            AggSpec("pna", mean_log_degree=bad)


def test_out_width():
    assert AggSpec("sum").out_width(3) == 3
    assert AggSpec("pna").out_width(3) == 3 * 4 * 3


def test_grouped_features_validation():
    ok = Groups(np.array([1, 0]), np.array([1, 0]), np.array([0, 1, 2]))
    GroupedFeatures(np.ones((2, 1)), ok)
    bad = [
        (np.ones(2), ok),                                  # values not 2-d
        (np.ones((3, 1)), ok),                             # key, order short
        (np.ones((2, 1)), ok._replace(key=np.array([0]))),
        (np.ones((2, 1)), ok._replace(order=np.array([0]))),
        (np.ones((2, 1)), ok._replace(offsets=np.array([1, 1, 2]))),
        (np.ones((2, 1)), ok._replace(offsets=np.array([0, 1, 1]))),
        (np.ones((2, 1)), ok._replace(offsets=np.array([0, 2, 1, 2]))),
        (np.ones((2, 1)), ok._replace(offsets=np.array([[0, 2]]))),
        (np.ones((2, 1)), np.array([0, 1, 2])),            # bare offsets
    ]
    for values, groups in bad:
        with pytest.raises(AggError):
            GroupedFeatures(values, groups)


def test_sum_simple():
    gf = grouped([[1, 2], [3, 4]], [0, 2])
    assert segment_reduce(AggSpec("sum"), gf).tolist() == [[4, 6]]


def test_singleton_group_identity():
    gf = grouped([[7, -2]], [0, 1])
    for kind in ("sum", "mean", "max", "min"):
        assert segment_reduce(AggSpec(kind), gf).tolist() == [[7, -2]]
    assert segment_reduce(AggSpec("std"), gf).tolist() == [[0, 0]]


def test_std_zero_variance():
    gf = grouped([[2], [2], [2]], [0, 3])
    assert segment_reduce(AggSpec("std"), gf).tolist() == [[0]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_std_of_nearly_equal_values(dtype):
    # E[v^2] - mean^2 cancels here: 0.0 at float32, 1.2e-4 off at float64
    values = np.array([[1000.001], [1000.0], [1000.0005]], dtype=dtype)
    gf = GroupedFeatures(values, build_groups(np.zeros(3), 1))
    got = segment_reduce(AggSpec("std"), gf)
    assert got.dtype == dtype
    np.testing.assert_allclose(got[0, 0], np.std(values),
                               rtol=1e-3 if dtype == np.float32 else 1e-9)


def test_pna_identity_scaler_layout():
    # stats over {1, 3}: mean 2, max 3, min 1, std 1
    gf = grouped([[1], [3]], [0, 2])
    assert segment_reduce(AggSpec("pna"), gf)[:, :4].tolist() == [[2, 3, 1, 1]]


def test_pna_scaler_values():
    amp, att = pna_scalers(np.array([1.0]), np.log(2.0))
    assert amp[0] == pytest.approx(1.0) and att[0] == pytest.approx(1.0)
    amp, att = pna_scalers(np.array([3.0]), np.log(2.0))
    assert amp[0] == pytest.approx(2.0) and att[0] == pytest.approx(0.5)
    with pytest.raises(AggError):
        pna_scalers(np.array([0.0]), 1.0)


def test_pna_full_block_against_manual():
    gf = grouped([[1], [3]], [0, 2])
    spec = AggSpec("pna", mean_log_degree=np.log(3.0))
    (stats, scale), _ = segment_reduce_with_vjp(spec, gf)
    assert stats.tolist() == [[2.0, 3.0, 1.0, 1.0]]
    amp = np.log(3.0) / np.log(3.0)
    assert np.allclose(dense(scale), [[1.0, amp, 1.0 / amp]])
    expected = np.concatenate([stats[0], stats[0] * amp, stats[0] / amp])
    assert np.allclose(expand(stats, scale)[0], expected)


def test_pna_scales_by_group_size():
    gf = grouped([[1], [3], [2], [2], [2], [2], [2]], [0, 7])
    spec = AggSpec("pna", mean_log_degree=np.log(2.0))
    (stats, scale), _ = segment_reduce_with_vjp(spec, gf)
    assert stats.shape == (1, 4) and dense(scale).shape == (1, 3)
    assert dense(scale)[0, 1] == pytest.approx(np.log(8.0) / np.log(2.0))
    # the amplified block's mean column
    assert (expand(stats, scale)[0, 4]
            == pytest.approx(2.0 * np.log(8.0) / np.log(2.0)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_equivalence(data):
    kind = data.draw(st.sampled_from(KINDS))
    d = data.draw(st.integers(1, 4))
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    values = rng.normal(size=(sum(sizes), d))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    gf = grouped(values, offsets)
    got = segment_reduce(AggSpec(kind), gf)
    want = naive_reduce(kind, gf)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def naive_pna(spec, gf):
    """PNA block from the naive statistics and each group's size."""
    size = np.bincount(gf.groups.key, minlength=gf.groups.num_groups).astype(float)
    stacked = np.concatenate([naive_reduce(s, gf) for s in PNA_STATS], axis=1)
    amp = np.log(np.maximum(size, 1) + 1.0) / spec.mean_log_degree
    return np.concatenate([stacked * s[:, None]
                           for s in (np.ones_like(amp), amp, 1.0 / amp)], axis=1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_equivalence_rows_in_place(data):
    """Random keys: a group's rows are interleaved with other groups' rows
    and out of order, and some groups are empty (reduced to zeros)."""
    kind = data.draw(st.sampled_from(KINDS + ("pna",)))
    d = data.draw(st.integers(1, 3))
    num_groups = data.draw(st.integers(1, 6))
    keys = np.array(data.draw(st.lists(st.integers(0, num_groups - 1),
                                       max_size=20)), dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    values = rng.normal(size=(keys.size, d))
    gf = GroupedFeatures(values, build_groups(keys, num_groups))
    spec = AggSpec(kind, mean_log_degree=0.8)
    got = reduce_or_default(spec, gf)
    want = naive_pna(spec, gf) if kind == "pna" else naive_reduce(kind, gf)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_within_group_shuffle_invariance(data):
    kind = data.draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    values = rng.normal(size=(sum(sizes), 3))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    shuffled = values.copy()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        shuffled[lo:hi] = shuffled[lo:hi][rng.permutation(hi - lo)]
    a = segment_reduce(AggSpec(kind), grouped(values, offsets))
    b = segment_reduce(AggSpec(kind), grouped(shuffled, offsets))
    if kind in ("max", "min"):
        assert np.array_equal(a, b)
    else:
        assert np.allclose(a, b, rtol=1e-6)


def fd_vjp_check(spec, gf, eps=1e-6):
    """Compare the reduction VJP against finite differences of a probe of
    the statistics (PNA's scale reads only the group sizes)."""
    (out, _), vjp = reduce_or_default_with_vjp(spec, gf)
    rng = np.random.default_rng(0)
    gout = rng.normal(size=out.shape)
    analytic = vjp(gout)
    fd = np.zeros_like(gf.values)
    base = gf.values.copy()

    def stats(values):
        (s, _), _ = reduce_or_default_with_vjp(
            spec, GroupedFeatures(values, gf.groups))
        return s

    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus, minus = base.copy(), base.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            fd[i, j] = ((stats(plus) - stats(minus)) * gout).sum() / (2 * eps)
    assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)


def test_vjp_against_fd_all_kinds():
    rng = np.random.default_rng(42)
    values = rng.normal(size=(9, 2))
    gf = grouped(values, [0, 3, 4, 9])
    for kind in KINDS:
        fd_vjp_check(AggSpec(kind), gf)
    fd_vjp_check(AggSpec("pna", mean_log_degree=0.7), gf)


def test_vjp_against_fd_on_interleaved_rows():
    """Rows of a group scattered and out of order, one group empty."""
    rng = np.random.default_rng(43)
    values = rng.normal(size=(9, 2))
    keys = np.array([2, 0, 3, 0, 2, 3, 0, 3, 3])     # group 1 is empty
    gf = GroupedFeatures(values, build_groups(keys, 4))
    for kind in KINDS:
        fd_vjp_check(AggSpec(kind), gf)
    fd_vjp_check(AggSpec("pna", mean_log_degree=0.7), gf)


def test_max_vjp_routes_to_lowest_index_on_tie():
    gf = grouped([[5.0], [5.0], [1.0]], [0, 3])
    _, vjp = segment_reduce_with_vjp(AggSpec("max"), gf)
    gv = vjp(np.array([[1.0]]))
    assert gv.tolist() == [[1.0], [0.0], [0.0]]


@pytest.mark.parametrize("kind, tie", [("max", 5.0), ("min", -5.0)])
def test_tie_between_non_adjacent_rows_routes_to_lower_row(kind, tie):
    # group 1 holds rows 1, 3 and 4, interleaved with the others; 1 and 4 tie
    values = np.array([[0.0], [tie], [9.0], [0.0], [tie]])
    values[3] = -tie
    gf = GroupedFeatures(values, build_groups([0, 1, 2, 1, 1], 3))
    (out, _), vjp = segment_reduce_with_vjp(AggSpec(kind), gf)
    assert out[1, 0] == tie
    gv = vjp(np.array([[0.0], [1.0], [0.0]]))
    assert gv[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


# -- the bincount / reduceat kernel the size buckets replaced, kept as the
# reference: forward outputs must match it bit for bit ---------------------

def reference_scatter_add(values, index, num_rows):
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=num_rows * d).reshape(num_rows, d)


def reference_stat(stat, gf):
    v = gf.values
    key, order, offsets = gf.groups
    num_groups = gf.groups.num_groups
    counts = gf.groups.counts.astype(np.float64)
    if stat == "sum":
        return reference_scatter_add(v, key, num_groups), lambda g: g[key]
    if stat == "mean":
        out = reference_scatter_add(v, key, num_groups) / counts[:, None]
        return out, lambda g: g[key] / counts[key][:, None]
    if stat in ("max", "min"):
        ufunc = np.maximum if stat == "max" else np.minimum
        starts = offsets[:-1]
        out = ufunc.reduceat(v[order], starts, axis=0)

        def vjp(g):
            hit = np.where((v == out[key])[order], order[:, None], v.shape[0])
            first = np.minimum.reduceat(hit, starts, axis=0)
            gv = np.zeros_like(v)
            gv[first, np.arange(v.shape[1])] = g
            return gv

        return out, vjp
    mean = reference_scatter_add(v, key, num_groups) / counts[:, None]
    dev = v - mean[key]
    out = np.sqrt(reference_scatter_add(dev * dev, key, num_groups) / counts[:, None])

    def vjp(g):
        safe = np.where(out > 1e-12, out, 1.0)
        gvar = np.where(out > 1e-12, g / (2.0 * safe), 0.0)
        return 2.0 * (v - mean[key]) * gvar[key] / counts[key][:, None]

    return out, vjp


def reference_segment_reduce(spec, gf):
    if spec.kind != "pna":
        return reference_stat(spec.kind, gf)
    blocks, vjps = zip(*(reference_stat(s, gf) for s in PNA_STATS))
    stacked = np.concatenate(blocks, axis=1)
    amp, att = pna_scalers(gf.groups.counts, spec.mean_log_degree)
    scalers = [np.ones(gf.groups.num_groups), amp, att]
    out = np.concatenate([stacked * s[:, None] for s in scalers], axis=1)
    d, width = gf.values.shape[1], stacked.shape[1]

    def vjp(g):
        gstacked = np.zeros_like(stacked)
        for i, s in enumerate(scalers):
            gstacked += g[:, i * width:(i + 1) * width] * s[:, None]
        gv = np.zeros_like(gf.values)
        for i, stat_vjp in enumerate(vjps):
            gv += stat_vjp(gstacked[:, i * d:(i + 1) * d])
        return gv

    return out, vjp


def reference_reduce_or_default(spec, gf):
    """The non-empty groups renumbered and reduced; empty ones get zeros."""
    key, order, offsets = gf.groups
    counts = gf.groups.counts
    full = np.flatnonzero(counts)
    rank = np.cumsum(counts > 0) - 1
    sub = Groups(rank[key], order, np.append(offsets[full], offsets[-1]))
    reduced, sub_vjp = reference_segment_reduce(
        spec, GroupedFeatures(gf.values, sub))
    out = np.zeros((gf.groups.num_groups, reduced.shape[1]))
    out[full] = reduced
    return out, lambda g: sub_vjp(g[full])


def tie_prone_values(rng, rows, d):
    """Magnitudes from 1e-6 to 1e6, so a changed summation order shows,
    and about a third of the entries small integers, so extremes tie."""
    values = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-6, 7, (rows, d))
    ties = rng.random((rows, d)) < 0.3
    values[ties] = rng.integers(-2, 3, size=ties.sum())
    return values


def layout_keys(name, rng):
    """Group keys of one layout, shuffled so groups interleave; the last
    value is the number of groups."""
    if name == "singletons":
        keys = np.arange(60)
    elif name == "all-size-8":
        keys = np.repeat(np.arange(30), 8)
    elif name == "sizes-1-to-k":
        keys = np.repeat(np.arange(12), np.arange(1, 13))
    elif name == "huge-group-and-singletons":
        keys = np.concatenate([np.zeros(10 ** 4, dtype=np.int64),
                               np.arange(1, 40)])
    else:                                   # "empty-groups": 7 of 20 empty
        keys = np.repeat(np.array([0, 2, 3, 5, 8, 9, 11, 12, 13, 15, 16, 17,
                                   19]), [1, 3, 1, 2, 5, 1, 3, 9, 1, 2, 1, 4, 2])
        return rng.permutation(keys), 20
    return rng.permutation(keys), int(keys.max()) + 1


LAYOUTS = ("singletons", "all-size-8", "sizes-1-to-k",
           "huge-group-and-singletons", "empty-groups")


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_matches_reference_kernel(layout, d):
    rng = np.random.default_rng([LAYOUTS.index(layout), d])
    keys, num_groups = layout_keys(layout, rng)
    gf = GroupedFeatures(tie_prone_values(rng, keys.size, d),
                         build_groups(keys, num_groups))
    for spec in [AggSpec(k) for k in KINDS] + [
            AggSpec("pna", mean_log_degree=0.9),
            AggSpec("pna", mean_log_degree=1.3)]:
        (out, scale), vjp = reduce_or_default_with_vjp(spec, gf)
        assert (scale is None) == (spec.kind != "pna")
        want, want_vjp = reference_reduce_or_default(spec, gf)
        # the statistics are the reference's, so multiplying them out
        # rebuilds its block bit for bit
        assert np.array_equal(expand(out, scale), want), (spec, "forward")
        gout = rng.normal(size=want.shape)
        got, ref = vjp(fold(gout, scale)), want_vjp(gout)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (spec, "vjp")
        if gf.groups.counts.all():
            seg, _ = segment_reduce_with_vjp(spec, gf)
            assert np.array_equal(expand(*seg), want)


@pytest.mark.parametrize("kind, tie", [("max", 5.0), ("min", -5.0)])
def test_tie_routes_to_lowest_row_beside_other_sizes(kind, tie):
    # group 0 is row 6, group 1 rows 0 and 4, group 2 rows 2, 5 and 7,
    # group 3 rows 1, 3, 8 and 9: one group in each of four size buckets
    keys = np.array([1, 3, 2, 3, 1, 2, 0, 2, 3, 3])
    values = np.zeros((10, 2))
    values[[2, 7], 0] = tie               # group 2 ties in column 0
    values[5, 0] = -tie
    values[[3, 8], 1] = tie               # group 3 ties in column 1
    values[[1, 9], 1] = -tie
    gf = GroupedFeatures(values, build_groups(keys, 4))
    (out, _), vjp = segment_reduce_with_vjp(AggSpec(kind), gf)
    assert out[2, 0] == tie and out[3, 1] == tie
    gout = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    want = np.zeros((10, 2))
    # every other group ties at zero and also routes to its lowest row
    want[[6, 0, 2, 1], 0] = gout[:, 0]
    want[[6, 0, 2, 3], 1] = gout[:, 1]
    assert np.array_equal(vjp(gout), want)


def test_vjp_against_fd_across_size_buckets():
    """Groups of sizes 1, 2, 3 and 5, interleaved, and one empty group."""
    rng = np.random.default_rng(44)
    keys = rng.permutation(np.repeat([0, 1, 3, 4], [1, 2, 3, 5]))
    gf = GroupedFeatures(rng.normal(size=(keys.size, 2)), build_groups(keys, 5))
    for kind in KINDS:
        fd_vjp_check(AggSpec(kind), gf)
    fd_vjp_check(AggSpec("pna", mean_log_degree=0.7), gf)


def test_scatter_add_equals_add_at():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(300, 5))
    index = rng.integers(0, 40, size=300)    # repeats, and rows never hit
    ref = np.zeros((50, 5))
    np.add.at(ref, index, values)
    assert np.array_equal(scatter_add(values, build_groups(index, 50)), ref)
    assert (scatter_add(values[:0], build_groups(index[:0], 3)).tolist()
            == [[0.0] * 5] * 3)


SCATTER_LAYOUTS = {
    "every-other-row-unselected": (np.arange(0, 40, 2), 41),
    "one-row-10^4-times": (np.full(10_000, 3), 5),
    "hot-row-and-singletons": (np.concatenate([np.full(10_000, 7),
                                               np.arange(100)]), 120),
    "no-row-selected": (np.zeros(0, dtype=np.int64), 4),
}


@pytest.mark.parametrize("d", [1, 64])
@pytest.mark.parametrize("layout", SCATTER_LAYOUTS)
def test_scatter_add_layouts_equal_add_at(layout, d):
    index, num_rows = SCATTER_LAYOUTS[layout]
    rng = np.random.default_rng(5)
    index = rng.permutation(index)
    values = rng.normal(size=(index.size, d))
    ref = np.zeros((num_rows, d))
    np.add.at(ref, index, values)
    out = scatter_add(values, build_groups(index, num_rows))
    assert np.array_equal(out, ref)
    assert np.array_equal(out, reference_scatter_add(values, index, num_rows))
    assert not out[np.setdiff1d(np.arange(num_rows), index)].any()


def test_reduce_or_default_empty_groups():
    gf = grouped(np.zeros((0, 2)), [0, 0, 0, 0])
    for kind in KINDS + ("pna",):
        (out, scale), vjp = reduce_or_default_with_vjp(AggSpec(kind), gf)
        block = expand(out, scale)
        assert block.shape == (3, AggSpec(kind).out_width(2))
        assert not block.any()
        assert vjp(np.ones(out.shape)).shape == (0, 2)


def test_reduce_or_default_mixed():
    gf = grouped([[1, 1], [3, 5]], [0, 2, 2])
    out = reduce_or_default(AggSpec("sum"), gf)
    assert out.tolist() == [[4, 6], [0, 0]]
    out = reduce_or_default(AggSpec("max"), gf)
    assert out.tolist() == [[3, 5], [0, 0]]


def test_pna_scale_buckets_groups_by_size_and_skips_empty_ones():
    # group sizes 2, 0, 1, 2, 0
    gf = grouped([[1], [2], [3], [4], [5]], [0, 2, 2, 3, 5, 5])
    (_, scale), _ = reduce_or_default_with_vjp(
        AggSpec("pna", mean_log_degree=np.log(2.0)), gf)
    assert (scale.num_groups, scale.width) == (5, 3)
    assert [gids.tolist() for gids, _ in scale.buckets] == [[2], [0, 3]]
    for (_, u), size in zip(scale.buckets, (1, 2)):
        amp = np.log(size + 1.0) / np.log(2.0)
        assert np.allclose(u, [1.0, amp, 1.0 / amp])


def test_composition_separation():
    """Same four payments grouped two ways: single-stage reductions blind,
    max-of-sums separates."""
    g1 = grouped([[5.0], [1.0], [3.0], [4.0]], [0, 2, 4])
    g2 = grouped([[5.0], [3.0], [1.0], [4.0]], [0, 2, 4])
    union1 = grouped([[5.0], [1.0], [3.0], [4.0]], [0, 4])
    union2 = grouped([[5.0], [3.0], [1.0], [4.0]], [0, 4])

    assert segment_reduce(AggSpec("sum"), union1)[0, 0] == 13.0
    assert segment_reduce(AggSpec("sum"), union2)[0, 0] == 13.0
    assert segment_reduce(AggSpec("max"), union1)[0, 0] == 5.0
    assert segment_reduce(AggSpec("max"), union2)[0, 0] == 5.0

    def max_of_sums(gf):
        sums = segment_reduce(AggSpec("sum"), gf)
        return segment_reduce(AggSpec("max"),
                              grouped(sums, [0, len(sums)]))[0, 0]

    assert max_of_sums(g1) == 7.0
    assert max_of_sums(g2) == 8.0


def test_empty_group_rejected_by_segment_reduce():
    gf = grouped([[1.0]], [0, 0, 1])
    with pytest.raises(AggError):
        segment_reduce(AggSpec("mean"), gf)
