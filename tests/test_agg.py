import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meganet import agg as agg_mod
from meganet.agg import (
    AggError,
    AggSpec,
    GroupedFeatures,
    pna_scalers,
    reduce_or_default,
    scatter_add,
    segment_reduce,
    segment_reduce_with_vjp,
)

KINDS = ("sum", "mean", "max", "min", "std")


def grouped(rows, offsets):
    return GroupedFeatures(np.array(rows, dtype=np.float64),
                           np.array(offsets, dtype=np.int64))


def naive_reduce(kind, gf):
    """Per-group python loop, the independent oracle."""
    out = []
    for g in range(gf.num_groups):
        block = gf.values[gf.group_offsets[g]:gf.group_offsets[g + 1]]
        if kind == "sum":
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
    with pytest.raises(AggError):
        AggSpec("pna", pna_stats=())
    with pytest.raises(AggError):
        AggSpec("pna", pna_scalers=("bogus",))
    with pytest.raises(AggError):
        AggSpec("pna", mean_log_degree=0.0)


def test_spec_canonicalizes_order():
    spec = AggSpec("pna", pna_stats=("std", "mean"),
                   pna_scalers=("attenuation", "identity"))
    assert spec.pna_stats == ("mean", "std")
    assert spec.pna_scalers == ("identity", "attenuation")


def test_out_width():
    assert AggSpec("sum").out_width(3) == 3
    assert AggSpec("pna").out_width(3) == 3 * 4 * 3
    assert AggSpec("pna", pna_stats=("mean",),
                   pna_scalers=("identity",)).out_width(5) == 5


def test_grouped_features_validation():
    with pytest.raises(AggError):
        grouped([[1.0], [2.0]], [0, 1])  # offsets do not cover rows
    with pytest.raises(AggError):
        grouped([[1.0]], [0, 2, 1])


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


def test_pna_identity_scaler_layout():
    # stats over {1, 3}: mean 2, max 3, min 1, std 1
    gf = grouped([[1], [3]], [0, 2])
    spec = AggSpec("pna", pna_stats=("mean", "max", "min", "std"),
                   pna_scalers=("identity",))
    assert segment_reduce(spec, gf).tolist() == [[2, 3, 1, 1]]


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
    out = segment_reduce(spec, gf)
    stats = np.array([2.0, 3.0, 1.0, 1.0])
    amp = np.log(3.0) / np.log(3.0)
    expected = np.concatenate([stats, stats * amp, stats / amp])
    assert np.allclose(out[0], expected)


def test_pna_external_degrees():
    gf = grouped([[1], [3]], [0, 2])
    spec = AggSpec("pna", pna_stats=("mean",), pna_scalers=("amplification",),
                   mean_log_degree=np.log(2.0))
    out = segment_reduce(spec, gf, degrees=np.array([7]))
    assert out[0, 0] == pytest.approx(2.0 * np.log(8.0) / np.log(2.0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_equivalence(data):
    kind = data.draw(st.sampled_from(KINDS))
    d = data.draw(st.integers(1, 4))
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    values = rng.normal(size=(sum(sizes), d))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    gf = GroupedFeatures(values, offsets)
    got = segment_reduce(AggSpec(kind), gf)
    want = naive_reduce(kind, gf)
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
    a = segment_reduce(AggSpec(kind), GroupedFeatures(values, offsets))
    b = segment_reduce(AggSpec(kind), GroupedFeatures(shuffled, offsets))
    if kind in ("max", "min"):
        assert np.array_equal(a, b)
    else:
        assert np.allclose(a, b, rtol=1e-6)


def fd_vjp_check(spec, gf, degrees=None, eps=1e-6):
    """Compare the reduction VJP against finite differences of a probe."""
    out, vjp = segment_reduce_with_vjp(spec, gf, degrees)
    rng = np.random.default_rng(0)
    gout = rng.normal(size=out.shape)
    analytic = vjp(gout)
    fd = np.zeros_like(gf.values)
    base = gf.values.copy()
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus, minus = base.copy(), base.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            fp = segment_reduce(spec, GroupedFeatures(plus, gf.group_offsets),
                                degrees)
            fm = segment_reduce(spec, GroupedFeatures(minus, gf.group_offsets),
                                degrees)
            fd[i, j] = ((fp - fm) * gout).sum() / (2 * eps)
    assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)


def test_vjp_against_fd_all_kinds():
    rng = np.random.default_rng(42)
    values = rng.normal(size=(9, 2))
    offsets = np.array([0, 3, 4, 9])
    gf = GroupedFeatures(values, offsets)
    for kind in KINDS:
        fd_vjp_check(AggSpec(kind), gf)
    fd_vjp_check(AggSpec("pna", mean_log_degree=0.7), gf)


def test_max_vjp_routes_to_lowest_index_on_tie():
    gf = grouped([[5.0], [5.0], [1.0]], [0, 3])
    _, vjp = segment_reduce_with_vjp(AggSpec("max"), gf)
    gv = vjp(np.array([[1.0]]))
    assert gv.tolist() == [[1.0], [0.0], [0.0]]


def test_scatter_add_equals_add_at():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(300, 5))
    index = rng.integers(0, 40, size=300)    # repeats, and rows never hit
    ref = np.zeros((50, 5))
    np.add.at(ref, index, values)
    assert np.array_equal(scatter_add(values, index, 50), ref)
    assert scatter_add(values[:0], index[:0], 3).tolist() == [[0.0] * 5] * 3


def test_reduce_or_default_empty_groups():
    gf = grouped(np.zeros((0, 2)), [0, 0, 0, 0])
    out = reduce_or_default(AggSpec("mean"), gf, 3)
    assert out.shape == (3, 2)
    assert not out.any()


def test_reduce_or_default_mixed():
    gf = grouped([[1, 1], [3, 5]], [0, 2, 2])
    out = reduce_or_default(AggSpec("sum"), gf, 2)
    assert out.tolist() == [[4, 6], [0, 0]]
    out = reduce_or_default(AggSpec("max"), gf, 2, default=np.array([-1.0, -1.0]))
    assert out.tolist() == [[3, 5], [-1, -1]]


def test_reduce_counter_tracks_rows():
    agg_mod.reset_reduce_counter()
    gf = grouped(np.ones((10, 2)), [0, 4, 10])
    segment_reduce(AggSpec("sum"), gf)
    assert agg_mod.reduce_counter() == 10
    segment_reduce(AggSpec("mean"), gf)
    assert agg_mod.reduce_counter() == 20
    agg_mod.reset_reduce_counter()
    assert agg_mod.reduce_counter() == 0


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
                              GroupedFeatures(sums, [0, len(sums)]))[0, 0]

    assert max_of_sums(g1) == 7.0
    assert max_of_sums(g2) == 8.0


def test_empty_group_rejected_by_segment_reduce():
    gf = grouped([[1.0]], [0, 0, 1])
    with pytest.raises(AggError):
        segment_reduce(AggSpec("mean"), gf)
