import numpy as np
import pytest

from meganet.agg import (
    AggSpec,
    DegreeScale,
    GroupedFeatures,
    reduce_or_default_with_vjp,
    scatter_add,
)
from meganet.graph import build_groups
from meganet.nn import (
    AdamState,
    GatheredConcat,
    Mlp,
    NnError,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    weighted_bce_loss,
)


def finite_difference_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def directional_derivative_fd(fn, x: np.ndarray, direction: np.ndarray,
                              eps: float = 1e-5) -> float:
    d = direction / np.linalg.norm(direction)
    return (fn(x + eps * d) - fn(x - eps * d)) / (2 * eps)


def test_mlp_validation():
    with pytest.raises(NnError):
        Mlp([np.ones((2, 3))], [np.ones(2)])  # bias width mismatch
    with pytest.raises(NnError):
        Mlp([np.ones((2, 3)), np.ones((4, 1))], [np.zeros(3), np.zeros(1)])
    with pytest.raises(NnError):
        init_mlp([3, 4], np.random.default_rng(0), activation="swish")


def test_identity_single_layer():
    m = Mlp([np.eye(3)], [np.zeros(3)], activation="identity")
    x = np.random.default_rng(0).normal(size=(5, 3))
    out, _ = mlp_forward(m, x)
    assert np.allclose(out, x)


def test_relu_all_negative_preactivations():
    m = Mlp([-np.eye(2), np.ones((2, 1))], [np.zeros(2), np.zeros(1)],
            activation="relu")
    out, _ = mlp_forward(m, np.ones((4, 2)))
    assert not out.any()


def test_dropout_noop_in_eval_mode():
    m = init_mlp([3, 8, 2], np.random.default_rng(1), dropout=0.5)
    x = np.random.default_rng(2).normal(size=(6, 3))
    a, _ = mlp_forward(m, x, train_mode=False, dropout_mask_seed=1)
    b, _ = mlp_forward(m, x, train_mode=False, dropout_mask_seed=99)
    assert np.array_equal(a, b)


def test_dropout_deterministic_under_seed():
    m = init_mlp([3, 8, 2], np.random.default_rng(1), dropout=0.5)
    x = np.random.default_rng(2).normal(size=(6, 3))
    a, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=7)
    b, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=7)
    c, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_backward_zero_upstream():
    m = init_mlp([3, 5, 2], np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 3))
    out, cache = mlp_forward(m, x)
    gin, grads = mlp_backward(m, cache, np.zeros_like(out))
    assert not gin.any()
    assert not any(w.any() for w in grads.weights)


def test_init_mlp_without_arena_owns_zeroed_grads():
    m = init_mlp([3, 5, 2], np.random.default_rng(0))
    assert [g.shape for g in m.grads.weights] == [w.shape for w in m.weights]
    assert [g.shape for g in m.grads.biases] == [b.shape for b in m.biases]
    assert not any(g.any() for g in m.grads.weights + m.grads.biases)
    x = np.random.default_rng(1).normal(size=(4, 3))
    out, cache = mlp_forward(m, x)
    _, grads = mlp_backward(m, cache, np.ones_like(out))
    assert grads is m.grads
    assert grads.biases[-1].tolist() == [4.0, 4.0]     # added in place


def test_backward_needs_grads():
    m = Mlp([np.eye(2)], [np.zeros(2)], activation="identity")
    out, cache = mlp_forward(m, np.ones((3, 2)))
    with pytest.raises(NnError, match="gradient"):
        mlp_backward(m, cache, out)


def test_backward_rejects_foreign_cache():
    m1 = init_mlp([2, 2], np.random.default_rng(0))
    m2 = init_mlp([2, 2], np.random.default_rng(1))
    out, cache = mlp_forward(m1, np.ones((1, 2)))
    with pytest.raises(NnError):
        mlp_backward(m2, cache, out)


def test_backward_consumes_its_cache():
    """Backward frees a relu layer's hidden input once its gate is read and
    refuses the cache a second time."""
    import weakref

    m = init_mlp([3, 4, 2], np.random.default_rng(0))
    out, cache = mlp_forward(m, np.random.default_rng(1).normal(size=(5, 3)))
    hidden = weakref.ref(cache["inputs"][1])
    mlp_backward(m, cache, np.ones_like(out))
    assert hidden() is None
    with pytest.raises(NnError, match="cache already consumed by backward"):
        mlp_backward(m, cache, np.ones_like(out))


@pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(3)
    m = init_mlp([4, 6, 5, 2], rng, activation=activation)
    x = rng.normal(size=(7, 4))
    gout = rng.normal(size=(7, 2))

    out, cache = mlp_forward(m, x)
    gin, grads = mlp_backward(m, cache, gout)

    def loss_wrt(arr, setter):
        def fn(v):
            setter(v)
            o, _ = mlp_forward(m, x)
            return float((o * gout).sum())
        return fn

    for li in range(3):
        w = m.weights[li]
        orig = w.copy()
        fd = finite_difference_grad(loss_wrt(w, lambda v, w=w: w.__setitem__(..., v)), w.copy())
        w[...] = orig
        assert np.allclose(grads.weights[li], fd, rtol=1e-4, atol=1e-7), \
            f"weight grads off at layer {li}"
        b = m.biases[li]
        orig = b.copy()
        fd = finite_difference_grad(loss_wrt(b, lambda v, b=b: b.__setitem__(..., v)), b.copy())
        b[...] = orig
        assert np.allclose(grads.biases[li], fd, rtol=1e-4, atol=1e-7)

    # input gradient through a fresh probe
    def fin(v):
        o, _ = mlp_forward(m, v.reshape(7, 4))
        return float((o * gout).sum())
    fd_in = finite_difference_grad(fin, x.ravel().copy()).reshape(7, 4)
    assert np.allclose(gin, fd_in, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("activation", ["gelu", "identity"])
def test_train_mode_dropout_needs_relu(activation):
    """Only relu's gate can be read off the next layer's input."""
    m = init_mlp([3, 8, 2], np.random.default_rng(1), activation=activation,
                 dropout=0.3)
    x = np.random.default_rng(2).normal(size=(6, 3))
    with pytest.raises(NnError, match="relu"):
        mlp_forward(m, x, train_mode=True, dropout_mask_seed=7)
    out, cache = mlp_forward(m, x, train_mode=False, dropout_mask_seed=7)
    gin, _ = mlp_backward(m, cache, np.ones_like(out))
    assert gin.shape == x.shape
    m.dropout = 0.0
    a, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=7)
    assert np.array_equal(a, out)


def test_dropout_backward_exact_for_realized_mask():
    rng = np.random.default_rng(5)
    m = init_mlp([3, 8, 1], rng, activation="relu", dropout=0.4)
    x = rng.normal(size=(5, 3))
    out, cache = mlp_forward(m, x, train_mode=True, dropout_mask_seed=11)
    assert not np.array_equal(out, mlp_forward(m, x)[0])   # a mask was drawn
    gout = np.ones_like(out)
    _, grads = mlp_backward(m, cache, gout)

    w = m.weights[0]
    eps = 1e-6
    fd = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            orig = w[i, j]
            w[i, j] = orig + eps
            fp, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=11)
            w[i, j] = orig - eps
            fm, _ = mlp_forward(m, x, train_mode=True, dropout_mask_seed=11)
            w[i, j] = orig
            fd[i, j] = (fp.sum() - fm.sum()) / (2 * eps)
    assert np.allclose(grads.weights[0], fd, rtol=1e-4, atol=1e-7)


def gathered_parts(rng):
    """Three parts of 6 rows: indices repeat, skip rows and run out of order."""
    return [(rng.normal(size=(4, 3)), build_groups([3, 0, 0, 1, 3, 1], 4)),
            (rng.normal(size=(6, 2)), None),
            (rng.normal(size=(5, 2)), build_groups([4, 2, 2, 0, 1, 4], 5))]


def built(parts):
    return np.concatenate([p if i is None else p[i.key] for p, i in parts],
                          axis=1)


@pytest.mark.parametrize("activation", ["relu", "gelu"])
def test_gathered_concat_equals_built_input(activation):
    rng = np.random.default_rng(8)
    # train-mode dropout needs relu; gelu runs without it
    dropout = 0.3 if activation == "relu" else 0.0
    m = init_mlp([7, 6, 3], rng, activation=activation, dropout=dropout)
    parts = gathered_parts(rng)
    assert GatheredConcat(*parts).shape == (6, 7)
    for train in (False, True):
        a, _ = mlp_forward(m, GatheredConcat(*parts), train, 5)
        b, _ = mlp_forward(m, built(parts), train, 5)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("activation", ["relu", "gelu"])
def test_gathered_concat_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(9)
    # train-mode dropout needs relu; gelu runs without it
    dropout = 0.3 if activation == "relu" else 0.0
    m = init_mlp([7, 6, 3], rng, activation=activation, dropout=dropout)
    parts = gathered_parts(rng)
    gout = rng.normal(size=(6, 3))

    def loss(_):
        # finite_difference_grad perturbs the probed array in place
        out, _ = mlp_forward(m, GatheredConcat(*parts), True, 5)
        return float((out * gout).sum())

    _, cache = mlp_forward(m, GatheredConcat(*parts), True, 5)
    gparts, grads = mlp_backward(m, cache, gout)
    assert [g.shape for g in gparts] == [p.shape for p, _ in parts]
    assert not gparts[0][2].any() and not gparts[2][3].any()   # unselected
    probes = ([(p, g) for (p, _), g in zip(parts, gparts)]
              + list(zip(m.weights, grads.weights))
              + list(zip(m.biases, grads.biases)))
    for arr, got in probes:
        fd = finite_difference_grad(loss, arr)
        assert np.allclose(got, fd, rtol=1e-4, atol=1e-7)


def degree_scale(bucket_of, width, rng):
    """A DegreeScale in which row r lies in bucket bucket_of[r] (-1: in
    none); each bucket's scaler row is drawn positive and negative."""
    bucket_of = np.asarray(bucket_of)
    return DegreeScale(bucket_of.size, width, tuple(
        (np.flatnonzero(bucket_of == b), rng.normal(size=width))
        for b in np.unique(bucket_of[bucket_of >= 0])))


def dense(scale, dtype=np.float64):
    """The [rows, width] matrix a DegreeScale stands for."""
    out = np.zeros((scale.num_groups, scale.width), dtype=dtype)
    for gids, u in scale.buckets:
        out[gids] = u
    return out


def scaled_parts(rng):
    """A scaled part with a Groups index, a plain part and a scaled part
    without an index, 6 rows each. Each scaled part has several buckets
    and a row in no bucket: row 1 of the first, which its index selects
    twice, and row 3 of the last."""
    return [(rng.normal(size=(4, 3)), build_groups([3, 0, 0, 1, 3, 1], 4),
             degree_scale([0, -1, 1, 0], 3, rng)),
            (rng.normal(size=(6, 2)), None),
            (rng.normal(size=(6, 2)), None,
             degree_scale([0, 1, 0, -1, 2, 1], 2, rng))]


def expand(p, scale):
    """The blocks p * S[:, j] side by side, S the matrix scale stands for."""
    s = dense(scale, p.dtype)
    return (p[:, None, :] * s[:, :, None]).reshape(len(p), -1)


def fold(gblock, scale):
    """The gradient of p from the gradient of expand(p, scale)."""
    s = dense(scale, gblock.dtype)
    return (gblock.reshape(*s.shape, -1) * s[:, :, None]).sum(1)


def expanded(parts):
    """Each scaled part as the plain part of its blocks."""
    return [(part[0] if len(part) == 2 else expand(part[0], part[2]),
             part[1]) for part in parts]


@pytest.mark.parametrize("activation", ["relu", "gelu"])
def test_scaled_part_equals_built_blocks(activation):
    """Outputs, weight gradients and per-part gradients equal those of the
    explicitly built blocks, the latter folded back through the scales."""
    rng = np.random.default_rng(10)
    dropout = 0.3 if activation == "relu" else 0.0
    parts = scaled_parts(rng)
    assert GatheredConcat(*parts).shape == (6, 9 + 2 + 4)
    gout = rng.normal(size=(6, 3))
    got = {}
    for name, x in (("scaled", GatheredConcat(*parts)),
                    ("built", GatheredConcat(*expanded(parts)))):
        m = init_mlp([15, 6, 3], np.random.default_rng(11),
                     activation=activation, dropout=dropout)
        out, cache = mlp_forward(m, x, True, 5)
        gparts, grads = mlp_backward(m, cache, gout)
        eval_out, _ = mlp_forward(m, x, False)
        got[name] = (out, eval_out, gparts, grads.weights + grads.biases)
    scaled, built_ = got["scaled"], got["built"]

    def close(a, b):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for a, b in zip(scaled[:2], built_[:2]):
        close(a, b)
    for a, b in zip(scaled[3], built_[3]):
        close(a, b)
    for part, a, b in zip(parts, scaled[2], built_[2]):
        if len(part) == 3:
            b = fold(b, part[2])
        assert a.shape == part[0].shape
        close(a, b)


# group sizes of a PNA reduction: one size, so one bucket that covers
# every row; several sizes; and empty groups, which lie in no bucket
DEGREE_LAYOUTS = {"one-degree": [3] * 6,
                  "several-degrees": [1, 4, 2, 1, 3, 2, 4, 1],
                  "empty-groups": [0, 2, 0, 0, 1, 2, 0, 3]}


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
@pytest.mark.parametrize("layout", DEGREE_LAYOUTS)
def test_folded_degree_scalers_equal_built_block(layout, dtype, rtol):
    """A PNA reduction's (statistics, scale) part, folded per degree, gives
    the outputs and gradients of its explicitly built 12·d block."""
    rng = np.random.default_rng(14)
    sizes = np.array(DEGREE_LAYOUTS[layout])
    d = 2
    gf = GroupedFeatures(rng.normal(size=(sizes.sum(), d)).astype(dtype),
                         build_groups(np.repeat(np.arange(sizes.size), sizes),
                                      sizes.size))
    (stats, scale), _ = reduce_or_default_with_vjp(
        AggSpec("pna", mean_log_degree=1.1), gf)
    in_bucket = sum(gids.size for gids, _ in scale.buckets)
    assert len(scale.buckets) == len(set(sizes) - {0})
    assert in_bucket == np.count_nonzero(sizes)
    dims = [12 * d, 6, 3]
    gout = rng.normal(size=(sizes.size, 3)).astype(dtype)
    got = {}
    for name, x in (("folded", GatheredConcat((stats, None, scale))),
                    ("built", expand(stats, scale))):
        size = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
        m = init_mlp(dims, np.random.default_rng(15), "relu", 0.3,
                     arena=(np.empty(size, dtype), np.zeros(size, dtype)))
        out, cache = mlp_forward(m, x, True, 5)
        gx, grads = mlp_backward(m, cache, gout)
        eval_out, _ = mlp_forward(m, x, False)
        gx = gx[0] if name == "folded" else fold(gx, scale)
        got[name] = [out, eval_out, gx] + grads.weights + grads.biases
    for a, b in zip(got["folded"], got["built"]):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grouped", [False, True])
def test_one_column_part_equals_matmul(dtype, grouped):
    """A one-column part is multiplied by broadcast; its output and
    gradients equal those of the matmul p @ w bit for bit."""
    rng = np.random.default_rng(16)
    p = rng.normal(size=(5, 1)).astype(dtype)
    i = build_groups([4, 0, 0, 2, 4, 1, 3], 5) if grouped else None
    m = init_mlp([1, 8], rng, "identity",
                 arena=(np.empty(16, dtype), np.zeros(16, dtype)))
    m.biases[0][...] = rng.normal(size=8)
    w, b = m.weights[0], m.biases[0]
    out, cache = mlp_forward(m, GatheredConcat((p, i)))
    want = p @ w if i is None else (p @ w)[i.key]
    want += b
    assert out.dtype == dtype and np.array_equal(out, want)
    g = rng.normal(size=out.shape).astype(dtype)
    (gp,), grads = mlp_backward(m, cache, g)
    gs = g if i is None else scatter_add(g, i)
    assert np.array_equal(grads.weights[0], p.T @ gs)
    assert np.array_equal(gp, gs @ w.T)


def test_scaled_part_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    m = init_mlp([15, 6, 3], rng, activation="gelu")
    parts = scaled_parts(rng)
    gout = rng.normal(size=(6, 3))

    def loss(_):
        out, _ = mlp_forward(m, GatheredConcat(*parts), True, 5)
        return float((out * gout).sum())

    _, cache = mlp_forward(m, GatheredConcat(*parts), True, 5)
    gparts, grads = mlp_backward(m, cache, gout)
    assert not gparts[0][2].any()                 # row 2 is never selected
    assert not gparts[0][1].any() and not gparts[2][3].any()   # no bucket
    probes = ([(part[0], g) for part, g in zip(parts, gparts)]
              + list(zip(m.weights, grads.weights))
              + list(zip(m.biases, grads.biases)))
    for arr, got in probes:
        fd = finite_difference_grad(loss, arr)
        assert np.allclose(got, fd, rtol=1e-4, atol=1e-7)


def test_gathered_concat_rejects_bad_parts():
    with pytest.raises(NnError, match="row counts"):
        GatheredConcat((np.ones((3, 2)), None), (np.ones((4, 2)), None))
    with pytest.raises(NnError, match="row counts"):
        GatheredConcat((np.ones((5, 2)), build_groups([0, 1], 5)),
                       (np.ones((3, 2)), None))
    with pytest.raises(NnError):
        GatheredConcat((np.ones(3), None))
    with pytest.raises(NnError, match="Groups"):        # a bare row index
        GatheredConcat((np.ones((5, 2)), np.array([0, 1])))
    m = init_mlp([4, 2], np.random.default_rng(0))
    with pytest.raises(NnError, match="width"):
        mlp_forward(m, GatheredConcat((np.ones((3, 2)), None),
                                      (np.ones((3, 3)), None)))


def test_gathered_concat_rejects_bad_scales():
    rng = np.random.default_rng(0)
    with pytest.raises(NnError, match="scale"):         # over other rows
        GatheredConcat((np.ones((5, 2)), None, degree_scale([0] * 4, 3, rng)))
    with pytest.raises(NnError, match="scale"):         # a per-row matrix
        GatheredConcat((np.ones((5, 2)), None, np.ones((5, 3))))


def test_bce_loss_values():
    loss, _ = weighted_bce_loss(np.zeros(4), np.array([0, 1, 0, 1]))
    assert loss == pytest.approx(np.log(2.0))
    # weights scale per-class contributions
    loss_w, _ = weighted_bce_loss(np.zeros(2), np.array([0, 1]), (1.0, 3.0))
    assert loss_w == pytest.approx((1.0 + 3.0) * np.log(2.0) / 2)


def test_bce_loss_extreme_logits_stable():
    loss, grad = weighted_bce_loss(np.array([500.0, -500.0]), np.array([1, 0]))
    assert np.isfinite(loss) and loss < 1e-9
    assert np.isfinite(grad).all()


def test_bce_grad_matches_fd():
    rng = np.random.default_rng(7)
    z = rng.normal(size=12)
    y = rng.integers(0, 2, size=12)
    _, grad = weighted_bce_loss(z, y, (1.0, 6.27))
    fd = finite_difference_grad(
        lambda v: weighted_bce_loss(v, y, (1.0, 6.27))[0], z.copy())
    assert np.allclose(grad, fd, atol=1e-6)


def test_bce_validation():
    with pytest.raises(NnError):
        weighted_bce_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(NnError):
        weighted_bce_loss(np.array([np.inf]), np.array([1]))
    with pytest.raises(NnError):
        weighted_bce_loss(np.zeros(1), np.zeros(1), (0.0, 1.0))


def test_adam_zero_grad_near_noop():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    out = adam_step(params, np.zeros(3), state, 0.1)
    assert out is params                 # updated in place
    assert np.allclose(out, [1.0, -2.0, 3.0], atol=1e-12)


def test_adam_first_step_is_signed_lr():
    params = np.zeros(3)
    grads = np.array([0.5, -2.0, 1e-3])
    state = AdamState.zeros(3)
    out = adam_step(params, grads, state, 0.1)
    # bias correction makes the first step lr * sign(grad) up to eps effects
    assert np.allclose(out, -0.1 * np.sign(grads), rtol=1e-4)


def test_adam_converges_on_quadratic():
    params = np.array([5.0, -3.0])
    state = AdamState.zeros(2)
    for _ in range(800):
        params = adam_step(params, 2 * params, state, 0.05)
    assert np.abs(params).max() < 1e-2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_updates_in_place_as_the_formula_rounds(dtype):
    """adam_step writes params, m and v in place, and each equals, bit for
    bit, the out-of-place formula it rounds like."""
    def formula(params, grads, state, lr):
        state.t += 1
        state.m = 0.9 * state.m + (1 - 0.9) * grads
        state.v = 0.999 * state.v + (1 - 0.999) * grads * grads
        mhat = state.m / (1 - 0.9 ** state.t)
        vhat = state.v / (1 - 0.999 ** state.t)
        return params - lr * mhat / (np.sqrt(vhat) + 1e-8)

    rng = np.random.default_rng(0)
    params = rng.standard_normal(1000).astype(dtype)
    expected, ref = params.copy(), AdamState.zeros(1000, dtype)
    state = AdamState.zeros(1000, dtype)
    m, v = state.m, state.v
    for _ in range(5):
        grads = rng.standard_normal(1000).astype(dtype)
        expected = formula(expected, grads, ref, 0.003)
        assert adam_step(params, grads, state, 0.003) is params
    assert state.m is m and state.v is v and state.t == 5
    for got, want in [(params, expected), (m, ref.m), (v, ref.v)]:
        assert got.dtype == dtype and np.array_equal(got, want)


def test_directional_derivative_helper():
    fn = lambda v: float(v @ v)
    x = np.array([1.0, 2.0])
    d = np.array([1.0, 0.0])
    assert directional_derivative_fd(fn, x, d) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("activation,dropout", [("relu", 0.3), ("gelu", 0.0),
                                                ("identity", 0.0)])
def test_float32_mlp_computes_in_float32(activation, dropout):
    """Weights drawn in float64 and rounded; outputs and gradients float32."""
    dims = [7, 6, 3]
    size = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
    m32 = init_mlp(dims, np.random.default_rng(4), activation, dropout,
                   arena=(np.empty(size, np.float32), np.zeros(size, np.float32)))
    m64 = init_mlp(dims, np.random.default_rng(4), activation, dropout)
    for w32, w64 in zip(m32.weights, m64.weights):
        assert np.array_equal(w32, w64.astype(np.float32))
    parts = gathered_parts(np.random.default_rng(9))
    parts32 = [(p.astype(np.float32), i) for p, i in parts]
    out, cache = mlp_forward(m32, GatheredConcat(*parts32), True, 5)
    want, _ = mlp_forward(m64, GatheredConcat(*parts), True, 5)
    assert out.dtype == np.float32
    assert np.abs(out - want).max() <= 1e-5 * np.abs(want).max()
    gparts, grads = mlp_backward(m32, cache, np.ones(out.shape, np.float32))
    assert {g.dtype for g in gparts} == {np.dtype(np.float32)}
    assert {g.dtype for g in grads.weights + grads.biases} == {np.dtype(np.float32)}


@pytest.mark.parametrize("dropout", [0.1, 0.5])
def test_dropout_keeps_binomial_fraction(dropout):
    """Over 2**20 units the kept count lies within 5 sigma of the binomial."""
    m = init_mlp([1, 1 << 20, 1], np.random.default_rng(0), dropout=dropout)
    m.weights[0][...] = 1.0          # every hidden unit is 1 before dropout
    _, cache = mlp_forward(m, np.ones((1, 1)), train_mode=True,
                           dropout_mask_seed=3)
    kept = int((cache["inputs"][1] > 0).sum())
    n, keep = 1 << 20, 1.0 - dropout
    assert abs(kept - n * keep) <= 5 * np.sqrt(n * keep * dropout)


def test_dropout_just_above_zero_keeps_every_unit():
    """keep * 2**32 rounds up to 2**32; the threshold stays a 32-bit value."""
    m = init_mlp([1, 1 << 16, 1], np.random.default_rng(0), dropout=1e-12)
    m.weights[0][...] = 1.0
    _, cache = mlp_forward(m, np.ones((4, 1)), train_mode=True,
                           dropout_mask_seed=3)
    assert (cache["inputs"][1] > 0).all()


def test_float32_and_float64_mlps_drop_the_same_units():
    dims = [5, 64, 64, 2]
    size = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
    m32 = init_mlp(dims, np.random.default_rng(4), "relu", 0.4,
                   arena=(np.empty(size, np.float32), np.zeros(size, np.float32)))
    m64 = init_mlp(dims, np.random.default_rng(4), "relu", 0.4)
    for m in (m32, m64):
        for w in m.weights:
            np.abs(w, out=w)         # positive units: only dropout zeroes one
    x = np.random.default_rng(2).random((300, 5))
    _, c32 = mlp_forward(m32, x.astype(np.float32), True, 9)
    _, c64 = mlp_forward(m64, x, True, 9)
    for h32, h64 in zip(c32["inputs"][1:], c64["inputs"][1:]):
        assert 0 < (h64 > 0).mean() < 1
        assert np.array_equal(h32 > 0, h64 > 0)
