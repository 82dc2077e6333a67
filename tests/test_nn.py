import numpy as np
import pytest

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
