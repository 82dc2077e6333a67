"""Dense MLP stack with exact reverse-mode gradients.

An MLP computes in the dtype of its parameters (float32 or float64): its
activations, caches and gradients follow that dtype. init_mlp draws in
float64 and rounds, so the two dtypes start from the same weights. Dropout
keeps a unit when a 32-bit half of a raw generator word falls below
keep * 2^32, a test that reads no float, so the two dtypes drop the same
units. Dropout masks are seeded, so a training
step can be replayed bit-for-bit. The forward cache keeps only the layer inputs
(and gelu's terms): backward reads a hidden layer's ReLU-and-dropout gate
off the next layer's input, so train-mode dropout needs ReLU. Every MLP
built by init_mlp owns gradient arrays that mlp_backward adds into.

An MLP input is a matrix or a GatheredConcat: the column concatenation of
row-gathered parts, such as [x[src] || e || h[edge_to_pair]], left unbuilt.
The first layer multiplies each part by its block of weight rows, over
whichever is fewer: the part's own rows, gathering the product, or the
rows its index selects, gathered first. The backward pass mirrors that
choice, scattering the upstream gradient into the part's rows before its
matmuls or the gathered rows' gradient after them (agg.scatter_add), and
returns one gradient per part. A part's row index is the key of a
graph.Groups, which the scatter adds through, so nothing is grouped
again. A one-column part is multiplied as p * w[lo], a broadcast, equal
to the matmul bit for bit, which numpy runs in a slow loop when the inner
dimension is 1.

A part may also carry an agg.DegreeScale s of width k: it then stands for
the k column blocks p * u_j side by side, u the scaler row of each row's
bucket, as PNA's statistics under its degree scalers do. The first layer
multiplies each bucket's rows of p once by the folded weights
W_d = Σ_j u_j W_j, and the backward adds u_j (p_d.T @ g_d) into weight
block j and returns g_d @ W_d.T, so the k-fold wide block, and a k-fold
wide product, are never built. A scaled part is multiplied over its own
rows, then gathered. A bucket that covers every row multiplies p whole;
rows in no bucket (empty groups, whose statistics are zeros) are
multiplied by nothing. Folding reorders the sums of the wide product, so
a scaled part agrees with the built block to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .agg import DegreeScale, as_float_array, scatter_add
from .graph import Groups

_ACTIVATIONS = ("relu", "gelu", "identity")


class NnError(ValueError):
    pass


@dataclass
class Mlp:
    """Fully connected layer stack; activation applied between layers only."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    dropout: float = 0.0
    # mlp_backward adds into these (init_mlp sets them)
    grads: ParamGrads | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise NnError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise NnError("dropout must be in [0, 1)")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise NnError("weights and biases must be non-empty and aligned")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise NnError(f"layer {i} parameter shapes are inconsistent")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise NnError(f"layer {i} input width mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NnError(f"layer {i} has non-finite parameters")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def mlp_size(layer_dims: list[int]) -> int:
    """Number of weights and biases of an MLP with these widths."""
    return sum((din + 1) * dout
               for din, dout in zip(layer_dims[:-1], layer_dims[1:]))


def init_mlp(
    layer_dims: list[int],
    rng: np.random.Generator,
    activation: str = "relu",
    dropout: float = 0.0,
    arena: tuple[np.ndarray, np.ndarray] | None = None,
) -> Mlp:
    """He-scaled random init.

    arena is an optional (params, grads) pair of flat arrays with
    mlp_size(layer_dims) entries each: the weights, then the biases, become
    views into params, and m.grads the matching views into grads. Without
    one, both are fresh float64 arrays and the gradients start at zero. The
    weights are drawn in float64 and rounded to the arena's dtype.
    """
    if len(layer_dims) < 2:
        raise NnError("need at least input and output widths")
    size = mlp_size(layer_dims)
    params, grads = arena or (np.empty(size), np.zeros(size))
    shapes = list(zip(layer_dims[:-1], layer_dims[1:]))
    shapes += [(dout,) for _, dout in shapes]
    bounds = list(accumulate((math.prod(s) for s in shapes), initial=0))

    def views(flat):
        return [flat[lo:hi].reshape(s)
                for s, lo, hi in zip(shapes, bounds, bounds[1:])]

    k = len(layer_dims) - 1
    p = views(params)
    for w in p[:k]:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / max(w.shape[0], 1))
    for b in p[k:]:
        b[...] = 0.0
    g = views(grads)
    return Mlp(p[:k], p[k:], activation=activation, dropout=dropout,
               grads=ParamGrads(g[:k], g[k:]))


@dataclass
class ParamGrads:
    """Gradient accumulator shaped like an Mlp's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


class GatheredConcat:
    """np.concatenate([expand(p, s) if i is None else expand(p, s)[i.key]
    for p, i, s in parts], axis=1), unbuilt.

    Each part is (p, i) or (p, i, s). p is a 2-d array. i is None, which
    takes every row in order, or a graph.Groups over p's rows, whose key
    is the row index. s is None, or an agg.DegreeScale over p's rows, for
    which expand(p, s) is the s.width blocks p * S[:, j] side by side, S
    the matrix s stands for; expand(p, None) is p. All parts must give the
    same number of rows. shape is that of the concatenation.
    """

    def __init__(self, *parts):
        self.parts = tuple(_part(*part) for part in parts)
        if any(p.ndim != 2 or not (i is None or isinstance(i, Groups))
               for p, i, _ in self.parts):
            raise NnError("parts must be 2-d arrays with None or a graph.Groups")
        if any(i is not None and i.num_groups != p.shape[0]
               for p, i, _ in self.parts):
            raise NnError("a part's groups must cover its rows")
        if any(s is not None and (not isinstance(s, DegreeScale)
                                  or s.num_groups != p.shape[0])
               for p, _, s in self.parts):
            raise NnError("a part's scale must be a DegreeScale over its rows")
        rows = {p.shape[0] if i is None else i.key.size
                for p, i, _ in self.parts}
        if len(rows) != 1:
            raise NnError(f"parts give different row counts {sorted(rows)}")
        self.shape = (rows.pop(), sum(_width(p, s) for p, _, s in self.parts))


def _part(p, i, s=None):
    """A part as (p, i, s), p a float array."""
    return as_float_array(p), i, s


def _width(p: np.ndarray, s: DegreeScale | None) -> int:
    """The part's width in the concatenation: its weight rows."""
    return p.shape[1] * (1 if s is None else s.width)


def _first_layer(x: GatheredConcat, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b as a sum of per-part products; a scaled part's product is
    each bucket's rows times its folded weights."""
    z = None
    lo = 0
    for p, i, s in x.parts:
        hi = lo + _width(p, s)
        first = False
        if s is not None:
            zp = _scaled_product(p, s, w[lo:hi])
        else:
            p, first = _gathered_first(p, i)
            zp = p * w[lo] if p.shape[1] == 1 else p @ w[lo:hi]
        if i is not None and not first:
            zp = zp[i.key]
        if z is None:
            z = zp
        else:
            z += zp
        lo = hi
    z += b
    return z


def _gathered_first(p: np.ndarray, i: Groups | None):
    """(p, True) gathered through i where i selects fewer rows than p has,
    so the matmul runs on those rows alone; else (p, False)."""
    if i is None or i.key.size >= len(p):
        return p, False
    return p[i.key], True


def _folded(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Σ_j u[j] * w_j over the len(u) blocks w_j of w's rows, in w's dtype."""
    return np.tensordot(u.astype(w.dtype, copy=False),
                        w.reshape(len(u), -1, w.shape[1]), 1)


def _whole(p: np.ndarray, s: DegreeScale) -> bool:
    """Whether s's one bucket covers every row of p, so its ids run in
    order and p needs no gather."""
    return len(s.buckets) == 1 and s.buckets[0][0].size == len(p)


def _scaled_product(p: np.ndarray, s: DegreeScale, w: np.ndarray):
    """The product of a scaled part over p's rows: zeros on rows in no
    bucket."""
    if _whole(p, s):
        return p @ _folded(w, s.buckets[0][1])
    zp = np.zeros((len(p), w.shape[1]), dtype=np.result_type(p, w))
    for gids, u in s.buckets:
        zp[gids] = p[gids] @ _folded(w, u)
    return zp


def _scaled_backward(p: np.ndarray, s: DegreeScale, w: np.ndarray,
                     gw: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adds a scaled part's weight gradient into gw, given the gradient g of
    its product over p's rows; returns the gradient of p."""
    gw_blocks = gw.reshape(s.width, p.shape[1], -1)       # a view
    whole = _whole(p, s)
    gp = None if whole else np.zeros_like(p)
    for gids, u in s.buckets:
        pd, gd = (p, g) if whole else (p[gids], g[gids])
        gw_blocks += u.astype(gw.dtype)[:, None, None] * (pd.T @ gd)
        gpd = gd @ _folded(w, u).T
        if whole:
            gp = gpd
        else:
            gp[gids] = gpd
    return gp


def _first_layer_backward(x: GatheredConcat, w: np.ndarray, gw: np.ndarray,
                          g: np.ndarray) -> list[np.ndarray]:
    """Adds the weight gradient into gw; returns one gradient per part,
    shaped like the part's p."""
    gparts = []
    lo = 0
    for p, i, s in x.parts:
        hi = lo + _width(p, s)
        if s is not None:
            gp = g if i is None else scatter_add(g, i)
            gparts.append(_scaled_backward(p, s, w[lo:hi], gw[lo:hi], gp))
        else:
            p, first = _gathered_first(p, i)
            gp = g if i is None or first else scatter_add(g, i)
            gw[lo:hi] += p.T @ gp
            gp = gp @ w[lo:hi].T
            gparts.append(scatter_add(gp, i) if first else gp)
        lo = hi
    return gparts


def _act_forward(name: str, z: np.ndarray):
    if name == "identity":
        return z, None
    if name == "relu":
        return np.maximum(z, 0.0, out=z), None      # z is a fresh product
    # tanh-approximation gelu; the backward differentiates the same formula
    c = math.sqrt(2.0 / math.pi)
    inner = c * (z + 0.044715 * z ** 3)
    t = np.tanh(inner)
    return 0.5 * z * (1.0 + t), (z, t)


def _keep_mask(rng: np.random.Generator, shape, threshold: int) -> np.ndarray:
    """Boolean mask, True where a unit is kept: one 32-bit half of a raw
    generator word per unit, below threshold. The words are read as
    little-endian, so the mask does not depend on the machine's byte order."""
    n = math.prod(shape)
    words = rng.bit_generator.random_raw((n + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")[:n]
    return (halves < threshold).reshape(shape)


def mlp_forward(
    m: Mlp,
    x: np.ndarray,
    train_mode: bool = False,
    dropout_mask_seed: int = 0,
):
    """Returns (output, cache). Dropout hits hidden relu activations only.

    x is a matrix or a GatheredConcat.
    """
    built = not isinstance(x, GatheredConcat)
    if built:
        x = GatheredConcat((x, None))
    if x.shape[1] != m.layer_dims[0]:
        raise NnError(f"input width {x.shape} does not match mlp input {m.layer_dims[0]}")
    use_dropout = train_mode and m.dropout > 0.0
    if use_dropout and m.activation != "relu":
        raise NnError(f"train-mode dropout needs relu, not {m.activation!r}")
    drop_rng = np.random.default_rng(dropout_mask_seed) if use_dropout else None
    keep = 1.0 - m.dropout
    # the largest 32-bit threshold, so a keep just below 1 cannot overflow
    threshold = min(round(keep * 2 ** 32), 2 ** 32 - 1)

    inputs, act_auxes = [], []
    h = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        inputs.append(h)
        if i == 0:
            z = _first_layer(h, w, b)
        else:
            z = h @ w
            z += b
        if i < last:
            h, aux = _act_forward(m.activation, z)
            act_auxes.append(aux)
            if use_dropout:
                h *= _keep_mask(drop_rng, h.shape, threshold)
                h *= 1.0 / keep
        else:
            h = z
    cache = {"mlp": m, "inputs": inputs, "act_auxes": act_auxes,
             "scale": 1.0 / keep if use_dropout else None, "built": built}
    return h, cache


def mlp_backward(m: Mlp, cache, upstream: np.ndarray):
    """Exact gradients for the realized forward pass.

    Returns (input gradient, parameter gradients). The input gradient of a
    GatheredConcat is a list with one gradient per part, shaped like the
    part: rows its index selects more than once get the sum. The parameter
    gradients are added into m.grads, which must be set.

    Consumes the cache: it takes the layer inputs out of it and frees a
    relu layer's hidden input once its gate is read. A consumed cache
    raises NnError.
    """
    if cache.get("mlp") is not m:
        raise NnError("cache does not belong to this mlp")
    grads = m.grads
    if grads is None:
        raise NnError("mlp has no gradient arrays; build it with init_mlp")
    if "inputs" not in cache:
        raise NnError("cache already consumed by backward")
    inputs = cache.pop("inputs")
    g = np.asarray(upstream, dtype=m.weights[0].dtype)
    last = len(m.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            if m.activation == "relu":
                # the realized gate: open where the next input is positive;
                # nothing reads that input after it
                g = g * (inputs[i + 1] > 0)
                inputs[i + 1] = None
                if cache["scale"] is not None:
                    g *= cache["scale"]
            elif m.activation == "gelu":
                z, t = cache["act_auxes"][i]
                dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * z ** 2)
                g = g * (0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * dinner)
        grads.biases[i] += g.sum(axis=0)
        if i:
            grads.weights[i] += inputs[i].T @ g
            g = g @ m.weights[i].T
    gparts = _first_layer_backward(inputs[0], m.weights[0],
                                   grads.weights[0], g)
    return (gparts[0] if cache["built"] else gparts), grads


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def weighted_bce_loss(logits, labels, weights=(1.0, 1.0)):
    """Class-weighted binary cross-entropy in the stable softplus form.

    Returns (mean loss, gradient w.r.t. logits).
    """
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise NnError("logits and labels must align")
    if not np.isfinite(z).all():
        raise NnError("logits must be finite")
    w0, w1 = float(weights[0]), float(weights[1])
    if w0 <= 0 or w1 <= 0:
        raise NnError("class weights must be positive")
    w = np.where(y > 0.5, w1, w0)
    per_sample = w * (np.logaddexp(0.0, z) - y * z)
    loss = float(per_sample.mean())
    grad = w * (_sigmoid(z) - y) / z.size
    return loss, grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size: int, dtype=np.float64) -> "AdamState":
        return cls(np.zeros(size, dtype), np.zeros(size, dtype), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    learning_rate: float,
) -> np.ndarray:
    """Standard Adam update of a flat parameter vector, in place.

    Mutates params, state.m and state.v in place; returns params.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise NnError("params, grads and state must be shape-congruent")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v = state.m, state.v
    state.t += 1
    # in place, in two temporaries, rounding as m = beta1 * m + (1 - beta1)
    # * grads, v = beta2 * v + (1 - beta2) * grads * grads and params -= lr
    # * mhat / (sqrt(vhat) + eps) would
    tmp = (1 - beta1) * grads
    m *= beta1
    m += tmp
    np.multiply(grads, 1 - beta2, out=tmp)
    tmp *= grads
    v *= beta2
    v += tmp
    np.divide(m, 1 - beta1 ** state.t, out=tmp)      # mhat
    tmp *= learning_rate
    den = v / (1 - beta2 ** state.t)                 # vhat
    np.sqrt(den, out=den)
    den += eps
    tmp /= den
    params -= tmp
    return params
