"""Permutation-invariant segment reductions over contiguous index groups.

These kernels implement the multi-edge (EdgeAgg) and node-level (AGG)
reduction primitives. Values must be pre-gathered so every group occupies
a contiguous row block; graph.build_groups produces the required order and
offsets. Each reduction also exposes its vector-Jacobian product so the
model can run exact reverse-mode gradients through both stages.

Sums (sum, mean and both std moments) run as one scatter_add: a single
np.bincount pass over row * width + column, which adds each group's rows in
row order like np.add.reduceat but costs the same whether groups hold one
row or many. max and min keep np.maximum/np.minimum.reduceat.

A module-level counter tracks how many value rows each reduction touches;
the complexity suite uses it to assert linear scaling in the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STAT_ORDER = ("mean", "max", "min", "std")
_SCALER_ORDER = ("identity", "amplification", "attenuation")

_KINDS = ("sum", "mean", "max", "min", "std", "pna")

_reduce_rows = 0


def reset_reduce_counter() -> None:
    global _reduce_rows
    _reduce_rows = 0


def reduce_counter() -> int:
    return _reduce_rows


def _count(rows: int) -> None:
    global _reduce_rows
    _reduce_rows += rows


class AggError(ValueError):
    pass


@dataclass(frozen=True)
class AggSpec:
    """Choice of reduction statistic.

    For kind="pna" the output concatenates the selected statistics (in the
    canonical order mean, max, min, std) and multiplies the whole block by
    each selected scaler (identity, amplification, attenuation). The
    log-degree scalers are normalized by mean_log_degree, which callers
    compute over their training split.
    """

    kind: str
    pna_stats: tuple[str, ...] = _STAT_ORDER
    pna_scalers: tuple[str, ...] = _SCALER_ORDER
    mean_log_degree: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AggError(f"unknown aggregation kind {self.kind!r}")
        if self.kind == "pna":
            stats = tuple(s for s in _STAT_ORDER if s in self.pna_stats)
            scalers = tuple(s for s in _SCALER_ORDER if s in self.pna_scalers)
            if not stats:
                raise AggError("pna needs a non-empty statistic set")
            if set(stats) != set(self.pna_stats):
                raise AggError(f"unknown pna statistic in {self.pna_stats}")
            if not scalers or set(scalers) != set(self.pna_scalers):
                raise AggError(f"bad pna scaler set {self.pna_scalers}")
            object.__setattr__(self, "pna_stats", stats)
            object.__setattr__(self, "pna_scalers", scalers)
            if not self.mean_log_degree > 0:
                raise AggError("mean_log_degree must be positive")

    def out_width(self, d: int) -> int:
        if self.kind == "pna":
            return d * len(self.pna_stats) * len(self.pna_scalers)
        return d


@dataclass(frozen=True)
class GroupedFeatures:
    """Dense value rows partitioned into contiguous groups."""

    values: np.ndarray       # [num_items, d]
    group_offsets: np.ndarray  # [num_groups + 1]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(
            self, "group_offsets", np.asarray(self.group_offsets, dtype=np.int64)
        )
        if self.values.ndim != 2:
            raise AggError("values must be a 2-d matrix")
        if self.group_offsets.ndim != 1 or self.group_offsets.size < 1:
            raise AggError("group_offsets must be a 1-d offset array")
        if self.group_offsets[0] != 0 or self.group_offsets[-1] != self.values.shape[0]:
            raise AggError("group_offsets must cover all value rows")
        if np.any(np.diff(self.group_offsets) < 0):
            raise AggError("group_offsets must be non-decreasing")

    @property
    def num_groups(self) -> int:
        return self.group_offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.group_offsets)


def pna_scalers(degree, mean_log_degree: float):
    """Log-degree amplification and its reciprocal attenuation."""
    degree = np.asarray(degree, dtype=np.float64)
    if np.any(degree < 1):
        raise AggError("pna scalers need degree >= 1 (empty groups are handled upstream)")
    if not mean_log_degree > 0:
        raise AggError("mean_log_degree must be positive")
    amplification = np.log(degree + 1.0) / mean_log_degree
    attenuation = 1.0 / amplification
    return amplification, attenuation


def scatter_add(values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """[num_rows, d] sums of value rows by target row: out[index[k]] += values[k].

    One np.bincount pass over index * d + column. Each output entry adds its
    values in row order, so the result equals np.add.at's bit for bit.
    """
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=num_rows * d).reshape(num_rows, d)


def _group_ids(gf: GroupedFeatures) -> np.ndarray:
    return np.repeat(np.arange(gf.num_groups), gf.counts)


def _stat_with_vjp(stat: str, gf: GroupedFeatures):
    """One statistic over non-empty contiguous groups, plus its VJP."""
    v = gf.values
    starts = gf.group_offsets[:-1]
    counts = gf.counts.astype(np.float64)
    gid = _group_ids(gf)
    _count(v.shape[0])

    if stat == "sum":
        out = scatter_add(v, gid, gf.num_groups)

        def vjp(gout):
            return gout[gid]

        return out, vjp

    if stat == "mean":
        out = scatter_add(v, gid, gf.num_groups) / counts[:, None]

        def vjp(gout):
            return gout[gid] / counts[gid][:, None]

        return out, vjp

    if stat in ("max", "min"):
        ufunc = np.maximum if stat == "max" else np.minimum
        out = ufunc.reduceat(v, starts, axis=0)

        def vjp(gout):
            # route to the lowest-index achiever in each group, per column
            idx = np.arange(v.shape[0])[:, None]
            hit = np.where(v == out[gid], idx, v.shape[0])
            first = np.minimum.reduceat(hit, starts, axis=0)  # [S, d]
            # groups are disjoint, so no entry is hit twice
            gv = np.zeros_like(v)
            gv[first, np.arange(v.shape[1])] = gout
            return gv

        return out, vjp

    if stat == "std":
        mean = scatter_add(v, gid, gf.num_groups) / counts[:, None]
        mean_sq = scatter_add(v * v, gid, gf.num_groups) / counts[:, None]
        var = np.maximum(mean_sq - mean * mean, 0.0)
        out = np.sqrt(var)

        def vjp(gout):
            safe = np.where(out > 1e-12, out, 1.0)
            gvar = np.where(out > 1e-12, gout / (2.0 * safe), 0.0)
            centered = v - mean[gid]
            return 2.0 * centered * gvar[gid] / counts[gid][:, None]

        return out, vjp

    raise AggError(f"unknown statistic {stat!r}")


def segment_reduce_with_vjp(spec: AggSpec, gf: GroupedFeatures, degrees=None):
    """Reduce each group to one row; also return the VJP into the values.

    Groups must be non-empty here; callers with possibly-empty targets use
    reduce_or_default.
    """
    if np.any(gf.counts == 0):
        raise AggError("segment_reduce requires non-empty groups")

    if spec.kind != "pna":
        return _stat_with_vjp(spec.kind, gf)

    if degrees is None:
        degrees = gf.counts
    degrees = np.asarray(degrees, dtype=np.float64)
    if degrees.shape[0] != gf.num_groups:
        raise AggError("degrees must have one entry per group")

    blocks, vjps = [], []
    for stat in spec.pna_stats:
        out, vjp = _stat_with_vjp(stat, gf)
        blocks.append(out)
        vjps.append(vjp)
    stacked = np.concatenate(blocks, axis=1)

    scaler_values = []
    for scaler in spec.pna_scalers:
        if scaler == "identity":
            scaler_values.append(np.ones(gf.num_groups))
        else:
            amp, att = pna_scalers(degrees, spec.mean_log_degree)
            scaler_values.append(amp if scaler == "amplification" else att)
    out = np.concatenate([stacked * s[:, None] for s in scaler_values], axis=1)

    d = gf.values.shape[1]
    width = stacked.shape[1]

    def vjp(gout):
        gstacked = np.zeros_like(stacked)
        for i, s in enumerate(scaler_values):
            gstacked += gout[:, i * width:(i + 1) * width] * s[:, None]
        gv = np.zeros_like(gf.values)
        for i, stat_vjp in enumerate(vjps):
            gv += stat_vjp(gstacked[:, i * d:(i + 1) * d])
        return gv

    return out, vjp


def segment_reduce(spec: AggSpec, gf: GroupedFeatures, degrees=None) -> np.ndarray:
    out, _ = segment_reduce_with_vjp(spec, gf, degrees)
    return out


def reduce_or_default_with_vjp(
    spec: AggSpec,
    gf: GroupedFeatures,
    num_groups_total: int | None = None,
    default: np.ndarray | None = None,
):
    """segment_reduce that fills rows of empty groups with a default vector.

    The default is constant (all zeros unless given), so no gradient flows
    into it. num_groups_total defaults to the group count of gf.
    """
    if num_groups_total is None:
        num_groups_total = gf.num_groups
    if gf.num_groups != num_groups_total:
        raise AggError("gf must carry one (possibly empty) group per target")
    d_out = spec.out_width(gf.values.shape[1])
    if default is None:
        default = np.zeros(d_out)
    default = np.asarray(default, dtype=np.float64)
    if default.shape != (d_out,):
        raise AggError(f"default must have width {d_out}")

    counts = gf.counts
    nonempty = np.flatnonzero(counts > 0)
    out = np.tile(default, (num_groups_total, 1))
    if nonempty.size == 0:
        return out, (lambda gout: np.zeros_like(gf.values))

    sub_offsets = np.zeros(nonempty.size + 1, dtype=np.int64)
    np.cumsum(counts[nonempty], out=sub_offsets[1:])
    # groups are contiguous, so dropping empties keeps values in place
    sub = GroupedFeatures(gf.values, sub_offsets)
    reduced, sub_vjp = segment_reduce_with_vjp(spec, sub, degrees=counts[nonempty])
    out[nonempty] = reduced

    def vjp(gout):
        return sub_vjp(gout[nonempty])

    return out, vjp


def reduce_or_default(
    spec: AggSpec,
    gf: GroupedFeatures,
    num_groups_total: int | None = None,
    default: np.ndarray | None = None,
) -> np.ndarray:
    out, _ = reduce_or_default_with_vjp(spec, gf, num_groups_total, default)
    return out
