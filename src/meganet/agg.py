"""Permutation-invariant segment reductions over grouped rows.

These kernels implement the multi-edge (EdgeAgg) and node-level (AGG)
reduction primitives. Value rows stay in item order: a GroupedFeatures
pairs them with the graph.Groups that partitions them, so callers gather
nothing and get gradients back in the same row order. Each reduction also
exposes its vector-Jacobian product so the model can run exact
reverse-mode gradients through both stages.

Sums (sum, mean and both std moments) run as one scatter_add over the
group keys: a single np.bincount pass that adds each group's rows in row
order. max and min run np.maximum/np.minimum.reduceat over a transient
gather of the rows into group order. PNA's degree scalers read the group
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Groups

_STAT_ORDER = ("mean", "max", "min", "std")
_SCALER_ORDER = ("identity", "amplification", "attenuation")

_KINDS = ("sum", "mean", "max", "min", "std", "pna")


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
    """Value rows in item order with the Groups that partitions them."""

    values: np.ndarray       # [num_items, d]
    groups: Groups

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise AggError("values must be a 2-d matrix")
        if not isinstance(self.groups, Groups):
            raise AggError("groups must be a graph.Groups")
        rows = self.values.shape[0]
        key, order, offsets = self.groups
        if key.shape != (rows,) or order.shape != (rows,):
            raise AggError("group key and order must cover all value rows")
        if offsets.ndim != 1 or offsets.size < 1:
            raise AggError("group offsets must be a 1-d offset array")
        if offsets[0] != 0 or offsets[-1] != rows:
            raise AggError("group offsets must cover all value rows")
        if np.any(np.diff(offsets) < 0):
            raise AggError("group offsets must be non-decreasing")

    @property
    def num_groups(self) -> int:
        return self.groups.num_groups

    @property
    def counts(self) -> np.ndarray:
        return self.groups.counts


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


def _stat_with_vjp(stat: str, gf: GroupedFeatures):
    """One statistic over non-empty groups, plus its VJP."""
    v = gf.values
    key, order, offsets = gf.groups
    num_groups = gf.num_groups
    counts = gf.counts.astype(np.float64)

    if stat == "sum":
        out = scatter_add(v, key, num_groups)

        def vjp(gout):
            return gout[key]

        return out, vjp

    if stat == "mean":
        out = scatter_add(v, key, num_groups) / counts[:, None]

        def vjp(gout):
            return gout[key] / counts[key][:, None]

        return out, vjp

    if stat in ("max", "min"):
        ufunc = np.maximum if stat == "max" else np.minimum
        starts = offsets[:-1]
        out = ufunc.reduceat(v[order], starts, axis=0)

        def vjp(gout):
            # route to the lowest-index achiever in each group, per column
            hit = np.where((v == out[key])[order], order[:, None], v.shape[0])
            first = np.minimum.reduceat(hit, starts, axis=0)
            # groups are disjoint, so no entry is hit twice
            gv = np.zeros_like(v)
            gv[first, np.arange(v.shape[1])] = gout
            return gv

        return out, vjp

    if stat == "std":
        mean = scatter_add(v, key, num_groups) / counts[:, None]
        mean_sq = scatter_add(v * v, key, num_groups) / counts[:, None]
        var = np.maximum(mean_sq - mean * mean, 0.0)
        out = np.sqrt(var)

        def vjp(gout):
            safe = np.where(out > 1e-12, out, 1.0)
            gvar = np.where(out > 1e-12, gout / (2.0 * safe), 0.0)
            centered = v - mean[key]
            return 2.0 * centered * gvar[key] / counts[key][:, None]

        return out, vjp

    raise AggError(f"unknown statistic {stat!r}")


def segment_reduce_with_vjp(spec: AggSpec, gf: GroupedFeatures):
    """Reduce each group to one row; also return the VJP into the values.

    Groups must be non-empty here; callers with possibly-empty targets use
    reduce_or_default_with_vjp.
    """
    if np.any(gf.counts == 0):
        raise AggError("segment_reduce requires non-empty groups")

    if spec.kind != "pna":
        return _stat_with_vjp(spec.kind, gf)

    blocks, vjps = [], []
    for stat in spec.pna_stats:
        out, vjp = _stat_with_vjp(stat, gf)
        blocks.append(out)
        vjps.append(vjp)
    stacked = np.concatenate(blocks, axis=1)

    amp, att = pna_scalers(gf.counts, spec.mean_log_degree)
    scale = {"identity": np.ones(gf.num_groups), "amplification": amp,
             "attenuation": att}
    scaler_values = [scale[scaler] for scaler in spec.pna_scalers]
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


def segment_reduce(spec: AggSpec, gf: GroupedFeatures) -> np.ndarray:
    out, _ = segment_reduce_with_vjp(spec, gf)
    return out


def reduce_or_default_with_vjp(spec: AggSpec, gf: GroupedFeatures):
    """segment_reduce_with_vjp that gives each empty group a row of zeros.

    The reduction runs over the non-empty groups only, renumbered in order;
    no gradient flows out of an empty group.
    """
    key, order, offsets = gf.groups
    counts = gf.counts
    full = np.flatnonzero(counts)
    rank = np.cumsum(counts > 0) - 1
    sub = Groups(rank[key], order, np.append(offsets[full], offsets[-1]))
    reduced, sub_vjp = segment_reduce_with_vjp(spec, GroupedFeatures(gf.values, sub))
    out = np.zeros((gf.num_groups, reduced.shape[1]))
    out[full] = reduced

    def vjp(gout):
        return sub_vjp(gout[full])

    return out, vjp
