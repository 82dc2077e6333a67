"""Permutation-invariant segment reductions over grouped rows.

These kernels implement the multi-edge (EdgeAgg) and node-level (AGG)
reduction primitives. Value rows stay in item order: a GroupedFeatures
pairs them with the graph.Groups that partitions them, so callers gather
nothing and get gradients back in the same row order. Each reduction also
exposes its vector-Jacobian product so the model can run exact
reverse-mode gradients through both stages.

A reduction buckets its groups by size. The rows of the G_s groups of
size s are gathered once into a dense [s, G_s, d] block, which every
statistic then reduces over its first axis: sums (sum, mean and both std
moments) add the rows in group order, which is item order, and max and min
take the extremes. The max/min VJP gathers the block again and routes each
gradient to the first row that achieves the extreme. PNA's degree scalers
read the group sizes. scatter_add, nn's row scatter, is the same block sum.
Every output and VJP is in the dtype of the values (float32 or float64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Groups

# a PNA block concatenates these statistics and repeats the whole block
# under each of these degree scalers, in this order
PNA_STATS = ("mean", "max", "min", "std")
PNA_SCALERS = ("identity", "amplification", "attenuation")

_KINDS = ("sum", "mean", "max", "min", "std", "pna")


class AggError(ValueError):
    pass


def as_float_array(a) -> np.ndarray:
    """a as an array, kept in its floating dtype; anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


@dataclass(frozen=True)
class AggSpec:
    """Choice of reduction statistic.

    For kind="pna" the output concatenates the PNA_STATS (mean, max, min,
    std) and multiplies the whole block by each of the PNA_SCALERS
    (identity, amplification, attenuation). The log-degree scalers are
    normalized by mean_log_degree, which callers compute over their
    training split.
    """

    kind: str
    mean_log_degree: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AggError(f"unknown aggregation kind {self.kind!r}")
        if self.kind == "pna" and not self.mean_log_degree > 0:
            raise AggError("mean_log_degree must be positive")

    def out_width(self, d: int) -> int:
        if self.kind == "pna":
            return d * len(PNA_STATS) * len(PNA_SCALERS)
        return d


@dataclass(frozen=True)
class GroupedFeatures:
    """Value rows in item order with the Groups that partitions them."""

    values: np.ndarray       # [num_items, d]
    groups: Groups

    def __post_init__(self):
        object.__setattr__(self, "values", as_float_array(self.values))
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


def pna_scalers(degree, mean_log_degree: float, dtype=np.float64):
    """Log-degree amplification and its reciprocal attenuation, in dtype."""
    degree = np.asarray(degree, dtype=dtype)
    if np.any(degree < 1):
        raise AggError("pna scalers need degree >= 1 (empty groups are handled upstream)")
    if not mean_log_degree > 0:
        raise AggError("mean_log_degree must be positive")
    amplification = np.log(degree + 1.0) / float(mean_log_degree)
    attenuation = 1.0 / amplification
    return amplification, attenuation


def scatter_add(values: np.ndarray, groups: Groups) -> np.ndarray:
    """[num_groups, d] sums of value rows by group: out[key[k]] += values[k].

    The reductions' block sum over the rows grouped by target: each entry
    adds its values in row order, so it equals np.add.at's bit for bit.
    """
    out = np.zeros((groups.num_groups, values.shape[1]), dtype=values.dtype)
    for gids, rows in _size_buckets(groups):
        if rows.shape[0]:
            out[gids] = _reduce_rows(np.add, np.take(values, rows, axis=0))
    return out


def _size_buckets(groups: Groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """The groups bucketed by size, smallest size first.

    One (group ids, rows) pair per distinct size s: rows is the [s, G_s]
    item index whose row k holds each group's k-th item in group order, so
    values[rows] is one dense [s, G_s, d] block of those groups' rows.
    """
    _, order, offsets = groups
    counts = np.diff(offsets)
    by_size = np.argsort(counts, kind="stable")
    sizes = counts[by_size]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    ends = np.append(starts[1:], sizes.size)
    return [(by_size[lo:hi],
             order[offsets[by_size[lo:hi]] + np.arange(sizes[lo])[:, None]])
            for lo, hi in zip(starts, ends)]


def _reduce_rows(ufunc, block: np.ndarray) -> np.ndarray:
    """ufunc over the rows of a [s, G_s, d] block, in row order.

    Row order is the order np.bincount adds in. numpy adds a lone column
    pairwise, so that case accumulates instead.
    """
    if block.shape[0] == 1:
        return block[0]
    if block[0].size == 1:
        return ufunc.accumulate(block, axis=0)[-1]
    return ufunc.reduce(block, axis=0)


def _route_extremes(v: np.ndarray, buckets, extremes, gv: np.ndarray) -> None:
    """Adds each (extreme values, gradient) pair's gradient into gv.

    Per group and column the gradient goes to the first row in group order
    that achieves the extreme, which is the lowest item index on a tie.
    """
    d = v.shape[1]
    flat = gv.reshape(-1)
    for gids, rows in buckets:
        s = rows.shape[0]
        if s == 1:
            for _, g in extremes:
                gv[rows[0]] += g[gids]
            continue
        block = np.take(v, rows, axis=0)
        # row k of an achiever scores s - k, so the best score is s - first
        score = np.arange(s, 0, -1, dtype=np.min_scalar_type(s))[:, None, None]
        across = np.arange(rows.shape[1])[:, None]
        for value, g in extremes:
            first = s - np.maximum.reduce((block == value[gids]) * score, axis=0)
            flat[rows[first, across] * d + np.arange(d)] += g[gids]


def _stats_into(stacked: np.ndarray, stats: tuple[str, ...],
                gf: GroupedFeatures):
    """Writes each statistic of gf's non-empty groups into its d columns of
    stacked; returns the VJP from the gradient of stacked into the values.
    """
    v = gf.values
    key = gf.groups.key
    d = v.shape[1]
    col = {stat: stacked[:, i * d:(i + 1) * d] for i, stat in enumerate(stats)}
    counts = gf.counts.astype(v.dtype)[:, None]
    buckets = _size_buckets(gf.groups)

    sums = col.get("sum", col.get("mean"))
    if sums is None and "std" in col:
        sums = np.empty_like(col["std"])
    targets = [(col[stat], ufunc) for stat, ufunc in
               (("max", np.maximum), ("min", np.minimum)) if stat in col]
    if sums is not None:
        targets.append((sums, np.add))
    sumsq = np.empty_like(col["std"]) if "std" in col else None
    for gids, rows in buckets:
        block = np.take(v, rows, axis=0)
        for out, ufunc in targets:
            out[gids] = _reduce_rows(ufunc, block)
        if sumsq is not None:
            np.multiply(block, block, out=block)
            sumsq[gids] = _reduce_rows(np.add, block)
    mean = (np.divide(sums, counts, out=col.get("mean"))
            if {"mean", "std"} & col.keys() else None)
    std = col.get("std")
    if std is not None:
        np.sqrt(np.maximum(sumsq / counts - mean * mean, 0.0), out=std)
    # the VJP keeps only what it reads: the rows for max, min and std, the
    # buckets for max and min, the mean for std
    extremes = [(stat, col[stat]) for stat in ("max", "min") if stat in col]
    if not extremes:
        buckets = None
        if std is None:
            v = None
    if std is None:
        mean = None

    def vjp(gstacked):
        g = {stat: gstacked[:, i * d:(i + 1) * d] for i, stat in enumerate(stats)}
        if "sum" in g:
            gv = np.take(g["sum"], key, axis=0)
        elif "mean" in g:
            gv = np.take(g["mean"] / counts, key, axis=0)
        else:
            gv = np.zeros((key.size, d), dtype=counts.dtype)
        if extremes:
            _route_extremes(v, buckets,
                            [(value, g[stat]) for stat, value in extremes], gv)
        if std is not None:
            # d std / d v = (v - mean) / (count * std), and 0 where std is 0
            positive = std > 1e-12
            ratio = np.where(positive,
                             g["std"] / np.where(positive, std, 1.0), 0.0)
            term = v - np.take(mean, key, axis=0)
            term *= np.take(ratio, key, axis=0)
            term /= np.take(counts, key, axis=0)
            gv += term
        return gv

    return vjp


def segment_reduce_with_vjp(spec: AggSpec, gf: GroupedFeatures):
    """Reduce each group to one row; also return the VJP into the values.

    Groups must be non-empty here; callers with possibly-empty targets use
    reduce_or_default_with_vjp.
    """
    if np.any(gf.counts == 0):
        raise AggError("segment_reduce requires non-empty groups")
    stats = PNA_STATS if spec.kind == "pna" else (spec.kind,)
    d = gf.values.shape[1]
    stacked = np.empty((gf.num_groups, len(stats) * d), dtype=gf.values.dtype)
    stats_vjp = _stats_into(stacked, stats, gf)
    if spec.kind != "pna":
        return stacked, stats_vjp

    amp, att = pna_scalers(gf.counts, spec.mean_log_degree, stacked.dtype)
    # [G, scalers, 1]: out[g] is stacked[g] times each scaler in turn
    scale = np.stack([np.ones_like(amp), amp, att], axis=1)[:, :, None]
    out = (stacked[:, None, :] * scale).reshape(gf.num_groups,
                                                spec.out_width(d))

    width = stacked.shape[1]

    def vjp(gout):
        per_scaler = gout.reshape(*scale.shape[:2], width)
        return stats_vjp(np.add.reduce(per_scaler * scale, axis=1))

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
    out = np.zeros((gf.num_groups, reduced.shape[1]), dtype=reduced.dtype)
    out[full] = reduced

    def vjp(gout):
        return sub_vjp(gout[full])

    return out, vjp
