"""Permutation-invariant segment reductions over grouped rows.

These kernels implement the multi-edge (EdgeAgg) and node-level (AGG)
reduction primitives. Value rows stay in item order: a GroupedFeatures
pairs them with the graph.Groups that partitions them, so callers gather
nothing and get gradients back in the same row order. Each reduction also
exposes its vector-Jacobian product so the model can run exact
reverse-mode gradients through both stages.

A reduction buckets its groups by size. The rows of the G_s groups of
size s are gathered once into a dense [s, G_s, d] block, which every
statistic then reduces over its first axis: sums (sum, mean, and std's
squared deviations from the group mean) add the rows in group order,
which is item order, and max and min take the extremes. The max/min VJP
gathers the block again and routes each gradient to the first row that
achieves the extreme. scatter_add, nn's row scatter, is the same block
sum. Every output and VJP is in the dtype of the values (float32 or
float64).

A reduction returns its statistics together with a scale, None except
under PNA. PNA returns its four statistics side by side and a DegreeScale:
its size buckets, each with the scaler row (1, amplification, attenuation)
that every group of that size shares; it never multiplies them out. An
empty group lies in no bucket, since its statistics are zeros. The
consuming MLP takes the pair as one scaled nn.GatheredConcat part, which
stands for the 12·d-wide block of every statistic under every scaler: it
folds each bucket's scalers into its weights, so the VJP here starts from
the gradient of the statistics.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .graph import Groups

# PNA's statistics, in column order, and its degree scalers, in the order
# of a DegreeScale's scaler row
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

    For kind="pna" a reduction returns the PNA_STATS (mean, max, min, std)
    side by side, 4·d wide, and a DegreeScale with one scaler per
    PNA_SCALERS entry (identity, amplification, attenuation). out_width is
    the nominal width of the block the pair stands for, each statistic
    under each scaler (scaler-major), which the consuming MLP's weight rows
    are laid out for; that block is never built. The log-degree scalers
    are normalized by mean_log_degree, which callers compute over their
    training split.
    """

    kind: str
    mean_log_degree: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AggError(f"unknown aggregation kind {self.kind!r}")
        if (isinstance(self.mean_log_degree, bool)
                or not isinstance(self.mean_log_degree, numbers.Real)):
            raise AggError("mean_log_degree must be a real number, not "
                           f"{self.mean_log_degree!r}")
        if self.kind == "pna" and not 0 < self.mean_log_degree < np.inf:
            raise AggError("mean_log_degree must be positive and finite")

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


@dataclass(frozen=True)
class DegreeScale:
    """Scaler rows shared by the groups of each size.

    buckets holds one (group ids, u) pair per distinct non-empty group
    size, the ids ascending: u is the width-long scaler row of each of
    those groups. It stands for the [num_groups, width] matrix with row u
    for each of a bucket's groups and zeros for a group in no bucket.
    """

    num_groups: int
    width: int
    buckets: tuple[tuple[np.ndarray, np.ndarray], ...]


def pna_scalers(degree, mean_log_degree: float, dtype=np.float64):
    """Log-degree amplification and its reciprocal attenuation, in dtype."""
    degree = np.asarray(degree, dtype=dtype)
    if np.any(degree < 1):
        raise AggError("pna scalers need degree >= 1 (empty groups are handled upstream)")
    if not 0 < mean_log_degree < np.inf:
        raise AggError("mean_log_degree must be positive and finite")
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
        out[gids] = _reduce_rows(np.add, np.take(values, rows, axis=0))
    return out


def _size_buckets(groups: Groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """The non-empty groups bucketed by size, smallest size first.

    One (group ids, rows) pair per distinct size s >= 1: rows is the [s, G_s]
    item index whose row k holds each group's k-th item in group order, so
    values[rows] is one dense [s, G_s, d] block of those groups' rows.
    """
    _, order, offsets = groups
    counts = np.diff(offsets)
    by_size = np.argsort(counts, kind="stable")
    sizes = counts[by_size]
    starts = np.flatnonzero(np.diff(sizes, prepend=-1))
    ends = np.append(starts[1:], sizes.size)
    if sizes.size and sizes[0] == 0:            # the empty groups
        starts, ends = starts[1:], ends[1:]
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
                gf: GroupedFeatures, buckets):
    """Writes each statistic of gf's groups, bucketed by _size_buckets, into
    its d columns of stacked, zeros for an empty group; returns the VJP from
    the gradient of stacked into the values.
    """
    v = gf.values
    key = gf.groups.key
    d = v.shape[1]
    col = {stat: stacked[:, i * d:(i + 1) * d] for i, stat in enumerate(stats)}
    # an empty group's sums are 0, and so are its mean and std over 1
    stacked[gf.groups.counts == 0] = 0.0
    counts = np.maximum(gf.groups.counts, 1).astype(v.dtype)[:, None]

    sums = col.get("sum", col.get("mean"))
    if sums is None and "std" in col:
        sums = np.zeros_like(col["std"])
    targets = [(col[stat], ufunc) for stat, ufunc in
               (("max", np.maximum), ("min", np.minimum)) if stat in col]
    if sums is not None:
        targets.append((sums, np.add))
    std = col.get("std")
    for gids, rows in buckets:
        block = np.take(v, rows, axis=0)
        for out, ufunc in targets:
            out[gids] = _reduce_rows(ufunc, block)
        if std is not None:
            # squared deviations from the group mean, which do not cancel
            block -= sums[gids] / counts[gids]
            np.multiply(block, block, out=block)
            std[gids] = _reduce_rows(np.add, block)
    mean = (np.divide(sums, counts, out=col.get("mean"))
            if {"mean", "std"} & col.keys() else None)
    if std is not None:
        np.sqrt(std / counts, out=std)
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

    Returns ((stats, scale), vjp). stats holds each group's statistics;
    scale is None, or under PNA the DegreeScale by which the consumer
    weighs stats. vjp maps a gradient of stats, scalers already applied,
    to the values. Groups must be non-empty here; callers with
    possibly-empty targets use reduce_or_default_with_vjp.
    """
    if np.any(gf.groups.counts == 0):
        raise AggError("segment_reduce requires non-empty groups")
    return reduce_or_default_with_vjp(spec, gf)


def segment_reduce(spec: AggSpec, gf: GroupedFeatures) -> np.ndarray:
    """Each group's statistics, without PNA's scale or the VJP."""
    (stats, _), _ = segment_reduce_with_vjp(spec, gf)
    return stats


def reduce_or_default_with_vjp(spec: AggSpec, gf: GroupedFeatures):
    """segment_reduce_with_vjp that gives each empty group a row of zeros.

    No gradient flows out of an empty group, and under PNA it lies in no
    bucket of the scale.
    """
    stats = PNA_STATS if spec.kind == "pna" else (spec.kind,)
    d = gf.values.shape[1]
    stacked = np.empty((gf.groups.num_groups, len(stats) * d),
                       dtype=gf.values.dtype)
    buckets = _size_buckets(gf.groups)
    vjp = _stats_into(stacked, stats, gf, buckets)
    scale = None
    if spec.kind == "pna":
        amp, att = pna_scalers([rows.shape[0] for _, rows in buckets],
                               spec.mean_log_degree, stacked.dtype)
        scalers = np.stack([np.ones_like(amp), amp, att], axis=1)
        scale = DegreeScale(gf.groups.num_groups, len(PNA_SCALERS),
                            tuple(zip((gids for gids, _ in buckets), scalers)))
    return (stacked, scale), vjp
