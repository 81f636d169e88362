"""Rank-frequency statistics of token streams.

A token stream is reduced to a curve of (ln rank, ln count) points,
ranked by descending count with ties broken by ascending token id. Five
scalar metrics summarize a stream:

  compression    total token count of the stream
  cardinality    number of distinct token ids
  auc            area under the truncated log-log curve
  slope          OLS slope of the truncated log-log curve
  power_law      mean absolute deviation from that OLS line

All logarithms are natural. The curve is truncated at ln(rank) <= 6
before fitting and integration; compression and cardinality always see
the full stream. The area is computed by composite Simpson quadrature
on a uniform resampling of the piecewise-linear curve, which makes it
invariant to how the original ranks happen to be spaced.

All five depend on a stream only through its count table, two int64
arrays of sorted distinct ids and their counts. `count_blocks` counts a
stream of ids: `count_token_file` feeds it a file block by block and
`count_frequencies` an in-memory stream as one block. It counts into an
array indexed by id while the ids are dense, and into a sorted table
once they are not, so its memory is bounded by the vocabulary and one
block either way. `metrics --corpus` needs no stream: `bpe.count_encoded`
counts each vocabulary index, and the table is its nonzero entries.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .corpus_io import TokenSequence, read_token_blocks
from .stats import ols_fit, simpson_integrate

DEFAULT_TRUNCATION_BOUND = 6.0
SIMPSON_GRID = 2049
LOG_BASE = "e"

METRIC_NAMES = ("compression", "cardinality", "auc", "slope", "power_law")


@dataclass(frozen=True)
class TokenFrequencyTable:
    """Sorted, unique, non-negative int64 `ids` and the positive int64
    `counts` of each; `total`, the stream length, is derived from them."""

    ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != counts.shape:
            raise ValueError("ids and counts must be 1-D arrays of equal length")
        if not len(ids):
            raise ValueError("frequency table is empty")
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("token ids must be sorted and unique")
        if ids[0] < 0:
            raise ValueError("token ids must be non-negative")
        if counts.min() <= 0:
            raise ValueError("counts must be positive")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class RankFrequencyCurve:
    """Points (ln rank, ln count), x strictly increasing."""

    points: np.ndarray
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if len(pts) and np.any(np.diff(pts[:, 0]) <= 0):
            raise ValueError("x values must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ZipfFit:
    """OLS line y = beta0 + beta1 * x over a log-log curve."""

    beta0: float
    beta1: float


@dataclass(frozen=True)
class MetricVector:
    compression: int
    cardinality: int
    auc: float
    slope: float
    power_law: float

    def as_features(self, names=METRIC_NAMES) -> np.ndarray:
        bad = [n for n in names if n not in METRIC_NAMES]
        if bad:
            raise ValueError(f"unknown metric names: {bad}")
        return np.array([float(getattr(self, n)) for n in names])


def count_frequencies(seq: TokenSequence) -> TokenFrequencyTable:
    return count_blocks([seq.tokens], "token stream")


def count_blocks(blocks: Iterable[np.ndarray], source: str) -> TokenFrequencyTable:
    """Count a stream given as consecutive blocks of ids.

    While the ids are dense, each block's counts are added in int64 to an
    array indexed by id, in O(block) time. Before each block holding an
    id the array lacks, the array grows to max(largest id + 1, 3/2 x its
    length) ids, or is made anew from the sorted table below, while that
    is at most 2 x (distinct ids so far) + 3 x (block length): about the
    memory the sorted table and `np.unique` of that block would take.
    Otherwise (an id of 2**62, say) the counts are held in the sorted
    table. There each block's `np.unique` counts are added in int64 to a
    running sorted (ids, counts) table. Ids the table lacks wait in a
    list, which is sorted into the table once it holds more entries than
    the table does, so a vocabulary that keeps growing does not cost a
    copy per block. Either way memory is O(largest block + vocabulary)
    however long the stream is, and since each growth is by at least
    half, the copies cost O(1) per id over the whole stream.
    `source` names the stream in the error raised when it holds no token.
    """
    dense = np.zeros(0, dtype=np.int64)  # counts by id; empty while there is a table
    ids = counts = None  # the sorted table, while the ids are too sparse for the array
    waiting, n_waiting, top = [], 0, 0
    for block in blocks:
        if not len(block):
            continue
        if block.min() < 0:
            raise ValueError("token ids must be non-negative")
        top = max(top, int(block.max()))
        if top >= len(dense):  # always, while there is a table
            size = max(top + 1, len(dense) * 3 // 2)
            distinct = np.count_nonzero(dense) if ids is None else len(ids)
            if size <= 2 * distinct + 3 * len(block):
                grown = np.zeros(size, dtype=np.int64)
                grown[: len(dense)] = dense
                if ids is not None:
                    grown[ids] = counts
                    for new_ids, new_counts in waiting:
                        grown[new_ids] += new_counts
                    ids = counts = None
                    waiting, n_waiting = [], 0
                dense = grown
            elif ids is None:
                ids = np.flatnonzero(dense)
                counts = dense[ids]
                dense = np.zeros(0, dtype=np.int64)
        if ids is None:
            np.add.at(dense, block, 1)
        else:
            new_ids, new_counts = np.unique(block, return_counts=True)
            at = np.searchsorted(ids, new_ids)
            seen = at < len(ids)
            seen[seen] = ids[at[seen]] == new_ids[seen]
            counts[at[seen]] += new_counts[seen]
            if not seen.all():
                waiting.append((new_ids[~seen], new_counts[~seen]))
                n_waiting += len(waiting[-1][0])
                if n_waiting > len(ids):
                    ids, counts = _add_new_ids(ids, counts, waiting)
                    waiting, n_waiting = [], 0
    if ids is None:
        ids = np.flatnonzero(dense)
        counts = dense[ids]
    if waiting:
        ids, counts = _add_new_ids(ids, counts, waiting)
    if not len(ids):
        raise ValueError(f"{source}: cannot count frequencies of an empty stream")
    return TokenFrequencyTable(ids, counts)


def _add_new_ids(ids, counts, waiting):
    """Sort (ids, counts) pairs whose ids a sorted table lacks into it."""
    new_ids = np.concatenate([w[0] for w in waiting])
    order = np.argsort(new_ids)
    new_ids = new_ids[order]
    first = np.flatnonzero(np.concatenate(([True], new_ids[1:] != new_ids[:-1])))
    new_counts = np.add.reduceat(np.concatenate([w[1] for w in waiting])[order], first)
    new_ids = new_ids[first]
    at = np.searchsorted(ids, new_ids)
    return np.insert(ids, at, new_ids), np.insert(counts, at, new_counts)


def count_token_file(path) -> TokenFrequencyTable:
    """Count a token file block by block, never holding the whole stream."""
    return count_blocks(read_token_blocks(path), str(path))


def ranked_counts(table: TokenFrequencyTable) -> np.ndarray:
    """Counts in descending order; equal counts need no tie-break by id."""
    return np.sort(table.counts)[::-1]


def rank_frequency_curve(
    table: TokenFrequencyTable,
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND,
) -> RankFrequencyCurve:
    """Log-log curve of the table, truncated at ln(rank) <= truncation_bound."""
    counts = ranked_counts(table)
    ranks = np.arange(1, len(counts) + 1, dtype=np.float64)
    x = np.log(ranks)
    keep = x <= truncation_bound
    pts = np.column_stack([x[keep], np.log(counts[keep].astype(np.float64))])
    return RankFrequencyCurve(points=pts, truncation_bound=truncation_bound)


def zipf_fit(curve: RankFrequencyCurve) -> ZipfFit:
    if len(curve) < 2:
        raise ValueError("need at least 2 curve points to fit a line")
    beta0, beta1 = ols_fit(curve.points)
    return ZipfFit(beta0=beta0, beta1=beta1)


def power_law_deviation(curve: RankFrequencyCurve, fit: ZipfFit) -> float:
    """Mean absolute residual of the curve against its OLS line."""
    if len(curve) == 0:
        raise ValueError("empty curve")
    residuals = curve.y - (fit.beta0 + fit.beta1 * curve.x)
    return float(np.mean(np.abs(residuals)))


def auc(curve: RankFrequencyCurve, grid: int = SIMPSON_GRID) -> float:
    """Simpson area under the piecewise-linear curve on a uniform grid.

    The curve is resampled at `grid` evenly spaced x positions so the
    quadrature result does not depend on the original point spacing.
    """
    if len(curve) < 2:
        raise ValueError("need at least 2 curve points to integrate")
    if grid < 3 or grid % 2 == 0:
        raise ValueError("grid must be an odd integer >= 3")
    x, y = curve.x, curve.y
    xs = np.linspace(x[0], x[-1], grid)
    ys = np.interp(xs, x, y)
    return simpson_integrate(ys, (x[-1] - x[0]) / (grid - 1))


def metric_vector(
    seq: TokenSequence,
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND,
) -> MetricVector:
    """All five metrics of a stream; fit and area use the truncated curve."""
    return metric_vector_from_table(count_frequencies(seq), truncation_bound)


def metric_vector_from_table(
    table: TokenFrequencyTable,
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND,
) -> MetricVector:
    """All five metrics of the stream a count table describes."""
    curve = rank_frequency_curve(table, truncation_bound)
    fit = zipf_fit(curve)
    return MetricVector(
        compression=table.total,
        cardinality=len(table.ids),
        auc=auc(curve),
        slope=fit.beta1,
        power_law=power_law_deviation(curve, fit),
    )


def metadata_block(truncation_bound: float = DEFAULT_TRUNCATION_BOUND) -> dict:
    """Provenance constants that make a serialized metric comparable."""
    bound = float(truncation_bound)
    if bound == math.floor(bound):
        bound = int(bound)
    return {"log_base": LOG_BASE, "truncation_bound": bound, "simpson_grid": SIMPSON_GRID}


def metric_vector_to_dict(
    mv: MetricVector,
    truncation_bound: float = DEFAULT_TRUNCATION_BOUND,
    **extra,
) -> dict:
    out = dict(extra)
    out.update(
        compression=mv.compression,
        cardinality=mv.cardinality,
        auc=mv.auc,
        slope=mv.slope,
        power_law=mv.power_law,
        metadata=metadata_block(truncation_bound),
    )
    return out


def metric_vector_from_dict(data: dict) -> MetricVector:
    """The metric fields of a record; each must be a finite number."""
    values = {}
    for name, kind in zip(METRIC_NAMES, (int, int, float, float, float)):
        if name not in data:
            raise ValueError(f"metric record is missing field {name!r}")
        try:
            values[name] = kind(data[name])
            finite = math.isfinite(values[name])
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            raise ValueError(f"field {name!r} is not a finite number: {data[name]!r}")
    return MetricVector(**values)
