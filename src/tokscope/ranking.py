"""Turning pairwise win probabilities into global rankings.

Bradley-Terry strengths are fit on fractional win counts: each
probability P[i, j] counts as a partial win of i over j and a partial
loss of 1 - P[i, j]. That likelihood is a logistic regression of P[i, j]
on the row e_i - e_j of the log-strengths, one row per compared pair, and
stats.fit_logistic_newton fits it.
Strengths are geometric-mean normalized, so only their ratios are
meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corpus_io import DownstreamFixture
from .stats import CorrelationResult, fit_logistic_newton, kendall

PROB_FLOOR = 1e-6
TIE_EPS = 1e-12


@dataclass(frozen=True)
class BTRatings:
    """Per-item strength values with unit geometric mean."""

    values: dict[str, float]
    iterations: int
    final_log_likelihood: float


@dataclass(frozen=True)
class Ranking:
    """Items ordered best first, with the score that ordered them."""

    ordered: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.ordered) != len(self.scores):
            raise ValueError("ordered and scores must have equal length")
        if len(set(self.ordered)) != len(self.ordered):
            raise ValueError("ranking contains duplicate items")


def fit_bradley_terry(prob_matrix: np.ndarray, names=None) -> BTRatings:
    """Fit strengths from a matrix of symmetrized win probabilities.

    prob_matrix[i, j] is the probability that item i beats item j; the
    diagonal is ignored and NaN marks a missing comparison. Off-diagonal
    entries must satisfy P[i, j] + P[j, i] = 1. Entries are clamped away
    from 0 and 1 so the likelihood stays finite.
    """
    probs = np.asarray(prob_matrix, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
        raise ValueError("prob_matrix must be square")
    n = probs.shape[0]
    if names is None:
        names = [str(i) for i in range(n)]
    names = list(names)
    if len(names) != n:
        raise ValueError("names length does not match matrix size")
    if n < 2:
        raise ValueError("need at least 2 items to rank")

    off_diag = ~np.eye(n, dtype=bool)
    present = off_diag & ~np.isnan(probs) & ~np.isnan(probs.T)
    if np.any(present):
        asym = np.abs(probs + probs.T - 1.0)[present]
        if asym.max() > 1e-9:
            raise ValueError(
                "prob_matrix is not symmetrized: P[i, j] + P[j, i] must equal 1"
            )

    # Connectivity of the comparison graph; a disconnected graph pins no
    # relative strength between components.
    reached = np.arange(n) == 0
    for _ in range(n - 1):
        reached |= present[reached].any(axis=0)
    if not reached.all():
        missing = [names[i] for i in np.flatnonzero(~reached)]
        raise ValueError(f"comparison graph is disconnected; unreachable: {missing}")

    clamped = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    if np.any((clamped != probs) & present):
        warnings.warn(
            f"win probabilities clamped to [{PROB_FLOOR}, {1 - PROB_FLOOR}]",
            RuntimeWarning,
            stacklevel=2,
        )

    # One row e_i - e_j per compared pair i < j, with target P[i, j]. As
    # clamping keeps P[i, j] + P[j, i] = 1, its cross-entropy is the
    # fractional-win likelihood of both orders. D is rank-deficient along
    # the constant shift, and the least-squares Newton step is orthogonal
    # to it, so theta keeps summing to zero.
    rows, cols = np.nonzero(np.triu(present))
    D = np.eye(n)[rows] - np.eye(n)[cols]
    theta, fval, steps, converged = fit_logistic_newton(D, clamped[rows, cols])
    if not converged:
        warnings.warn(
            f"Bradley-Terry fit stopped after NEWTON_MAX_STEPS = {steps} Newton steps "
            "without converging; the strengths may be far from the "
            "maximum-likelihood ones",
            RuntimeWarning,
            stacklevel=2,
        )
    strengths = np.exp(theta - theta.mean())
    return BTRatings(
        values={name: float(v) for name, v in zip(names, strengths)},
        iterations=steps,
        final_log_likelihood=-fval,
    )


def ranking_from_ratings(ratings: BTRatings) -> Ranking:
    """Order items by descending strength; near-ties fall back to name order."""
    items = sorted(ratings.values.items(), key=lambda kv: (-kv[1], kv[0]))
    for (a, va), (b, vb) in zip(items, items[1:]):
        if abs(va - vb) <= TIE_EPS:
            warnings.warn(
                f"strengths of {a!r} and {b!r} tie within {TIE_EPS}; "
                "ordering them alphabetically",
                RuntimeWarning,
                stacklevel=2,
            )
    return Ranking(
        ordered=tuple(name for name, _ in items),
        scores=tuple(value for _, value in items),
    )


def ground_truth_ranking(
    fixture: DownstreamFixture, language: str, scale: str
) -> Ranking:
    """Tokenizers ordered by ascending two-direction mean MetricX (lower is better)."""
    tokenizers = fixture.tokenizers()
    if not tokenizers:
        raise ValueError("fixture is empty")
    means = {t: fixture.mean_metricx(t, scale, language) for t in tokenizers}
    items = sorted(means.items(), key=lambda kv: (kv[1], kv[0]))
    return Ranking(
        ordered=tuple(name for name, _ in items),
        scores=tuple(value for _, value in items),
    )


def evaluate_ranking(
    predicted: Ranking, truth: Ranking, alternative: str = "two-sided"
) -> CorrelationResult:
    """Kendall rank correlation between two rankings of the same items."""
    if set(predicted.ordered) != set(truth.ordered):
        raise ValueError("rankings cover different item sets")
    canonical = sorted(truth.ordered)
    pred_pos = {name: i for i, name in enumerate(predicted.ordered)}
    true_pos = {name: i for i, name in enumerate(truth.ordered)}
    x = [pred_pos[name] + 1 for name in canonical]
    y = [true_pos[name] + 1 for name in canonical]
    return kendall(x, y, alternative=alternative)
