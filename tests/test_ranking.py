"""Bradley-Terry fitting, ranking construction, and ranking agreement.

The oracle for two items is closed-form: with a single comparison
probability p, the maximum-likelihood strength ratio is p / (1 - p). For
larger tables, feeding the fitter exact Bradley-Terry probabilities from
known strengths must recover those strengths up to normalization, and
any table must give the strengths of a trust-region solve of the same
likelihood by scipy.
"""

from __future__ import annotations

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special
from scipy.stats import kendalltau

from tokscope import (
    BTRatings,
    Ranking,
    evaluate_ranking,
    fit_bradley_terry,
    ground_truth_ranking,
    load_bundled_fixture,
    ranking_from_ratings,
)
from tokscope import stats
from tokscope.corpus_io import DIRECTIONS
from tokscope.ranking import PROB_FLOOR


def bt_matrix(strengths: np.ndarray) -> np.ndarray:
    """Exact win probabilities implied by the given strengths."""
    s = np.asarray(strengths, dtype=np.float64)
    probs = s[:, None] / (s[:, None] + s[None, :])
    np.fill_diagonal(probs, 0.5)
    return probs


class TestFitBradleyTerry:
    def test_two_items_ratio_three(self):
        probs = np.array([[0.5, 0.75], [0.25, 0.5]])
        ratings = fit_bradley_terry(probs, names=["a", "b"])
        ratio = ratings.values["a"] / ratings.values["b"]
        assert ratio == pytest.approx(3.0, abs=1e-8)

    def test_uniform_probabilities_tie(self):
        probs = np.full((4, 4), 0.5)
        ratings = fit_bradley_terry(probs)
        values = np.array(list(ratings.values.values()))
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_recovers_four_two_one(self):
        strengths = np.array([4.0, 2.0, 1.0])
        ratings = fit_bradley_terry(bt_matrix(strengths), names=["a", "b", "c"])
        assert ratings.values["a"] / ratings.values["c"] == pytest.approx(4.0, abs=1e-7)
        assert ratings.values["b"] / ratings.values["c"] == pytest.approx(2.0, abs=1e-7)

    def test_unit_geometric_mean(self):
        ratings = fit_bradley_terry(bt_matrix(np.array([5.0, 1.0, 0.2])))
        values = np.array(list(ratings.values.values()))
        assert np.exp(np.mean(np.log(values))) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_probabilities_clamped_with_warning(self):
        probs = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.warns(RuntimeWarning, match="clamped"):
            ratings = fit_bradley_terry(probs, names=["a", "b"])
        assert ratings.values["a"] > ratings.values["b"]
        assert np.isfinite(ratings.final_log_likelihood)

    def test_asymmetric_matrix_rejected(self):
        probs = np.array([[0.5, 0.7], [0.4, 0.5]])
        with pytest.raises(ValueError, match="symmetrized"):
            fit_bradley_terry(probs)

    def test_disconnected_graph_rejected(self):
        probs = np.full((4, 4), np.nan)
        np.fill_diagonal(probs, 0.5)
        for i, j, p in [(0, 1, 0.6), (2, 3, 0.7)]:
            probs[i, j] = p
            probs[j, i] = 1.0 - p
        with pytest.raises(ValueError, match="disconnected.*'c'"):
            fit_bradley_terry(probs, names=["a", "b", "c", "d"])

    def test_missing_comparisons_tolerated_when_connected(self):
        # Chain a-b, b-c: no direct a-c cell, still identifiable.
        probs = np.full((3, 3), np.nan)
        np.fill_diagonal(probs, 0.5)
        strengths = np.array([4.0, 2.0, 1.0])
        full = bt_matrix(strengths)
        for i, j in [(0, 1), (1, 2)]:
            probs[i, j] = full[i, j]
            probs[j, i] = full[j, i]
        ratings = fit_bradley_terry(probs, names=["a", "b", "c"])
        assert ratings.values["a"] / ratings.values["c"] == pytest.approx(4.0, abs=1e-6)

    def test_shape_and_size_validation(self):
        with pytest.raises(ValueError, match="square"):
            fit_bradley_terry(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="at least 2"):
            fit_bradley_terry(np.array([[0.5]]))
        with pytest.raises(ValueError, match="names length"):
            fit_bradley_terry(np.full((2, 2), 0.5), names=["only-one"])

    def test_reports_iterations(self):
        ratings = fit_bradley_terry(bt_matrix(np.array([2.0, 1.0])))
        assert 1 <= ratings.iterations <= stats.NEWTON_MAX_STEPS

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
            min_size=3,
            max_size=6,
        )
    )
    def test_recovers_random_strengths(self, raw):
        strengths = np.asarray(raw)
        strengths /= np.exp(np.mean(np.log(strengths)))
        ratings = fit_bradley_terry(bt_matrix(strengths))
        fitted = np.array([ratings.values[str(i)] for i in range(len(raw))])
        np.testing.assert_allclose(fitted, strengths, atol=1e-6)

    def test_sweep_cap_warns(self, monkeypatch):
        # A nearly separable table, which takes Newton more than one step.
        probs = np.full((3, 3), 0.5)
        rows, cols = np.triu_indices(3, k=1)
        probs[rows, cols], probs[cols, rows] = 0.0, 1.0
        monkeypatch.setattr(stats, "NEWTON_MAX_STEPS", 1)
        with pytest.warns(RuntimeWarning, match="clamped"):
            with pytest.warns(RuntimeWarning, match="1 Newton steps without converging"):
                ratings = fit_bradley_terry(probs)
        assert ratings.iterations == 1

    def test_converged_fit_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratings = fit_bradley_terry(bt_matrix(np.array([4.0, 2.0, 1.0])))
        assert ratings.iterations < stats.NEWTON_MAX_STEPS

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(2, 10),
        upper=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from((0.0, 1.0, 1e-7, 1.0 - 1e-7)),  # clamped
            ),
            min_size=45,
            max_size=45,
        ),
    )
    # A nearly separable table, whose optimum (-13.12, 0, 13.12) lies far
    # from the start.
    @example(n=3, upper=[0.0] * 45)
    def test_matches_direct_likelihood_maximization(self, n, upper):
        probs = np.full((n, n), 0.5)
        rows, cols = np.triu_indices(n, k=1)
        probs[rows, cols] = upper[: len(rows)]
        probs[cols, rows] = 1.0 - probs[rows, cols]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # clamped entries
            ratings = fit_bradley_terry(probs)
        fitted = np.log([ratings.values[str(i)] for i in range(n)])

        wins = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
        np.fill_diagonal(wins, 0.0)

        def full(rest):
            # Log-strengths with the first pinned at zero, which removes
            # the likelihood's one flat direction.
            return np.concatenate([[0.0], rest])

        def negative_log_likelihood(rest):
            theta = full(rest)
            diff = theta[:, None] - theta[None, :]
            return float(np.sum(wins * np.logaddexp(0.0, -diff)))

        def gradient(rest):
            theta = full(rest)
            loss = wins * special.expit(-(theta[:, None] - theta[None, :]))
            return (loss.T.sum(axis=1) - loss.sum(axis=1))[1:]

        def hessian(rest):
            theta = full(rest)
            p = special.expit(theta[:, None] - theta[None, :])
            coupling = (wins + wins.T) * p * (1.0 - p)
            np.fill_diagonal(coupling, 0.0)
            return (np.diag(coupling.sum(axis=1)) - coupling)[1:, 1:]

        result = optimize.minimize(
            negative_log_likelihood, np.zeros(n - 1), jac=gradient, hess=hessian,
            method="trust-exact", options={"gtol": 1e-12},
        )
        reference = result.x
        for _ in range(3):  # Newton steps polish a rounding-limited stop
            reference = reference - np.linalg.solve(hessian(reference), gradient(reference))
        reference = full(reference)
        np.testing.assert_allclose(
            fitted - fitted.mean(), reference - reference.mean(), rtol=0.0, atol=1e-5
        )


class TestRankingFromRatings:
    def test_descending_order(self):
        ratings = BTRatings(values={"a": 3.0, "b": 1.0}, iterations=1,
                            final_log_likelihood=0.0)
        ranking = ranking_from_ratings(ratings)
        assert ranking.ordered == ("a", "b")
        assert ranking.scores == (3.0, 1.0)

    def test_tie_falls_back_to_name_order(self):
        ratings = BTRatings(values={"zeta": 1.0, "alpha": 1.0}, iterations=1,
                            final_log_likelihood=0.0)
        with pytest.warns(RuntimeWarning, match="alphabetically"):
            ranking = ranking_from_ratings(ratings)
        assert ranking.ordered == ("alpha", "zeta")

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Ranking(ordered=("a", "a"), scores=(1.0, 0.5))
        with pytest.raises(ValueError, match="equal length"):
            Ranking(ordered=("a", "b"), scores=(1.0,))


def mean_score(fx, score, tokenizer, scale, language) -> float:
    """MetricX or chrF averaged over both translation directions."""
    return 0.5 * sum(getattr(fx.get(tokenizer, scale, language, d), score) for d in DIRECTIONS)


def bundled_gaps(scale, score="metricx") -> np.ndarray:
    """First minus second tokenizer's mean score, per (language, tokenizer pair)."""
    fx = load_bundled_fixture()
    return np.array([
        mean_score(fx, score, a, scale, language) - mean_score(fx, score, b, scale, language)
        for language in fx.languages() for a, b in combinations(fx.tokenizers(), 2)
    ])


class TestGroundTruth:
    def test_zh_order_at_2_7b(self):
        fx = load_bundled_fixture()
        ranking = ground_truth_ranking(fx, "zh", "2.7B")
        assert ranking.ordered == (
            "Aya 23", "Falcon", "Phi-3-mini", "tiktoken", "GPT-NeoX", "GPT-2",
        )

    def test_ru_order_at_2_7b(self):
        fx = load_bundled_fixture()
        ranking = ground_truth_ranking(fx, "ru", "2.7B")
        assert ranking.ordered == (
            "Phi-3-mini", "Aya 23", "tiktoken", "GPT-NeoX", "Falcon", "GPT-2",
        )

    def test_cs_best_mean(self):
        fx = load_bundled_fixture()
        ranking = ground_truth_ranking(fx, "cs", "2.7B")
        assert ranking.ordered[0] == "Phi-3-mini"
        assert ranking.scores[0] == pytest.approx(7.135)
        assert list(ranking.scores) == sorted(ranking.scores)

    @pytest.mark.parametrize("language, tau, p", [
        ("cs", 0.600, 0.136), ("de", 0.733, 0.056), ("ru", 0.867, 0.017), ("zh", 0.867, 0.017),
    ])
    def test_orders_agree_across_model_scales(self, language, tau, p):
        # The bundled scores rank the tokenizers much the same at 350M and
        # at 2.7B: a small model predicts the larger one's order.
        fx = load_bundled_fixture()
        result = evaluate_ranking(ground_truth_ranking(fx, language, "350M"),
                                  ground_truth_ranking(fx, language, "2.7B"),
                                  alternative="two-sided")
        assert result.n == 6
        assert result.coefficient == pytest.approx(tau, abs=5e-4)
        assert result.p_value == pytest.approx(p, abs=5e-4)

    def test_small_scale_winner_is_large_scale_winner(self):
        small, large = bundled_gaps("350M"), bundled_gaps("2.7B")
        assert len(small) == 60
        assert np.count_nonzero((small > 0) == (large > 0)) == 53

    @pytest.mark.parametrize("by, counts", [
        ("2.7B", {0.25: (48, 53), 0.5: (39, 40), 1.0: (31, 32), 2.0: (14, 14)}),
        ("350M", {0.25: (51, 57), 0.5: (51, 56), 1.0: (42, 43), 2.0: (30, 31)}),
    ])
    def test_clear_differences_agree_across_scales(self, by, counts):
        # Of the pairs whose gap at scale `by` is strictly above each
        # threshold, how many have the same winner at 350M and at 2.7B.
        # The 350M gap is the one known before the larger model is trained.
        agree = (bundled_gaps("350M") > 0) == (bundled_gaps("2.7B") > 0)
        gap = np.abs(bundled_gaps(by))
        for threshold, (agreeing, clear) in counts.items():
            above = gap > threshold
            assert (np.count_nonzero(agree & above), np.count_nonzero(above)) == (agreeing, clear)

    @pytest.mark.parametrize("scale", ["350M", "2.7B"])
    def test_chrf_winner_is_metricx_winner(self, scale):
        # chrF is higher-is-better, MetricX lower-is-better.
        agree = (bundled_gaps(scale) > 0) == (bundled_gaps(scale, "chrf") < 0)
        assert np.count_nonzero(agree) == 54

    @pytest.mark.parametrize("scale, language, tau, p", [
        ("350M", "cs", 0.867, 0.0167), ("350M", "de", 0.867, 0.0167),
        ("350M", "ru", 0.600, 0.1361), ("350M", "zh", 0.867, 0.0167),
        ("2.7B", "cs", 0.733, 0.0556), ("2.7B", "de", 0.600, 0.1361),
        ("2.7B", "ru", 0.867, 0.0167), ("2.7B", "zh", 1.000, 0.0028),
    ])
    def test_metricx_and_chrf_orders_agree(self, scale, language, tau, p):
        fx = load_bundled_fixture()
        metricx = [mean_score(fx, "metricx", t, scale, language) for t in fx.tokenizers()]
        chrf = [-mean_score(fx, "chrf", t, scale, language) for t in fx.tokenizers()]
        result = stats.kendall(metricx, chrf)
        assert result.n == 6
        assert result.coefficient == pytest.approx(tau, abs=5e-4)
        assert result.p_value == pytest.approx(p, abs=5e-5)
        assert kendalltau(metricx, chrf, method="exact").pvalue == pytest.approx(p, abs=5e-5)

    def test_missing_cell_reported(self):
        fx = load_bundled_fixture()
        with pytest.raises(KeyError, match="no score"):
            ground_truth_ranking(fx, "fr", "2.7B")


class TestEvaluateRanking:
    def test_identical_rankings(self):
        r = Ranking(ordered=("a", "b", "c", "d"), scores=(4.0, 3.0, 2.0, 1.0))
        result = evaluate_ranking(r, r)
        assert result.coefficient == pytest.approx(1.0)

    def test_reversed_rankings(self):
        r = Ranking(ordered=("a", "b", "c", "d"), scores=(4.0, 3.0, 2.0, 1.0))
        rev = Ranking(ordered=("d", "c", "b", "a"), scores=(4.0, 3.0, 2.0, 1.0))
        assert evaluate_ranking(r, rev).coefficient == pytest.approx(-1.0)

    def test_one_adjacent_swap_of_six(self):
        truth = Ranking(ordered=tuple("abcdef"), scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        pred = Ranking(ordered=("b", "a", "c", "d", "e", "f"),
                       scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        result = evaluate_ranking(pred, truth)
        assert result.coefficient == pytest.approx(1 - 2 / 15)
        assert result.coefficient == pytest.approx(0.8667, abs=5e-4)

    def test_two_adjacent_swaps_of_six(self):
        truth = Ranking(ordered=tuple("abcdef"), scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        pred = Ranking(ordered=("b", "a", "c", "e", "d", "f"),
                       scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        result = evaluate_ranking(pred, truth)
        assert result.coefficient == pytest.approx(1 - 4 / 15)
        assert result.coefficient == pytest.approx(0.7333, abs=5e-4)

    def test_item_set_mismatch_rejected(self):
        a = Ranking(ordered=("a", "b"), scores=(2.0, 1.0))
        b = Ranking(ordered=("a", "c"), scores=(2.0, 1.0))
        with pytest.raises(ValueError, match="different item sets"):
            evaluate_ranking(a, b)

    def test_one_sided_p_at_most_two_sided(self):
        truth = Ranking(ordered=tuple("abcdef"), scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        pred = Ranking(ordered=("b", "a", "c", "d", "e", "f"),
                       scores=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0))
        one = evaluate_ranking(pred, truth, alternative="greater")
        two = evaluate_ranking(pred, truth, alternative="two-sided")
        assert one.p_value <= two.p_value
