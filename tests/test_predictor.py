"""Pairwise predictors: dataset construction, solvers, calibration.

Solver oracles: the SMO dual is certified optimal by weak duality (the
primal at the dual's weights and best bias bounds its distance to the
optimum), on RBF and linear kernels, plus the KKT conditions, and the
scalar SMO loop against a copy of the earlier vectorized loop, bit for
bit; the linear SVM, SMO on the linear kernel, by a zero duality gap:
its free-bias primal at the fitted weights and bias against an SLSQP
solve of the equality-constrained dual;
logistic Newton fits against closed-form optima and against a trust-region
solve of the same penalized log loss by scipy.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize

from tokscope import (
    METRIC_NAMES,
    DownstreamFixture,
    MetricVector,
    PairwiseExample,
    PairwiseModel,
    ScoreEntry,
    build_pairwise_dataset,
    fit_linear_svm,
    fit_logistic,
    fit_platt,
    fit_rbf_svm_platt,
    heldout_language_probabilities,
    leave_one_language_out,
    leave_one_tokenizer_out,
    predict_pair,
)
from tokscope import predictor, stats
from tokscope.predictor import (
    GAMMA_GRID,
    REGULARIZATION_GRID,
    _fit_linear_svm_core,
    _fit_logistic_core,
    _rbf_kernel,
    _smo,
    _standardization,
    _stratified_folds,
    decision_value,
)

from conftest import (
    SYNTH_LANGUAGES,
    SYNTH_SCALE,
    SYNTH_TOKENIZERS,
    make_synthetic_fixture,
    make_synthetic_metrics,
)


@pytest.fixture(scope="module")
def synth_world():
    return make_synthetic_metrics(), make_synthetic_fixture()


@pytest.fixture(scope="module")
def synth_dataset(synth_world):
    metrics, fixture = synth_world
    return build_pairwise_dataset(metrics, fixture, SYNTH_SCALE, seed=0)


def example(features, label, i="x", j="y", language="aa"):
    return PairwiseExample(
        tok_i=i, tok_j=j, language=language,
        features=np.asarray(features, dtype=np.float64), label=label,
    )


def separable_1d(n_per_class=8):
    out = []
    for idx in range(n_per_class):
        out.append(example([1.0 + 0.01 * idx], 1, i=f"p{idx}", j="q"))
        out.append(example([-1.0 - 0.01 * idx], 0, i=f"n{idx}", j="q"))
    return out


def _reference_smo(K, sign, C):
    """A vectorized SMO loop with the same pair rule, the reference for _smo."""
    n = len(sign)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    Q = (sign[:, None] * sign[None, :]) * K
    bound = C - 1e-12
    for _ in range(predictor.SMO_MAX_STEPS):
        yg = -sign * grad
        up = ((sign > 0) & (alpha < bound)) | ((sign < 0) & (alpha > 1e-12))
        low = ((sign < 0) & (alpha < bound)) | ((sign > 0) & (alpha > 1e-12))
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        if yg[i] - np.min(yg[low]) <= predictor.SMO_TOL:
            break
        eta_i = K[i, i] + np.diag(K) - 2.0 * K[i]
        eta_i[eta_i <= 0.0] = 1e-12
        violators = low & (yg < yg[i])
        j = int(np.argmax(np.where(violators, (yg - yg[i]) ** 2 / eta_i, -1.0)))
        if sign[i] != sign[j]:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        u = sign * (grad + 1.0)
        err_i = u[i] - sign[i]
        err_j = u[j] - sign[j]
        new_aj = np.clip(alpha[j] + sign[j] * (err_i - err_j) / eta_i[j], L, H)
        delta_j = new_aj - alpha[j]
        if abs(delta_j) < 1e-14:
            warnings.warn("SMO stalled on a degenerate pair", RuntimeWarning)
            break
        delta_i = -sign[i] * sign[j] * delta_j
        alpha[i] += delta_i
        alpha[j] += delta_j
        grad += Q[:, i] * delta_i + Q[:, j] * delta_j
    else:
        warnings.warn("SMO hit its step cap before reaching tolerance", RuntimeWarning)

    u = sign * (grad + 1.0)
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(sign[free] - u[free]))
    else:
        yg = -sign * grad
        up = ((sign > 0) & (alpha < bound)) | ((sign < 0) & (alpha > 1e-12))
        low = ((sign < 0) & (alpha < bound)) | ((sign > 0) & (alpha > 1e-12))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return alpha, b


# A draw on which SMO with the first-order pair rule stopped at its step
# cap 3.4e-6 short of the dual optimum at C = 10: at gamma = 0.01 the
# kernel on these 29 points, most of them one point, is nearly singular.
_P = 1.357421875
_ILL_CONDITIONED_POINTS = np.array([
    (-0.0, _P), (_P, _P), (-1.98046875, _P), (_P, _P), (_P, _P),
    (_P, 1.513671875), (_P, _P), (_P, _P), (0.2841796875, _P), (_P, 1.97265625),
    (_P, -1.5478515625), (_P, -0.0), (_P, _P), (_P, _P), (_P, _P),
    (_P, -1.515625), (_P, -1.5908203125), (-0.11834716796875, _P),
    (_P, -1.7158203125), (_P, _P), (_P, _P), (-0.0, _P), (-0.0, _P), (_P, _P),
    (_P, 1.9892578125), (_P, _P), (-1.37109375, _P), (_P, _P), (-0.0, _P),
])
_ILL_CONDITIONED_LABELS = [
    c == "1" for c in "0010101111" "0110111111" "1101100011" "0000000000"
]


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestBuildPairwiseDataset:
    def test_counts_and_coverage(self, synth_dataset):
        assert len(synth_dataset) == 60  # C(6, 2) pairs x 4 languages
        for tok in SYNTH_TOKENIZERS:
            involving = [e for e in synth_dataset if tok in (e.tok_i, e.tok_j)]
            assert len(involving) == 20
        for lang in SYNTH_LANGUAGES:
            assert sum(e.language == lang for e in synth_dataset) == 15

    def test_each_unordered_pair_once_per_language(self, synth_dataset):
        seen = {(frozenset((e.tok_i, e.tok_j)), e.language) for e in synth_dataset}
        assert len(seen) == 60

    def test_labels_match_downstream_scores(self, synth_world, synth_dataset):
        _, fixture = synth_world
        for e in synth_dataset:
            mean_i = fixture.mean_metricx(e.tok_i, SYNTH_SCALE, e.language)
            mean_j = fixture.mean_metricx(e.tok_j, SYNTH_SCALE, e.language)
            assert e.label == int(mean_i < mean_j)
            # The determining feature difference carries the same sign.
            assert e.label == int(e.features[0] < 0)

    def test_features_are_metric_differences(self, synth_world, synth_dataset):
        metrics, _ = synth_world
        for e in synth_dataset[:10]:
            vi = metrics[(e.tok_i, e.language)].as_features(METRIC_NAMES)
            vj = metrics[(e.tok_j, e.language)].as_features(METRIC_NAMES)
            np.testing.assert_array_equal(e.features, vi - vj)

    def test_same_seed_reproducible(self, synth_world, synth_dataset):
        metrics, fixture = synth_world
        again = build_pairwise_dataset(metrics, fixture, SYNTH_SCALE, seed=0)
        assert [(e.tok_i, e.tok_j, e.language, e.label) for e in again] == [
            (e.tok_i, e.tok_j, e.language, e.label) for e in synth_dataset
        ]

    def test_seed_changes_orientations(self, synth_world, synth_dataset):
        metrics, fixture = synth_world
        other = build_pairwise_dataset(metrics, fixture, SYNTH_SCALE, seed=1)
        assert [(e.tok_i, e.tok_j) for e in other] != [
            (e.tok_i, e.tok_j) for e in synth_dataset
        ]

    def test_feature_subset(self, synth_world):
        metrics, fixture = synth_world
        subset = ("cardinality", "slope")
        data = build_pairwise_dataset(
            metrics, fixture, SYNTH_SCALE, feature_set=subset, seed=0
        )
        e = data[0]
        assert e.features.shape == (2,)
        vi = metrics[(e.tok_i, e.language)].as_features(subset)
        vj = metrics[(e.tok_j, e.language)].as_features(subset)
        np.testing.assert_array_equal(e.features, vi - vj)

    def test_missing_metrics_reported(self, synth_world):
        metrics, fixture = synth_world
        partial = dict(metrics)
        del partial[("alpha", "aa")]
        with pytest.raises(ValueError, match="missing metrics"):
            build_pairwise_dataset(partial, fixture, SYNTH_SCALE, seed=0)

    def test_downstream_tie_rejected(self):
        entries = {}
        for tok in ("x", "y"):
            for direction in ("en-xx", "xx-en"):
                entry = ScoreEntry(tok, "1B", "aa", direction, 5.0, 40.0)
                entries[entry.key] = entry
        fixture = DownstreamFixture(entries=entries)
        metrics = {
            ("x", "aa"): MetricVector(100, 10, 1.0, -1.0, 0.1),
            ("y", "aa"): MetricVector(200, 20, 2.0, -0.5, 0.2),
        }
        with pytest.raises(ValueError, match="tie"):
            build_pairwise_dataset(metrics, fixture, "1B", seed=0)

    def test_example_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            example([1.0], 1, i="same", j="same")
        with pytest.raises(ValueError, match="finite"):
            example([np.nan], 1)
        with pytest.raises(ValueError, match="label"):
            example([1.0], 2)


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        y = np.array([1.0] * 13 + [0.0] * 7)
        folds = _stratified_folds(y, 5)
        everything = np.concatenate(folds)
        assert sorted(everything.tolist()) == list(range(20))
        for fold in folds:
            n_pos = int(y[fold].sum())
            n_neg = len(fold) - n_pos
            assert 2 <= n_pos <= 3
            assert 1 <= n_neg <= 2

    def test_requires_two_folds(self):
        with pytest.raises(ValueError, match="at least 2"):
            _stratified_folds(np.array([1.0, 0.0]), 1)


class TestFitLogistic:
    def test_separable_training_f1(self, synth_dataset):
        model = fit_logistic(synth_dataset, lam=0.1, feature_names=METRIC_NAMES)
        predicted = [int(predict_pair(model, e.features) > 0.5) for e in synth_dataset]
        assert predicted == [e.label for e in synth_dataset]
        assert model.kind == "logistic"
        assert model.feature_names == METRIC_NAMES

    def test_intercept_only_matches_class_rate(self):
        # Constant features leave nothing to fit but the intercept, whose
        # optimum is the empirical positive rate regardless of lam.
        data = [example([0.0], 1, i=f"p{i}", j="q") for i in range(18)]
        data += [example([0.0], 0, i=f"n{i}", j="q") for i in range(2)]
        model = fit_logistic(data, lam=1.0)
        assert predict_pair(model, [0.0]) == pytest.approx(0.9, abs=1e-4)

    def test_symmetric_dataset_has_zero_intercept(self):
        data = []
        for i in range(10):
            x = 0.5 + 0.1 * i
            data.append(example([x], 1, i=f"p{i}", j="q"))
            data.append(example([-x], 0, i=f"n{i}", j="q"))
        model = fit_logistic(data, lam=1.0)
        assert abs(model.beta0) <= 1e-10

    def test_single_class_rejected(self):
        data = [example([float(i)], 1, i=f"p{i}", j="q") for i in range(6)]
        with pytest.raises(ValueError, match="per class"):
            fit_logistic(data, lam=1.0)

    def test_unregularized_separable_fit_diverges(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            fit_logistic(separable_1d(), lam=0.0)

    def test_unregularized_overlapping_fit_converges(self):
        # At x = +1 three of four labels are positive, at x = -1 one of
        # four: the optimum is p = 3/4 and 1/4, so w = log 3 and b = 0.
        # The all-zero second feature leaves the Hessian singular.
        data = []
        for idx, (x, label) in enumerate(
            [(1.0, 1)] * 3 + [(1.0, 0)] + [(-1.0, 0)] * 3 + [(-1.0, 1)]
        ):
            data.append(example([x, 0.0], label, i=f"t{idx}", j="u"))
        model = fit_logistic(data, lam=0.0)
        assert model.weights[0] == pytest.approx(np.log(3.0), abs=1e-9)
        assert model.weights[1] == 0.0
        assert abs(model.beta0) <= 1e-12
        assert predict_pair(model, [1.0, 0.0]) == pytest.approx(0.75, abs=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 30),
        d=st.integers(1, 4),
        spread=st.sampled_from((0.1, 1.0, 10.0)),
    )
    # At lam = 0 this draw's Hessian has an eigenvalue near 2e-6, and
    # trust-exact alone stops 1.3e-6 from the optimum.
    @hypothesis.example(seed=607, n_random=1, d=1, spread=10.0)
    @pytest.mark.parametrize("lam", (0.0, *REGULARIZATION_GRID))
    def test_newton_matches_scipy(self, lam, seed, n_random, d, spread):
        # d + 1 anchor points carry both labels, so no direction separates
        # the data and even lam = 0 has a unique, finite optimum.
        rng = np.random.default_rng(seed)
        anchors = rng.normal(size=(d + 1, d))
        X = np.vstack([anchors, anchors, spread * rng.normal(size=(n_random, d))])
        y = np.concatenate(
            [np.ones(d + 1), np.zeros(d + 1), rng.integers(0, 2, n_random)]
        ).astype(np.float64)
        mean, scale, b, w = _fit_logistic_core(X, y, lam)

        ref_mean, ref_scale = _standardization(X)
        A = np.column_stack([np.ones(len(y)), (X - ref_mean) / ref_scale])
        flip = 1.0 - 2.0 * y
        penalty = np.array([0.0] + [lam] * d)

        def objective(theta):
            t = flip * (A @ theta)
            return np.mean(np.logaddexp(0.0, t)) + 0.5 * theta @ (penalty * theta)

        def gradient(theta):
            p = 1.0 / (1.0 + np.exp(-(A @ theta)))
            return A.T @ (p - y) / len(y) + penalty * theta

        def hessian(theta):
            p = 1.0 / (1.0 + np.exp(-(A @ theta)))
            return (A.T * (p * (1.0 - p))) @ A / len(y) + np.diag(penalty)

        result = optimize.minimize(
            objective, np.zeros(d + 1), jac=gradient, hess=hessian,
            method="trust-exact", options={"gtol": 1e-12},
        )
        theta = np.append(b, w)
        assert np.linalg.norm(gradient(theta)) <= 2 * stats.NEWTON_GRAD_TOL
        # trust-exact can stop on a rounding-limited step a little short
        # of the optimum, so its own gradient is held to a looser bound,
        # and where the problem is ill-conditioned a small gradient still
        # leaves a visible distance: Newton steps polish its point.
        assert np.linalg.norm(gradient(result.x)) <= 1e-7
        reference = result.x
        for _ in range(3):
            step = np.linalg.lstsq(hessian(reference), gradient(reference), rcond=None)[0]
            reference = reference - step
        np.testing.assert_allclose(theta, reference, rtol=0.0, atol=1e-6)

    def test_cv_selects_from_grid(self, synth_dataset):
        model = fit_logistic(synth_dataset, feature_names=METRIC_NAMES)
        assert model.hyperparameters["lam"] in REGULARIZATION_GRID
        assert model.hyperparameters["cv_folds"] == 5


class TestFitLinearSvm:
    def test_separable_training_signs(self):
        data = separable_1d()
        model = fit_linear_svm(data, C=10.0)
        for e in data:
            d = decision_value(model, e.features)
            assert (d > 0) == bool(e.label)

    def test_duplication_leaves_decisions_unchanged(self):
        data = separable_1d(n_per_class=6)
        model_once = fit_linear_svm(data, C=1.0)
        model_twice = fit_linear_svm(data + data, C=1.0)
        for probe in ([0.3], [-0.7], [1.5]):
            assert decision_value(model_once, probe) == pytest.approx(
                decision_value(model_twice, probe), abs=1e-6
            )

    def test_platt_probabilities_behave(self):
        data = separable_1d()
        model = fit_linear_svm(data, C=10.0)
        p_pos = predict_pair(model, [1.2])
        p_neg = predict_pair(model, [-1.2])
        assert 0.0 < p_neg < 0.5 < p_pos < 1.0

    def test_feature_names_recorded(self, synth_world):
        metrics, fixture = synth_world
        subset = ("cardinality", "power_law", "slope")
        data = build_pairwise_dataset(
            metrics, fixture, SYNTH_SCALE, feature_set=subset, seed=0
        )
        model = fit_linear_svm(data, C=1.0, feature_names=subset)
        assert model.feature_names == subset
        assert model.weights.shape == (3,)

    @pytest.mark.parametrize("C", REGULARIZATION_GRID)
    def test_zero_duality_gap(self, synth_dataset, C):
        # The free-bias primal at the fitted (w, b) must equal minus the
        # optimum of the dual with its equality constraint, as SLSQP finds
        # it, polished by a second, tighter run from its own point.
        X = np.vstack([e.features for e in synth_dataset])
        y = np.array([e.label for e in synth_dataset], dtype=np.float64)
        sign = np.where(y > 0.5, 1.0, -1.0)
        n = len(y)
        mean, scale, b, w = _fit_linear_svm_core(X, y, C)
        Z = (X - mean) / scale
        hinge = np.maximum(0.0, 1.0 - sign * (Z @ w + b))
        primal = 0.5 * w @ w + C / n * hinge.sum()

        Q = (sign[:, None] * sign[None, :]) * (Z @ Z.T)

        def dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        problem = dict(
            jac=lambda a: Q @ a - 1.0, bounds=[(0.0, C / n)] * n, method="SLSQP",
            constraints=[{"type": "eq", "fun": lambda a: a @ sign,
                          "jac": lambda a: sign}],
        )
        reference = optimize.minimize(
            dual, np.zeros(n), options={"ftol": 1e-12, "maxiter": 1000}, **problem
        ).x
        reference = optimize.minimize(
            dual, reference, options={"ftol": 1e-15, "maxiter": 1000}, **problem
        ).x
        optimum = dual(reference)
        assert abs(primal + optimum) <= 1e-9 * abs(optimum)

    def test_step_cap_warns(self, monkeypatch):
        X, y = np.array([[-1.0], [-2.0], [1.0], [2.0]]), np.array([0.0, 0.0, 1.0, 1.0])
        monkeypatch.setattr(predictor, "SMO_MAX_STEPS", 1)
        with pytest.warns(RuntimeWarning, match="SMO hit its step cap"):
            _fit_linear_svm_core(X, y, 1.0)

    def test_missing_platt_rejected(self):
        model = PairwiseModel(
            kind="linear-svm",
            feature_names=("f0",),
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
            weights=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="no Platt calibration"):
            predict_pair(model, [1.0])


class TestRbfSvm:
    XOR = [
        example([1.0, 1.0], 1, i="a", j="b"),
        example([-1.0, -1.0], 1, i="c", j="d"),
        example([1.0, -1.0], 0, i="e", j="f"),
        example([-1.0, 1.0], 0, i="g", j="h"),
    ]

    def test_xor_decision_signs(self):
        # Four points are enough for the decision function, but not for
        # the Platt calibration (every held-out point's nearest training
        # neighbor has the opposite label), so only signs are checked.
        model = fit_rbf_svm_platt(self.XOR, C=10.0, gamma=1.0)
        for e in self.XOR:
            d = decision_value(model, e.features)
            assert (d > 0) == bool(e.label)

    def test_jittered_xor_probabilities(self):
        data = []
        jitter = [(0.1, 0.1), (-0.1, 0.2), (0.2, -0.1)]
        idx = 0
        for cx, cy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            label = int(cx * cy > 0)
            for dx, dy in jitter:
                data.append(
                    example([cx + dx, cy + dy], label, i=f"t{idx}", j="u")
                )
                idx += 1
        model = fit_rbf_svm_platt(data, C=10.0, gamma=1.0)
        for e in data:
            p = predict_pair(model, e.features)
            assert 0.0 < p < 1.0
            assert (p > 0.5) == bool(e.label)

    def test_smo_agrees_with_qp_solver(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 2))
        sign = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        assert len(set(sign.tolist())) == 2
        C, gamma = 2.0, 0.7
        K = _rbf_kernel(X, X, gamma)
        Q = (sign[:, None] * sign[None, :]) * K

        alpha, b = _smo(K, sign, C)
        assert np.all(alpha >= -1e-12)
        assert np.all(alpha <= C + 1e-12)
        assert alpha @ sign == pytest.approx(0.0, abs=1e-9)

        def dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        result = optimize.minimize(
            dual,
            np.zeros(len(sign)),
            jac=lambda a: Q @ a - 1.0,
            bounds=[(0.0, C)] * len(sign),
            constraints=[{"type": "eq", "fun": lambda a: a @ sign}],
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 500},
        )
        assert result.success
        assert dual(alpha) <= dual(result.x) + 1e-7

        # KKT: margins classify support vectors by their box position.
        f = K @ (alpha * sign) + b
        margins = sign * f
        for a_i, m in zip(alpha, margins):
            if a_i < 1e-8:
                assert m >= 1.0 - 1e-6
            elif a_i > C - 1e-8:
                assert m <= 1.0 + 1e-6
            else:
                assert m == pytest.approx(1.0, abs=1e-6)

    @settings(deadline=None, max_examples=25)
    @given(
        points=st.integers(4, 40).flatmap(
            lambda n: hnp.arrays(
                np.float64, (n, 2), elements=st.floats(-2.0, 2.0, width=16)
            )
        ),
        labels=st.lists(st.booleans(), min_size=40, max_size=40),
        gamma=st.sampled_from(GAMMA_GRID),
    )
    @pytest.mark.parametrize("C", REGULARIZATION_GRID)
    def test_smo_matches_reference_loop(self, C, points, labels, gamma):
        # Half-precision elements repeat often, which drives the loop
        # through duplicate points and stalled pairs as well.
        n = len(points)
        sign = np.where(labels[:n], 1.0, -1.0)
        sign[:2] = (1.0, -1.0)
        K = _rbf_kernel(points, points, gamma)
        (alpha, b), caught = _with_warnings(_smo, K, sign, C)
        (ref_alpha, ref_b), ref_caught = _with_warnings(_reference_smo, K, sign, C)
        assert np.array_equal(alpha, ref_alpha)
        assert b == ref_b
        assert caught == ref_caught

    @settings(deadline=None, max_examples=40)
    @given(
        points=st.integers(4, 40).flatmap(
            lambda n: hnp.arrays(
                np.float64, (n, 2), elements=st.floats(-2.0, 2.0, width=16)
            )
        ),
        labels=st.lists(st.booleans(), min_size=40, max_size=40),
        gamma=st.sampled_from((None, *GAMMA_GRID)),  # None: the linear kernel
        C=st.sampled_from(REGULARIZATION_GRID),
    )
    @hypothesis.example(
        points=_ILL_CONDITIONED_POINTS, labels=_ILL_CONDITIONED_LABELS, gamma=0.01, C=10.0,
    )
    @hypothesis.example(
        points=_ILL_CONDITIONED_POINTS, labels=_ILL_CONDITIONED_LABELS, gamma=0.01, C=100.0,
    )
    def test_smo_reaches_the_qp_optimum(self, points, labels, gamma, C):
        # The solution must be feasible and reach the dual optimum. Weak
        # duality certifies it: with w = sum_i alpha_i s_i phi(x_i), whose
        # decision values are u = K (alpha * s), the primal
        # (1/2)||w||^2 + C * sum of hinge at the best bias (one of the
        # breakpoints s_i - u_i) is at least minus the optimum, so
        # dual(alpha) + primal bounds how far dual(alpha) is above it.
        # On random draws that SMO solves it stays below 1e-8 relative,
        # the stated tolerance.
        n = len(points)
        sign = np.where(labels[:n], 1.0, -1.0)
        sign[:2] = (1.0, -1.0)
        K = points @ points.T if gamma is None else _rbf_kernel(points, points, gamma)
        Q = (sign[:, None] * sign[None, :]) * K
        (alpha, _), _ = _with_warnings(_smo, K, sign, C)

        def dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        # An update alpha[i] + delta_i may round past the box by an ulp of C.
        assert alpha.min() >= -1e-12 * C and alpha.max() <= C * (1.0 + 1e-12)
        assert abs(alpha @ sign) <= 1e-12 * C
        u = K @ (alpha * sign)
        bias = sign - u  # row k: the bias that puts example k on its margin
        hinge = np.maximum(0.0, 1.0 - sign * (u + bias[:, None])).sum(axis=1)
        primal = 0.5 * alpha @ Q @ alpha + C * hinge.min()
        assert dual(alpha) + primal <= 1e-8 * max(1.0, abs(dual(alpha)))

    def test_requires_four_examples(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_rbf_svm_platt(self.XOR[:3], C=1.0, gamma=1.0)

    def test_deterministic_refit(self, synth_dataset):
        subset = synth_dataset[:20]
        a = fit_rbf_svm_platt(subset, C=1.0, gamma=0.1, feature_names=METRIC_NAMES)
        b = fit_rbf_svm_platt(subset, C=1.0, gamma=0.1, feature_names=METRIC_NAMES)
        np.testing.assert_array_equal(a.dual_coefficients, b.dual_coefficients)
        assert a.beta0 == b.beta0
        assert a.platt == b.platt

    def test_grid_search_hyperparameters(self, synth_dataset):
        model = fit_rbf_svm_platt(synth_dataset[:16])
        assert model.hyperparameters["C"] in REGULARIZATION_GRID
        assert model.hyperparameters["gamma"] in GAMMA_GRID

    @pytest.mark.parametrize("given, searched, grid", [
        ({"C": 0.01}, "gamma", GAMMA_GRID),
        ({"gamma": 10.0}, "C", REGULARIZATION_GRID),
    ], ids=["C", "gamma"])
    def test_given_hyperparameter_is_kept(self, synth_dataset, given, searched, grid):
        model = fit_rbf_svm_platt(synth_dataset, cv_folds=2, **given)
        assert model.hyperparameters.items() >= given.items()
        assert model.hyperparameters[searched] in grid


class TestFoldReuse:
    """The grid search's fold fits at the chosen value feed Platt scaling."""

    @staticmethod
    def count_fits(monkeypatch, name):
        calls = []
        original = getattr(predictor, name)

        def counting(*args):
            calls.append(args[2:])
            return original(*args)

        monkeypatch.setattr(predictor, name, counting)
        return calls

    def test_linear_svm_fits_each_fold_once(self, synth_dataset, monkeypatch):
        calls = self.count_fits(monkeypatch, "_fit_linear_svm_core")
        model = fit_linear_svm(synth_dataset, cv_folds=5, feature_names=METRIC_NAMES)
        assert len(calls) == 5 * len(REGULARIZATION_GRID) + 1
        calls.clear()
        explicit = fit_linear_svm(
            synth_dataset, cv_folds=5, C=model.hyperparameters["C"],
            feature_names=METRIC_NAMES,
        )
        assert len(calls) == 5 + 1
        assert explicit.platt == model.platt
        assert explicit.beta0 == model.beta0
        np.testing.assert_array_equal(explicit.weights, model.weights)

    def test_rbf_svm_fits_each_fold_once(self, synth_dataset, monkeypatch):
        calls = self.count_fits(monkeypatch, "_fit_rbf_core")
        model = fit_rbf_svm_platt(synth_dataset, cv_folds=5, feature_names=METRIC_NAMES)
        assert len(calls) == 5 * len(REGULARIZATION_GRID) * len(GAMMA_GRID) + 1
        calls.clear()
        explicit = fit_rbf_svm_platt(
            synth_dataset, cv_folds=5, C=model.hyperparameters["C"],
            gamma=model.hyperparameters["gamma"], feature_names=METRIC_NAMES,
        )
        assert len(calls) == 5 + 1
        assert explicit.platt == model.platt
        assert explicit.beta0 == model.beta0
        np.testing.assert_array_equal(explicit.dual_coefficients, model.dual_coefficients)


@pytest.mark.parametrize("fitter, given, name", [
    (fit_logistic, {"lam": -1.0}, "lam"),
    (fit_logistic, {"lam": float("nan")}, "lam"),
    (fit_linear_svm, {"C": -1.0}, "C"),
    (fit_linear_svm, {"C": 0.0}, "C"),
    (fit_linear_svm, {"C": float("nan")}, "C"),
    (fit_rbf_svm_platt, {"C": -1.0, "gamma": 1.0}, "C"),
    (fit_rbf_svm_platt, {"gamma": float("inf")}, "gamma"),
    (fit_rbf_svm_platt, {"C": 1.0, "gamma": 0.0}, "gamma"),
], ids=["logistic-lam=-1", "logistic-lam=nan", "linear-C=-1", "linear-C=0", "linear-C=nan",
        "rbf-C=-1", "rbf-gamma=inf", "rbf-gamma=0"])
def test_bad_hyperparameter_rejected(synth_dataset, fitter, given, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        fitter(synth_dataset, cv_folds=2, **given)


@pytest.mark.parametrize("fitter", [fit_logistic, fit_linear_svm, fit_rbf_svm_platt])
def test_features_too_large_to_standardize(fitter):
    data = separable_1d()
    data[0] = example([1e300], 1, i="p0", j="q")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large to standardize"):
            fitter(data, cv_folds=2)


class TestFitPlatt:
    def test_symmetric_decisions_are_centered(self):
        a, b = fit_platt(np.array([2.0, 1.0, -1.0, -2.0]), np.array([1, 1, 0, 0]))
        assert a > 0.0
        assert abs(b) <= 1e-3

    def test_separated_decisions_stay_finite(self):
        decisions = np.array([3.0, 2.5, 2.0, -2.0, -2.5, -3.0])
        labels = np.array([1, 1, 1, 0, 0, 0])
        a, b = fit_platt(decisions, labels)
        assert np.isfinite(a) and np.isfinite(b)
        p = 1.0 / (1.0 + np.exp(-(a * 3.0 + b)))
        assert 0.5 < p < 1.0  # smoothed targets keep it off the boundary

    def test_step_cap_warns(self, monkeypatch):
        monkeypatch.setattr(stats, "NEWTON_MAX_STEPS", 1)
        with pytest.warns(RuntimeWarning, match="Platt scaling did not converge in 1 Newton"):
            fit_platt(np.array([3.0, 1.0, 0.5, -2.0]), np.array([1, 0, 1, 0]))

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.booleans()), min_size=2, max_size=40
        ),
        scale=st.sampled_from((0.1, 1.0, 10.0)),
    )
    # Small decisions that separate the labels: the slope is large and the
    # Hessian's small eigenvalue is about 0.003.
    @hypothesis.example(
        data=[(-0.3, True), (-0.1, True), (0.0, False), (0.2, False), (0.4, False)], scale=0.1
    )
    def test_matches_scipy(self, data, scale):
        decisions = scale * np.array([d for d, _ in data])
        labels = np.array([lab for _, lab in data], dtype=np.float64)
        # With one distinct decision only A*d + B is determined, not (A, B).
        hypothesis.assume(np.ptp(decisions) >= 0.1 * scale)
        a, b = fit_platt(decisions, labels)

        n_pos = labels.sum()
        n_neg = len(labels) - n_pos
        target = np.where(labels > 0, (n_pos + 1) / (n_pos + 2), 1 / (n_neg + 2))
        D = np.column_stack([decisions, np.ones(len(decisions))])

        def cross_entropy(ab):
            z = D @ ab
            return float(np.sum(np.logaddexp(0.0, z) - target * z))

        def gradient(ab):
            return D.T @ (1.0 / (1.0 + np.exp(-(D @ ab))) - target)

        def hessian(ab):
            p = 1.0 / (1.0 + np.exp(-(D @ ab)))
            return (D.T * (p * (1.0 - p))) @ D

        result = optimize.minimize(
            cross_entropy, np.zeros(2), jac=gradient, hess=hessian,
            method="trust-exact", options={"gtol": 1e-12},
        )
        reference = result.x
        for _ in range(3):  # Newton steps polish a rounding-limited stop
            reference = reference - np.linalg.solve(hessian(reference), gradient(reference))
        np.testing.assert_allclose([a, b], reference, rtol=0.0, atol=1e-6)


class TestPredictPair:
    def manual_logistic(self, weight):
        return PairwiseModel(
            kind="logistic",
            feature_names=("f0",),
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
            beta0=0.0,
            weights=np.array([weight]),
        )

    def test_zero_decision_is_half(self):
        assert predict_pair(self.manual_logistic(2.0), [0.0]) == 0.5

    def test_log_three_weight_gives_three_quarters(self):
        model = self.manual_logistic(np.log(3.0))
        assert predict_pair(model, [1.0]) == pytest.approx(0.75, abs=1e-12)

    def test_antisymmetry(self):
        model = self.manual_logistic(1.7)
        for x in (0.3, 1.1, 4.0):
            assert predict_pair(model, [x]) + predict_pair(model, [-x]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 1 features"):
            predict_pair(self.manual_logistic(1.0), [1.0, 2.0])

    def test_rbf_without_support_rejected(self):
        model = PairwiseModel(
            kind="rbf-svm",
            feature_names=("f0",),
            feature_mean=np.zeros(1),
            feature_scale=np.ones(1),
        )
        with pytest.raises(ValueError, match="support set"):
            decision_value(model, [1.0])

    def test_model_validation(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            PairwiseModel(
                kind="tree",
                feature_names=("f0",),
                feature_mean=np.zeros(1),
                feature_scale=np.ones(1),
            )
        with pytest.raises(ValueError, match="weights length"):
            PairwiseModel(
                kind="logistic",
                feature_names=("f0",),
                feature_mean=np.zeros(1),
                feature_scale=np.ones(1),
                weights=np.array([1.0, 2.0]),
            )


class TestLeaveOneTokenizerOut:
    def test_perfect_world_scores_one(self, synth_world):
        metrics, fixture = synth_world
        report = leave_one_tokenizer_out(
            metrics, fixture, SYNTH_SCALE, model_kind="logistic", seed=0
        )
        assert set(report.per_heldout) == set(SYNTH_TOKENIZERS)
        assert all(f1 == 1.0 for f1 in report.per_heldout.values())
        assert report.mean_f1 == 1.0
        assert report.model_kind == "logistic"
        assert report.feature_set == METRIC_NAMES
        assert report.seed == 0

    def test_unknown_model_kind(self, synth_world):
        metrics, fixture = synth_world
        with pytest.raises(ValueError, match="unknown model kind"):
            leave_one_tokenizer_out(metrics, fixture, SYNTH_SCALE, model_kind="mlp")

    def test_needs_three_tokenizers(self):
        entries = {}
        for t_idx, tok in enumerate(("x", "y")):
            for d_idx, direction in enumerate(("en-xx", "xx-en")):
                entry = ScoreEntry(tok, "1B", "aa", direction, 5.0 + t_idx + d_idx, 40.0)
                entries[entry.key] = entry
        fixture = DownstreamFixture(entries=entries)
        metrics = {
            ("x", "aa"): MetricVector(100, 10, 1.0, -1.0, 0.1),
            ("y", "aa"): MetricVector(200, 20, 2.0, -0.5, 0.2),
        }
        with pytest.raises(ValueError, match="at least 3 tokenizers"):
            leave_one_tokenizer_out(metrics, fixture, "1B")


@pytest.fixture(scope="module")
def lolo_tables(synth_world):
    metrics, fixture = synth_world
    return leave_one_language_out(metrics, fixture, SYNTH_SCALE, seed=0)


class TestLeaveOneLanguageOut:
    def test_probability_tables(self, lolo_tables):
        assert set(lolo_tables) == set(SYNTH_LANGUAGES)
        for probs in lolo_tables.values():
            assert probs.names == SYNTH_TOKENIZERS
            matrix = probs.matrix
            np.testing.assert_array_equal(np.diag(matrix), 0.5)
            off = ~np.eye(len(matrix), dtype=bool)
            assert np.all((matrix[off] > 0.0) & (matrix[off] < 1.0))
            np.testing.assert_array_equal(matrix + matrix.T, np.ones_like(matrix))

    def test_needs_two_languages(self):
        entries = {}
        for t_idx, tok in enumerate(("x", "y", "z")):
            for d_idx, direction in enumerate(("en-xx", "xx-en")):
                entry = ScoreEntry(tok, "1B", "aa", direction, 5.0 + t_idx + d_idx, 40.0)
                entries[entry.key] = entry
        fixture = DownstreamFixture(entries=entries)
        metrics = {
            (tok, "aa"): MetricVector(100 * (i + 1), 10, 1.0, -1.0, 0.1)
            for i, tok in enumerate(("x", "y", "z"))
        }
        with pytest.raises(ValueError, match="at least 2 languages"):
            leave_one_language_out(metrics, fixture, "1B")


class TestHeldoutLanguageProbabilities:
    @pytest.mark.parametrize("language", SYNTH_LANGUAGES)
    def test_matches_leave_one_language_out(self, synth_world, lolo_tables, language):
        metrics, fixture = synth_world
        probs = heldout_language_probabilities(
            metrics, fixture, SYNTH_SCALE, language, seed=0
        )
        assert probs.names == lolo_tables[language].names
        assert np.array_equal(probs.matrix, lolo_tables[language].matrix)

    def test_unknown_language_rejected(self, synth_world):
        metrics, fixture = synth_world
        with pytest.raises(ValueError, match="'zz' is not in the fixture"):
            heldout_language_probabilities(metrics, fixture, SYNTH_SCALE, "zz")


class TestOneHeldOutProtocol:
    """LOTO and LOLO build one dataset, and no fit sees its held-out unit."""

    @staticmethod
    def record(monkeypatch):
        datasets, fits = [], []
        build = predictor.build_pairwise_dataset

        def building(*args, **kwargs):
            datasets.append(build(*args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(predictor, "build_pairwise_dataset", building)
        for kind, fitter in predictor._FITTERS.items():
            def fitting(train, *args, _fitter=fitter, **kwargs):
                fits.append(train)
                return _fitter(train, *args, **kwargs)

            monkeypatch.setitem(predictor._FITTERS, kind, fitting)
        return datasets, fits

    @pytest.mark.parametrize("protocol", ["tokenizer", "language", "one-language"])
    def test_one_dataset_and_no_fit_sees_its_unit(self, synth_world, monkeypatch, protocol):
        metrics, fixture = synth_world
        datasets, fits = self.record(monkeypatch)
        if protocol == "tokenizer":
            leave_one_tokenizer_out(metrics, fixture, SYNTH_SCALE, model_kind="linear-svm",
                                    cv_folds=2)
            units, involved = fixture.tokenizers(), lambda e: (e.tok_i, e.tok_j)
        elif protocol == "language":
            leave_one_language_out(metrics, fixture, SYNTH_SCALE, cv_folds=2)
            units, involved = fixture.languages(), lambda e: (e.language,)
        else:
            heldout_language_probabilities(metrics, fixture, SYNTH_SCALE, "cc", cv_folds=2)
            units, involved = ["cc"], lambda e: (e.language,)
        assert len(datasets) == 1
        (dataset,) = datasets
        assert len(fits) == len(units)
        for held, train in zip(units, fits):
            assert all(held not in involved(e) for e in train)
            assert [id(e) for e in train] == [id(e) for e in dataset if held not in involved(e)]
