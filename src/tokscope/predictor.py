"""Pairwise tokenizer-quality prediction from intrinsic metrics.

Each training example compares two tokenizers on one language: features
are the difference of their metric vectors, the label says whether the
first-listed tokenizer has the lower (better) mean MetricX over the two
translation directions. Three model families are supported, all fit by
deterministic optimizers so repeated runs are bit-identical:

  logistic     L2-regularized logistic regression, Newton's method
  linear-svm   hinge loss + L2, SMO on the linear kernel
  rbf-svm      kernel SVM fit by SMO, probabilities via Platt scaling

Logistic regression and Platt scaling are both fits of
stats.fit_logistic_newton, the logistic Newton fit that also fits
Bradley-Terry; each builds only its design matrix and targets.

Features are standardized on the training split; the standardization is
stored in the model and applied by the decision function. One fit path,
_fit, serves all three kinds through a per-kind table, _KINDS: the
PairwiseModel fields that the kind's core fit fills, its hyperparameter
names and grid candidates, its decision function, and whether Platt
scaling applies. Hyperparameters are chosen by stratified k-fold CV on
mean F1 of the labels decision > 0, with ties resolved toward stronger
regularization; a hyperparameter the caller gives replaces its grid
values. Every fit starts from zero. The search's fold fits at the chosen
value give the out-of-fold decisions that calibrate the SVMs' Platt
scaling. decision_value applies the same decision function to a fitted
model. One held-out protocol, _leave_one_out, serves the tokenizer and
the language protocols: one dataset, and one fit per held-out unit.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .corpus_io import DownstreamFixture
from .stats import f1_score, fit_logistic_newton, sigmoid
from .zipf_metrics import METRIC_NAMES

MODEL_KINDS = ("logistic", "linear-svm", "rbf-svm")

REGULARIZATION_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
GAMMA_GRID = (0.01, 0.1, 1.0, 10.0)

SMO_TOL = 1e-10
SMO_MAX_STEPS = 200_000
# Metric values past this magnitude are refused, so that the sums of
# squares in the standardization stay far from overflow.
METRIC_LIMIT = 1e100


@dataclass(frozen=True)
class PairwiseExample:
    tok_i: str
    tok_j: str
    language: str
    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.tok_i == self.tok_j:
            raise ValueError("a pair must compare two distinct tokenizers")
        feats = np.asarray(self.features, dtype=np.float64)
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        object.__setattr__(self, "features", feats)


@dataclass
class PairwiseModel:
    kind: str
    feature_names: tuple[str, ...]
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    beta0: float = 0.0
    weights: np.ndarray | None = None
    support_set: np.ndarray | None = None
    dual_coefficients: np.ndarray | None = None
    gamma: float | None = None
    platt: tuple[float, float] | None = None
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.weights is not None and len(self.weights) != len(self.feature_names):
            raise ValueError("weights length must match feature count")


@dataclass(frozen=True)
class EvaluationReport:
    per_heldout: dict[str, float]
    mean_f1: float
    feature_set: tuple[str, ...]
    model_kind: str
    seed: int


@dataclass(frozen=True)
class PairwiseProbabilities:
    """Symmetrized win probabilities: matrix[i, j] = P(names[i] beats names[j])."""

    names: tuple[str, ...]
    matrix: np.ndarray


def _standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise ValueError("features are too large to standardize")
    scale = np.where(scale == 0.0, 1.0, scale)
    return mean, scale


def _stratified_folds(y: np.ndarray, k: int) -> list[np.ndarray]:
    """Deal each class round-robin over k folds, in dataset order."""
    if k < 2:
        raise ValueError(f"cv_folds must be at least 2, got {k}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (1.0, 0.0):
        for slot, idx in enumerate(np.nonzero(y == cls)[0]):
            folds[slot % k].append(int(idx))
    return [np.array(sorted(f), dtype=np.intp) for f in folds]


def _splits(y: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(held-out, training) indices for each nonempty stratified fold."""
    everything = np.arange(len(y))
    return [(held, np.delete(everything, held)) for held in _stratified_folds(y, k) if len(held)]


def _fold_f1(predicted: np.ndarray, actual: np.ndarray) -> float:
    # An all-negative fold predicted all-negative counts as perfect.
    return f1_score(predicted, actual) if predicted.any() or actual.any() else 1.0


def _select(X, y, splits, candidates, decisions, fit_core):
    """The candidate with the best CV mean F1, and its fold fits.

    Candidates are argument tuples for fit_core, given in tie-break
    order: only a strictly better score displaces an earlier one. A fold
    example is labelled positive where its decision is above zero.
    """
    best_score, best, best_fits = -np.inf, None, None
    for args in candidates:
        fits = [(held, fit_core(X[train], y[train], *args)) for held, train in splits]
        score = float(np.mean(
            [_fold_f1(decisions(params, X[held]) > 0.0, y[held]) for held, params in fits]
        ))
        if score > best_score:
            best_score, best, best_fits = score, args, fits
    return best, best_fits


# --- logistic regression -------------------------------------------------


def _fit_logistic_core(X, y, lam):
    """Logistic regression on [1, Z] by stats.fit_logistic_newton.

    The mean log loss plus (lam/2)||w||^2 has the minimizer of the summed
    loss with ridge n * lam. The intercept is not penalized. At lam = 0 a
    constant feature leaves the Hessian singular, which the fit's
    least-squares solve handles. Separable data with lam = 0 has no
    optimum: the gradient dies out while the step stays of order one as
    the weights grow, so such a fit raises after NEWTON_MAX_STEPS.
    """
    mean, scale = _standardization(X)
    Z = (X - mean) / scale
    A = np.column_stack([np.ones(len(Z)), Z])
    theta, _, steps, converged = fit_logistic_newton(A, y, len(Z) * lam)
    if not converged:
        raise RuntimeError(
            f"logistic fit did not converge in {steps} Newton steps "
            f"(lam={lam}); the data may be separable or degenerate"
        )
    return mean, scale, float(theta[0]), theta[1:]


def fit_logistic(
    examples,
    cv_folds: int = 5,
    lam: float | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> PairwiseModel:
    """L2 logistic regression; lam picked from the grid by CV unless given."""
    return _fit("logistic", examples, cv_folds, _fit_logistic_core, (lam,), feature_names)


# --- linear SVM ----------------------------------------------------------


def _fit_linear_svm_core(X, y, C):
    """(1/2)||w||^2 + (C/n) * sum of hinge, with a free bias, by _smo.

    This is _smo on the linear kernel Z Z^T, libsvm's C-SVC with a linear
    kernel; the support vectors collapse into the weights Z^T (alpha * y).
    Normalizing the box by the example count keeps the decision function
    invariant under dataset duplication.
    """
    mean, scale = _standardization(X)
    Z = (X - mean) / scale
    sign = np.where(y > 0.5, 1.0, -1.0)
    alpha, b = _smo(Z @ Z.T, sign, C / len(Z))
    return mean, scale, b, Z.T @ (alpha * sign)


def _linear_decisions(params, X):
    mean, scale, b, w = params
    return b + ((X - mean) / scale) @ w


def fit_linear_svm(
    examples,
    cv_folds: int = 5,
    C: float | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> PairwiseModel:
    """Linear SVM with Platt-scaled probabilities; C chosen by CV."""
    return _fit("linear-svm", examples, cv_folds, _fit_linear_svm_core, (C,), feature_names)


# --- RBF SVM via SMO -----------------------------------------------------


def _rbf_kernel(A, B, gamma):
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _smo(K, sign, C):
    """Solve the C-SVM dual by sequential minimal optimization.

    Each working pair is chosen by second-order information (Fan, Chen
    and Lin, JMLR 2005): i is the maximal KKT violator, and j the violator
    of i whose unclipped pair step lowers the dual most, by
    (yg_i - yg_j)^2 / (2 eta_ij); the first index wins ties. The loop
    stops when the violation gap falls below tolerance. Returns the dual
    coefficients and intercept.
    """
    n = len(sign)
    Q = (sign[:, None] * sign[None, :]) * K
    K_diag = np.diag(K)
    eta = K_diag[:, None] + K_diag[None, :] - 2.0 * K  # pair curvatures
    eta[eta <= 0.0] = 1e-12
    s = sign.tolist()
    neg_sign = -sign
    bound = C - 1e-12

    def working_sets(a):
        # Indices whose alpha may move up / down along the constraint.
        up = ((sign > 0) & (a < bound)) | ((sign < 0) & (a > 1e-12))
        low = ((sign < 0) & (a < bound)) | ((sign > 0) & (a > 1e-12))
        return up, low

    alpha = [0.0] * n  # scalar work is on Python floats, the same IEEE arithmetic
    grad = -np.ones(n)  # gradient of the dual objective wrt alpha
    up, low = working_sets(np.zeros(n))
    for _ in range(SMO_MAX_STEPS):
        yg = neg_sign * grad
        i = int(np.where(up, yg, -np.inf).argmax())
        if not up[i]:  # an empty set leaves argmax at 0
            break
        yg_i = yg.item(i)
        yg_low = np.where(low, yg, np.inf)
        if yg_i - yg_low.min() <= SMO_TOL:  # also stops when low is empty
            break
        gain = np.square(yg_low - yg_i) / eta[i]
        j = int(np.where(yg_low < yg_i, gain, -1.0).argmax())
        a_i, a_j, s_i, s_j = alpha[i], alpha[j], s[i], s[j]
        if s_i != s_j:
            L = max(0.0, a_j - a_i)
            H = min(C, C + a_j - a_i)
        else:
            L = max(0.0, a_i + a_j - C)
            H = min(C, a_i + a_j)
        # Errors of the decision values without the intercept.
        err_i = s_i * (grad.item(i) + 1.0) - s_i
        err_j = s_j * (grad.item(j) + 1.0) - s_j
        # Clipped as np.clip does, which keeps the bound on a tie.
        new_aj = min(H, max(L, a_j + s_j * (err_i - err_j) / eta.item(i, j)))
        delta_j = new_aj - a_j
        if abs(delta_j) < 1e-14:
            warnings.warn("SMO stalled on a degenerate pair", RuntimeWarning)
            break
        delta_i = -s_i * s_j * delta_j
        alpha[i] = a_i + delta_i
        alpha[j] = a_j + delta_j
        grad += Q[:, i] * delta_i + Q[:, j] * delta_j
        # Only alpha[i] and alpha[j] moved, so only they can change sets.
        for k in (i, j):
            a_k = alpha[k]
            up[k] = (s[k] > 0 and a_k < bound) or (s[k] < 0 and a_k > 1e-12)
            low[k] = (s[k] < 0 and a_k < bound) or (s[k] > 0 and a_k > 1e-12)
    else:
        warnings.warn("SMO hit its step cap before reaching tolerance", RuntimeWarning)

    alpha = np.array(alpha)
    u = sign * (grad + 1.0)
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(sign[free] - u[free]))
    else:
        yg = neg_sign * grad
        up, low = working_sets(alpha)
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return alpha, b


def _fit_rbf_core(X, y, C, gamma):
    """The RBF decision parameters, in the order of _RBF_FIELDS."""
    mean, scale = _standardization(X)
    Z = (X - mean) / scale
    sign = np.where(y > 0.5, 1.0, -1.0)
    K = _rbf_kernel(Z, Z, gamma)
    alpha, b = _smo(K, sign, C)
    keep = alpha > 1e-12
    return mean, scale, Z[keep], (alpha * sign)[keep], b, gamma


def _rbf_decisions(params, X):
    mean, scale, support, coef, b, gamma = params
    return _rbf_kernel((X - mean) / scale, support, gamma) @ coef + b


def fit_rbf_svm_platt(
    examples,
    cv_folds: int = 5,
    C: float | None = None,
    gamma: float | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> PairwiseModel:
    """RBF-kernel SVM with Platt-scaled probabilities; (C, gamma) by CV."""
    if len(examples) < 4:
        raise ValueError("need at least 4 examples to fit an RBF SVM")
    return _fit("rbf-svm", examples, cv_folds, _fit_rbf_core, (C, gamma), feature_names)


# --- the shared fit path -------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    fields: tuple[str, ...]  # PairwiseModel fields, in the order of the core fit's tuple
    hyperparameters: tuple[str, ...]
    candidates: tuple[tuple, ...]  # hyperparameter tuples in tie-break order
    decisions: Callable
    platt: bool


_LINEAR_FIELDS = ("feature_mean", "feature_scale", "beta0", "weights")
_RBF_FIELDS = ("feature_mean", "feature_scale", "support_set", "dual_coefficients", "beta0", "gamma")
_ASCENDING = sorted(REGULARIZATION_GRID)
# Strongest regularization first, so that ties keep it: the largest lam,
# the smallest C, then the smallest gamma.
_KINDS = {
    "logistic": _Kind(_LINEAR_FIELDS, ("lam",), tuple(product(_ASCENDING[::-1])),
                      _linear_decisions, platt=False),
    "linear-svm": _Kind(_LINEAR_FIELDS, ("C",), tuple(product(_ASCENDING)),
                        _linear_decisions, platt=True),
    "rbf-svm": _Kind(_RBF_FIELDS, ("C", "gamma"), tuple(product(_ASCENDING, sorted(GAMMA_GRID))),
                     _rbf_decisions, platt=True),
}


def _fit(kind, examples, cv_folds, fit_core, hyper, feature_names) -> PairwiseModel:
    """Fit one model kind; hyperparameters left as None are chosen by CV.

    The CV candidates are the kind's grid with each given value in place
    of its grid values, duplicates dropped, in tie-break order. CV runs
    when there is more than one candidate, or to calibrate Platt scaling.
    """
    spec = _KINDS[kind]
    for name, value in zip(spec.hyperparameters, hyper):
        if value is not None and not (
            math.isfinite(value) and (value >= 0 if name == "lam" else value > 0)
        ):
            least = "non-negative" if name == "lam" else "positive"
            raise ValueError(f"{name} must be finite and {least}, got {value!r}")
    if not examples:
        raise ValueError("no training examples")
    X = np.vstack([e.features for e in examples])
    y = np.array([e.label for e in examples], dtype=np.float64)
    n_pos = int(y.sum())
    if min(n_pos, len(y) - n_pos) < 2:
        raise ValueError(f"need at least 2 examples per class, "
                         f"got {n_pos} positive / {len(y) - n_pos} negative")
    candidates = tuple(dict.fromkeys(
        tuple(grid if given is None else given for grid, given in zip(args, hyper))
        for args in spec.candidates
    ))
    if len(candidates) > 1 or spec.platt:
        splits = _splits(y, cv_folds)
        hyper, fold_fits = _select(X, y, splits, candidates, spec.decisions, fit_core)
    else:
        (hyper,) = candidates
    params = fit_core(X, y, *hyper)
    platt = None
    if spec.platt:
        decisions = np.zeros(len(y))
        for held, fold_params in fold_fits:
            decisions[held] = spec.decisions(fold_params, X[held])
        platt = fit_platt(decisions, y)
    return PairwiseModel(
        kind=kind,
        feature_names=feature_names or tuple(f"f{i}" for i in range(X.shape[1])),
        platt=platt,
        hyperparameters={**dict(zip(spec.hyperparameters, hyper)), "cv_folds": cv_folds},
        **dict(zip(spec.fields, params)),
    )


# --- Platt scaling -------------------------------------------------------


def fit_platt(decisions, labels) -> tuple[float, float]:
    """Fit (A, B) so that sigma(A*d + B) calibrates decision values d.

    stats.fit_logistic_newton on the design [d, 1] against Platt's
    smoothed targets (N+ + 1)/(N+ + 2) and 1/(N- + 2), which keep the
    optimum finite even when the decisions separate the labels. Warns if
    the fit stops before it converges.
    """
    d = np.asarray(decisions, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.float64) > 0.5
    prior1 = float(lab.sum())
    prior0 = float(len(lab) - prior1)
    t = np.where(lab, (prior1 + 1.0) / (prior1 + 2.0), 1.0 / (prior0 + 2.0))
    start = np.array([0.0, np.log((prior1 + 1.0) / (prior0 + 1.0))])
    (a, b), _, steps, converged = fit_logistic_newton(
        np.column_stack([d, np.ones(len(d))]), t, start=start
    )
    if not converged:
        warnings.warn(
            f"Platt scaling did not converge in {steps} Newton steps", RuntimeWarning
        )
    return float(a), float(b)


# --- prediction ----------------------------------------------------------


def decision_value(model: PairwiseModel, feature_diff) -> float:
    x = np.asarray(feature_diff, dtype=np.float64)
    if x.shape != (len(model.feature_names),):
        raise ValueError(
            f"expected {len(model.feature_names)} features, got shape {x.shape}"
        )
    spec = _KINDS[model.kind]
    params = tuple(getattr(model, name) for name in spec.fields)
    missing = [name.replace("_", " ") for name, v in zip(spec.fields, params) if v is None]
    if missing:
        raise ValueError(f"{model.kind} model is missing its {', '.join(missing)}")
    return float(spec.decisions(params, x[None, :])[0])


def predict_pair(model: PairwiseModel, feature_diff) -> float:
    """Probability that the first tokenizer of the pair is the better one."""
    d = decision_value(model, feature_diff)
    if not _KINDS[model.kind].platt:
        return float(sigmoid(d))
    if model.platt is None:
        raise ValueError(f"{model.kind} model has no Platt calibration")
    a, b = model.platt
    return float(sigmoid(a * d + b))


# --- dataset and evaluation protocols ------------------------------------


def build_pairwise_dataset(
    metrics: dict,
    fixture: DownstreamFixture,
    scale: str,
    feature_set=METRIC_NAMES,
    seed: int = 0,
) -> list[PairwiseExample]:
    """One example per language and unordered tokenizer pair.

    The orientation of each pair is drawn from a seeded RNG so the
    dataset is balanced in expectation but contains no duplicate
    anti-correlated rows. Labels compare two-direction mean MetricX;
    exact ties are refused, and so are metric values past METRIC_LIMIT.
    """
    if scale not in (scales := fixture.scales()):
        raise ValueError(f"scale {scale!r} is not in the fixture (has {scales})")
    feature_set = tuple(feature_set)
    tokenizers = fixture.tokenizers()
    languages = fixture.languages()
    vectors = {
        key: metrics[key].as_features(feature_set)
        for key in product(tokenizers, languages) if key in metrics
    }
    huge = [
        f"{key} {name}={value:g}"
        for key, vector in vectors.items()
        for name, value in zip(feature_set, vector) if abs(value) > METRIC_LIMIT
    ]
    if huge:
        raise ValueError(
            f"metric values of magnitude above {METRIC_LIMIT:g} cannot be standardized: "
            f"{'; '.join(huge)}"
        )
    rng = np.random.default_rng(seed)
    examples = []
    for language in languages:
        for first, second in combinations(tokenizers, 2):
            if rng.random() < 0.5:
                first, second = second, first
            try:
                feats = vectors[(first, language)] - vectors[(second, language)]
            except KeyError as e:
                raise ValueError(f"missing metrics for {e.args[0]}") from None
            mean_first = fixture.mean_metricx(first, scale, language)
            mean_second = fixture.mean_metricx(second, scale, language)
            if mean_first == mean_second:
                raise ValueError(
                    f"downstream tie between {first!r} and {second!r} "
                    f"on {language!r}; labels are undefined"
                )
            examples.append(
                PairwiseExample(
                    tok_i=first,
                    tok_j=second,
                    language=language,
                    features=feats,
                    label=int(mean_first < mean_second),
                )
            )
    return examples


_FITTERS = {
    "logistic": fit_logistic,
    "linear-svm": fit_linear_svm,
    "rbf-svm": fit_rbf_svm_platt,
}


def _leave_one_out(metrics, fixture, scale, unit, feature_set, model_kind, cv_folds, seed,
                   only=None):
    """Hold out each tokenizer or each language (`unit`), or only `only`.

    From one seeded dataset, yields (unit, model, held-out examples) in
    fixture order: the model is fit by _FITTERS on the examples that do
    not involve the unit, and the held-out examples are those that do.
    """
    if model_kind not in _FITTERS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    units, least = (fixture.tokenizers(), 3) if unit == "tokenizer" else (fixture.languages(), 2)
    if len(units) < least:
        raise ValueError(f"need at least {least} {unit}s for leave-one-out")
    if only is not None and only not in units:
        raise ValueError(f"{unit} {only!r} is not in the fixture (has {units})")
    dataset = build_pairwise_dataset(metrics, fixture, scale, feature_set, seed)
    involved = (lambda e: (e.tok_i, e.tok_j)) if unit == "tokenizer" else (lambda e: (e.language,))
    for held in units if only is None else [only]:
        train = [e for e in dataset if held not in involved(e)]
        model = _FITTERS[model_kind](train, cv_folds=cv_folds, feature_names=feature_set)
        yield held, model, [e for e in dataset if held in involved(e)]


def leave_one_tokenizer_out(
    metrics: dict,
    fixture: DownstreamFixture,
    scale: str,
    feature_set=METRIC_NAMES,
    model_kind: str = "logistic",
    cv_folds: int = 5,
    seed: int = 0,
) -> EvaluationReport:
    """The held-out protocol over each tokenizer; F1 on the examples that involve it."""
    feature_set = tuple(feature_set)
    per_heldout = {
        held: f1_score([int(predict_pair(model, e.features) > 0.5) for e in test],
                       [e.label for e in test])
        for held, model, test in _leave_one_out(
            metrics, fixture, scale, "tokenizer", feature_set, model_kind, cv_folds, seed)
    }
    return EvaluationReport(
        per_heldout=per_heldout, mean_f1=float(np.mean(list(per_heldout.values()))),
        feature_set=feature_set, model_kind=model_kind, seed=seed,
    )


def _language_tables(metrics, fixture, scale, cv_folds, seed, only=None):
    """(language, win probabilities) per held-out language, or for `only`.

    Raw outputs for the two orientations of a pair need not agree, so
    P[i, j] <- (P(i over j) + 1 - P(j over i))/2, from the pair's one
    example; one written j before i is negated, which is exact.
    """
    index = {name: k for k, name in enumerate(fixture.tokenizers())}
    for language, model, test in _leave_one_out(
            metrics, fixture, scale, "language", METRIC_NAMES, "rbf-svm", cv_folds, seed, only):
        matrix = np.full((len(index), len(index)), 0.5)
        for e in test:
            i, j, d = index[e.tok_i], index[e.tok_j], e.features
            if i > j:
                i, j, d = j, i, -d
            matrix[i, j] = (predict_pair(model, d) + 1.0 - predict_pair(model, -d)) / 2.0
            matrix[j, i] = 1.0 - matrix[i, j]
        yield language, PairwiseProbabilities(names=tuple(index), matrix=matrix)


def heldout_language_probabilities(
    metrics: dict,
    fixture: DownstreamFixture,
    scale: str,
    language: str,
    cv_folds: int = 5,
    seed: int = 0,
) -> PairwiseProbabilities:
    """Win probabilities on `language`, held out alone, from an RBF SVM fit on the others."""
    ((_, probs),) = _language_tables(metrics, fixture, scale, cv_folds, seed, only=language)
    return probs


def leave_one_language_out(
    metrics: dict,
    fixture: DownstreamFixture,
    scale: str,
    cv_folds: int = 5,
    seed: int = 0,
) -> dict[str, PairwiseProbabilities]:
    """heldout_language_probabilities for every language, from one dataset."""
    return dict(_language_tables(metrics, fixture, scale, cv_folds, seed))
