"""Self-contained statistical kernel: OLS, Simpson quadrature, rank
correlations with exact small-sample p-values, F1, and one logistic
Newton fit, fit_logistic_newton, which fits logistic regression, Platt
scaling and Bradley-Terry: each of them only builds a design matrix and
targets.

Everything here is deterministic double-precision arithmetic. The rank
correlations use mid-ranks (Spearman) and tie-corrected tau-b (Kendall),
with p-values from exact permutation enumeration for n <= 8 and the usual
asymptotic approximations above that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

# Exact permutation enumeration is n! work; 8! = 40320 is the cutoff.
EXACT_PERMUTATION_MAX_N = 8

# Slack when comparing permuted statistics against the observed one, so
# that permutations achieving the observed value are always counted.
_PERM_EPS = 1e-12

# fit_logistic_newton stops when both the gradient and the Newton step are
# this small, or gives up after NEWTON_MAX_STEPS steps.
NEWTON_MAX_STEPS = 100
NEWTON_GRAD_TOL = 1e-8
NEWTON_STEP_TOL = 1e-6


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    n: int
    kind: str


def midranks(values) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
    _, group, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    # A group of ties fills the 0-based sorted positions start .. end - 1.
    end = np.cumsum(counts)
    start = end - counts
    return ((start + end + 1) / 2.0)[group]


def _as_pair(x, y, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError(
            f"inputs must be equal-length 1-D sequences, got {xv.shape} and {yv.shape}"
        )
    if len(xv) < min_n:
        raise ValueError(f"need at least {min_n} observations, got {len(xv)}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("inputs must be finite; got NaN or infinity")
    return xv, yv


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        raise ValueError("undefined correlation: zero variance in a ranking")
    return float(ac @ bc) / denom


def _tie_term(values: np.ndarray) -> float:
    """sum t*(t-1)/2 over groups of tied values."""
    _, counts = np.unique(values, return_counts=True)
    return float((counts * (counts - 1) // 2).sum())


def _var_s(x: np.ndarray, y: np.ndarray) -> float:
    """Null variance of Kendall's S with ties in both rankings (Kendall 1945).

    Without ties it reduces to n(n-1)(2n+5)/18.
    """
    n = len(x)
    tx, ty = (np.unique(v, return_counts=True)[1].astype(float) for v in (x, y))

    def tied(t, weight):
        return float((t * (t - 1) * weight).sum())

    return (
        (n * (n - 1) * (2 * n + 5) - tied(tx, 2 * tx + 5) - tied(ty, 2 * ty + 5)) / 18.0
        + tied(tx, 1.0) * tied(ty, 1.0) / (2.0 * n * (n - 1))
        + tied(tx, tx - 2) * tied(ty, ty - 2) / (9.0 * n * (n - 1) * (n - 2))
    )


def _tau_b(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Kendall's tau-b and the concordance statistic S it is made from."""
    iu, ju = np.triu_indices(len(x), k=1)
    sx = np.sign(x[iu] - x[ju])
    sy = np.sign(y[iu] - y[ju])
    s = float(sx @ sy)
    n0 = len(x) * (len(x) - 1) / 2
    denom = math.sqrt((n0 - _tie_term(x)) * (n0 - _tie_term(y)))
    if denom == 0.0:
        raise ValueError("undefined correlation: zero variance in a ranking")
    return s / denom, s


def _permutation_matrix(values: np.ndarray) -> np.ndarray:
    return np.array(list(permutations(values.tolist())), dtype=float)


def _spearman_null(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman rho for every permutation of y against fixed x."""
    rx = midranks(x)
    ry = midranks(y)
    perms = _permutation_matrix(ry)
    rxc = rx - rx.mean()
    pc = perms - perms.mean(axis=1, keepdims=True)
    denom = np.sqrt(float(rxc @ rxc) * (pc * pc).sum(axis=1))
    return (pc @ rxc) / denom


def _kendall_null(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kendall tau-b for every permutation of y against fixed x."""
    iu, ju = np.triu_indices(len(x), k=1)
    sx = np.sign(x[iu] - x[ju])
    perms = _permutation_matrix(y)
    sy = np.sign(perms[:, iu] - perms[:, ju])
    n0 = len(x) * (len(x) - 1) / 2
    # The tie pattern of y is permutation-invariant, so the denominator is shared.
    denom = math.sqrt((n0 - _tie_term(x)) * (n0 - _tie_term(y)))
    return (sy @ sx) / denom


def _perm_pvalue(null: np.ndarray, observed: float, alternative: str) -> float:
    if alternative == "two-sided":
        hits = np.abs(null) >= abs(observed) - _PERM_EPS
    elif alternative == "greater":
        hits = null >= observed - _PERM_EPS
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return float(hits.sum()) / len(null)


def spearman(x, y) -> CorrelationResult:
    """Spearman's rho with mid-rank tie handling.

    p-value: exact two-sided permutation enumeration for n <= 8, otherwise
    the t approximation t = rho*sqrt((n-2)/(1-rho^2)) with n-2 df.
    """
    xv, yv = _as_pair(x, y, min_n=3)
    n = len(xv)
    rho = _pearson(midranks(xv), midranks(yv))
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _perm_pvalue(_spearman_null(xv, yv), rho, "two-sided")
    else:
        if 1.0 - rho * rho <= 0.0:
            p = 0.0
        else:
            # Imported here: scipy costs every CLI command about 0.3 s to
            # load, and only this branch needs it.
            from scipy.special import stdtr

            t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return CorrelationResult(rho, p, n, "spearman")


def kendall(x, y, alternative: str = "two-sided") -> CorrelationResult:
    """Kendall's tau-b (tie-corrected).

    p-value: exact permutation enumeration for n <= 8, otherwise the normal
    approximation on the concordance statistic S with its tie-corrected
    variance. `alternative` is "two-sided" or "greater" (one-sided,
    positive association).
    """
    # Every statistic here depends on order alone; ranks keep the pairwise
    # differences finite where values near the float limit would overflow.
    xv, yv = map(midranks, _as_pair(x, y, min_n=3))
    n = len(xv)
    tau, s = _tau_b(xv, yv)
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _perm_pvalue(_kendall_null(xv, yv), tau, alternative)
    else:
        z = s / math.sqrt(_var_s(xv, yv))
        if alternative == "two-sided":
            p = math.erfc(abs(z) / math.sqrt(2.0))
        elif alternative == "greater":
            p = 0.5 * math.erfc(z / math.sqrt(2.0))
        else:
            raise ValueError(f"unknown alternative {alternative!r}")
    return CorrelationResult(tau, p, n, "kendall")


def simpson_integrate(y, h: float) -> float:
    """Composite Simpson's rule over uniformly spaced samples.

    Requires an odd number of points (>= 3) so the interval count is even.
    """
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1 or len(yv) < 3 or len(yv) % 2 == 0:
        raise ValueError(f"need an odd number of points >= 3, got {len(yv)}")
    if not h > 0:
        raise ValueError(f"spacing must be positive, got {h}")
    weights = np.ones(len(yv))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * (weights @ yv))


def ols_fit(points) -> tuple[float, float]:
    """Ordinary least squares line through (x, y) points: (intercept, slope)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least 2 (x, y) points")
    x = pts[:, 0]
    y = pts[:, 1]
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values are equal")
    beta1 = float(xc @ (y - y.mean())) / sxx
    beta0 = float(y.mean()) - beta1 * float(x.mean())
    return beta0, beta1


def f1_score(predicted, actual) -> float:
    """Harmonic mean of precision and recall for binary 0/1 sequences."""
    pv = np.asarray(predicted, dtype=int)
    av = np.asarray(actual, dtype=int)
    if pv.shape != av.shape or pv.ndim != 1:
        raise ValueError(
            f"inputs must be equal-length 1-D sequences, got {pv.shape} and {av.shape}"
        )
    if not (pv.any() or av.any()):
        raise ValueError("need at least one actual or predicted positive")
    tp = int(((pv == 1) & (av == 1)).sum())
    fp = int(((pv == 1) & (av == 0)).sum())
    fn = int(((pv == 0) & (av == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def sigmoid(z):
    """The logistic function 1 / (1 + exp(-z)), elementwise, without overflow."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_logistic_newton(D, targets, lam: float = 0.0, start=None):
    """Fit sigma(D @ theta) to targets in [0, 1] by Newton's method.

    Minimizes the summed cross-entropy, softplus(z) - t * z summed over
    z = D @ theta, plus (lam/2)||theta[1:]||^2: the first coefficient,
    the intercept where D's first column is ones, is not penalized. The
    gradient is D^T (sigma(z) - t) and the Hessian D^T diag(sigma(z)
    (1 - sigma(z))) D, each plus the penalty's. Each Newton system is
    solved by least squares, so a singular Hessian (a rank-deficient D at
    lam = 0) gives the minimum-norm step, which is orthogonal to the
    Hessian's null space. A step that raises the loss beyond rounding is
    halved, down to a factor of 1e-10. The fit has converged when both
    the gradient and the Newton step are small. Starts from start, or
    from zero. Returns (theta, loss at theta, steps, converged).
    """
    D = np.asarray(D, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    penalty = np.full(D.shape[1], float(lam))
    penalty[0] = 0.0

    def loss(theta):
        z = D @ theta
        # log(1 + exp(-|z|)) + max(z, 0) is the stable softplus of z.
        softplus = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
        return float(np.sum(softplus - t * z)) + 0.5 * float(theta @ (penalty * theta))

    theta = np.zeros(D.shape[1]) if start is None else np.asarray(start, dtype=np.float64)
    fval = loss(theta)
    for steps in range(NEWTON_MAX_STEPS):
        p = sigmoid(D @ theta)
        grad = D.T @ (p - t) + penalty * theta
        hess = (D.T * (p * (1.0 - p))) @ D + np.diag(penalty)
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if (
            np.linalg.norm(grad) <= NEWTON_GRAD_TOL
            and np.linalg.norm(step) <= NEWTON_STEP_TOL
        ):
            return theta, fval, steps, True
        shrink = 1.0
        new_theta = theta - step
        new_fval = loss(new_theta)
        # A rise within rounding is no overshoot; halving on it would
        # only stall a fit that is next to its optimum.
        while new_fval > fval + 1e-12 * fval and shrink > 1e-10:
            shrink /= 2.0
            new_theta = theta - shrink * step
            new_fval = loss(new_theta)
        theta, fval = new_theta, new_fval
    return theta, fval, NEWTON_MAX_STEPS, False
