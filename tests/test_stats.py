"""Statistical kernel: correlations, quadrature, OLS, F1, the logistic Newton fit."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate
from scipy import optimize, special
from scipy import stats as scipy_stats

from tokscope import stats
from tokscope.stats import (
    CorrelationResult,
    f1_score,
    fit_logistic_newton,
    kendall,
    midranks,
    ols_fit,
    simpson_integrate,
    spearman,
)


# --- definitional oracles, kept deliberately naive -----------------------


def oracle_midranks(values):
    values = list(values)
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(below + (equal + 1) / 2.0)
    return out


def oracle_spearman_rho(x, y):
    """Pearson correlation of mid-ranks, in exact rational arithmetic."""
    rx = [Fraction(r) for r in oracle_midranks(x)]
    ry = [Fraction(r) for r in oracle_midranks(y)]
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return sxy, sxx, syy  # caller decides how to normalize


def oracle_spearman_float(x, y):
    sxy, sxx, syy = oracle_spearman_rho(x, y)
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def oracle_kendall_tau_b(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


class TestMidranks:
    def test_distinct_values(self):
        assert midranks([10, 30, 20]).tolist() == [1.0, 3.0, 2.0]

    def test_ties_average(self):
        assert midranks([1, 2, 2, 3]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_equal(self):
        assert midranks([7, 7, 7]).tolist() == [2.0, 2.0, 2.0]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_matches_naive_definition(self, values):
        assert midranks(values).tolist() == oracle_midranks(values)

    @given(
        st.one_of(
            st.lists(st.integers(-4, 4), min_size=9, max_size=60),
            st.lists(st.floats(-1e6, 1e6), min_size=9, max_size=60),
        )
    )
    def test_matches_scipy_rankdata(self, values):
        expected = scipy_stats.rankdata(values, method="average")
        assert midranks(values).tolist() == expected.tolist()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25))
    def test_rank_sum_invariant(self, values):
        n = len(values)
        assert math.isclose(float(midranks(values).sum()), n * (n + 1) / 2.0)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]).coefficient == 1.0

    def test_perfect_reverse(self):
        assert spearman([1, 2, 3], [3, 2, 1]).coefficient == -1.0

    def test_swapped_pairs_value(self):
        r = spearman([1, 2, 3, 4], [2, 1, 4, 3])
        assert math.isclose(r.coefficient, 0.6, abs_tol=1e-12)

    def test_result_fields(self):
        r = spearman([3, 1, 2, 5, 4], [1, 2, 3, 4, 5])
        assert isinstance(r, CorrelationResult)
        assert r.kind == "spearman"
        assert r.n == 5
        assert 0.0 <= r.p_value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            spearman([1, 1, 1], [1, 2, 3])

    def test_exact_permutation_p_small_n(self):
        # Enumerate the null by brute force for one fixed observation.
        x = [1, 2, 3, 4, 5]
        y = [2, 1, 3, 5, 4]
        observed = abs(oracle_spearman_float(x, y))
        hits = 0
        for perm in itertools.permutations(y):
            if abs(oracle_spearman_float(x, list(perm))) >= observed - 1e-12:
                hits += 1
        assert spearman(x, y).p_value == hits / math.factorial(5)

    def test_large_n_uses_t_approximation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = x + rng.normal(scale=0.5, size=40)
        r = spearman(x, y)
        # t-based p-value for a strong positive trend on n=40 is tiny.
        assert r.p_value < 1e-6
        assert r.coefficient > 0.8

    @given(
        st.lists(st.integers(0, 100), min_size=3, max_size=9, unique=True).flatmap(
            lambda xs: st.tuples(
                st.just(xs),
                st.lists(
                    st.integers(0, 100), min_size=len(xs), max_size=len(xs), unique=True
                ),
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle(self, xy):
        x, y = xy
        mine = spearman(x, y).coefficient
        assert math.isclose(mine, oracle_spearman_float(x, y), abs_tol=1e-12)

    # Values from a small range, so most draws hold ties in both columns.
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=40))
    @settings(deadline=None, max_examples=150)
    @example([(0, 0), (1, 1), (1, 0), (2, 2)])
    @example([(i % 3, i % 4) for i in range(20)])
    def test_matches_scipy_spearmanr_with_ties(self, pairs):
        x, y = (list(column) for column in zip(*pairs))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        want = scipy_stats.spearmanr(x, y)
        got = spearman(x, y)
        assert math.isclose(got.coefficient, want.statistic, rel_tol=1e-12, abs_tol=1e-12)
        if len(x) > 8:  # both use the t approximation there
            assert math.isclose(got.p_value, want.pvalue, rel_tol=1e-9, abs_tol=1e-15)

    @given(st.permutations(list(range(1, 7))))
    def test_monotone_transform_invariance(self, y):
        x = [1, 2, 3, 4, 5, 6]
        y2 = [10 * v**3 + 5 for v in y]  # strictly increasing transform
        assert spearman(x, y).coefficient == spearman(x, y2).coefficient


class TestKendall:
    def test_identical(self):
        assert kendall([1, 2, 3, 4], [1, 2, 3, 4]).coefficient == 1.0

    def test_one_adjacent_swap_n6(self):
        tau = kendall([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 6, 5]).coefficient
        assert math.isclose(tau, 1 - 2 / 15, abs_tol=1e-12)

    def test_two_adjacent_swaps_n6(self):
        tau = kendall([1, 2, 3, 4, 5, 6], [2, 1, 3, 4, 6, 5]).coefficient
        assert math.isclose(tau, 1 - 4 / 15, abs_tol=1e-12)

    def test_reversal_antisymmetry(self):
        x = [1, 2, 3, 4, 5]
        y = [2, 4, 1, 5, 3]
        y_rev = [6 - v for v in y]
        assert kendall(x, y_rev).coefficient == -kendall(x, y).coefficient

    def test_tie_correction_matches_oracle(self):
        x = [1, 1, 2, 3, 4, 4]
        y = [2, 1, 1, 3, 3, 4]
        assert math.isclose(
            kendall(x, y).coefficient, oracle_kendall_tau_b(x, y), abs_tol=1e-12
        )

    def test_exact_permutation_p(self):
        x = [1, 2, 3, 4, 5, 6]
        y = [3, 1, 2, 4, 6, 5]
        observed = abs(oracle_kendall_tau_b(x, y))
        hits = sum(
            abs(oracle_kendall_tau_b(x, list(p))) >= observed - 1e-12
            for p in itertools.permutations(y)
        )
        assert kendall(x, y).p_value == hits / math.factorial(6)

    def test_one_sided_alternative(self):
        x = [1, 2, 3, 4, 5, 6]
        y = [1, 2, 3, 4, 6, 5]
        two = kendall(x, y, alternative="two-sided").p_value
        one = kendall(x, y, alternative="greater").p_value
        assert one <= two
        assert one == pytest.approx(sum(
            oracle_kendall_tau_b(x, list(p)) >= oracle_kendall_tau_b(x, y) - 1e-12
            for p in itertools.permutations(y)
        ) / math.factorial(6))

    def test_large_n_normal_approximation(self):
        x = list(range(50))
        y = list(range(50))
        y[0], y[1] = y[1], y[0]
        r = kendall(x, y)
        assert r.p_value < 1e-10
        assert r.coefficient > 0.99

    @given(
        st.integers(9, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
            )
        )
    )
    @example(
        ([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4], [1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 4, 4])
    )
    @settings(deadline=None, max_examples=60)
    def test_asymptotic_p_matches_scipy_with_ties(self, xy):
        x, y = xy
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        for alternative in ("two-sided", "greater"):
            mine = kendall(x, y, alternative=alternative)
            ref = scipy_stats.kendalltau(
                x, y, method="asymptotic", alternative=alternative
            )
            assert math.isclose(mine.coefficient, ref.statistic, abs_tol=1e-12)
            assert math.isclose(mine.p_value, ref.pvalue, rel_tol=1e-9)

    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle_with_ties(self, xy):
        x, y = xy
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert math.isclose(
            kendall(x, y).coefficient, oracle_kendall_tau_b(x, y), abs_tol=1e-12
        )


@pytest.mark.parametrize("correlation", [spearman, kendall])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_correlations_reject_non_finite_input(correlation, bad):
    with pytest.raises(ValueError, match="finite"):
        correlation([1, 2, 3, 4], [bad, 3, 4, 1])
    with pytest.raises(ValueError, match="finite"):
        correlation([1, 2, 3, bad], [2, 3, 4, 1])


class TestSimpson:
    def test_single_parabolic_panel(self):
        assert simpson_integrate([0.0, 1.0, 0.0], 1.0) == pytest.approx(4.0 / 3.0)

    def test_quadratic_exact(self):
        y = [x**2 for x in (0.0, 1.0, 2.0)]
        assert simpson_integrate(y, 1.0) == pytest.approx(8.0 / 3.0, abs=1e-14)

    def test_constant(self):
        assert simpson_integrate([2.5] * 5, 1.0) == pytest.approx(10.0)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            simpson_integrate([0.0, 1.0, 2.0, 3.0], 1.0)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            simpson_integrate([0.0, 1.0, 0.0], 0.0)

    @given(
        st.tuples(
            st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)
        ),
        st.integers(1, 40),
    )
    @settings(deadline=None)
    def test_cubics_exact(self, coeffs, panels):
        a, b, c, d = coeffs
        n_points = 2 * panels + 1
        xs = np.linspace(0.0, 2.0, n_points)
        ys = a + b * xs + c * xs**2 + d * xs**3
        exact = a * 2.0 + b * 2.0**2 / 2 + c * 2.0**3 / 3 + d * 2.0**4 / 4
        h = 2.0 / (n_points - 1)
        assert abs(simpson_integrate(ys, h) - exact) <= 1e-12


    @given(
        st.integers(1, 40).flatmap(
            lambda panels: st.lists(st.floats(-1e3, 1e3), min_size=2 * panels + 1,
                                    max_size=2 * panels + 1)),
        st.floats(1e-3, 1e3),
    )
    @settings(deadline=None)
    def test_matches_scipy_simpson_on_odd_grids(self, ys, h):
        want = scipy_integrate.simpson(ys, dx=h)
        scale = h * len(ys) * max(1.0, max(map(abs, ys)))
        assert math.isclose(simpson_integrate(ys, h), want, rel_tol=1e-12, abs_tol=1e-13 * scale)


class TestOlsFit:
    def test_two_points(self):
        beta0, beta1 = ols_fit([(0.0, 1.0), (1.0, 3.0)])
        assert (beta0, beta1) == pytest.approx((1.0, 2.0))

    def test_hand_solved_normal_equations(self):
        beta0, beta1 = ols_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        assert beta0 == pytest.approx(1.0 / 3.0)
        assert beta1 == pytest.approx(0.0, abs=1e-15)

    def test_colinear_residuals_vanish(self):
        pts = [(x, 4.0 - 0.5 * x) for x in np.linspace(-3, 5, 9)]
        beta0, beta1 = ols_fit(pts)
        residuals = [y - (beta0 + beta1 * x) for x, y in pts]
        assert max(abs(r) for r in residuals) < 1e-12

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ols_fit([(1.0, 0.0), (1.0, 5.0)])

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.lists(st.integers(-40, 40), min_size=2, max_size=30, unique=True),
    )
    @settings(deadline=None)
    def test_recovers_exact_lines(self, intercept, slope, xs):
        pts = [(x / 2.0, intercept + slope * x / 2.0) for x in xs]
        beta0, beta1 = ols_fit(pts)
        assert beta0 == pytest.approx(intercept, abs=1e-6 * (1 + abs(intercept)))
        assert beta1 == pytest.approx(slope, abs=1e-6 * (1 + abs(slope)))


class TestF1:
    def test_perfect(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert f1_score([0, 1, 0], [1, 0, 1]) == 0.0

    def test_counted_example(self):
        # TP=2, FP=1, FN=1: precision = recall = 2/3.
        assert f1_score([1, 1, 1, 0, 0], [1, 1, 0, 1, 0]) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_score([1, 0], [1])

    def test_no_positives_anywhere_rejected(self):
        with pytest.raises(ValueError):
            f1_score([0, 0], [0, 0])

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=40).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)),
            )
        )
    )
    def test_bounded(self, pair):
        actual, predicted = pair
        if sum(actual) + sum(predicted) == 0:
            return
        assert 0.0 <= f1_score(predicted, actual) <= 1.0


class TestFitLogisticNewton:
    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        d=st.integers(1, 5),
        design=st.sampled_from(("dense", "intercept", "pairs")),
        spread=st.sampled_from((0.1, 1.0, 10.0)),
        lam=st.sampled_from((0.0, 0.01, 1.0, 100.0)),
    )
    # Bradley-Terry's design at lam = 0, where the constant shift is a
    # null direction of the Hessian.
    @example(seed=0, n=3, d=2, design="pairs", spread=1.0, lam=0.0)
    def test_matches_scipy(self, seed, n, d, design, spread, lam):
        rng = np.random.default_rng(seed)
        if design == "pairs":
            # Rows e_i - e_j over d + 1 items: each sums to zero, so D is
            # rank-deficient.
            i = rng.integers(0, d + 1, n)
            j = (i + rng.integers(1, d + 1, n)) % (d + 1)
            D = np.eye(d + 1)[i] - np.eye(d + 1)[j]
        else:
            D = spread * rng.normal(size=(n, d + 1))
            if design == "intercept":
                D[:, 0] = 1.0
        # Fractional targets keep the optimum finite along every direction
        # that D does not map to zero, even at lam = 0.
        targets = rng.uniform(0.01, 0.99, n)
        penalty = np.array([0.0] + [lam] * d)

        def loss(theta):
            z = D @ theta
            return float(np.sum(np.logaddexp(0.0, z) - targets * z)
                         + 0.5 * theta @ (penalty * theta))

        def gradient(theta):
            return D.T @ (special.expit(D @ theta) - targets) + penalty * theta

        def hessian(theta):
            p = special.expit(D @ theta)
            return (D.T * (p * (1.0 - p))) @ D + np.diag(penalty)

        theta, fval, steps, converged = fit_logistic_newton(D, targets, lam)
        assert converged
        assert np.linalg.norm(gradient(theta)) <= 2 * stats.NEWTON_GRAD_TOL
        assert fval == pytest.approx(loss(theta), rel=1e-12, abs=1e-12)
        result = optimize.minimize(
            loss, np.zeros(d + 1), jac=gradient, hess=hessian,
            method="trust-exact", options={"gtol": 1e-12},
        )
        assert loss(theta) == pytest.approx(result.fun, rel=1e-12, abs=1e-12)
