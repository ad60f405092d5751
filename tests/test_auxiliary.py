"""Contrastive losses, retrieval recall, and the CLUB MI bound."""

import math
import warnings

import numpy as np
import pytest

from vqdiff.auxiliary import club_mi, contrastive_ranking_loss, info_nce, recall_at_k


class TestInfoNce:
    def test_uniform_similarity_is_log_n(self):
        for n in (1, 2, 5, 17):
            sim = np.full((n, n), 0.37)
            assert info_nce(sim, temperature=1.0) == pytest.approx(math.log(n), abs=1e-12)

    def test_identity_two_by_two(self):
        got = info_nce(np.eye(2), temperature=1.0)
        assert got == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)
        assert got == pytest.approx(0.3133, abs=5e-5)

    def test_diagonal_dominance_saturates(self):
        losses = [info_nce(s * np.eye(8), temperature=1.0) for s in (1.0, 5.0, 20.0, 50.0)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3

    def test_temperature_sharpens(self):
        sim = np.eye(4)
        assert info_nce(sim, temperature=0.1) < info_nce(sim, temperature=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            info_nce(np.eye(2), temperature=0.0)
        with pytest.raises(ValueError, match="square"):
            info_nce(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            info_nce(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sim = rng.normal(size=(6, 6))
            assert info_nce(sim, temperature=0.7) >= 0.0

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, -1.0, 1e-320])
    def test_temperature_must_be_finite_positive_and_keep_the_scale_finite(
        self, recwarn, temperature
    ):
        with pytest.raises(ValueError, match="temperature"):
            info_nce(np.array([[1.0, 0.5], [0.5, 1.0]]), temperature=temperature)
        assert len(recwarn) == 0

    def test_tiny_temperature_accepted_while_the_scale_stays_finite(self):
        got = info_nce(np.zeros((3, 3)), temperature=1e-320)
        assert got == pytest.approx(math.log(3), abs=1e-12)


HUGE = np.array([[-1e308, 1e308], [1e308, -1e308]])


@pytest.mark.parametrize("loss", [
    lambda s: info_nce(s, temperature=1.0),
    lambda s: contrastive_ranking_loss(s, margin=0.2),
], ids=["infonce", "rank-loss"])
class TestOverflowingSimilarities:
    def test_overflow_is_refused_naming_the_similarities(self, recwarn, loss):
        with pytest.raises(ValueError, match="similarity matrix .* leaves the float range"):
            loss(HUGE)
        assert len(recwarn) == 0

    def test_terms_that_overflow_to_zero_are_kept(self, recwarn, loss):
        # every off-diagonal hinge, and every shifted off-diagonal term inside
        # logsumexp, overflows to -inf: exactly 0, as the true values are
        sim = np.array([[1e308, -1e308], [-1e308, 1e308]])
        assert loss(sim) == 0.0
        assert len(recwarn) == 0


class TestRankingLoss:
    def test_satisfied_margins(self):
        sim = np.array([[1.0, 0.1, 0.2], [0.0, 1.0, 0.3], [0.1, 0.2, 1.0]])
        assert contrastive_ranking_loss(sim, margin=0.5) == 0.0

    def test_two_by_two_hand_case(self):
        # pair (0,1): max(0,.2-.5+.9)+max(0,.2-.6+.9)=0.6+0.5
        # pair (1,0): max(0,.2-.6+.1)+max(0,.2-.5+.1)=0+0
        sim = np.array([[0.5, 0.9], [0.1, 0.6]])
        assert contrastive_ranking_loss(sim, margin=0.2) == pytest.approx(0.55, abs=1e-12)

    def test_zero_margin_scaling(self):
        rng = np.random.default_rng(1)
        sim = rng.normal(size=(5, 5))
        base = contrastive_ranking_loss(sim, margin=0.0)
        assert contrastive_ranking_loss(3.0 * sim, margin=0.0) == pytest.approx(3.0 * base)

    def test_single_pair_has_no_negatives(self):
        assert contrastive_ranking_loss(np.array([[2.0]]), margin=1.0) == 0.0

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            contrastive_ranking_loss(np.eye(2), margin=-0.1)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            contrastive_ranking_loss(np.eye(2), margin=margin)


class TestRecallAtK:
    def test_perfect_retrieval(self):
        sim = np.eye(5) + 0.01
        assert recall_at_k(sim, 1) == 100.0

    def test_crafted_75_at_2(self):
        sim = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],   # rank 1
                [0.9, 0.5, 0.0, 0.0],   # rank 2
                [0.9, 0.8, 0.5, 0.0],   # rank 3 -> missed at k=2
                [0.0, 0.0, 0.0, 1.0],   # rank 1
            ]
        )
        assert recall_at_k(sim, 1) == 50.0
        assert recall_at_k(sim, 2) == 75.0
        assert recall_at_k(sim, 3) == 100.0

    def test_ties_break_by_candidate_index(self):
        sim = np.array([[1.0, 1.0], [1.0, 1.0]])
        # row 0: diagonal at index 0 wins its tie; row 1: index 0 outranks
        assert recall_at_k(sim, 1) == 50.0
        assert recall_at_k(sim, 2) == 100.0

    def test_monotone_in_k_and_full_recall_at_n(self):
        rng = np.random.default_rng(2)
        sim = rng.normal(size=(8, 8))
        values = [recall_at_k(sim, k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        sim = rng.normal(size=(7, 7))
        for k in (1, 3, 7):
            assert recall_at_k(sim, k) == recall_at_k(np.exp(sim), k)

    def test_k_range(self):
        with pytest.raises(ValueError, match="k must be"):
            recall_at_k(np.eye(3), 0)
        with pytest.raises(ValueError, match="k must be"):
            recall_at_k(np.eye(3), 4)

    @pytest.mark.parametrize("k", [1.9, 2.0, True])
    def test_non_integer_k_refused(self, k):
        # int(k) would score 1.9 as k = 1 and True as 1
        with pytest.raises(ValueError, match="k must be in 1..3, got"):
            recall_at_k(np.eye(3), k)

    def test_numpy_integer_k_taken(self):
        sim = np.random.default_rng(4).normal(size=(5, 5))
        assert recall_at_k(sim, np.int64(2)) == recall_at_k(sim, 2)


class TestPermutationEquivariance:
    def test_losses_unchanged_by_joint_relabeling(self):
        rng = np.random.default_rng(4)
        sim = rng.normal(size=(6, 6))
        perm = rng.permutation(6)
        permuted = sim[np.ix_(perm, perm)]
        assert info_nce(permuted, 0.5) == pytest.approx(info_nce(sim, 0.5), abs=1e-12)
        assert contrastive_ranking_loss(permuted, 0.3) == pytest.approx(
            contrastive_ranking_loss(sim, 0.3), abs=1e-12
        )
        for k in (1, 2, 6):
            assert recall_at_k(permuted, k) == recall_at_k(sim, k)


class TestClubMi:
    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=10_000)
        y = rng.normal(size=10_000)
        assert abs(club_mi(x, y)) < 0.05

    def test_correlated_gaussians_upper_bound(self):
        rng = np.random.default_rng(6)
        rho = 0.9
        x = rng.normal(size=10_000)
        y = rho * x + math.sqrt(1.0 - rho**2) * rng.normal(size=10_000)
        true_mi = -0.5 * math.log(1.0 - rho**2)
        est = club_mi(x, y)
        assert est >= true_mi - 0.05
        # with the exact Gaussian conditional the population value of the
        # bound is E_indep[(y-rho*x)^2]/(2*sigma^2) - 1/2 = rho^2/(1-rho^2)
        assert est == pytest.approx(rho**2 / (1.0 - rho**2), abs=0.3)

    @pytest.mark.parametrize("a, b, c, d", [
        (1.0, 0.0, 1.0, 1e8),
        (1.0, 1e7, 1.0, 0.0),
        (-3.0, 1e8, 0.5, -1e8),
        (2.0**-30, 5.0, 2.0**40, 1e3),
    ], ids=["y-offset", "x-offset", "both", "scales"])
    def test_affine_invariance(self, a, b, c, d):
        # jointly Gaussian, rho = 0.6: the fit and the cross term are taken on
        # centred data, so offsets far from zero do not cancel the bound away
        rng = np.random.default_rng(10)
        x = rng.normal(size=4000)
        y = 0.6 * x + 0.8 * rng.normal(size=4000)
        base = club_mi(x, y)
        assert base == pytest.approx(0.6**2 / (1 - 0.6**2), abs=0.3)
        assert club_mi(a * x + b, c * y + d) == pytest.approx(base, rel=1e-6)

    def test_multivariate_affine_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2000, 3))
        y = x @ rng.normal(size=(3, 2)) + 0.5 * rng.normal(size=(2000, 2))
        shifted = club_mi(x * [1.0, -2.0, 1e3] + 1e8, y * [3.0, 1e-3] - 1e7)
        assert shifted == pytest.approx(club_mi(x, y), rel=1e-6)

    @pytest.mark.parametrize("A, chol, noise_var", [
        ([[1.0, 0.5, -0.3], [0.2, -0.8, 0.6]], [[1.0, 0.0, 0.0], [0.5, 0.8, 0.0], [-0.3, 0.2, 0.6]],
         [0.8, 1.5]),
        ([[0.7, -0.2], [0.3, 0.9], [-0.5, 0.4]], [[1.2, 0.0], [-0.4, 0.7]], [0.5, 1.0, 2.0]),
        ([[0.4, 0.1, 0.0], [0.0, -0.6, 0.3], [0.2, 0.2, 0.5]], np.diag([1.0, 0.5, 2.0]),
         [2.0, 4.0, 6.0]),
    ], ids=["3-to-2", "2-to-3", "3-to-3-weak"])
    def test_linear_gaussian_closed_form(self, A, chol, noise_var):
        # y = Ax + e, x ~ N(0, C) with C = chol chol^T, e ~ N(0, S) with S diagonal.  q(y|x)
        # fits the true conditional, so the population bound is
        # E_indep[(y - Ax)^T S^-1 (y - Ax)] / 2 - dim_y / 2 = tr(S^-1 A C A^T), and the exact
        # I(x; y) is log det(I + S^-1 A C A^T) / 2, below it
        A, chol, noise_var = np.asarray(A), np.asarray(chol), np.asarray(noise_var)
        m = A @ chol @ chol.T @ A.T / noise_var[:, None]
        population = np.trace(m)
        exact_mi = 0.5 * np.linalg.slogdet(np.eye(len(m)) + m)[1]
        estimates = []
        for seed in range(30):
            rng = np.random.default_rng([17, seed])
            x = rng.normal(size=(20_000, chol.shape[0])) @ chol.T
            y = x @ A.T + rng.normal(size=(20_000, len(m))) * np.sqrt(noise_var)
            estimates.append(club_mi(x, y))
        estimates = np.array(estimates)
        standard_error = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - population) <= 4 * standard_error
        assert np.all(estimates >= exact_mi)

    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_spread_far_from_zero_equals_its_exact_shift(self, seed):
        # y - 1e9 is exact, so the bound must not move; centring leaves y a residual mean
        # that the cross term's -2*sum(mu)*sum(y) part must cancel
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        y = 1e-4 * (0.3 * x + rng.normal(size=200)) + 1e9
        assert club_mi(x, y) == pytest.approx(club_mi(x, y - 1e9), rel=1e-12)

    def test_small_spread_is_not_floored(self):
        # the variance floor is relative to each y column's own variance, so a
        # small in-range spread is fitted, not floored, and scaling y changes
        # the bound by rounding only: not at all for a power of two
        rng = np.random.default_rng(10)
        x = rng.normal(size=4000)
        y = 0.6 * x + 0.8 * rng.normal(size=4000)
        base = club_mi(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert club_mi(x, 2.0**-20 * y) == pytest.approx(base, rel=1e-12)
            assert club_mi(x, 1e-6 * y) == pytest.approx(base, rel=1e-9)

    def test_constant_y_column_adds_nothing(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=400)
        y = 0.6 * x + 0.8 * rng.normal(size=400)
        constant = np.full(400, 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert club_mi(x, np.column_stack([constant, y])) == club_mi(x, y)
            assert club_mi(x, constant) == 0.0
            assert club_mi(1e8 + 0.0 * x, constant) == 0.0

    def test_perfect_dependence_large_finite(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=500)
        with pytest.warns(RuntimeWarning, match="residual variance"):
            est = club_mi(x, x)
        assert np.isfinite(est)
        assert est > 10.0

    def test_multivariate_dependence_positive(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2000, 3))
        y = x @ rng.normal(size=(3, 2)) + 0.5 * rng.normal(size=(2000, 2))
        assert club_mi(x, y) > 0.5

    def test_sample_size_precondition(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="at least 20"):
            club_mi(rng.normal(size=19), rng.normal(size=19))
        with pytest.raises(ValueError, match="at least 40"):
            club_mi(rng.normal(size=(39, 3)), rng.normal(size=39))

    def test_misaligned_samples(self):
        with pytest.raises(ValueError, match="aligned"):
            club_mi(np.zeros((30, 1)), np.zeros((29, 1)))


def club_brute_force(x, y):
    """CLUB as its definition reads: the fitted linear-Gaussian conditional's
    mean log q(y_i|x_i) less the mean of log q(y_j|x_i) over all n^2 pairs."""
    x = np.reshape(x, (len(x), -1))
    y = np.reshape(y, (len(y), -1))
    n = len(x)
    design = np.hstack([x, np.ones((n, 1))])
    mean = design @ np.linalg.lstsq(design, y, rcond=None)[0]
    var = ((y - mean) ** 2).mean(axis=0)

    def log_q(rows, i):  # log q(y_j | x_i) for every j in rows
        return -0.5 * (((y[rows] - mean[i]) ** 2 / var) + np.log(2 * math.pi * var)).sum(axis=-1)

    matched = sum(float(log_q([i], i)[0]) for i in range(n)) / n
    every_pair = sum(math.fsum(log_q(slice(None), i)) for i in range(n)) / (n * n)
    return matched - every_pair


class TestClubOracle:
    @pytest.mark.parametrize("seed, rho", [(1, 0.6), (2, 0.9), (3, 0.3)])
    def test_matches_the_double_sum(self, seed, rho):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        y = rho * x + math.sqrt(1 - rho**2) * rng.normal(size=200) + 3.0
        assert club_mi(x, y) == pytest.approx(club_brute_force(x, y), rel=1e-9)

    def test_matches_the_double_sum_multivariate(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(240, 3))
        y = x @ rng.normal(size=(3, 2)) + rng.normal(size=(240, 2)) - 5.0
        assert club_mi(x, y) == pytest.approx(club_brute_force(x, y), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 1e-310])
    @pytest.mark.parametrize("which", ["x", "y", "both"])
    def test_scale_outside_the_float_range(self, scale, which):
        # the bound does not depend on the scale of x or y; scaled by a power
        # of two into range, neither input's squares overflow or underflow
        rng = np.random.default_rng(10)
        x = rng.normal(size=400)
        y = 0.6 * x + 0.8 * rng.normal(size=400)
        sx, sy = (scale if which in ("x", "both") else 1.0), (scale if which != "x" else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = club_mi(x * sx, y * sy)
        assert got == pytest.approx(club_brute_force(x, y), rel=1e-9)
