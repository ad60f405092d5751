import numpy as np
import pytest

from vqdiff import InconsistencyError, SizeGuardError, linear_schedule, improved_schedule
from vqdiff.schedules import random_schedule
from vqdiff.transitions import (
    brute_force_cumulative,
    build_transition_matrix,
    marginal_xt_given_x0,
    stationary_dist,
    true_posterior,
)


class TestBuildTransitionMatrix:
    def test_hand_column(self):
        Q = build_transition_matrix(0.7, 0.1, 0.1, K=2)
        np.testing.assert_allclose(Q[:, 0], [0.8, 0.1, 0.1], atol=1e-15)
        np.testing.assert_allclose(Q[:, 1], [0.1, 0.8, 0.1], atol=1e-15)

    def test_mask_column_absorbing(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            K = int(rng.integers(2, 9))
            a = rng.uniform(0, 1)
            g = rng.uniform(0, 1 - a)
            b = (1 - a - g) / K
            Q = build_transition_matrix(a, b, g, K)
            expected = np.zeros(K + 1)
            expected[K] = 1.0
            np.testing.assert_array_equal(Q[:, K], expected)

    def test_identity_step(self):
        Q = build_transition_matrix(1.0, 0.0, 0.0, K=3)
        np.testing.assert_array_equal(Q, np.eye(4))

    def test_columns_stochastic(self):
        Q = build_transition_matrix(0.5, 0.05, 0.3, K=4)
        np.testing.assert_allclose(Q.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(Q >= 0)

    def test_simplex_violation_rejected(self):
        with pytest.raises(ValueError):
            build_transition_matrix(0.7, 0.1, 0.3, K=2)
        with pytest.raises(ValueError):
            build_transition_matrix(-0.1, 0.2, 0.7, K=2)

    @pytest.mark.parametrize("position", range(3))
    def test_nan_coefficient_rejected(self, position):
        coefficients = [0.7, 0.1, 0.1]
        coefficients[position] = np.nan
        with pytest.raises(ValueError, match="alpha \\+ K\\*beta \\+ gamma = 1"):
            build_transition_matrix(*coefficients, K=2)


class TestMarginal:
    def test_identity_at_zero(self):
        table = linear_schedule(10, 4)
        probs = marginal_xt_given_x0(2, 0, table)
        np.testing.assert_array_equal(probs, [0, 0, 1, 0, 0])

    def test_matches_brute_force_product(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            T = int(rng.integers(1, 9))
            K = int(rng.integers(2, 6))
            table = random_schedule(rng, T, K)
            for t in range(T + 1):
                prod = brute_force_cumulative(t, table)
                for x0 in range(K):
                    closed = marginal_xt_given_x0(x0, t, table)
                    np.testing.assert_allclose(closed, prod[:, x0], atol=1e-12)

    def test_linear_endpoint_mass_split(self):
        table = linear_schedule(100, 512)
        probs = marginal_xt_given_x0(7, 100, table)
        assert probs[512] == pytest.approx(0.9, abs=1e-12)
        np.testing.assert_allclose(probs[:512], 0.1 / 512, atol=1e-15)

    def test_positional_table_uses_owning_layer(self):
        table = improved_schedule(50, 8, 4)
        probs = marginal_xt_given_x0(3, 20, table, layer=2)
        ab, bb, gb = table.cumulative(20, layer=2)
        assert probs[3] == pytest.approx(ab + bb, abs=1e-15)
        assert probs[8] == pytest.approx(gb, abs=1e-15)

    def test_mask_x0_rejected(self):
        table = linear_schedule(10, 4)
        with pytest.raises(ValueError):
            marginal_xt_given_x0(4, 3, table)

    def test_sums_to_one(self):
        table = linear_schedule(100, 512)
        for t in (0, 1, 50, 99, 100):
            probs = marginal_xt_given_x0(0, t, table)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(probs >= 0)


class TestStationary:
    def test_linear_mass_split(self):
        probs = stationary_dist(linear_schedule(100, 512))
        assert probs[512] == pytest.approx(0.9, abs=1e-12)
        np.testing.assert_allclose(probs[:512], 0.1 / 512, atol=1e-15)

    def test_pure_mask_one_hot(self):
        probs = stationary_dist(improved_schedule(20, 6, 3))
        expected = np.zeros(7)
        expected[6] = 1.0
        np.testing.assert_allclose(probs, expected, atol=1e-15)


class TestTruePosterior:
    def test_matches_enumeration_oracle(self):
        # Bayes rule computed from the brute-force cumulative products
        rng = np.random.default_rng(77)
        for _ in range(15):
            T = int(rng.integers(1, 7))
            K = int(rng.integers(2, 5))
            table = random_schedule(rng, T, K)
            for t in range(1, T + 1):
                Q_t = build_transition_matrix(*table.stepwise(t), K)
                prev = brute_force_cumulative(t - 1, table)
                for x0 in range(K):
                    joint = Q_t * prev[:, x0][None, :]  # joint[x_t, x_{t-1}]
                    for x_t in range(K + 1):
                        total = joint[x_t].sum()
                        if total < 1e-300:
                            with pytest.raises(InconsistencyError):
                                true_posterior(x_t, x0, t, table)
                            continue
                        expected = joint[x_t] / total
                        got = true_posterior(x_t, x0, t, table)
                        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_deterministic_first_step(self):
        table = random_schedule(np.random.default_rng(5), 4, 3)
        # rebuild with an identity first step
        from vqdiff import from_stepwise

        alpha, beta, gamma = (
            np.array(c) for c in zip(*(table.stepwise(t) for t in range(1, 5)))
        )
        alpha[0], beta[0], gamma[0] = 1.0, 0.0, 0.0
        table = from_stepwise(alpha, beta, gamma, 3)
        probs = true_posterior(x_t=2, x0=2, t=1, table=table)
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-15)
        with pytest.raises(InconsistencyError):
            true_posterior(x_t=1, x0=2, t=1, table=table)

    def test_marginalization_consistency(self):
        # sum_{x_t} q(x_t|x0) q(x_{t-1}|x_t, x0) recovers q(x_{t-1}|x0)
        rng = np.random.default_rng(123)
        for _ in range(10):
            T = int(rng.integers(2, 7))
            K = int(rng.integers(2, 5))
            table = random_schedule(rng, T, K)
            for t in range(1, T + 1):
                for x0 in range(K):
                    w = marginal_xt_given_x0(x0, t, table)
                    acc = np.zeros(K + 1)
                    for x_t in range(K + 1):
                        if w[x_t] <= 0:
                            continue
                        acc += w[x_t] * true_posterior(x_t, x0, t, table)
                    np.testing.assert_allclose(
                        acc, marginal_xt_given_x0(x0, t - 1, table), atol=1e-10
                    )

    def test_normalized_for_valid_inputs(self):
        table = linear_schedule(100, 1024)
        for t in (1, 37, 100):
            for x_t in (0, 5, 1024):
                probs = true_posterior(x_t, 5, t, table)
                assert probs.sum() == pytest.approx(1.0, abs=1e-10)
                assert np.all(probs >= 0)


class TestBruteForce:
    def test_empty_product_identity(self):
        table = linear_schedule(10, 4)
        np.testing.assert_array_equal(brute_force_cumulative(0, table), np.eye(5))

    def test_product_column_stochastic(self):
        table = linear_schedule(20, 6)
        prod = brute_force_cumulative(20, table)
        np.testing.assert_allclose(prod.sum(axis=0), 1.0, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_cumulative(3, linear_schedule(10, 64))
        with pytest.raises(SizeGuardError):
            brute_force_cumulative(65, linear_schedule(100, 4))

    def test_positional_product_matches_segment(self):
        # for per-codebook tables the chain of step matrices reproduces the
        # segment coefficients from 0 (not the raw cumulative, which carries
        # the t=0 offset)
        table = improved_schedule(12, 5, 3)
        for layer in range(3):
            for t in (1, 4, 12):
                prod = brute_force_cumulative(t, table, layer=layer)
                a, b, g = (c[layer] for c in table.segment(0, t))
                col = np.full(6, b)
                col[2] += a
                col[5] = g
                np.testing.assert_allclose(prod[:, 2], col, atol=1e-12)
