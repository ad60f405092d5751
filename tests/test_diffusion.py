import hashlib
import itertools
import json
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from vqdiff import (
    BayesOracleDenoiser,
    ContractError,
    Denoiser,
    FittingError,
    InconsistencyError,
    ScheduleTable,
    SizeGuardError,
    TabularDenoiser,
    TokenGrid,
    TrainConfig,
    bayes_oracle_denoiser,
    cfg_combine,
    corrupt,
    empirical_bayes_denoiser,
    improved_schedule,
    linear_schedule,
    load_denoiser,
    from_stepwise,
    reverse_step,
    sample,
    sample_chains,
    save_denoiser,
    train_denoiser,
    vlb_loss,
)
from vqdiff import diffusion
from vqdiff.diffusion import (
    _kl_step,
    _predict_guided,
    _prior_kl,
    _sample_categorical,
    _softmax,
    _StepKernel,
)
from vqdiff.schedules import random_schedule
from vqdiff.transitions import build_transition_matrix, marginal_xt_given_x0, true_posterior


def step_dists(x_t, t, p0, table, t_prev):
    """Per-position p(x_{t_prev} | x_t) as an (N_q, L, K+1) array."""
    return _StepKernel(x_t.data, table, t, t - t_prev).mix(p0)


def grid1(tokens, K):
    return TokenGrid(data=np.asarray([tokens], dtype=np.int64), K=K)


class PointMassDenoiser(Denoiser):
    """Always predicts the grid it was built around."""

    def __init__(self, target: TokenGrid):
        self.K = target.K
        self.grid_shape = (target.N_q, target.L)
        self._target = target

    def predict(self, x_t, t, cond=None):
        out = np.zeros((x_t.N_q, x_t.L, self.K))
        idx = np.indices(x_t.data.shape)
        out[idx[0], idx[1], self._target.data] = 1.0
        return out


class FixedDenoiser(Denoiser):
    """Returns the same per-position distribution everywhere."""

    def __init__(self, probs, grid_shape):
        self._probs = np.asarray(probs, dtype=float)
        self.K = self._probs.shape[-1]
        self.grid_shape = grid_shape

    def predict(self, x_t, t, cond=None):
        return np.broadcast_to(
            self._probs, (x_t.N_q, x_t.L, self.K)
        ).copy()


class TestCorrupt:
    def test_identity_at_zero(self):
        table = linear_schedule(10, 4)
        g = grid1([0, 1, 2, 3, 1], 4)
        rng = np.random.default_rng(0)
        assert corrupt(g, 0, table, rng) is g

    def test_pure_mask_endpoint(self):
        table = improved_schedule(10, 4, 1)
        g = grid1([0, 1, 2, 3, 1], 4)
        out = corrupt(g, 10, table, np.random.default_rng(3))
        assert np.all(out.data == 4)

    def test_masked_input_rejected(self):
        table = linear_schedule(10, 4)
        g = grid1([0, 4, 1], 4)
        with pytest.raises(ValueError):
            corrupt(g, 3, table, np.random.default_rng(0))

    def test_histogram_matches_marginal(self):
        rng = np.random.default_rng(2024)
        table = random_schedule(rng, 6, 3)
        g = grid1([1], 3)
        t = 4
        draws = np.array(
            [corrupt(g, t, table, rng).data[0, 0] for _ in range(12000)]
        )
        counts = np.bincount(draws, minlength=4)
        expected = marginal_xt_given_x0(1, t, table) * 12000
        keep = expected > 0
        res = chisquare(counts[keep], expected[keep])
        assert res.pvalue > 0.01

    def test_layerwise_coefficients_respected(self):
        # layer 2 of the per-codebook schedule masks faster than layer 0
        table = improved_schedule(10, 6, 3)
        g = TokenGrid(data=np.ones((3, 400), dtype=np.int64), K=6)
        out = corrupt(g, 5, table, np.random.default_rng(9))
        frac = (out.data == 6).mean(axis=1)
        assert frac[0] < frac[2]

    def test_determinism(self):
        table = linear_schedule(20, 8)
        g = TokenGrid(data=np.arange(24, dtype=np.int64).reshape(2, 12) % 8, K=8)
        a = corrupt(g, 11, table, np.random.default_rng(42))
        b = corrupt(g, 11, table, np.random.default_rng(42))
        np.testing.assert_array_equal(a.data, b.data)

    def test_runs_without_a_generator(self):
        # a fresh generator, as reverse_step, sample, vlb_loss and train_denoiser take
        g = grid1([0, 1, 2, 3, 1], 4)
        for rng in ((), (None,)):
            assert np.all(corrupt(g, 10, improved_schedule(10, 4, 1), *rng).data == 4)
            assert corrupt(g, 3, linear_schedule(10, 4), *rng).data.shape == (1, 5)


def mixture_oracle(table, obs, t, s, p0, layer=0):
    """Enumerated sum_v q(x_s | x_t=obs, v) p0[v], dropping impossible v."""
    K = table.K
    seg = build_transition_matrix(
        *(np.broadcast_to(c, table.n_layers)[layer] for c in table.segment(s, t)), K
    )
    out = np.zeros(K + 1)
    weights = []
    posts = []
    for v in range(K):
        ab, bb, gb = table.cumulative(s, layer)
        marg = np.full(K + 1, bb)
        marg[v] += ab
        marg[K] = gb
        numer = seg[obs, :] * marg
        z = numer.sum()
        if z <= 0:
            weights.append(0.0)
            posts.append(np.zeros(K + 1))
        else:
            weights.append(p0[v])
            posts.append(numer / z)
    w = np.asarray(weights)
    if w.sum() == 0:
        raise InconsistencyError("no feasible clean token")
    w = w / w.sum()
    for wv, pv in zip(w, posts):
        out += wv * pv
    return out


class TestReverseStepDistribution:
    def test_matches_enumeration_base_tables(self):
        rng = np.random.default_rng(555)
        for _ in range(25):
            T = int(rng.integers(2, 7))
            K = int(rng.integers(2, 5))
            table = random_schedule(rng, T, K)
            t = int(rng.integers(1, T + 1))
            s = int(rng.integers(0, t))
            p0 = rng.dirichlet(np.ones(K))
            for obs in range(K + 1):
                g = grid1([obs], K)
                try:
                    expected = mixture_oracle(table, obs, t, s, p0)
                except InconsistencyError:
                    with pytest.raises(InconsistencyError):
                        step_dists(g, t, p0[None, None, :], table, s)
                    continue
                got = step_dists(g, t, p0[None, None, :], table, s)
                np.testing.assert_allclose(got[0, 0], expected, atol=1e-12)

    def test_matches_enumeration_positional(self):
        rng = np.random.default_rng(77)
        table = improved_schedule(8, 4, 2)
        for t in range(1, 9):
            for s in range(t):
                for obs in (0, 2, 4):
                    p0 = rng.dirichlet(np.ones(4), size=2)
                    g = TokenGrid(data=np.array([[obs], [obs]], dtype=np.int64), K=4)
                    try:
                        expected = [
                            mixture_oracle(table, obs, t, s, p0[layer], layer)
                            for layer in range(2)
                        ]
                    except InconsistencyError:
                        # a non-mask token at the fully absorbed endpoint
                        with pytest.raises(InconsistencyError):
                            step_dists(g, t, p0[:, None, :], table, s)
                        continue
                    got = step_dists(g, t, p0[:, None, :], table, s)
                    for layer in range(2):
                        np.testing.assert_allclose(got[layer, 0], expected[layer], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        table = random_schedule(rng, 10, 6)
        p0 = rng.dirichlet(np.ones(6), size=(2, 3))
        g = TokenGrid(data=rng.integers(0, 7, size=(2, 3)), K=6)
        got = step_dists(g, 7, p0, table, 3)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_pure_mask_pins_observed_tokens(self):
        table = improved_schedule(10, 4, 1)
        p0 = np.full((1, 2, 4), 0.25)
        g = grid1([2, 4], 4)
        got = step_dists(g, 5, p0, table, 4)
        np.testing.assert_allclose(got[0, 0], [0, 0, 1, 0, 0], atol=1e-12)
        assert got[0, 1, 4] > 0  # masked position may stay masked


def dense_kernel(table, obs, t, layer):
    """Q[k, v] = q(x_{t-1}=k | x_t=obs, x0=v) from the brute-force posterior; invalid v -> 0."""
    K = table.K
    Q = np.zeros((K + 1, K))
    valid = np.zeros(K, dtype=bool)
    for v in range(K):
        try:
            Q[:, v] = true_posterior(obs, v, t, table, layer)
            valid[v] = True
        except InconsistencyError:
            pass
    return Q, valid


def kernel_tables():
    rng = np.random.default_rng(404)
    return [
        (linear_schedule(5, 3), 1),
        (random_schedule(rng, 6, 4), 1),
        (improved_schedule(5, 3, 2), 2),
    ]


class TestStepKernel:
    """The closed-form kernel against the dense one built from ``true_posterior``."""

    @pytest.mark.parametrize("table,N_q", kernel_tables(), ids=["linear", "random", "improved"])
    def test_products_match_dense_oracle(self, table, N_q):
        K = table.K
        L = K + 1  # every observed value, the mask included, in each row
        data = np.tile(np.arange(K + 1), (N_q, 1))
        rng = np.random.default_rng(5)
        for t in range(1, table.T + 1):
            kernel = _StepKernel(data, table, t)
            r = rng.normal(size=(N_q, L, K + 1))
            p = rng.dirichlet(np.ones(K), size=(N_q, L))
            got_t, got_valid = kernel.mix_t(r)
            try:
                got_mix = kernel.mix(p)
            except InconsistencyError:
                # an observed token at a fully masked step: no clean token is valid
                assert (~got_valid.any(axis=-1)).any()
                got_mix = None
            for q in range(N_q):
                for l in range(L):
                    Q, valid = dense_kernel(table, data[q, l], t, q)
                    np.testing.assert_array_equal(got_valid[q, l], valid)
                    np.testing.assert_allclose(got_t[q, l], r[q, l] @ Q, rtol=1e-12, atol=1e-14)
                    assert np.all(got_t[q, l][~valid] == 0.0)
                    if got_mix is not None:
                        p_eff = np.where(valid, p[q, l], 0.0)
                        np.testing.assert_allclose(
                            got_mix[q, l], Q @ p_eff / p_eff.sum(), rtol=1e-12, atol=1e-14
                        )

    def test_mask_at_zero_mask_step_rejected(self):
        table = from_stepwise([0.7, 0.5], [0.1, 0.1], [0.0, 0.2], 3)  # no mask mass at t=1
        with pytest.raises(InconsistencyError):
            _StepKernel(np.array([[3, 0]]), table, 1)


def softmax(w):
    e = np.exp(w - w.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def dense_step_kl(table, t, x_t, x0, w):
    """Summed per-position KL(post || Q p_eff / M) from the brute-force posterior."""
    p = softmax(w)
    total = 0.0
    for l in range(x_t.shape[1]):
        Q, valid = dense_kernel(table, x_t[0, l], t, 0)
        p_eff = np.where(valid, p[0, l], 0.0)
        mix = Q @ p_eff / p_eff.sum()
        post = true_posterior(x_t[0, l], x0[0, l], t, table)
        s = post > 0
        total += float(np.sum(post[s] * np.log(post[s] / mix[s])))
    return total


class TestTrainingGradient:
    @pytest.mark.parametrize(
        "table",
        [random_schedule(np.random.default_rng(9), 4, 3), improved_schedule(4, 3, 1)],
        ids=["random", "improved"],
    )
    def test_matches_central_finite_difference(self, table):
        # K=3, 1x2: the gradient one SGD step applies before the lr scale,
        # against the central difference of the step's summed KL
        K, h = 3, 1e-6
        rng = np.random.default_rng(12)
        x0 = np.array([[0, 2]])
        checked = 0
        for t in range(1, table.T + 1):
            for x_t in ([[0, 2]], [[3, 2]], [[1, 3]], [[3, 3]], [[2, 0]]):
                x_t = np.array(x_t)
                try:
                    [true_posterior(x_t[0, l], x0[0, l], t, table) for l in range(2)]
                except InconsistencyError:
                    continue  # x_t impossible from x0 at this step
                w = rng.normal(size=(1, 2, K))
                (loss,), g_w = _kl_step(x_t, x0, softmax(w), table, t)
                assert loss == pytest.approx(dense_step_kl(table, t, x_t, x0, w) / 2, rel=1e-12)
                fd = np.zeros_like(w)
                for idx in np.ndindex(w.shape):
                    e = np.zeros_like(w)
                    e[idx] = h
                    fd[idx] = (dense_step_kl(table, t, x_t, x0, w + e)
                               - dense_step_kl(table, t, x_t, x0, w - e)) / (2 * h)
                np.testing.assert_allclose(g_w, fd, rtol=1e-6, atol=1e-9)
                checked += 1
        assert checked >= table.T


class TestSharedScheduleBroadcast:
    def test_identical_columns_match_shared_table_bytes(self):
        # a (T+1, N_q) table whose columns all equal the linear schedule's
        shared = linear_schedule(6, 4)
        N_q = 3
        wide = ScheduleTable(
            shared.T, shared.K,
            *(np.tile(a[:, None], (1, N_q))
              for a in (shared.alpha_bar, shared.beta_bar, shared.gamma_bar)),
            kind="linear",
        )
        rng = np.random.default_rng(31)
        x0 = TokenGrid(data=rng.integers(0, 4, size=(N_q, 7)), K=4)
        p0 = rng.dirichlet(np.ones(4), size=(N_q, 7))
        tables = (shared, wide)
        for t in range(1, shared.T + 1):
            a, b = (corrupt(x0, t, table, np.random.default_rng(t)) for table in tables)
            np.testing.assert_array_equal(a.data, b.data)
            for s in range(t):
                da, db = (step_dists(a, t, p0, table, s) for table in tables)
                assert da.tobytes() == db.tobytes()
        den = FixedDenoiser(rng.dirichlet(np.ones(4)), (N_q, 7))
        va, vb = (
            vlb_loss(den, x0, None, table, np.random.default_rng(5), num_t_samples=4)
            for table in tables
        )
        assert va == vb


class TestReverseStep:
    def test_point_mass_recovery_with_identity_first_step(self):
        alpha = np.array([1.0, 0.6, 0.5])
        gamma = np.array([0.0, 0.3, 0.4])
        beta = (1 - alpha - gamma) / 3
        table = from_stepwise(alpha, beta, gamma, 3)
        x0 = grid1([2, 0, 1], 3)
        den = PointMassDenoiser(x0)
        out = reverse_step(x0, 1, den, None, table, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x0.data)

    def test_guidance_off_identity(self):
        table = linear_schedule(10, 4)
        g = grid1([4, 1, 4], 4)
        den = FixedDenoiser([0.4, 0.3, 0.2, 0.1], (1, 3))
        a = reverse_step(g, 5, den, None, table, 0.0, np.random.default_rng(7))
        b = reverse_step(g, 5, den, None, table, 0.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)

    def test_contract_violations_raise(self):
        table = linear_schedule(10, 4)
        g = grid1([4, 1], 4)

        class BadShape(FixedDenoiser):
            def predict(self, x_t, t, cond=None):
                return np.full((1, 1, 4), 0.25)

        class BadSum(FixedDenoiser):
            def predict(self, x_t, t, cond=None):
                return np.full((x_t.N_q, x_t.L, 4), 0.3)

        class Negative(FixedDenoiser):
            def predict(self, x_t, t, cond=None):
                out = np.full((x_t.N_q, x_t.L, 4), 0.5)
                out[..., 1] = -0.1
                out[..., 2] = 0.05
                out[..., 3] = 0.05
                return out

        for cls in (BadShape, BadSum, Negative):
            with pytest.raises(ContractError):
                reverse_step(g, 3, cls([0.25] * 4, (1, 2)), None, table,
                             rng=np.random.default_rng(0))


class TestCfgCombine:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p_c = rng.dirichlet(np.ones(5))
            p_u = rng.dirichlet(np.ones(5))
            got = cfg_combine(np.log(p_c), np.log(p_u), 0.0)
            np.testing.assert_allclose(got, p_c, atol=1e-12)

    def test_equal_inputs_identity_any_lambda(self):
        p = np.asarray([0.5, 0.2, 0.3])
        for lam in (-1.0, -0.5, 0.0, 1.0, 7.0):
            got = cfg_combine(np.log(p), np.log(p), lam)
            np.testing.assert_allclose(got, p, atol=1e-12)

    def test_hand_case_log_mode(self):
        got = cfg_combine(np.log([0.8, 0.2]), np.log([0.5, 0.5]), 1.0)
        np.testing.assert_allclose(got, [16 / 17, 1 / 17], atol=1e-12)
        np.testing.assert_allclose(got, [0.941, 0.059], atol=1e-3)

    def test_hand_case_prob_mode(self):
        # literal extrapolation 2*[0.8,0.2] - [0.5,0.5] = [1.1,-0.1], clamped
        got = cfg_combine(np.log([0.8, 0.2]), np.log([0.5, 0.5]), 1.0, mode="prob")
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_zero_mass_entries_log_mode(self):
        with np.errstate(divide="ignore"):
            got = cfg_combine(np.log([1.0, 0.0]), np.log([0.5, 0.5]), 1.0)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-15)

    def test_zero_coefficient_term_dropped(self):
        # 0 * log(0) would make every entry NaN
        with np.errstate(divide="ignore"):
            half, one_hot = np.log([0.5, 0.5]), np.log([1.0, 0.0])
        np.testing.assert_array_equal(cfg_combine(half, one_hot, 0.0), [0.5, 0.5])
        np.testing.assert_array_equal(cfg_combine(one_hot, half, -1.0), [0.5, 0.5])
        np.testing.assert_array_equal(cfg_combine(one_hot, half, 0.0), [1.0, 0.0])
        np.testing.assert_array_equal(cfg_combine(half, one_hot, -1.0), [1.0, 0.0])

    def test_other_lambdas_unchanged(self):
        def full_formula(lp_c, lp_u, lam):
            with np.errstate(invalid="ignore"):
                g = (1.0 + lam) * lp_c - lam * lp_u
            g[np.isneginf(lp_c) & np.isneginf(lp_u)] = -np.inf
            pos_inf = np.isposinf(g)
            degenerate = pos_inf.any(axis=-1, keepdims=True)
            g = np.where(degenerate, np.where(pos_inf, 0.0, -np.inf), g)
            return np.exp(g - logsumexp(g, axis=-1, keepdims=True))

        rng = np.random.default_rng(5)
        p_c, p_u = rng.dirichlet(np.ones(6), size=(2, 4, 3))
        p_c[0, 0, :2] = 0.0
        p_u[1, 1, 1:3] = 0.0
        p_c[2, 2, 4] = p_u[2, 2, 4] = 0.0
        with np.errstate(divide="ignore"):
            lp_c = np.log(p_c / p_c.sum(-1, keepdims=True))
            lp_u = np.log(p_u / p_u.sum(-1, keepdims=True))
        for lam in (-0.999, -0.5, 1e-9, 0.25, 1.0, 3.0, 7.5):
            np.testing.assert_array_equal(
                cfg_combine(lp_c, lp_u, lam), full_formula(lp_c, lp_u, lam)
            )
        # the unaffected zero-coefficient cases: inputs without zeros
        for lam in (0.0, -1.0):
            np.testing.assert_array_equal(
                cfg_combine(lp_c[3], lp_u[3], lam), full_formula(lp_c[3], lp_u[3], lam)
            )

    def test_lambda_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            cfg_combine(np.log([0.5, 0.5]), np.log([0.5, 0.5]), -1.5)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            cfg_combine(np.log([0.5, 0.4]), np.log([0.5, 0.5]), 1.0)

    @pytest.mark.parametrize(
        "bad",
        [[np.nan, 0.0], [1000.0, 0.0], [np.log(0.5), np.log(0.4)], [-np.inf, -np.inf]],
        ids=["nan", "overflow", "unnormalized", "no-mass"],
    )
    @pytest.mark.parametrize("side", ["cond", "uncond"])
    def test_invalid_log_distribution_rejected(self, bad, side):
        good = np.log([0.5, 0.5])
        args = (np.array(bad), good) if side == "cond" else (good, np.array(bad))
        with pytest.raises(ValueError, match="normalized log-distribution"):
            cfg_combine(*args, 1.0)

    def test_neg_inf_entries_accepted(self):
        with np.errstate(divide="ignore"):
            lp_c = np.log([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]])
            lp_u = np.log([[0.0, 0.5, 0.5], [0.2, 0.8, 0.0]])
        got = cfg_combine(lp_c, lp_u, 1.0)
        np.testing.assert_allclose(got, [[0.0, 0.1, 0.9], [0.8, 0.2, 0.0]], atol=1e-12)

    def test_degenerate_row_leaves_other_rows_alone(self):
        # row 0 has conditional mass where the unconditional has none
        with np.errstate(divide="ignore"):
            lp_c = np.log([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]])
            lp_u = np.log([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
        got = cfg_combine(lp_c, lp_u, 1.0)
        for row in range(2):
            np.testing.assert_array_equal(got[row], cfg_combine(lp_c[row], lp_u[row], 1.0))
        np.testing.assert_array_equal(got[0], [0.0, 0.0, 1.0])

    def test_batched_shape(self):
        rng = np.random.default_rng(3)
        p_c = rng.dirichlet(np.ones(4), size=(2, 3))
        p_u = rng.dirichlet(np.ones(4), size=(2, 3))
        got = cfg_combine(np.log(p_c), np.log(p_u), 2.0)
        assert got.shape == (2, 3, 4)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)


def all_grids(K, L):
    return [grid1(tokens, K) for tokens in itertools.product(range(K), repeat=L)]


class TestBayesOracle:
    def test_symmetric_masked_position(self):
        table = improved_schedule(10, 2, 1)
        grids = [grid1([0], 2), grid1([1], 2)]
        den = bayes_oracle_denoiser(grids, [0.5, 0.5], table)
        p = den.predict(grid1([2], 2), 5)
        np.testing.assert_allclose(p[0, 0], [0.5, 0.5], atol=1e-12)

    def test_unambiguous_evidence(self):
        table = improved_schedule(10, 3, 1)
        grids = [grid1([0, 1], 3), grid1([2, 2], 3)]
        den = bayes_oracle_denoiser(grids, [0.5, 0.5], table)
        # first position observed as 0: only the first support grid fits
        p = den.predict(grid1([0, 3], 3), 4)
        np.testing.assert_allclose(p[0, 0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(p[0, 1], [0, 1, 0], atol=1e-12)

    def test_matches_joint_table_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            K, L, T = 3, 2, 4
            table = random_schedule(rng, T, K)
            support = all_grids(K, L)
            probs = rng.dirichlet(np.ones(len(support)))
            den = bayes_oracle_denoiser(support, probs, table)
            t = int(rng.integers(1, T + 1))
            x_t = grid1([int(rng.integers(0, K + 1)), int(rng.integers(0, K + 1))], K)
            got = den.predict(x_t, t)
            # direct joint computation
            lik = np.array(
                [
                    np.prod(
                        [
                            marginal_xt_given_x0(g.data[0, i], t, table)[x_t.data[0, i]]
                            for i in range(L)
                        ]
                    )
                    for g in support
                ]
            )
            w = probs * lik
            w = w / w.sum()
            for i in range(L):
                expected = np.zeros(K)
                for j, g in enumerate(support):
                    expected[g.data[0, i]] += w[j]
                np.testing.assert_allclose(got[0, i], expected, atol=1e-12)

    @pytest.mark.parametrize("probs", [[-0.5, 1.5], [0.3, 0.3], [math.nan, 1.0]],
                             ids=["negative", "short", "nan"])
    def test_non_probability_vector_refused(self, probs):
        table = linear_schedule(4, 2)
        with pytest.raises(ValueError, match="^probs must be a probability vector$"):
            BayesOracleDenoiser([grid1([0], 2), grid1([1], 2)], probs, table)

    def test_support_size_guard(self):
        table = linear_schedule(4, 2)
        grids = [grid1([0], 2)] * 10_001
        with pytest.raises(SizeGuardError):
            bayes_oracle_denoiser(grids, np.full(10_001, 1 / 10_001), table)

    def test_impossible_observation(self):
        table = improved_schedule(10, 4, 1)  # pure mask: no uniform jitter
        den = bayes_oracle_denoiser([grid1([1], 4)], [1.0], table)
        with pytest.raises(InconsistencyError):
            den.predict(grid1([2], 4), 5)

    def test_empirical_variant_counts_duplicates(self):
        table = linear_schedule(6, 2)
        data = [grid1([0], 2), grid1([0], 2), grid1([0], 2), grid1([1], 2)]
        den = empirical_bayes_denoiser(data, table)
        p = den.predict(grid1([2], 2), 6)
        np.testing.assert_allclose(p[0, 0], [0.75, 0.25], atol=1e-12)


def denoisers_for(T: int) -> dict:
    """A trained tabular denoiser and a Bayes oracle, each built for a T-step schedule."""
    table, grid = linear_schedule(T, 3), grid1([0, 1, 2], 3)
    tabular = train_denoiser([grid], table, TrainConfig(epochs=1), np.random.default_rng(0))[0]
    return {"tabular": tabular, "oracle": BayesOracleDenoiser([grid], [1.0], table)}


class TestDenoiserContract:
    """A denoiser reads only grids of its shape and K, and schedules of the length it was
    built for; one that states no T (the test doubles above) reads any length."""

    CALLS = {
        "sample": lambda den, table, rng: sample(den, None, table, rng=rng),
        "reverse_step": lambda den, table, rng: reverse_step(
            grid1([3, 3, 3], 3), table.T, den, None, table, rng=rng),
        "vlb_loss": lambda den, table, rng: vlb_loss(den, grid1([0, 1, 2], 3), None, table, rng),
    }

    @pytest.mark.parametrize("built, run", [(20, 10), (5, 10)],
                             ids=["denoiser-longer", "denoiser-shorter"])
    @pytest.mark.parametrize("kind", ["tabular", "oracle"])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_other_step_count_refused_before_any_draw(self, call, kind, built, run):
        den, rng = denoisers_for(built)[kind], np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"denoiser trained for T={built}, schedule has T={run}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.CALLS[call](den, linear_schedule(run, 3), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("call", list(CALLS))
    def test_denoiser_without_T_reads_any_length(self, call):
        den = FixedDenoiser(np.full(3, 1 / 3), (1, 3))
        for T in (2, 7):
            self.CALLS[call](den, linear_schedule(T, 3), np.random.default_rng(0))

    @pytest.mark.parametrize("grid", [grid1([0, 1], 3), grid1([0, 1, 2], 4)], ids=["shape", "K"])
    @pytest.mark.parametrize("kind", ["tabular", "oracle"])
    def test_predict_refuses_another_grid(self, kind, grid):
        got = (grid.N_q, grid.L, grid.K)
        message = f"grid (N_q, L, K)={got} does not match the denoiser's (1, 3, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            denoisers_for(4)[kind].predict(grid, 1)


def chain_rngs(seed: int, n: int) -> list:
    """n generators, chain i's seeded with (seed, i), as ``diffuse sample`` seeds it."""
    return [np.random.default_rng([seed, i]) for i in range(n)]


def tv_distance(counts: dict, probs: dict, n: int) -> float:
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(k, 0) / n - probs.get(k, 0.0)) for k in keys)


class _StubGenerator:
    """Returns the same uniform for every draw."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)


class TestSampleCategorical:
    def test_rounding_overflow_never_picks_zero_mass_tail(self):
        # each CDF ends at 1 - 2**-52, below the largest uniform 1 - 2**-53
        dists = np.array([[0.25, 0.75 - 2**-52, 0.0], [0.25, 0.0, 0.75 - 2**-52]])
        assert np.all(np.cumsum(dists, axis=-1)[:, -1] < 1 - 2**-53)
        got = _sample_categorical(dists, _StubGenerator(1 - 2**-53))
        np.testing.assert_array_equal(got, [1, 2])

    def test_zero_uniform_never_picks_zero_mass_head(self):
        got = _sample_categorical(np.array([[0.0, 1.0, 0.0, 0.0]]), _StubGenerator(0.0))
        np.testing.assert_array_equal(got, [1])


class TestSample:
    def test_degenerate_target(self):
        table = linear_schedule(10, 4)
        x0 = grid1([1, 3, 0], 4)
        den = bayes_oracle_denoiser([x0], [1.0], table)
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = sample(den, None, table, rng=rng)
            np.testing.assert_array_equal(out.data, x0.data)

    def test_two_point_recovery(self):
        table = linear_schedule(8, 4)
        a, b = grid1([0, 1], 4), grid1([3, 2], 4)
        den = bayes_oracle_denoiser([a, b], [0.75, 0.25], table)
        counts = {}
        for out in sample_chains(den, None, table, chain_rngs(91, 4000)):
            key = tuple(out.data.reshape(-1))
            counts[key] = counts.get(key, 0) + 1
        probs = {(0, 1): 0.75, (3, 2): 0.25}
        assert tv_distance(counts, probs, 4000) < 0.05

    def test_stride_still_lands_at_zero(self):
        table = linear_schedule(10, 4)
        x0 = grid1([1, 3, 0], 4)
        den = bayes_oracle_denoiser([x0], [1.0], table)
        for stride in (1, 2, 3, 4, 10):
            out = sample(den, None, table, stride=stride, rng=np.random.default_rng(1))
            assert not out.contains_mask()
            np.testing.assert_array_equal(out.data, x0.data)

    def test_improved_schedule_cleanup(self):
        # per-codebook schedule can leave masks at t=0; cleanup must remove them
        table = improved_schedule(10, 4, 2)
        a = TokenGrid(data=np.array([[0, 1, 2], [3, 2, 1]], dtype=np.int64), K=4)
        den = bayes_oracle_denoiser([a], [1.0], table)
        for out in sample_chains(den, None, table, chain_rngs(7, 50)):
            assert not out.contains_mask()
            np.testing.assert_array_equal(out.data, a.data)

    def test_determinism_same_seed(self):
        table = linear_schedule(10, 4)
        den = FixedDenoiser([0.4, 0.3, 0.2, 0.1], (2, 5))
        a = sample(den, None, table, rng=np.random.default_rng(33))
        b = sample(den, None, table, rng=np.random.default_rng(33))
        np.testing.assert_array_equal(a.data, b.data)

    def test_T_and_positional_stride_rejected(self):
        # a chain always runs the schedule's T steps; a positional fourth
        # argument (once T) must not be taken as the stride
        table = linear_schedule(10, 4)
        den = FixedDenoiser([0.25] * 4, (1, 2))
        with pytest.raises(TypeError):
            sample(den, None, table, T=10)
        with pytest.raises(TypeError):
            sample(den, None, table, 2)


    @pytest.mark.parametrize("stride", [1.5, 2.0, True])
    def test_non_integer_stride_refused(self, stride):
        # neither a bare TypeError for 1.5 nor a run at stride 1 for True
        den = FixedDenoiser([0.25] * 4, (1, 2))
        with pytest.raises(ValueError, match="stride must be an integer, got"):
            sample(den, None, linear_schedule(10, 4), stride=stride, rng=np.random.default_rng(0))


class TestVlbLoss:
    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_non_integer_sample_count_refused(self, n):
        # neither one draw for True nor a bare TypeError for 2.5
        den = FixedDenoiser([0.5, 0.3, 0.2], (1, 2))
        with pytest.raises(ValueError, match="num_t_samples must be an integer, got"):
            vlb_loss(den, grid1([0, 1], 3), None, linear_schedule(5, 3), num_t_samples=n)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            T = int(rng.integers(2, 8))
            K = int(rng.integers(2, 5))
            table = random_schedule(rng, T, K)
            x0 = grid1([int(rng.integers(0, K))], K)
            den = FixedDenoiser(rng.dirichlet(np.ones(K)), (1, 1))
            loss = vlb_loss(den, x0, None, table, rng, num_t_samples=4)
            assert loss >= -1e-12

    def test_exact_recovery_near_zero(self):
        table = linear_schedule(10, 4)
        x0 = grid1([2, 0, 1], 4)
        den = bayes_oracle_denoiser([x0], [1.0], table)
        loss = vlb_loss(den, x0, None, table, np.random.default_rng(0), num_t_samples=20)
        assert 0 <= loss < 1e-9

    def test_matches_exhaustive_enumeration(self):
        # K=3, T=3, one position; oracle = full sum over (t, x_t)
        rng = np.random.default_rng(99)
        table = random_schedule(rng, 3, 3)
        x0 = grid1([1], 3)
        support = [grid1([0], 3), grid1([1], 3), grid1([2], 3)]
        den = bayes_oracle_denoiser(support, [0.2, 0.5, 0.3], table)

        prior = vlb_loss(den, x0, None, table, np.random.default_rng(0), num_t_samples=1)
        del prior  # value unused; above call just asserts it runs

        # exact prior term
        qT = marginal_xt_given_x0(1, 3, table)
        pT = np.full(4, table.beta_bar[3])
        pT[3] = table.gamma_bar[3]
        pT[:3] += table.alpha_bar[3] / 3
        sup = qT > 0
        prior_exact = float(np.sum(qT[sup] * np.log(qT[sup] / pT[sup])))
        assert _prior_kl(x0, table) == prior_exact

        # exact per-step expectation and its variance over (t, x_t)
        term_values = []
        term_weights = []
        for t in (1, 2, 3):
            qxt = marginal_xt_given_x0(1, t, table)
            for x_t in range(4):
                if qxt[x_t] == 0:
                    continue
                g = grid1([x_t], 3)
                p0 = den._checked_predictions(g, t, (None,))[0]
                model = step_dists(g, t, p0, table, t - 1)[0, 0]
                post = mixture_oracle(table, x_t, t, t - 1, [0, 1, 0])
                s = post > 0
                kl = float(np.sum(post[s] * np.log(post[s] / model[s])))
                term_values.append(3 * kl)  # T * KL, the MC summand
                term_weights.append(qxt[x_t] / 3)  # P(t) * P(x_t | t)
        term_values = np.asarray(term_values)
        term_weights = np.asarray(term_weights)
        mean_term = float(term_values @ term_weights)
        var_term = float(((term_values - mean_term) ** 2) @ term_weights)
        exact = prior_exact + mean_term

        n = 4000
        est = vlb_loss(den, x0, None, table, np.random.default_rng(17), num_t_samples=n)
        sigma = np.sqrt(var_term / n)
        assert abs(est - exact) < 3 * sigma + 1e-12

    def test_infinite_loss_on_zero_support(self):
        table = improved_schedule(10, 3, 1)
        x0 = grid1([0], 3)
        den = FixedDenoiser([0.0, 1.0, 0.0], (1, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss = vlb_loss(den, x0, None, table, np.random.default_rng(4), num_t_samples=50)
        assert loss == float("inf")
        assert any("zero probability" in str(w.message) for w in caught)

    def test_zero_support_warning_points_at_the_caller(self):
        table = improved_schedule(10, 3, 1)
        den = FixedDenoiser([0.0, 1.0, 0.0], (1, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vlb_loss(den, grid1([0], 3), None, table, np.random.default_rng(4), num_t_samples=50)
        [warning] = [w for w in caught if "zero probability" in str(w.message)]
        assert warning.category is RuntimeWarning
        assert warning.filename == __file__


def onehot_reference(data, K):
    out = np.zeros(data.shape + (K,))
    idx = np.indices(data.shape)
    out[idx[0], idx[1], data] = 1.0
    return out


def kl_grids_reference(post, model):
    """The VLB's per-step KL as the library computed it before one helper served
    the VLB and training: a sum over the support of post only."""
    support = post > 0
    if np.any(model[support] == 0.0):
        return float("inf")
    ratio = np.ones_like(post)
    ratio[support] = post[support] / model[support]
    return float(np.sum(post[support] * np.log(ratio[support])))


def kl_step_loss_reference(data, x0, p, table, t):
    """``_kl_step``'s loss as the library computed it: a sum over every state."""
    kernel = _StepKernel(data, table, t)
    mix = kernel.mix(p)
    post = kernel.mix(onehot_reference(x0, p.shape[-1]))
    support = post > 0
    ratio = post / np.where(mix > 0, mix, 1.0)
    log_ratio = np.log(ratio, out=np.zeros_like(ratio), where=support)
    return float(np.sum(post * log_ratio)) / data.size


def vlb_reference(denoiser, x0, cond, table, rng, num_t_samples):
    prior = _prior_kl(x0, table)
    kls = []
    for _ in range(num_t_samples):
        t = int(rng.integers(1, table.T + 1))
        x_t = corrupt(x0, t, table, rng)
        p0 = denoiser._checked_predictions(x_t, t, (cond,))[0]
        kernel = _StepKernel(x_t.data, table, t)
        kl = kl_grids_reference(kernel.mix(onehot_reference(x0.data, x0.K)), kernel.mix(p0))
        if kl == float("inf"):
            return kl
        kls.append(kl)
    return prior + table.T * float(np.mean(kls))


class TestOneStepKl:
    """The VLB and training take the step KL from one helper, bit for bit as before."""

    @pytest.mark.parametrize(
        "table, shape",
        [
            (linear_schedule(6, 4), (2, 3)),
            (improved_schedule(6, 4, 2), (2, 3)),
            (random_schedule(np.random.default_rng(5), 6, 4), (2, 3)),
            (improved_schedule(20, 16, 4), (4, 32)),
            (linear_schedule(20, 16), (4, 32)),
        ],
        ids=["linear-K4", "improved-K4", "random-K4", "improved-K16", "linear-K16"],
    )
    def test_vlb_and_training_loss_equal_references(self, table, shape):
        rng = np.random.default_rng(41)
        K = table.K
        den = TabularDenoiser(K, shape, table.T, [],
                              weights=rng.normal(scale=3.0, size=(1, table.T + 1, *shape, K + 1, K)))
        for step in range(50):
            x0 = TokenGrid(data=rng.integers(0, K, size=shape), K=K)
            got = vlb_loss(den, x0, None, table, np.random.default_rng(step), num_t_samples=1)
            assert got == vlb_reference(den, x0, None, table, np.random.default_rng(step), 1)
            t = int(rng.integers(1, table.T + 1))
            x_t = corrupt(x0, t, table, rng).data
            p = den.predict(x0.with_data(x_t), t, None)
            (loss,), _ = _kl_step(x_t, x0.data, p, table, t)
            assert loss == kl_step_loss_reference(x_t, x0.data, p, table, t)
        got = vlb_loss(den, x0, None, table, np.random.default_rng(99), num_t_samples=8)
        assert got == vlb_reference(den, x0, None, table, np.random.default_rng(99), 8)


class TestCleanGrids:
    """The oracle, its empirical form and training refuse the same bad grid sets."""

    @staticmethod
    def oracle(grids):
        return BayesOracleDenoiser(grids, np.full(len(grids), 1 / max(len(grids), 1)),
                                   linear_schedule(4, 3))

    @staticmethod
    def train(grids):
        return train_denoiser(grids, linear_schedule(4, 3), TrainConfig(epochs=1))

    @staticmethod
    def empirical(grids):
        return empirical_bayes_denoiser(grids, linear_schedule(4, 3))

    @pytest.mark.parametrize("build, what", [("oracle", "support"), ("train", "dataset"),
                                             ("empirical", "dataset")])
    @pytest.mark.parametrize("grids, message", [
        ([], "empty {}"),
        ([grid1([0, 1], 3), grid1([0], 3)], "{} grids must share shape and K"),
        ([grid1([0, 1], 3), grid1([0, 1], 4)], "{} grids must share shape and K"),
        ([grid1([0, 1], 3), grid1([0, 3], 3)], "{} grids must be mask-free"),
    ], ids=["empty", "shape", "K", "mask"])
    def test_message(self, build, what, grids, message):
        with pytest.raises(ValueError) as info:
            getattr(self, build)(grids)
        assert str(info.value) == message.format(what)

    def test_empirical_grids_of_other_shapes_sharing_bytes(self):
        wide = grid1([0, 1, 2, 0], 3)
        square = TokenGrid(data=np.array([[0, 1], [2, 0]]), K=3)
        assert wide.data.tobytes() == square.data.tobytes()
        with pytest.raises(ValueError, match="^dataset grids must share shape and K$"):
            self.empirical([wide, square])


def random_labelled_grids(K, shape):
    """16 uniform grids of ``shape`` from ``default_rng(0)``, grid i labelled i % 2."""
    rng = np.random.default_rng(0)
    return [(TokenGrid(data=rng.integers(0, K, shape), K=K), i % 2) for i in range(16)]


class TestTrainDenoiser:
    def test_null_cond_default(self):
        assert TrainConfig().null_cond_prob == 0.1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_denoiser([], linear_schedule(5, 3))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            train_denoiser([grid1([0, 1], 3)], linear_schedule(5, 3), TrainConfig(lr=lr))

    @pytest.mark.parametrize("K, shape, T, lr", [(16, (4, 32), 20, 1e4), (3, (1, 2), 4, 1e200)],
                             ids=["non-finite-logits", "massless-prediction"])
    def test_diverging_learning_rate_named(self, K, shape, T, lr):
        # 1e4 leaves NaN logits by the first epoch's end; 1e200 leaves finite logits whose
        # softmax gives no mass to any clean token an observed token allows
        with pytest.raises(FittingError, match=f"^training diverged at lr={re.escape(repr(lr))};"):
            train_denoiser(random_labelled_grids(K, shape), improved_schedule(T, K, shape[0]),
                           TrainConfig(epochs=20, lr=lr), np.random.default_rng(1))

    def test_zero_model_mass_is_an_infinite_loss(self):
        # the model kernel gives no mass to a state the posterior supports, so that step's KL
        # is +inf: a trace entry of the KL's terms without it would be negative
        _, trace = train_denoiser(random_labelled_grids(3, (1, 2)), improved_schedule(4, 3, 1),
                                  TrainConfig(epochs=20, lr=1e4), np.random.default_rng(1))
        assert min(trace) >= 0 and math.inf in trace

    @pytest.mark.parametrize("epochs", [0, -2, 1.5, 2.0, True, "3", None])
    def test_bad_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
            train_denoiser([grid1([0, 1], 3)], linear_schedule(5, 3), TrainConfig(epochs=epochs))

    def test_numpy_integer_epochs_taken(self):
        grids, table = [grid1([0, 1], 3)], linear_schedule(5, 3)
        runs = [train_denoiser(grids, table, TrainConfig(epochs=epochs), np.random.default_rng(2))
                for epochs in (np.int64(3), 3)]
        assert runs[0][1] == runs[1][1]
        np.testing.assert_array_equal(runs[0][0].weights, runs[1][0].weights)

    def test_single_grid_reproduction(self):
        table = improved_schedule(5, 4, 1)
        x0 = grid1([2, 0, 3], 4)
        cfg = TrainConfig(epochs=400, lr=2.0)
        den, trace = train_denoiser([x0] * 40, table, cfg, np.random.default_rng(11))
        assert trace[-1] < 0.5 * trace[0]
        n = 2000
        chains = sample_chains(den, None, table, chain_rngs(13, n))
        hits = sum(np.array_equal(out.data, x0.data) for out in chains)
        assert hits / n > 0.99

    def test_two_class_toy_distribution(self):
        # per-label product data with identical per-position marginals;
        # the position-shared table can represent this family exactly
        table = linear_schedule(10, 4)
        marg = {0: np.array([0.7, 0.1, 0.1, 0.1]), 1: np.array([0.1, 0.1, 0.1, 0.7])}
        dataset = []
        for label, m in marg.items():
            scaled = np.round(m * 10).astype(int)  # exact tenths
            for tokens in itertools.product(range(4), repeat=3):
                count = int(np.prod([scaled[v] for v in tokens]))
                dataset.extend([(grid1(tokens, 4), label)] * count)
        assert len(dataset) == 2000
        cfg = TrainConfig(epochs=10, lr=1.0)
        den, trace = train_denoiser(dataset, table, cfg, np.random.default_rng(21))
        # the loss keeps an irreducible posterior-entropy floor for
        # non-degenerate data, so only assert improvement here
        assert trace[-1] < trace[0]

        n = 4000
        for label, m in marg.items():
            counts = {}
            for out in sample_chains(den, label, table, chain_rngs(label, n)):
                key = tuple(out.data.reshape(-1))
                counts[key] = counts.get(key, 0) + 1
            probs = {
                tokens: float(np.prod([m[v] for v in tokens]))
                for tokens in itertools.product(range(4), repeat=3)
            }
            assert tv_distance(counts, probs, n) < 0.1

    def test_oversize_table_rejected_before_allocating(self, tmp_path):
        # K=1024, 4x256, T=100, two labels: the int32 row map alone needs 1.27 GB; the
        # bytes add 32 * K for the one stored row
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "tabular", "K": 1024, "N_q": 4, "L": 256, "T": 100, '
                        '"cond_labels": [0, 1], "rows": [], "weights": []}')
        for build in (lambda: TabularDenoiser(1024, (4, 256), 100, cond_labels=[0, 1]),
                      lambda: load_denoiser(path)):
            tracemalloc.start()
            try:
                with pytest.raises(SizeGuardError, match=r"\(3, 101, 4, 256, 1025, 1024\) needs "
                                   r"1272147968 bytes for its row map and 1 stored rows"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20  # refused before the map was allocated

    def test_dense_weights_refused_above_the_guard(self):
        # Kp=256, R=4, T=100, 200 frames: an 83 MB map, but 42 GB of dense weights
        den = TabularDenoiser(256, (4, 200), 100, cond_labels=[])
        with pytest.raises(SizeGuardError, match=r"\(1, 101, 4, 200, 257, 256\) need 4"):
            den.weights

    def test_stored_rows_bounded_by_the_guard(self, monkeypatch):
        # room for the map and 12 stored rows: the zero row and 11 of the 12 a grid touches;
        # a stored row takes 32 * K bytes (its logits, their softmax and the checked pair)
        dataset = [grid1([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], 3)]
        table, config = linear_schedule(1, 3), TrainConfig(epochs=1, null_cond_prob=0.0)
        map_bytes = 4 * 2 * 12 * 4  # 96 logical rows
        monkeypatch.setattr(diffusion, "MAX_TABULAR_BYTES", map_bytes + 32 * 3 * 12)
        with pytest.raises(SizeGuardError, match=r"\(1, 2, 1, 12, 4, 3\) needs 1632 bytes .* 13 stored"):
            train_denoiser(dataset, table, config, np.random.default_rng(0))
        monkeypatch.setattr(diffusion, "MAX_TABULAR_BYTES", map_bytes + 32 * 3 * 13)
        den, _ = train_denoiser(dataset, table, config, np.random.default_rng(0))
        assert len(den._stored) == 13
        # each register appends exactly its new rows, and only while the guard allows them
        monkeypatch.setattr(diffusion, "MAX_TABULAR_BYTES", map_bytes + 32 * 3 * 8)
        den = TabularDenoiser(3, (1, 12), 1, [])
        assert den._register(np.arange(4)).tolist() == [1, 2, 3, 4] and len(den._stored) == 5
        assert den._register(np.array([9, 2, 4])).tolist() == [6, 3, 5]  # new rows ascending
        assert len(den._stored) == 7
        stored = den._stored
        assert den._register(np.array([9, 0, 2])).tolist() == [6, 1, 3]  # no new row
        assert den._stored is stored
        assert den._register(np.array([10])).tolist() == [7] and len(den._stored) == 8
        stored = den._stored
        with pytest.raises(SizeGuardError, match="1344 bytes .* 10 stored rows"):
            den._register(np.arange(10, 13))
        assert den._stored is stored and not den._map[11:13].any()  # refused before any change

    def test_training_keeps_only_the_rows_in_use(self):
        # one stored row per row training touched, and the shared zero row; the weights'
        # bytes are pinned by the recorded digests
        den = pipeline_trained_denoiser()
        assert len(den._stored) == 1 + np.count_nonzero(den._map) == 14_108

    def test_codec_shape_trains_and_round_trips(self, tmp_path):
        # Kp=256, 4x32, T=20, two labels: the dense table would need 4.24 GB
        K, N_q, L = 256, 4, 32
        dataset = training_dataset(9, 8, K, (N_q, L), True)
        table = improved_schedule(20, K, N_q)
        den, trace = train_denoiser(dataset, table, TrainConfig(epochs=1),
                                    np.random.default_rng(4))
        assert len(trace) == 1 and np.isfinite(trace[0])
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        save_denoiser(first, den)
        save_denoiser(again, load_denoiser(first))
        assert first.read_bytes() == again.read_bytes()
        assert 0 < len(json.loads(first.read_text())["rows"]) <= 8 * N_q * L
        x0, label = dataset[0]
        x_t = corrupt(x0, 7, table, np.random.default_rng(5))
        assert np.allclose(den.predict(x_t, 7, label).sum(axis=-1), 1.0)
        with pytest.raises(SizeGuardError, match=r"\(3, 21, 4, 32, 257, 256\) need 4244373504 bytes"):
            den.weights

    def test_repeated_condition_labels_rejected(self):
        with pytest.raises(ValueError, match="cond_labels repeat a label"):
            TabularDenoiser(3, (1, 2), 2, [0, 0, 0])
        assert TabularDenoiser(3, (1, 2), 2, [4, 1]).cond_labels == [1, 4]

    @pytest.mark.parametrize("K, grid_shape, T, name", [
        (3.5, (1, 2), 4, "K"), (3, (1, 2.7), 4, "L"), (3, (1.0, 2), 4, "N_q"),
        (3, (1, 2), 4.2, "T"), (True, (1, 2), 4, "K"), (1, (1, 2), 4, "K"),
        (3, (0, 2), 4, "N_q"), (3, (1, 0), 4, "L"), (3, (1, 2), 0, "T"),
    ], ids=["K-float", "L-float", "N_q-float", "T-float", "K-bool", "K-small", "N_q-zero",
            "L-zero", "T-zero"])
    def test_sizes_must_be_integers_in_range(self, K, grid_shape, T, name):
        # refused, not truncated: (3.5, (1, 2.7), 4.2) must not build K=3, L=2, T=4
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TabularDenoiser(K, grid_shape, T, [])

    def test_numpy_integer_sizes_stored_as_python_ints(self, tmp_path):
        den = TabularDenoiser(np.int64(3), (np.int32(1), np.int64(2)), np.int64(4), [])
        assert type(den.K) is type(den.T) is int and tuple(map(type, den.grid_shape)) == (int, int)
        save_denoiser(tmp_path / "den.json", den)  # json writes no NumPy integer
        back = load_denoiser(tmp_path / "den.json")
        assert (back.K, back.grid_shape, back.T) == (3, (1, 2), 4)

    def test_moderate_table_allowed(self):
        # K=16, 4x32 grids, T=20, two labels: 17.5 MB
        den = TabularDenoiser(16, (4, 32), 20, cond_labels=[0, 1])
        assert den.weights.nbytes == 3 * 21 * 4 * 32 * 17 * 16 * 8

    def test_dense_weights_are_read_only(self):
        dense = np.random.default_rng(0).normal(size=(2, 3, 1, 2, 4, 3))
        den = TabularDenoiser(3, (1, 2), 2, [5], weights=dense)
        weights = den.weights
        assert weights.tobytes() == dense.tobytes() and not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0, 0, 0, 0, 0] = 1.0
        assert den.weights is not weights  # built again on each access

    def test_unknown_condition_rejected_at_predict(self):
        table = linear_schedule(5, 3)
        x0 = grid1([1, 2], 3)
        den, _ = train_denoiser([(x0, 0)], table, TrainConfig(epochs=1),
                                np.random.default_rng(0))
        with pytest.raises(ValueError):
            den.predict(grid1([3, 3], 3), 2, cond=99)

    def test_row_rule_addresses_the_table(self):
        # a batch of grids, each with its own condition row (0 = null) and step
        K, N_q, L, T = 3, 2, 5, 4
        dense = np.random.default_rng(0).normal(size=(3, T + 1, N_q, L, K + 1, K))
        den = TabularDenoiser(K, (N_q, L), T, [3, 7], weights=dense)
        rng = np.random.default_rng(1)
        crow, ts = np.array([0, 2, 1, 0, 2]), np.array([0, T, 2, 3, 0])
        data = rng.integers(0, K + 1, size=(len(ts), N_q, L))
        rows = den._rows(crow, ts, data)
        assert rows.shape == data.shape
        q, l = np.indices((N_q, L))
        expected = den.weights[crow[:, None, None], ts[:, None, None], q, l, data]
        assert den.weights.reshape(-1, K)[rows].tobytes() == expected.tobytes()
        for c, t, x in zip(crow.tolist(), ts.tolist(), data):  # one grid at a time
            one = den.weights.reshape(-1, K)[den._rows(c, t, x)]
            assert one.tobytes() == den.weights[c, t, q, l, x].tobytes()


def train_denoiser_reference(dataset, table, config, rng):
    """The one-step-at-a-time SGD loop, as ``train_denoiser`` ran it before
    its steps were batched into row-disjoint runs, on its own dense table:
    returns that table and the loss trace."""
    pairs = [(item, None) if isinstance(item, TokenGrid) else tuple(item) for item in dataset]
    first = pairs[0][0]
    K = first.K
    labels = sorted({c for _, c in pairs if c is not None})
    weights = np.zeros((len(labels) + 1, table.T + 1, first.N_q, first.L, K + 1, K))

    trace: list[float] = []
    n = len(pairs)
    rows, cols = np.indices((first.N_q, first.L))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for idx in order:
            grid, cond = pairs[idx]
            if cond is not None and rng.random() < config.null_cond_prob:
                cond = None
            t = int(rng.integers(1, table.T + 1))
            x_t = corrupt(grid, t, table, rng)
            at = (0 if cond is None else labels.index(cond) + 1, t, rows, cols, x_t.data)
            p = _softmax(weights[at])
            (loss,), g_w = _kl_step(x_t.data, grid.data, p, table, t)
            epoch_losses.append(loss)
            weights[at] -= config.lr * g_w
        trace.append(float(np.mean(epoch_losses)))
    return weights, trace


def training_dataset(seed, n, K, shape, labelled):
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, K, size=(2, *shape))
    dataset = []
    for i in range(n):
        label = i % 2
        noisy = rng.random(shape) < 0.25
        grid = TokenGrid(data=np.where(noisy, rng.integers(0, K, size=shape), protos[label]), K=K)
        dataset.append((grid, label) if labelled else grid)
    return dataset


class TestBlockedTraining:
    """Training in row-disjoint runs gives the bits of one-at-a-time SGD."""

    @staticmethod
    def assert_same_training(dataset, table, config, seed):
        den, trace = train_denoiser(dataset, table, config, np.random.default_rng(seed))
        ref, ref_trace = train_denoiser_reference(dataset, table, config,
                                                  np.random.default_rng(seed))
        assert den.weights.tobytes() == ref.tobytes()
        assert np.asarray(trace).tobytes() == np.asarray(ref_trace).tobytes()
        assert np.any(den.weights != 0.0)

    @pytest.mark.parametrize("null_cond_prob", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("table", [linear_schedule(6, 4), improved_schedule(6, 4, 2)],
                             ids=["linear", "improved"])
    def test_equals_one_step_at_a_time(self, table, labelled, null_cond_prob):
        dataset = training_dataset(3, 24, 4, (2, 3), labelled)
        config = TrainConfig(epochs=4, lr=1.5, null_cond_prob=null_cond_prob)
        self.assert_same_training(dataset, table, config, 17)

    def test_one_grid_dataset(self):
        # every step touches the rows of one grid, so nearly every run is one step
        dataset = [(grid1([2, 0, 3], 4), 1)] * 30
        self.assert_same_training(dataset, improved_schedule(5, 4, 1), TrainConfig(epochs=5), 11)

    def test_pipeline_shape(self):
        dataset = training_dataset(5, 64, 16, (4, 32), True)
        self.assert_same_training(dataset, improved_schedule(20, 16, 4), TrainConfig(epochs=2), 7)

    def test_short_runs_give_the_same_bits(self, monkeypatch):
        # blocks of two steps of (2 x 3) positions x 5 tokens end runs early
        monkeypatch.setattr(diffusion, "_TRAIN_BLOCK_VALUES", 2 * 2 * 3 * 5)
        dataset = training_dataset(4, 24, 4, (2, 3), True)
        self.assert_same_training(dataset, linear_schedule(6, 4), TrainConfig(epochs=3), 5)

    @pytest.mark.parametrize("table", [linear_schedule(6, 4), improved_schedule(6, 4, 2),
                                       random_schedule(np.random.default_rng(2), 6, 4)],
                             ids=["linear", "improved", "random"])
    def test_stacked_step_equals_its_grids(self, table):
        rng = np.random.default_rng(23)
        K, N_q, L, B = 4, 2, 3, 5
        t = rng.integers(1, table.T + 1, size=B)
        x0 = rng.integers(0, K, size=(B, N_q, L))
        data = np.stack([corrupt(TokenGrid(data=x0[i], K=K), int(t[i]), table, rng).data
                         for i in range(B)])
        p = rng.dirichlet(np.ones(K), size=(B, N_q, L))
        loss, g = _kl_step(data, x0, p, table, t)
        assert loss.shape == (B,)
        for i in range(B):
            (one_loss,), one_g = _kl_step(data[i], x0[i], p[i], table, int(t[i]))
            assert loss[i] == one_loss
            assert g[i].tobytes() == one_g.tobytes()

    def test_mask_at_zero_mask_step_in_a_stack_raises(self):
        table = from_stepwise([0.7, 0.5], [0.1, 0.1], [0.0, 0.2], 3)  # no mask mass at t=1
        data = np.array([[[3, 0]], [[1, 2]], [[0, 3]]])  # 1 x 2 grids; the last is masked at t=1
        with pytest.raises(InconsistencyError, match=r"step \[2 1 1\] assigns them zero"):
            _StepKernel(data, table, np.array([2, 1, 1]))
        _StepKernel(data[:1], table, np.array([2]))  # the step-2 grid alone is fine

    def test_zero_valid_mass_in_a_stack_raises(self):
        # pure-mask steps: at an observed token only that token is a valid clean value
        table = improved_schedule(4, 3, 1)
        data = np.array([[[0, 3]], [[1, 2]]])
        x0 = np.array([[[0, 1]], [[1, 2]]])
        p = np.full((2, 1, 2, 3), 1 / 3)
        p[1, 0, 1] = [0.5, 0.5, 0.0]  # grid 2 gives its observed token 2 no mass
        _kl_step(data[:1], x0[:1], p[:1], table, np.array([2]))
        with pytest.raises(InconsistencyError, match="zero probability to every clean token"):
            _kl_step(data, x0, p, table, np.array([2, 3]))


def save_denoiser_reference(path, den):
    """The dense format written before ``rows``: one ``json.dumps`` of every entry."""
    payload = {
        "kind": "tabular",
        "K": den.K,
        "N_q": den.grid_shape[0],
        "L": den.grid_shape[1],
        "T": den.T,
        "layout": "concatenated",
        "cond_labels": den.cond_labels,
        "weights": den.weights.reshape(-1).tolist(),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def pipeline_trained_denoiser():
    """A two-class table trained at K=16, 4x32, improved T=20 for 320 SGD steps."""
    K, N_q, L = 16, 4, 32
    rng = np.random.default_rng(5)
    protos = rng.integers(0, K, size=(2, N_q, L))
    dataset = []
    for label in (0, 1):
        for _ in range(32):
            noisy = rng.random((N_q, L)) < 0.2
            data = np.where(noisy, rng.integers(0, K, size=(N_q, L)), protos[label])
            dataset.append((TokenGrid(data=data, K=K), label))
    den, _ = train_denoiser(dataset, improved_schedule(20, K, N_q),
                            TrainConfig(epochs=5), np.random.default_rng(7))
    return den


def save_denoiser_sparse_reference(den) -> bytes:
    """The bytes ``save_denoiser`` writes: one ``json.dumps`` of the touched rows,
    a row being touched when any entry is nonzero or ``-0.0``."""
    table = den.weights.reshape(-1, den.K).tolist()
    rows = [i for i, row in enumerate(table)
            if any(w != 0.0 or math.copysign(1.0, w) < 0 for w in row)]
    payload = {
        "kind": "tabular",
        "K": den.K,
        "N_q": den.grid_shape[0],
        "L": den.grid_shape[1],
        "T": den.T,
        "cond_labels": den.cond_labels,
        "rows": rows,
        "weights": [w for i in rows for w in table[i]],
    }
    return json.dumps(payload).encode("utf-8")


DENOISER_TABLES = [
    "all-zero", "dense", "negative-zero", "non-finite", "subnormal", "K=2",
    "first-row-only", "last-row-only", "first-and-last-rows",
    "all-distinct", "one-value", "signed-zeros", "subnormals",
]


def denoiser_table(name):
    """A small table, (2, 3, 1, 2, K + 1, K) or (3, ...) for K=2, with the named entries set."""
    K, labels, dense = denoiser_weights(name)
    return TabularDenoiser(K, (1, 2), 2, labels, weights=dense)


def denoiser_weights(name):
    """K, the labels and the dense weights of ``denoiser_table(name)``."""
    K = 2 if name == "K=2" else 3
    labels = [1, 4] if K == 2 else [0]
    dense = np.zeros((len(labels) + 1, 3, 1, 2, K + 1, K))
    rows = dense.reshape(-1, K)  # a view: one row of K logits per (label, t, q, l, token)
    rng = np.random.default_rng(3)
    if name == "dense":
        rows[...] = rng.normal(size=rows.shape)
    elif name == "negative-zero":
        rows[7, 1] = -0.0
    elif name == "non-finite":
        rows[0, 0], rows[4, 2], rows[5, 0], rows[9, 1] = np.nan, np.inf, -np.inf, 1.5
    elif name == "subnormal":
        rows[2, 0], rows[2, 1], rows[11, 2] = 5e-324, -2.2250738585072e-309, 1e-310
    elif name == "K=2":
        rows[::3, 0] = rng.normal(size=len(rows[::3]))
    elif name == "first-row-only":
        rows[0, 2] = 0.25
    elif name == "last-row-only":
        rows[-1, 0] = -3.0
    elif name == "first-and-last-rows":
        rows[0, 0], rows[-1, 2] = 1.0, 2.0
    elif name == "all-distinct":
        rows[...] = rng.normal(size=rows.shape) * np.logspace(-300, 300, rows.size).reshape(rows.shape)
    elif name == "one-value":
        rows[...] = -0.1
    elif name == "signed-zeros":
        rows[5] = [0.0, -0.0, 0.0]
        rows[6] = [-0.0, 0.5, 0.0]
    elif name == "subnormals":
        rows[1::2] = rng.choice([5e-324, -5e-324, 1e-310, -2.2250738585072e-309, 0.0],
                                size=rows[1::2].shape)
    else:
        assert name == "all-zero"
    return K, labels, dense


class TestDenoiserFile:
    """``save_denoiser`` writes the touched rows; ``load_denoiser`` reads them and dense files."""

    def check_round_trip(self, tmp_path, den):
        path, dense = tmp_path / "den.json", tmp_path / "dense.json"
        save_denoiser(path, den)
        save_denoiser_reference(dense, den)
        payload = json.loads(path.read_text())
        rows = den.weights.reshape(-1, den.K)
        touched = np.flatnonzero(rows.view(np.int64).any(axis=1))
        assert payload["rows"] == touched.tolist()
        assert len(payload["weights"]) == touched.size * den.K
        # the weights parsed by plain json.loads, before any check of load_denoiser
        assert np.array(payload["weights"], dtype=float).tobytes() == rows[touched].tobytes()
        for written in (path, dense):
            loaded = load_denoiser(written)
            assert loaded.weights.tobytes() == den.weights.tobytes()
            assert (loaded.K, loaded.grid_shape, loaded.T, loaded.cond_labels) == (
                den.K, den.grid_shape, den.T, den.cond_labels)
        return payload

    def test_pipeline_trained_table(self, tmp_path):
        den = pipeline_trained_denoiser()
        touched = den.weights.reshape(-1, den.K).any(axis=1)
        assert 0 < touched.mean() < 0.1  # mostly untouched rows
        payload = self.check_round_trip(tmp_path, den)
        assert len(set(payload["weights"])) < len(payload["weights"]) / 10  # few distinct values
        assert len(payload["weights"]) > diffusion._SAVE_CHUNK_VALUES  # written in two pieces
        assert (tmp_path / "den.json").read_bytes() == save_denoiser_sparse_reference(den)

    @pytest.mark.parametrize("rows_per_piece", [1, 2, 5])
    @pytest.mark.parametrize("name", ["dense", "K=2", "last-row-only", "all-zero"])
    def test_pieces_of_rows_give_the_bytes_of_one_string(self, tmp_path, monkeypatch, name,
                                                         rows_per_piece):
        den = denoiser_table(name)
        monkeypatch.setattr(diffusion, "_SAVE_CHUNK_VALUES", rows_per_piece * den.K + den.K - 1)
        save_denoiser(tmp_path / "den.json", den)
        assert (tmp_path / "den.json").read_bytes() == save_denoiser_sparse_reference(den)

    @pytest.mark.parametrize("name", DENOISER_TABLES)
    def test_table(self, tmp_path, name):
        K, labels, dense = denoiser_weights(name)
        if np.isfinite(dense).all():
            den = denoiser_table(name)
            self.check_round_trip(tmp_path, den)
            assert (tmp_path / "den.json").read_bytes() == save_denoiser_sparse_reference(den)
            return
        with pytest.raises(ValueError, match="^weights must be finite numbers$"):
            TabularDenoiser(K, (1, 2), 2, labels, weights=dense)
        path = tmp_path / "den.json"  # a dense file written from the array
        save_denoiser_reference(path, types.SimpleNamespace(
            K=K, grid_shape=(1, 2), T=2, cond_labels=labels, weights=dense))
        with pytest.raises(ValueError, match="'weights'.*finite"):
            load_denoiser(path)

    @pytest.mark.parametrize("name", ["negative-zero", "signed-zeros", "subnormals", "K=2",
                                      "dense", "all-zero", "pipeline"])
    def test_only_rows_with_a_set_bit_are_stored(self, tmp_path, name):
        # by weights= and by a dense file, whose re-saved bytes are the sparse file's
        den = pipeline_trained_denoiser() if name == "pipeline" else denoiser_table(name)
        n_set = sum(any(w != 0.0 or math.copysign(1.0, w) < 0 for w in row)
                    for row in den.weights.reshape(-1, den.K).tolist())
        sparse, dense, again = (tmp_path / f"{f}.json" for f in ("sparse", "dense", "again"))
        save_denoiser(sparse, den)
        save_denoiser_reference(dense, den)
        from_weights = TabularDenoiser(den.K, den.grid_shape, den.T, den.cond_labels,
                                       weights=den.weights)
        for stored in (from_weights, load_denoiser(dense), load_denoiser(sparse)):
            assert len(stored._stored) == 1 + np.count_nonzero(stored._map) == 1 + n_set
        save_denoiser(again, load_denoiser(dense))
        assert again.read_bytes() == sparse.read_bytes()

    def test_negative_zero_row_written(self, tmp_path):
        payload = self.check_round_trip(tmp_path, denoiser_table("negative-zero"))
        assert payload["rows"] == [7]
        assert [math.copysign(1.0, w) for w in payload["weights"]] == [1.0, -1.0, 1.0]

    def test_all_zero_table_writes_no_rows(self, tmp_path):
        payload = self.check_round_trip(tmp_path, denoiser_table("all-zero"))
        assert payload["rows"] == [] and payload["weights"] == []

    @pytest.mark.parametrize("bad,message", [
        ("0.5", "dtype"), (None, "dtype"), (True, "boolean"),
        (float("nan"), "finite"), (float("inf"), "finite"), (float("-inf"), "finite"),
    ])
    def test_bad_weight_entry_rejected(self, tmp_path, bad, message):
        den = denoiser_table("dense")
        path = tmp_path / "den.json"
        save_denoiser(path, den)
        payload = json.loads(path.read_text())
        payload["weights"][4] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"denoiser field 'weights' is malformed.*{message}"):
            load_denoiser(path)

    @pytest.mark.parametrize("bad,field", [
        ("not-a-list", "rows"), ("float", "rows"), ("bool", "rows"), ("negative", "rows"),
        ("out-of-range", "rows"), ("huge", "rows"), ("unsorted", "rows"),
        ("duplicated", "rows"), ("short-weights", "weights"),
    ])
    def test_bad_rows_rejected(self, tmp_path, bad, field):
        den = denoiser_table("K=2")  # every third row touched
        n_rows = den.weights.size // den.K
        path = tmp_path / "den.json"
        save_denoiser(path, den)
        payload = json.loads(path.read_text())
        rows = payload["rows"]
        assert rows[:3] == [0, 3, 6] and rows[-1] < n_rows - 1
        if bad == "not-a-list":
            payload["rows"] = 3
        elif bad == "float":
            rows[1] = 3.0
        elif bad == "bool":
            rows[0] = False
        elif bad == "negative":
            rows[0] = -1
        elif bad == "out-of-range":
            rows[-1] = n_rows
        elif bad == "huge":  # past int64: NumPy raises OverflowError
            rows[-1] = 2**70
        elif bad == "unsorted":
            rows[1], rows[2] = rows[2], rows[1]
        elif bad == "duplicated":
            rows[1] = rows[0]
        else:
            payload["weights"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"denoiser field '{field}'"):
            load_denoiser(path)


def table_test_denoiser(shape, kind, tmp_path):
    """A denoiser at the ``pipeline`` shape or at K=256, trained, loaded from a file
    of a trained one, or built with ``weights=``, and the schedule it runs on."""
    if shape == "pipeline":
        table, den = improved_schedule(20, 16, 4), pipeline_trained_denoiser()
    elif kind == "weights":  # the dense table at 4x32, T=20 would need 4.24 GB
        table = improved_schedule(2, 256, 1)
        dense = np.zeros((2, 3, 1, 3, 257, 256))
        rows = dense.reshape(-1, 256)
        rng = np.random.default_rng(8)
        touched = rng.random(len(rows)) < 0.3
        rows[touched] = rng.normal(scale=3.0, size=(touched.sum(), 256))
        return table, TabularDenoiser(256, (1, 3), 2, [0], weights=dense)
    else:
        table = improved_schedule(20, 256, 4)
        den, _ = train_denoiser(training_dataset(9, 8, 256, (4, 32), True), table,
                                TrainConfig(epochs=1), np.random.default_rng(4))
    if kind == "loaded":
        save_denoiser(tmp_path / "den.json", den)
        den = load_denoiser(tmp_path / "den.json")
    elif kind == "weights":
        den = TabularDenoiser(den.K, den.grid_shape, den.T, den.cond_labels, weights=den.weights)
    return table, den


def table_test_inputs(den, table, seed):
    """Corrupted random grids at every step, each with the null label and every label."""
    rng = np.random.default_rng(seed)
    for t in range(1, den.T + 1):
        x0 = TokenGrid(data=rng.integers(0, den.K, size=den.grid_shape), K=den.K)
        x_t = corrupt(x0, t, table, rng)
        for cond in [None, *den.cond_labels]:
            yield x_t, t, cond


def gathered_softmax(den, x_t, t, cond):
    """The prediction as the softmax of the gathered stored rows, taken on every call."""
    return _softmax(den._stored[den._map[den._rows(den._cond_row(cond), t, x_t.data)]])


class TestProbabilityTable:
    """``predict`` is the softmax of the gathered stored rows; the checked table is built
    from the softmax of every stored row, under the guard."""

    @pytest.mark.parametrize("kind", ["trained", "loaded", "weights"])
    @pytest.mark.parametrize("shape", ["pipeline", "K=256"])
    def test_predict_is_the_softmax_of_the_gathered_rows(self, tmp_path, shape, kind):
        table, den = table_test_denoiser(shape, kind, tmp_path)
        hits = 0
        for x_t, t, cond in table_test_inputs(den, table, 3):
            rows = den._rows(den._cond_row(cond), t, x_t.data)
            hits += int(np.count_nonzero(den._map[rows]))
            expected = gathered_softmax(den, x_t, t, cond)
            assert den.predict(x_t, t, cond).tobytes() == expected.tobytes()
        assert hits > 0  # stored rows were read, not only the shared zero row

    @pytest.mark.parametrize("trained", [False, True], ids=["new-rows", "stored-rows"])
    def test_register_after_predict_shows_in_the_next_predict(self, trained):
        table = improved_schedule(20, 16, 4)
        den = pipeline_trained_denoiser() if trained else TabularDenoiser(16, (4, 32), 20, [0, 1])
        x_t, t, cond = next(table_test_inputs(den, table, 5))
        first = den.predict(x_t, t, cond)
        at = den._register(den._rows(den._cond_row(cond), t, x_t.data).reshape(-1))
        den._stored[at] = np.random.default_rng(6).normal(size=(at.size, den.K))
        again = den.predict(x_t, t, cond)
        assert again.tobytes() == _softmax(den._stored[at]).reshape(again.shape).tobytes()
        assert not np.array_equal(again, first)

    def test_written_prediction_leaves_the_next_one(self):
        table, den = improved_schedule(20, 16, 4), pipeline_trained_denoiser()
        x_t, t, cond = next(table_test_inputs(den, table, 7))
        first = den.predict(x_t, t, cond)
        kept = first.copy()
        first[...] = -1.0
        assert den.predict(x_t, t, cond).tobytes() == kept.tobytes()

    def test_table_refused_above_the_guard(self, monkeypatch):
        # the map, the stored rows and the tables built from them: 4 bytes per logical row
        # and 32 * K bytes per stored row, checked before the checked pair is built
        table, den = improved_schedule(20, 16, 4), pipeline_trained_denoiser()
        x_t, t, cond = next(table_test_inputs(den, table, 9))
        n_stored = len(den._stored)
        n_bytes = 4 * len(den._map) + 32 * den.K * n_stored
        monkeypatch.setattr(diffusion, "MAX_TABULAR_BYTES", n_bytes - 1)
        with pytest.raises(SizeGuardError, match=f"needs {n_bytes} bytes .* {n_stored} stored"):
            den._checked_predictions(x_t, t, (cond,))
        assert den._checked is None
        # predict builds no table
        assert den.predict(x_t, t, cond).tobytes() == gathered_softmax(den, x_t, t, cond).tobytes()
        monkeypatch.setattr(diffusion, "MAX_TABULAR_BYTES", n_bytes)
        got, expected = (d._checked_predictions(x_t, t, (cond,)) for d in (den, DefaultPath(den)))
        assert got.tobytes() == expected.tobytes() and den._checked


class DefaultPath(Denoiser):
    """Delegates ``predict`` to a denoiser, so its checked predictions take the default
    path of ``Denoiser``: one ``predict`` per label, checked and renormalised as a stack."""

    def __init__(self, inner):
        self.inner, self.K, self.grid_shape, self.T = inner, inner.K, inner.grid_shape, inner.T

    def predict(self, x_t, t, cond=None):
        return self.inner.predict(x_t, t, cond)


# (guidance scale, mode, stride)
GUIDED_CONFIGS = list(itertools.product([0.0, 0.5, -1.0, 2.0], ["log", "prob"], [1, 3]))


def same_chains(den, table, configs, seed):
    """Whether ``den`` and its default path draw the same chain in each of ``configs``,
    (cond, guidance scale, mode, stride) tuples, each from its own generator."""
    for i, (cond, lam, mode, stride) in enumerate(configs):
        got, expected = (sample(d, cond, table, stride=stride, rng=np.random.default_rng([seed, i]),
                                guidance_scale=lam, guidance_mode=mode).data
                         for d in (den, DefaultPath(den)))
        if got.tobytes() != expected.tobytes():
            return False
    return True


class TestCheckedTable:
    """The tabular denoiser's checked predictions, gathered from its checked table or
    that table's log, have the bits and errors of the default path through ``predict``."""

    @pytest.mark.parametrize("schedule", ["improved", "linear"])
    @pytest.mark.parametrize("kind", ["trained", "loaded", "weights"])
    @pytest.mark.parametrize("shape", ["pipeline", "K=256"])
    def test_gather_path_equals_the_default_path(self, tmp_path, shape, kind, schedule):
        table, den = table_test_denoiser(shape, kind, tmp_path)
        if schedule == "linear":
            table = linear_schedule(table.T, table.K)
        ref, labels = DefaultPath(den), [None, *den.cond_labels]
        inputs = zip(table_test_inputs(den, table, 11), itertools.cycle(GUIDED_CONFIGS))
        for (x_t, t, cond), (lam, mode, _) in inputs:
            for args, log in (((cond,), False), ((cond, None), True), (labels, False)):
                got, expected = (d._checked_predictions(x_t, t, args, log) for d in (den, ref))
                assert got.tobytes() == expected.tobytes()
            got, expected = (_predict_guided(d, x_t, t, cond, lam, mode) for d in (den, ref))
            assert got.tobytes() == expected.tobytes()
        # every configuration once, the labels in turn
        configs = [(cond, *config) for cond, config in zip(itertools.cycle(labels), GUIDED_CONFIGS)]
        assert same_chains(den, table, configs, 12)
        x0 = TokenGrid(data=np.random.default_rng(13).integers(0, den.K, den.grid_shape), K=den.K)
        for cond in labels:
            got, expected = (vlb_loss(d, x0, cond, table, np.random.default_rng(14), num_t_samples=4)
                             for d in (den, ref))
            assert math.isfinite(got) and np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_weights_refuse_a_non_finite_logit(self):
        # label 1's row at t = T, position (0, 0), under the mask: every chain of label 1
        # reads it at its first step; a -inf logit alone gives a finite softmax
        trained = pipeline_trained_denoiser().weights
        for value in (np.nan, np.inf, -np.inf):
            dense = np.array(trained)
            dense[2, 20, 0, 0, 16, 3] = value
            with pytest.raises(ValueError, match="^weights must be finite numbers$"):
                TabularDenoiser(16, (4, 32), 20, [0, 1], weights=dense)

    def test_unknown_label_refused_as_before(self):
        table, den = improved_schedule(20, 16, 4), pipeline_trained_denoiser()
        x_t, t, _ = next(table_test_inputs(den, table, 17))
        for d in (den, DefaultPath(den)):
            with pytest.raises(ValueError, match="^unknown condition label 7$"):
                d._checked_predictions(x_t, t, (0, 7))
            with pytest.raises(ValueError, match="^unknown condition label 7$"):
                sample(d, 7, table, rng=np.random.default_rng(18), guidance_scale=0.5)

    @pytest.mark.parametrize("trained", [False, True], ids=["new-rows", "stored-rows"])
    def test_register_after_sample_shows_in_the_next_sample(self, trained):
        table = improved_schedule(20, 16, 4)
        den = pipeline_trained_denoiser() if trained else TabularDenoiser(16, (4, 32), 20, [0, 1])
        configs = [(0, lam, "log", 1) for lam in (0.5, 0.0)]

        def chains():
            return [sample(den, 0, table, rng=np.random.default_rng(19), guidance_scale=lam).data
                    for _, lam, _, _ in configs]

        first = chains()
        # label 0's rows at t = T under the mask, which each chain reads at its first step
        rows = den._rows(den._cond_row(0), 20, np.full((4, 32), 16)).reshape(-1)
        assert (den._map[rows] > 0).all() == trained
        at = den._register(rows)
        den._stored[at] = np.random.default_rng(20).normal(scale=3.0, size=(at.size, den.K))
        assert same_chains(den, table, configs, 21)
        assert all(not np.array_equal(a, b) for a, b in zip(chains(), first))


class TestEasyFirst:
    def test_mean_first_mask_step_monotone(self):
        # shared uniform draws couple the layers so the per-trajectory
        # first-mask time is monotone by construction wherever thresholds are
        T, K, N_q = 10, 8, 4
        table = improved_schedule(T, K, N_q)
        n = 10_000
        rng = np.random.default_rng(1234)
        u = rng.random((n, T))
        first_mask = np.full((N_q, n), T + 1, dtype=float)
        for q in range(N_q):
            # per-step mask probability, steps 1..T
            gammas = np.array([table.stepwise(t, q)[2] for t in range(1, T + 1)])
            masked_at = u < gammas[None, :]
            has = masked_at.any(axis=1)
            first = np.argmax(masked_at, axis=1) + 1
            first_mask[q, has] = first[has]
            first_mask[q, ~has] = T + 1
        means = first_mask.mean(axis=1)
        assert np.all(np.diff(means) <= 0)
        assert means[0] > means[-1]

    @pytest.mark.parametrize("labels", [[2, 1], [1, 1]], ids=["unsorted", "repeated"])
    def test_condition_labels_must_increase(self, tmp_path, labels):
        # a file listing [2, 1] used to load as [1, 2], swapping the two labels' rows
        path = tmp_path / "den.json"
        save_denoiser(path, TabularDenoiser(3, (1, 2), 2, [1, 2]))
        payload = json.loads(path.read_text())
        payload["cond_labels"] = labels
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="denoiser field 'cond_labels'.*increasing"):
            load_denoiser(path)

    def test_file_keys(self, tmp_path):
        path = tmp_path / "den.json"
        save_denoiser(path, denoiser_table("dense"))
        assert list(json.loads(path.read_text())) == [
            "kind", "K", "N_q", "L", "T", "cond_labels", "rows", "weights"]

    @pytest.mark.parametrize("layout", ["concatenated", "interleaved"])
    def test_old_layout_key_ignored(self, tmp_path, layout):
        # files written before the layout key was dropped still load
        den = denoiser_table("K=2")
        path = tmp_path / "den.json"
        save_denoiser(path, den)
        payload = json.loads(path.read_text())
        old = {key: payload[key] for key in ("kind", "K", "N_q", "L", "T")}
        old["layout"] = layout
        old.update({key: payload[key] for key in ("cond_labels", "rows", "weights")})
        path.write_text(json.dumps(old))
        loaded = load_denoiser(path)
        assert (loaded.K, loaded.grid_shape, loaded.T, loaded.cond_labels) == (
            den.K, den.grid_shape, den.T, den.cond_labels)
        assert loaded.weights.tobytes() == den.weights.tobytes()


class TestConditionLabels:
    """A label that is not an integer is refused, never truncated to one."""

    @pytest.fixture()
    def den(self):
        dense = np.zeros((3, 3, 1, 2, 4, 3))
        dense[1, :, :, :, :, 0] = 4.0  # label 0 favours token 0
        dense[2, :, :, :, :, 2] = 4.0  # label 1 favours token 2
        return TabularDenoiser(3, (1, 2), 2, [0, 1], weights=dense)

    @pytest.mark.parametrize("label", [1.7, 0.9, 1.0, np.float64(1.0), float("nan"), True,
                                       np.bool_(False), "1"], ids=repr)
    def test_non_integer_label_is_refused_by_name(self, den, label):
        with pytest.raises(ValueError, match=re.escape(f"condition label {label!r} is not an")):
            den._cond_row(label)
        with pytest.raises(ValueError, match="is not an integer"):
            sample(den, label, linear_schedule(2, 3), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="is not an integer"):
            TabularDenoiser(3, (1, 2), 2, [0, label])

    @pytest.mark.parametrize("label", [1, np.int64(1), np.uint8(1)], ids=repr)
    def test_integer_labels_are_taken(self, den, label):
        assert den._cond_row(label) == 2
        got = sample(den, label, linear_schedule(2, 3), rng=np.random.default_rng(0))
        np.testing.assert_array_equal(
            got.data, sample(den, 1, linear_schedule(2, 3), rng=np.random.default_rng(0)).data)
        assert TabularDenoiser(3, (1, 2), 2, [0, label]).cond_labels == [0, 1]

    # any label a token file takes, a denoiser file takes too; NumPy reads the
    # second list as float64, in which the last two labels are equal
    @pytest.mark.parametrize("labels", [[-(2**63) - 1, 10**20], [-1, 2**63, 2**63 + 1]])
    def test_labels_beyond_int64_round_trip(self, tmp_path, labels):
        path = tmp_path / "den.json"
        save_denoiser(path, TabularDenoiser(3, (1, 2), 2, labels))
        assert load_denoiser(path).cond_labels == labels

    @pytest.mark.parametrize("labels", [[0, True], [0, 1.0], [0, "1"], [0, None], None, 3],
                             ids=repr)
    def test_non_integer_file_labels_are_refused_by_field(self, tmp_path, labels):
        path = tmp_path / "den.json"
        save_denoiser(path, TabularDenoiser(3, (1, 2), 2, [0, 1]))
        payload = json.loads(path.read_text())
        payload["cond_labels"] = labels
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="denoiser field 'cond_labels' is malformed"):
            load_denoiser(path)

    def test_float_labels_in_a_dataset_are_refused(self):
        dataset = [(grid1([0, 1], 3), 0), (grid1([1, 2], 3), 1.5)]
        with pytest.raises(ValueError, match="condition label 1.5 is not an integer"):
            train_denoiser(dataset, linear_schedule(2, 3), TrainConfig(epochs=1),
                           np.random.default_rng(0))


def test_denoisers_keep_layout_attribute_for_benchmark(tmp_path):
    # perfbench/harness.py reads .layout; nothing in vqdiff does
    path = tmp_path / "den.json"
    save_denoiser(path, denoiser_table("dense"))
    grid = TokenGrid(data=np.array([[0, 1]]), K=3)
    oracle = bayes_oracle_denoiser([grid], [1.0], linear_schedule(4, 3))
    assert load_denoiser(path).layout == oracle.layout == "concatenated"


# sha256 of a short training run, its sampled chains and its VLB values at the
# benchmark's shape (K=16, 4x32, T=20), recorded before the guided reverse step
# was made cheaper.  At K >= 8 NumPy sums the K axis pairwise, so this shape
# catches a change of summation order that the K=4 CLI golden run cannot.
# Like the CLI's train.out digests they hold per CPU dispatch: without NumPy's
# AVX-512 kernels the weights, and the VLB bits computed from them, differ.
PIPELINE_GOLDEN = {
    "improved": {
        "weights": "5eb0c8038d460aae294b18b5544dd9d2fa19117a9e2451b0d4ec5f2bffc56457",
        "guided-log": "f0c3e41712b0addf710fdb6725ea97ac7117c2aa350631f2afca975fe45111bc",
        "guided-prob": "f1151ec22b13c3c799cfce079a450c38944732dd1ba5d0c85752d6e0a579a3ce",
        "unguided": "e285ae2de2537b26b0837d442c3c57e536a0b89181a7fc14e1d0af39083c9028",
        "vlb": "a03c6425276b8731f26ed2070284f2d25bf562f0764cc9e244fe73706d1035aa",
    },
    "linear": {
        "weights": "6cc076bf7c6ed002aa47174b56f98f4c581aceeda7013fa919aaf535cc2bd6bf",
        "guided-log": "17ff7a52574d348178ddddda9fd7958f9b49b57053ca788cd73451aa3287ef02",
        "guided-prob": "c9424d44f9d44b859a418441ecdc1035653e458225ca97f7d2f5fe76c21dbfad",
        "unguided": "dbe393b709e4273d2c84f7958b8bb7a3f01d004baca5d84ed7d12bc4cbcced26",
        "vlb": "4c830ed4b07ac3648be93675ae463a0217922e7b93e7396b666b22ef005dd814",
    },
}

PIPELINE_CHAINS = {  # (cond, guidance scale, mode, stride)
    "guided-log": (1, 0.5, "log", 1),
    "guided-prob": (0, 1.5, "prob", 3),
    "unguided": (None, 0.0, "log", 1),
}


def pipeline_golden_run(kind):
    K, N_q, L, T = 16, 4, 32, 20
    table = improved_schedule(T, K, N_q) if kind == "improved" else linear_schedule(T, K)
    dataset = training_dataset(31, 32, K, (N_q, L), True)
    den, _ = train_denoiser(dataset, table, TrainConfig(epochs=2), np.random.default_rng(32))
    digests = {"weights": hashlib.sha256(den.weights.tobytes()).hexdigest()}
    for name, (cond, lam, mode, stride) in PIPELINE_CHAINS.items():
        chains = sample_chains(den, cond, table, chain_rngs(33, 8), stride=stride,
                               guidance_scale=lam, guidance_mode=mode)
        digests[name] = hashlib.sha256(np.stack([g.data for g in chains]).tobytes()).hexdigest()
    rng = np.random.default_rng(34)
    vlbs = [vlb_loss(den, g, c, table, rng, num_t_samples=4) for g, c in dataset[:6]]
    digests["vlb"] = hashlib.sha256(np.array(vlbs).tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("kind", ["improved", "linear"])
def test_pipeline_shape_matches_recorded_digests(kind):
    assert pipeline_golden_run(kind) == PIPELINE_GOLDEN[kind]
