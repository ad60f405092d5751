"""The guided reverse step's fast path against the code it replaced.

The fast path (a NumPy logsumexp, reverse-kernel coefficients cached on the
schedule, contract checks that skip no-op passes, a vectorised VLB prior)
must reproduce the straightforward versions below bit for bit.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from vqdiff import (
    ContractError,
    Denoiser,
    TokenGrid,
    TrainConfig,
    bayes_oracle_denoiser,
    cfg_combine,
    corrupt,
    improved_schedule,
    linear_schedule,
    reverse_step,
    sample,
    train_denoiser,
)
from vqdiff.diffusion import (
    _kernel_rows,
    _logsumexp,
    _prior_kl,
    _sample_categorical,
    _stationary_rows,
    _StepKernel,
    _validated_predict,
)
from vqdiff.schedules import random_schedule, schedule_from_json_dict
from vqdiff.transitions import stationary_dist


# The straightforward implementations the fast path replaced.


def validated_predict_reference(denoiser, x_t, t, cond):
    p0 = np.asarray(denoiser.predict(x_t, t, cond), dtype=float)
    expected = (x_t.N_q, x_t.L, x_t.K)
    if p0.shape != expected:
        raise ContractError(f"denoiser returned shape {p0.shape}, expected {expected}")
    if not np.all(np.isfinite(p0)):
        raise ContractError("denoiser returned non-finite probabilities")
    if np.any(p0 < -1e-9):
        raise ContractError("denoiser returned negative probabilities")
    sums = p0.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ContractError("denoiser distributions do not sum to 1")
    p0 = np.clip(p0, 0.0, None)
    return p0 / p0.sum(axis=-1, keepdims=True)


def cfg_combine_reference(log_p_cond, log_p_uncond, lam, mode="log"):
    lp_c = np.asarray(log_p_cond, dtype=float)
    lp_u = np.asarray(log_p_uncond, dtype=float)
    for name, lp in (("log_p_cond", lp_c), ("log_p_uncond", lp_u)):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norm = np.log(np.exp(lp).sum(axis=-1))
        if not np.all(np.abs(norm) <= 1e-6):
            raise ValueError(f"{name} is not a normalized log-distribution")
    if mode == "prob":
        p = (1.0 + lam) * np.exp(lp_c) - lam * np.exp(lp_u)
        p = np.clip(p, 0.0, None)
        return p / p.sum(axis=-1, keepdims=True)
    if lam == 0:
        g = lp_c.copy()
    elif lam == -1:
        g = lp_u.copy()
    else:
        with np.errstate(invalid="ignore"):
            g = (1.0 + lam) * lp_c - lam * lp_u
    g[np.isneginf(lp_c) & np.isneginf(lp_u)] = -np.inf
    pos_inf = np.isposinf(g)
    degenerate = pos_inf.any(axis=-1, keepdims=True)
    g = np.where(degenerate, np.where(pos_inf, 0.0, -np.inf), g)
    return np.exp(g - logsumexp(g, axis=-1, keepdims=True))


def coeff_rows_reference(table):
    cum = (table.alpha_bar, table.beta_bar, table.gamma_bar)
    return np.stack([a.reshape(table.T + 1, -1) for a in cum])


def kernel_rows_reference(table, stride):
    """The kernel coefficients of every step t to max(0, t - stride), one scalar
    ``segment`` call per step, as (12, T, n_layers), and the (T, n_layers) zero mask."""
    cum = coeff_rows_reference(table)
    rows, zero = [], []
    for t in range(1, table.T + 1):
        s = max(0, t - stride)
        (ab_t, bb_t, gb_t), (ab_s, bb_s, gb_s) = cum[:, t], cum[:, s]
        a_seg, b_seg, g_seg = (np.broadcast_to(c, ab_t.shape) for c in table.segment(s, t))
        with np.errstate(divide="ignore", invalid="ignore"):
            keep, mask_prob = g_seg / gb_t, gb_s / gb_t
        one = np.ones_like(ab_t)
        rows.append([keep * bb_s, keep * ab_s, one, one, a_seg,
                     bb_s, ab_s, b_seg, bb_t, a_seg, bb_t + ab_t, mask_prob])
        zero.append(gb_t == 0.0)
    return np.array(rows).transpose(1, 0, 2), np.array(zero)


def same_rows(got, expected) -> bool:
    return len(got) == len(expected) and all(map(same_bits, got, expected))


def sample_reference(denoiser, cond, table, stride, rng, lam, mode):
    N_q, L = denoiser.grid_shape
    K = denoiser.K
    init = np.broadcast_to(_stationary_rows(table), (N_q, K + 1))
    x = TokenGrid(_sample_categorical(np.repeat(init[:, None, :], L, axis=1), rng), K)
    last_p0 = None
    for t in range(table.T, 0, -stride):
        s = max(0, t - stride)
        p0 = validated_predict_reference(denoiser, x, t, cond)
        if lam != 0 and cond is not None:
            p_u = validated_predict_reference(denoiser, x, t, None)
            with np.errstate(divide="ignore"):
                p0 = cfg_combine_reference(np.log(p0), np.log(p_u), lam, mode)
        kernel = _StepKernel(x.data, table, t, stride)
        x = x.with_data(_sample_categorical(kernel.mix(p0), rng))
        last_p0 = p0
    if x.contains_mask():
        x = x.with_data(np.where(x.data == K, last_p0.argmax(axis=-1), x.data))
    return x


def prior_kl_reference(x0, table):
    K = x0.K
    ab, bb, gb = (np.broadcast_to(a[table.T], (x0.N_q,))
                  for a in (table.alpha_bar, table.beta_bar, table.gamma_bar))
    prior_rows = np.broadcast_to(_stationary_rows(table), (x0.N_q, K + 1))
    prior = 0.0
    for r in range(x0.N_q):
        for token in x0.data[r]:
            q = np.full(K + 1, bb[r])
            q[token] += ab[r]
            q[K] = gb[r]
            support = q > 0
            prior += float(np.sum(q[support] * np.log(q[support] / prior_rows[r][support])))
    return prior


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class ArrayDenoiser(Denoiser):
    """Returns a fixed (N_q, L, K) array, whatever the input."""

    def __init__(self, probs):
        self.probs = probs
        self.K = probs.shape[-1]
        self.grid_shape = probs.shape[:2]

    def predict(self, x_t, t, cond=None):
        return self.probs


# ----------------------------------------------------------------- logsumexp


def logsumexp_battery():
    rng = np.random.default_rng(2301)
    cases = {}
    for scale in (1e-3, 1.0, 30.0, 800.0):
        cases[f"normal-{scale:g}"] = rng.normal(size=(4, 32, 16)) * scale
        cases[f"shifted-{scale:g}"] = rng.normal(size=(9, 5)) * scale - 700.0
    cases["ties"] = rng.integers(-2, 3, size=(64, 8)).astype(float)
    cases["all-equal"] = np.full((3, 7), -1.25)
    cases["signed-zeros"] = rng.choice([-0.0, 0.0, -1.0], size=(32, 6))
    sparse = rng.normal(size=(16, 12))
    sparse[rng.random(sparse.shape) < 0.4] = -np.inf
    sparse[3] = -np.inf
    cases["scattered-neg-inf"] = sparse
    special = rng.normal(size=(8, 5))
    special[0, 1] = np.inf
    special[1, :2] = np.inf
    special[2, 3] = np.nan
    special[3, [0, 4]] = [np.inf, np.nan]
    special[4, :] = -np.inf
    special[5, [1, 2]] = [np.inf, -np.inf]
    cases["inf-nan"] = special
    cases["width-one"] = rng.normal(size=(6, 1))
    cases["wide"] = rng.normal(size=(3, 300)) * 5.0
    return cases


@pytest.mark.parametrize("name", sorted(logsumexp_battery()))
def test_logsumexp_matches_scipy_bit_for_bit(name):
    a = logsumexp_battery()[name]
    with np.errstate(all="ignore"):
        expected = logsumexp(a, axis=-1, keepdims=True)
    assert same_bits(_logsumexp(a), expected)


@pytest.mark.parametrize("name", sorted(logsumexp_battery()))
def test_logsumexp_over_all_elements_matches_scipy(name):
    # the Bayes oracle's call: one flat vector, reduced to a scalar
    a = logsumexp_battery()[name].reshape(-1)
    with np.errstate(all="ignore"):
        expected = logsumexp(a)
    assert same_bits(_logsumexp(a)[0], expected)


def test_logsumexp_leaves_input_alone():
    a = np.array([[0.0, -np.inf, 1.0], [2.0, 2.0, -1.0]])
    before = a.copy()
    _logsumexp(a)
    assert same_bits(a, before)


# --------------------------------------------------------- contract checks


def predict_inputs():
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(5), size=(2, 3))
    zeros = p.copy()
    zeros[0, 0] = [0.0, 0.5, 0.5, 0.0, 0.0]
    signed = zeros.copy()
    signed[0, 0, 0] = -0.0
    signed[1, 2] = [1.0, -0.0, -0.0, 0.0, -0.0]
    tiny = p.copy()
    tiny[1, 1] = [0.5 + 1e-12, -1e-12, 0.25, 0.25, 0.0]
    return {
        "positive": p,
        "exact-zeros": zeros,
        "signed-zeros": signed,
        "tiny-negatives": tiny,
        "fortran-order": np.asfortranarray(tiny),
        "transposed-view": np.ascontiguousarray(tiny.transpose(1, 0, 2)).transpose(1, 0, 2),
    }


@pytest.mark.parametrize("name", sorted(predict_inputs()))
def test_validated_predict_matches_reference(name):
    probs = predict_inputs()[name]
    den = ArrayDenoiser(probs)
    x = TokenGrid(np.zeros(probs.shape[:2], dtype=np.int64), K=probs.shape[-1])
    got = _validated_predict(den, x, 1, None)
    assert same_bits(got, validated_predict_reference(den, x, 1, None)[None])
    assert not np.signbit(got).any()


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (-np.inf, "non-finite"),
        (-1e-6, "negative"),
        (0.5, "sum to 1"),
    ],
)
def test_validated_predict_rejects_what_the_reference_rejects(bad, message):
    probs = np.full((1, 2, 4), 0.25)
    probs[0, 1, 2] = bad
    den = ArrayDenoiser(probs)
    x = TokenGrid(np.zeros((1, 2), dtype=np.int64), K=4)
    for check in (_validated_predict, validated_predict_reference):
        with pytest.raises(ContractError, match=message):
            check(den, x, 1, None)


class PairDenoiser(Denoiser):
    """Returns one fixed array for a label and another for the null label."""

    def __init__(self, cond_probs, null_probs):
        self.probs = {0: cond_probs, None: null_probs}
        self.K = cond_probs.shape[-1]
        self.grid_shape = cond_probs.shape[:2]

    def predict(self, x_t, t, cond=None):
        return self.probs[cond]


@pytest.mark.parametrize("cond_name", sorted(predict_inputs()))
@pytest.mark.parametrize("null_name", ["positive", "signed-zeros", "transposed-view"])
def test_validated_pair_matches_each_prediction_checked_alone(cond_name, null_name):
    # the guided pair is checked and renormalised in one pass over a stack;
    # each half keeps the bits it gets when checked alone
    inputs = predict_inputs()
    den = PairDenoiser(inputs[cond_name], inputs[null_name])
    x = TokenGrid(np.zeros((2, 3), dtype=np.int64), K=5)
    got = _validated_predict(den, x, 1, 0, None)
    expected = np.stack([validated_predict_reference(den, x, 1, cond) for cond in (0, None)])
    assert same_bits(got, expected)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-1e-6, "negative"), (0.5, "sum to 1"),
])
@pytest.mark.parametrize("bad_half", ["cond", "null"])
def test_validated_pair_rejects_either_bad_half(bad, message, bad_half):
    good = np.full((1, 2, 4), 0.25)
    wrong = good.copy()
    wrong[0, 1, 2] = bad
    den = PairDenoiser(*((wrong, good) if bad_half == "cond" else (good, wrong)))
    x = TokenGrid(np.zeros((1, 2), dtype=np.int64), K=4)
    with pytest.raises(ContractError, match=message):
        _validated_predict(den, x, 1, 0, None)


@pytest.mark.parametrize("bad_half", ["cond", "null"])
def test_validated_pair_rejects_either_bad_shape(bad_half):
    good = np.full((1, 2, 4), 0.25)
    wrong = np.full((2, 1, 4), 0.25)
    den = PairDenoiser(*((wrong, good) if bad_half == "cond" else (good, wrong)))
    x = TokenGrid(np.zeros((1, 2), dtype=np.int64), K=4)
    with pytest.raises(ContractError, match=r"shape \(2, 1, 4\), expected \(1, 2, 4\)"):
        _validated_predict(den, x, 1, 0, None)


def combine_inputs():
    rng = np.random.default_rng(29)
    p_c = rng.dirichlet(np.ones(5), size=(3, 4))
    p_u = rng.dirichlet(np.ones(5), size=(3, 4))
    p_c[0, 0, :2] = 0.0  # conditional zero, unconditional mass
    p_u[1, 1, 1:3] = 0.0  # unconditional zero: +inf logits for lam > 0
    p_c[2, 2, 4] = p_u[2, 2, 4] = 0.0  # zero on both sides
    p_c[0, 3] = p_u[0, 3] = [0.0, 1.0, 0.0, 0.0, 0.0]  # one-hot on both sides
    with np.errstate(divide="ignore"):
        lp_c = np.log(p_c / p_c.sum(-1, keepdims=True))
        lp_u = np.log(p_u / p_u.sum(-1, keepdims=True))
    lp_c[1, 0, np.argmax(p_c[1, 0])] = -0.0  # exp(-0.0) = 1: still normalized
    lp_c[1, 0, np.arange(5) != np.argmax(p_c[1, 0])] = -np.inf
    finite_c = np.log(rng.dirichlet(np.ones(5), size=(3, 4)))
    finite_u = np.log(rng.dirichlet(np.ones(5), size=(3, 4)))
    return {"zeros-and-infs": (lp_c, lp_u), "finite": (finite_c, finite_u)}


@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.0, 0.5, 3.0])
@pytest.mark.parametrize("mode", ["log", "prob"])
@pytest.mark.parametrize("name", ["zeros-and-infs", "finite"])
def test_cfg_combine_matches_reference(name, mode, lam):
    lp_c, lp_u = combine_inputs()[name]
    with np.errstate(invalid="ignore"):
        expected = cfg_combine_reference(lp_c, lp_u, lam, mode)
        got = cfg_combine(lp_c, lp_u, lam, mode=mode)
    assert same_bits(got, expected)


@pytest.mark.parametrize("lam, mode", [
    (-1.5, "log"), (0.5, "sum"), (0.0, "bogus"), (float("nan"), "log"), (float("inf"), "prob"),
])
@pytest.mark.parametrize("cond", [0, None])
def test_bad_guidance_raises_whatever_cond(lam, mode, cond):
    # the scale and mode are checked once on entry, also where no guidance
    # applies: without a condition or at scale 0
    table = linear_schedule(4, 3)
    den = ArrayDenoiser(np.full((1, 2, 3), 1 / 3))
    with pytest.raises(ValueError, match="guidance scale|mode"):
        sample(den, cond, table, rng=np.random.default_rng(1), guidance_scale=lam,
               guidance_mode=mode)
    x_t = TokenGrid(np.array([[3, 1]]), K=3)
    with pytest.raises(ValueError, match="guidance scale|mode"):
        reverse_step(x_t, 2, den, cond, table, lam, np.random.default_rng(1), guidance_mode=mode)
    sample(den, cond, table, rng=np.random.default_rng(1))


# ------------------------------------------------------ cached kernel rows


def kernel_tables():
    return {
        "linear": linear_schedule(9, 4),
        "improved": improved_schedule(9, 4, 3),
        "random": random_schedule(np.random.default_rng(3), 9, 4),
    }


@pytest.mark.parametrize("name", sorted(kernel_tables()))
def test_cached_kernel_rows_equal_fresh_ones_and_are_read_only(name):
    table = kernel_tables()[name]
    rows = table._coeffs
    assert same_bits(rows, coeff_rows_reference(table))
    assert not rows.flags.writeable
    assert table._coeffs is rows
    for stride in range(1, table.T + 2):  # every stride, and one past the longest
        kernel = _kernel_rows(table, stride)
        assert same_rows(kernel, kernel_rows_reference(table, stride))
        assert not any(a.flags.writeable for a in kernel)
        assert _kernel_rows(table, stride) is kernel
    with pytest.raises(ValueError):
        rows[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        kernel[0][0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        kernel[1][0, 0] = True


def test_kernel_rows_kept_per_stride():
    table = improved_schedule(9, 4, 3)
    one, three = _kernel_rows(table, 1), _kernel_rows(table, 3)
    assert one is not three
    assert not np.array_equal(one[0][6, 5], three[0][6, 5])  # alpha_bar at the earlier step
    assert one[0].shape == (12, 9, 3) and one[1].shape == (9, 3)
    assert _kernel_rows(table, 50) is _kernel_rows(table, 9)  # both reach step 0 from every step
    assert table._coeffs.shape == (3, 10, 3)
    assert linear_schedule(9, 4)._coeffs.shape == (3, 10, 1)


def test_kernel_rows_kept_per_table():
    one, two = improved_schedule(9, 4, 3), improved_schedule(9, 4, 3)
    for rows_of, args in ((lambda t: t._coeffs, ()), (_kernel_rows, (2,))):
        rows_one, rows_two = rows_of(one, *args), rows_of(two, *args)
        assert rows_one is not rows_two
        assert same_rows(rows_one, rows_two)
        rebuilt = schedule_from_json_dict(one.to_json_dict())  # an equal table
        assert rows_of(rebuilt, *args) is not rows_one


def test_kernel_rows_never_reach_a_later_table():
    # a cache keyed by id(table) would hand a new table the rows of a
    # collected one whose id it reuses
    for seed in range(20):
        table = random_schedule(np.random.default_rng(seed), 5, 3)
        rows, kernel = table._coeffs, _kernel_rows(table, 2)
        assert same_bits(rows, coeff_rows_reference(table))
        assert same_rows(kernel, kernel_rows_reference(table, 2))
        del table, rows, kernel


# ------------------------------------------------------ stacked chains


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name", sorted(kernel_tables()))
def test_chain_stack_at_one_step_equals_each_chain(name, stride):
    # B chains on a leading axis share one scalar step; at stride 2, t = 1 is
    # the short last step to 0
    table = kernel_tables()[name]
    K, N_q, L, B = table.K, 3, 7, 5
    rng = np.random.default_rng(67)
    for t in range(1, table.T + 1):
        x0 = rng.integers(0, K, size=(B, N_q, L))
        data = np.stack([corrupt(TokenGrid(g, K=K), t, table, rng).data for g in x0])
        p = rng.dirichlet(np.ones(K), size=(B, N_q, L))
        r = rng.normal(size=(B, N_q, L, K + 1))
        stack = _StepKernel(data, table, t, stride)
        mix, (mix_t, valid) = stack.mix(p), stack.mix_t(r)  # x_t from corrupt: mix has mass
        for i in range(B):
            chain = _StepKernel(data[i], table, t, stride)
            assert same_bits(mix[i], chain.mix(p[i]))
            chain_t, chain_valid = chain.mix_t(r[i])
            assert same_bits(mix_t[i], chain_t)
            assert same_bits(valid[i], chain_valid)


@pytest.mark.parametrize("t", [0, -1, 10, np.array([3, 0, 2]), np.array([1, 10])])
def test_kernel_refuses_a_step_out_of_range(t):
    # at t = 0 the index t - 1 would wrap to step T
    table = linear_schedule(9, 4)
    data = np.zeros((np.size(t), 2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match=r"t must be in 1\.\.9"):
        _StepKernel(data if np.ndim(t) else data[0], table, t)


# --------------------------------------------------------------- VLB prior


@pytest.mark.parametrize("name", sorted(kernel_tables()))
def test_prior_matches_the_position_loop(name):
    table = kernel_tables()[name]
    rng = np.random.default_rng(41)
    n_rows = table.n_layers if table.n_layers > 1 else 2
    for L in (1, 5, 40):
        x0 = TokenGrid(rng.integers(0, table.K, size=(n_rows, L)), K=table.K)
        assert same_bits(_prior_kl(x0, table), prior_kl_reference(x0, table))


@pytest.mark.parametrize("name", sorted(kernel_tables()))
def test_stationary_rows_equal_the_transitions_oracle(name):
    table = kernel_tables()[name]
    rows = _stationary_rows(table)
    assert rows.shape == (table.n_layers, table.K + 1)
    for layer in range(table.n_layers):
        np.testing.assert_allclose(rows[layer], stationary_dist(table, layer), rtol=0, atol=1e-12)


def test_prior_matches_the_position_loop_wide_alphabet():
    # 21 support entries per position: pairwise summation blocks of 8 and a tail
    table = linear_schedule(7, 20)
    x0 = TokenGrid(np.random.default_rng(43).integers(0, 20, size=(3, 17)), K=20)
    assert same_bits(_prior_kl(x0, table), prior_kl_reference(x0, table))


# ----------------------------------------------------------- whole chains


def trained_setup(table, N_q, L):
    rng = np.random.default_rng(7)
    protos = rng.integers(0, table.K, size=(2, N_q, L))
    data = []
    for label in (0, 1):
        for _ in range(6):
            noisy = rng.random((N_q, L)) < 0.3
            grid = np.where(noisy, rng.integers(0, table.K, size=(N_q, L)), protos[label])
            data.append((TokenGrid(grid, K=table.K), label))
    den, _ = train_denoiser(data, table, TrainConfig(epochs=2), np.random.default_rng(8))
    return den, data


CHAIN_CASES = [
    ("improved", 0.5, "log", 1),
    ("improved", 3.0, "log", 2),
    ("linear", -1.0, "log", 1),
    ("linear", -0.5, "prob", 3),
    ("random", 0.0, "log", 1),
    ("random", 1.5, "prob", 1),
]


@pytest.mark.parametrize("name, lam, mode, stride", CHAIN_CASES)
def test_sampled_chains_match_reference_loop(name, lam, mode, stride):
    table = kernel_tables()[name]
    N_q = table.n_layers if table.n_layers > 1 else 2
    den, data = trained_setup(table, N_q, 4)
    oracle = bayes_oracle_denoiser([g for g, _ in data[:4]], [0.4, 0.3, 0.2, 0.1], table)
    for model in (den, oracle):
        for i in range(4):
            try:
                ref = sample_reference(model, i % 2, table, stride,
                                       np.random.default_rng([5, i]), lam, mode)
            except Exception as exc:  # the oracle may meet an impossible grid
                with pytest.raises(type(exc)):
                    sample(model, i % 2, table, stride=stride, rng=np.random.default_rng([5, i]),
                           guidance_scale=lam, guidance_mode=mode)
                continue
            got = sample(model, i % 2, table, stride=stride, rng=np.random.default_rng([5, i]),
                         guidance_scale=lam, guidance_mode=mode)
            np.testing.assert_array_equal(got.data, ref.data)
