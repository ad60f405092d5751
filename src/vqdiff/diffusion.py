"""Forward corruption, guided reverse sampling, and likelihood-bound training.

The forward process corrupts a clean token grid position by position with
the mask+uniform kernel of its schedule.  The reverse process is built by
x0-reparameterization: a denoiser predicts a distribution over the clean
token at each position, and the reverse kernel is the posterior mixture

    p(x_s | x_t) = sum_v q(x_s | x_t, x0=v) * p(v | x_t)

which is always a valid kernel and reduces to the exact reverse process
when the denoiser is the true Bayes posterior.  Conditioning is an opaque
integer label; ``None`` is the null (unconditional) label used both for
classifier-free training and as the guidance reference.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InconsistencyError, SizeGuardError
from .tokens import TokenGrid, _field, _integer, _integers, _label, _load_object, atomic_write_text

MAX_ORACLE_SUPPORT = 10_000

# float64 weights of one TabularDenoiser (condition x step x position x token)
MAX_TABULAR_BYTES = 2**30

_PREDICT_ATOL = 1e-9

_TRAIN_BLOCK_VALUES = 2**20  # float64 values per (steps x positions x (K+1)) training array


def _clean_grids(grids, what: str) -> TokenGrid:
    """The first of ``grids``: there is one, and all share shape and K and hold no mask."""
    if len(grids) == 0:
        raise ValueError(f"empty {what}")
    first = grids[0]
    for g in grids:
        if (g.N_q, g.L, g.K) != (first.N_q, first.L, first.K):
            raise ValueError(f"{what} grids must share shape and K")
        if g.contains_mask():
            raise ValueError(f"{what} grids must be mask-free")
    return first


def _check_shape(table, K: int, N_q: int, what: str = "grid") -> None:
    if K != table.K:
        raise ValueError(f"{what} K={K} does not match schedule K={table.K}")
    if table.n_layers > 1 and N_q != table.n_layers:
        raise ValueError(
            f"{what} has {N_q} codebook rows but the schedule defines {table.n_layers} layers"
        )


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, taken over a transposed contiguous copy.

    Reducing the short last axis of many rows runs NumPy's reduction loop
    once per row; over the copy with that axis first, each of its K entries
    is one elementwise ``maximum`` across all rows, and the copy costs less
    than the per-row loops it saves.  A maximum does no rounding, so the
    values are the same, NaN included; only the sign of a zero maximum may
    differ (see the callers for why that changes no result).
    """
    rows = a.reshape(-1, a.shape[-1])
    return np.ascontiguousarray(rows.T).max(axis=0).reshape(*a.shape[:-1], 1)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, keeping that axis (length 1).

    The arithmetic of ``scipy.special.logsumexp`` on real input, without its
    dispatch: every entry equal to the maximum is taken out of the shifted
    sum and counted, log1p(s/m) + log(m) + max, and the direct log(sum(exp))
    wherever that is not finite (all -inf, +inf or NaN).  The results are
    those of SciPy 1.17 bit for bit, so the sampler's bits no longer depend
    on the installed SciPy version; ``transitions.py`` and ``auxiliary.py``
    still use SciPy.

    The maximum comes from ``_row_max``: a zero maximum of either sign
    shifts every entry to the same value up to the sign of a zero, so the
    ``exp`` and the sum are the same, and adding it to log1p(s/m) + log(m),
    which is >= 0, gives the same result.  The sums stay on the last axis,
    where NumPy adds 8 or more entries pairwise; summing the transposed copy
    would add them in sequence and change the bits.
    """
    a_max = _row_max(a)
    at_max = a == a_max
    m = at_max.sum(axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=-1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max  # s = 0 stays 0: m >= 1 unless max is NaN
        if not np.isfinite(out).all():
            out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=-1, keepdims=True)))
    return out


def _coeff_rows(table, n_rows: int) -> tuple:
    """alpha_bar, beta_bar and gamma_bar by grid row, (T+1, n_rows) each, read-only
    and kept on the table.  A shared schedule's value is repeated over the rows;
    a per-codebook one gives each row its layer's."""

    def build():
        cum = np.reshape([table.alpha_bar, table.beta_bar, table.gamma_bar], (3, table.T + 1, -1))
        out = np.broadcast_to(cum, (3, table.T + 1, n_rows)).copy()
        out.flags.writeable = False
        return tuple(out)

    return table.cached(n_rows, build)


def _kernel_rows(table, n_rows: int, s: int, t: int) -> tuple:
    """What ``_StepKernel`` reads of the reverse kernel from t to s, kept on the table.

    A read-only (11, n_rows) array, from rows t and s of ``_coeff_rows`` and the
    alpha, beta, gamma of ``table.segment(s, t)``: the coefficients of a masked
    position, (g_seg/gb_t)·bb_s, (g_seg/gb_t)·ab_s, 1 and 1; those of an observed
    one in the same roles, bb_s, ab_s, b_seg and bb_t; then bb_t + ab_t, a_seg and
    gb_s/gb_t.  Also the indices of the rows where gb_t = 0: the quotients are not
    finite there, and those rows may hold no mask token.
    """

    def build():
        cum = _coeff_rows(table, n_rows)
        ab_t, bb_t, gb_t, ab_s, bb_s, gb_s = (c[i] for i in (t, s) for c in cum)
        a_seg, b_seg, g_seg = (np.broadcast_to(c, (n_rows,)) for c in table.segment(s, t))
        with np.errstate(divide="ignore", invalid="ignore"):
            coef_keep = g_seg / gb_t
            mask_prob = gb_s / gb_t
        one = np.ones(n_rows)
        rows = np.array([coef_keep * bb_s, coef_keep * ab_s, one, one,
                         bb_s, ab_s, b_seg, bb_t,
                         bb_t + ab_t, a_seg, mask_prob])
        zero = np.flatnonzero(gb_t == 0.0)
        rows.flags.writeable = zero.flags.writeable = False
        return rows, zero

    return table.cached(("kernel", s, t, n_rows), build)


def corrupt(x0: TokenGrid, t: int, table, rng: np.random.Generator) -> TokenGrid:
    """Sample x_t ~ q(x_t | x_0), each position independently.

    Step 0 is the identity by definition, which also sidesteps the
    per-codebook schedule's small t=0 mask offset.
    """
    _check_shape(table, x0.K, x0.N_q)
    if x0.contains_mask():
        raise ValueError("corrupt requires a mask-free grid")
    if not 0 <= t <= table.T:
        raise ValueError(f"t must be in 0..{table.T}, got {t}")
    if t == 0:
        return x0
    K = x0.K
    u = rng.random(x0.data.shape)
    out = np.array(x0.data)
    uniform_zone, mask_zone = _corrupt_zones(u, t, table, K)
    n_uni = int(uniform_zone.sum())
    if n_uni:
        out[uniform_zone] = rng.integers(0, K, size=n_uni)
    out[mask_zone] = K
    return x0.with_data(out)


def _corrupt_zones(u: np.ndarray, t, table, K: int) -> tuple:
    """Where ``corrupt``'s uniforms ``u``, (..., N_q, L) at step(s) ``t``, draw a
    uniform token and where they mask: a position keeps its token for u below
    alpha_bar, draws one below alpha_bar + K*beta_bar, and is masked above."""
    ab, bb, _ = (a[t][..., None] for a in _coeff_rows(table, u.shape[-2]))
    uni_edge = ab + K * bb
    return (u >= ab) & (u < uni_edge), u >= uni_edge


class Denoiser(ABC):
    """Predicts per-position distributions over the clean token.

    ``predict`` must be deterministic given its inputs and return an
    (N_q, L, K) array of probabilities over non-mask targets.
    """

    K: int
    grid_shape: tuple[int, int]
    layout = "concatenated"  # unused; perfbench/harness.py:145 reads it

    @abstractmethod
    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        raise NotImplementedError


def _validated_predict(denoiser, x_t: TokenGrid, t: int, *conds) -> np.ndarray:
    """The predictions at x_t under each label of ``conds``, checked against
    the contract and renormalised, stacked along a new first axis.

    Every prediction is requested before the first is checked.  The checks
    then run once over the stack, and a bad prediction raises the
    ``ContractError`` it would raise alone.
    """
    expected = (x_t.N_q, x_t.L, x_t.K)
    preds = [np.asarray(denoiser.predict(x_t, t, cond), dtype=float) for cond in conds]
    for p0 in preds:
        if p0.shape != expected:
            raise ContractError(f"denoiser returned shape {p0.shape}, expected {expected}")
    p0 = np.stack(preds)
    lo, hi = p0.min(), p0.max()  # NaN reaches both, -inf the first, +inf the second
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ContractError("denoiser returned non-finite probabilities")
    if lo < -_PREDICT_ATOL:
        raise ContractError("denoiser returned negative probabilities")
    sums = p0.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > _PREDICT_ATOL:
        raise ContractError("denoiser distributions do not sum to 1")
    if lo > 0 or not np.signbit(p0).any():
        # clipping at +0.0 changes nothing (it would turn -0.0 into +0.0), and the
        # stack is contiguous like the clipped copy: these are its sums, in its order
        return p0 / sums[..., None]
    p0 = np.clip(p0, 0.0, None)
    return p0 / p0.sum(axis=-1, keepdims=True)


def _guidance_scale(guidance_scale: float, mode: str) -> float:
    """The guidance scale as a float, once it and the mode are checked."""
    lam = float(guidance_scale)
    if not (math.isfinite(lam) and lam >= -1):
        raise ValueError(f"guidance scale must be a finite number >= -1, got {lam}")
    if mode not in ("log", "prob"):
        raise ValueError(f"mode must be 'log' or 'prob', got {mode!r}")
    return lam


def cfg_combine(log_p_cond, log_p_uncond, guidance_scale: float, mode: str = "log") -> np.ndarray:
    """Blend conditional and unconditional predictions; returns probabilities.

    ``log`` mode sharpens in log space, (1+lambda)*log p_c - lambda*log p_u,
    then renormalizes.  ``prob`` mode extrapolates the probabilities
    literally and clamps negative mass to zero before renormalizing; the
    two agree only when the literal form stays nonnegative.
    """
    lam = _guidance_scale(guidance_scale, mode)
    lp_c = np.asarray(log_p_cond, dtype=float)
    lp_u = np.asarray(log_p_uncond, dtype=float)
    if lp_c.shape != lp_u.shape:
        raise ValueError("log_p_cond and log_p_uncond must have the same shape")
    # a normalized row has no entry above ~0, so exp cannot overflow;
    # NaN, overflow and zero mass all fail the comparison
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for name, lp in (("log_p_cond", lp_c), ("log_p_uncond", lp_u)):
            if not np.all(np.abs(np.log(np.exp(lp).sum(axis=-1))) <= 1e-6):
                raise ValueError(f"{name} is not a normalized log-distribution")
    return _combine(lp_c, lp_u, lam, mode)


def _combine(lp_c: np.ndarray, lp_u: np.ndarray, lam: float, mode: str) -> np.ndarray:
    """``cfg_combine`` of normalized log-distributions, without re-checking them."""
    if mode == "prob":
        p = (1.0 + lam) * np.exp(lp_c) - lam * np.exp(lp_u)
        p = np.clip(p, 0.0, None)
        return p / p.sum(axis=-1, keepdims=True)

    # a term whose coefficient is exactly 0 is dropped: 0 * -inf is NaN
    if lam == 0:
        g = lp_c.copy()
    elif lam == -1:
        g = lp_u.copy()
    else:
        with np.errstate(invalid="ignore"):
            g = (1.0 + lam) * lp_c - lam * lp_u
    # the fix-ups act only on infinite or NaN logits (a zero on both sides
    # gives one of those), so finite logits skip them
    if not np.isfinite(g).all():
        # both components zero: zero mass in the limit, not NaN
        g[np.isneginf(lp_c) & np.isneginf(lp_u)] = -np.inf
        # conditional mass where the unconditional model has none: that row's
        # sharpened distribution degenerates uniformly onto those states
        pos_inf = np.isposinf(g)
        degenerate = pos_inf.any(axis=-1, keepdims=True)
        g = np.where(degenerate, np.where(pos_inf, 0.0, -np.inf), g)
    return np.exp(g - _logsumexp(g))


def _predict_guided(denoiser, x_t, t, cond, lam, guidance_mode):
    """The guided prediction; ``lam`` and the mode are already checked."""
    if lam == 0 or cond is None:
        return _validated_predict(denoiser, x_t, t, cond)[0]
    with np.errstate(divide="ignore"):
        lp_c, lp_u = np.log(_validated_predict(denoiser, x_t, t, cond, None))
    return _combine(lp_c, lp_u, lam, guidance_mode)


class _StepKernel:
    """The reverse kernel Q[k, v] = q(x_s=k | x_t, x0=v) at every position of one x_t.

    At a masked position the block of Q over real tokens is
    (g_seg/gb_t)(bb_s + delta_kv ab_s), its mask row is gb_s/gb_t and every
    clean token v is valid.  At an observed token c,
    Q[k, v] = lead_k (bb_s + delta_kv ab_s) / D_v with
    lead_k = b_seg + delta_kc a_seg and D_v = bb_t + delta_vc ab_t, the mask
    row is 0, and v is valid where D_v > 0.  Both products below cost O(K)
    per position; Q itself is never formed.  ``t`` and ``t_prev`` may be
    arrays, one step pair per grid of grids stacked along the row axis.

    Both cases run as one sequence of whole-grid operations on per-position
    coefficients.  A masked position takes its own case's coefficients and,
    where the observed case multiplies or divides by a value its own case
    lacks, a factor of exactly 1; so each position keeps its case's bits.
    """

    def __init__(self, data: np.ndarray, table, t, t_prev):
        K = self.K = table.K
        # training stacks grids, one step pair each; the sampler's one pair skips the
        # stacking, which builds and mixes its kernel (K=16, 4x32 grid) ~10 % faster
        if isinstance(t, np.ndarray):
            n = len(data) // t.size
            parts = [_kernel_rows(table, n, *s) for s in zip(t_prev.tolist(), t.tolist())]
            rows = np.hstack([r for r, _ in parts])
            zero = np.concatenate([z + i * n for i, (_, z) in enumerate(parts)])
        else:
            rows, zero = _kernel_rows(table, len(data), t_prev, t)
        self.masked = data == K
        if zero.size and self.masked[zero].any():
            raise InconsistencyError(
                f"grid contains mask tokens but step {t} assigns them zero probability"
            )
        per_row = rows[:, :, None, None]  # broadcast over frames and tokens
        self.at_masked = m = self.masked[..., None]
        # each position takes its own case's coefficients: the sum over the
        # real tokens and each token's own entry are multiplied by the first
        # two, lead_k by the third, and the fourth is D_v off the observed token
        self.sum_coef, self.own_coef, self.lead_b, d_base = np.where(m, per_row[:4], per_row[4:8])
        d_obs, self.mask_prob = per_row[8], per_row[10]
        at_obs = data[..., None] == np.arange(K)  # the observed token; none at a mask
        self.obs = np.flatnonzero(at_obs)  # flat indices: faster than index triples
        self.lead_a = rows[9][self.obs // at_obs[0].size]  # a_seg of each one's row
        self.D = np.where(at_obs, d_obs, d_base)
        self.valid = self.D > 0

    def _lead(self, base: np.ndarray) -> np.ndarray:
        """lead_k * base_k at the observed positions; base itself at a mask."""
        vals = self.lead_b * base
        vals.reshape(-1)[self.obs] += self.lead_a * base.reshape(-1)[self.obs]
        return vals

    def mix(self, p0: np.ndarray) -> np.ndarray:
        """Q·p0 per position as (N_q, L, K+1), renormalized over the valid v."""
        K = self.K
        M = np.where(self.valid, p0, 0.0).sum(axis=-1, keepdims=True)
        if (M <= 0.0).any():  # a masked position's M is its whole mass
            raise InconsistencyError(
                "denoiser assigns zero probability to every clean token "
                "consistent with an observed token"
            )
        out = np.empty(self.masked.shape + (K + 1,))
        with np.errstate(divide="ignore", invalid="ignore"):
            W = np.where(self.valid, p0 / self.D, 0.0)
            S = np.where(self.at_masked, 1.0, W.sum(axis=-1, keepdims=True))
            vals = self._lead(self.sum_coef * S + self.own_coef * W)
            np.divide(vals, np.where(self.at_masked, 1.0, M), out=out[..., :K])
        out[..., K] = np.where(self.masked, self.mask_prob[..., 0], 0.0)
        return out

    def mix_t(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Qᵀ·r per position and the valid set, both (N_q, L, K).

        The values are sum_k r_k Q[k, v], 0 where v is invalid; with
        rl_k = r_k lead_k an observed position gives
        (bb_s sum(rl) + ab_s rl_v) / D_v.
        """
        K = self.K
        with np.errstate(divide="ignore", invalid="ignore"):
            rl = self._lead(r[..., :K])
            num = self.sum_coef * rl.sum(axis=-1, keepdims=True) + self.own_coef * rl
            np.add(num, self.mask_prob * r[..., K:], out=num, where=self.at_masked)
            return np.where(self.valid, num / self.D, 0.0), self.valid


def _sample_categorical(dists: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw along the last axis; dists sums to 1 there."""
    cdf = np.cumsum(dists, axis=-1)
    u = rng.random(dists.shape[:-1])
    idx = (u[..., None] >= cdf).sum(axis=-1)  # zero-mass categories are never drawn
    n = dists.shape[-1]
    if idx.max(initial=0) == n:
        # rounding left cdf[-1] < u: take the last category with mass, since
        # a zero-mass tail (the mask state at an observed token) is impossible
        last = n - 1 - np.argmax(dists[..., ::-1] > 0, axis=-1)
        idx = np.minimum(idx, last)
    return idx


def _step(x_t, t, t_prev, denoiser, cond, table, lam, guidance_mode, rng):
    """Draw x_{t_prev} from the posterior q(x_{t_prev} | x_t, x0=v) mixed over the
    guided prediction of v; returns it and that prediction."""
    p0 = _predict_guided(denoiser, x_t, t, cond, lam, guidance_mode)
    dists = _StepKernel(x_t.data, table, t, t_prev).mix(p0)
    return x_t.with_data(_sample_categorical(dists, rng)), p0


def reverse_step(
    x_t: TokenGrid,
    t: int,
    denoiser: Denoiser,
    cond,
    table,
    guidance_scale: float = 0.0,
    rng: np.random.Generator | None = None,
    *,
    guidance_mode: str = "log",
) -> TokenGrid:
    """Sample x_{t-1} from the reparameterized reverse kernel at step t."""
    lam = _guidance_scale(guidance_scale, guidance_mode)
    _check_shape(table, x_t.K, x_t.N_q)
    if not 1 <= t <= table.T:
        raise ValueError(f"t must be in 1..{table.T}, got {t}")
    if rng is None:
        rng = np.random.default_rng()
    return _step(x_t, t, t - 1, denoiser, cond, table, lam, guidance_mode, rng)[0]


def _stationary_rows(table, n_rows: int) -> np.ndarray:
    ab, bb, gb = (a[table.T] for a in _coeff_rows(table, n_rows))
    probs = np.repeat(bb[:, None], table.K + 1, axis=1)
    probs[:, -1] = gb  # the mask state
    probs[:, :-1] += (ab / table.K)[:, None]  # spread unconverged identity mass
    return probs


def sample(
    denoiser: Denoiser,
    cond,
    table,
    *,
    stride: int = 1,
    rng: np.random.Generator | None = None,
    guidance_scale: float = 0.0,
    guidance_mode: str = "log",
) -> TokenGrid:
    """Generate a mask-free grid by running the reverse process table.T -> 0.

    Starts from the schedule's terminal distribution and applies guided
    reverse steps with the given stride.  Positions still masked after the
    final step are filled with the argmax of the last clean-token
    prediction.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    lam = _guidance_scale(guidance_scale, guidance_mode)
    if rng is None:
        rng = np.random.default_rng()
    N_q, L = denoiser.grid_shape
    K = denoiser.K
    _check_shape(table, K, N_q, "denoiser")

    init = _stationary_rows(table, N_q)
    data = _sample_categorical(np.repeat(init[:, None, :], L, axis=1), rng)
    x = TokenGrid(data=data, K=K)
    for t in range(table.T, 0, -stride):
        x, p0 = _step(x, t, max(0, t - stride), denoiser, cond, table, lam, guidance_mode, rng)
    if x.contains_mask():
        x = x.with_data(np.where(x.data == K, p0.argmax(axis=-1), x.data))
    return x


def _kl_terms(data: np.ndarray, x0: np.ndarray, p: np.ndarray, table, t):
    """KL(q(x_{t-1}|x_t, x0) || p(x_{t-1}|x_t)) at one x_t, term by term.

    ``p`` is the (N_q, L, K) prediction at x_t and mix = Q·p the model
    kernel.  Returns the kernel, mix, the support of post = q(x_{t-1}|x_t,
    x0), ratio = post / mix (1 stands in for a zero mix) and the terms
    post·log(ratio), which are 0 off the support.  ``t`` may be an array, as in ``_StepKernel``.
    """
    kernel = _StepKernel(data, table, t, t - 1)
    mix = kernel.mix(p)
    post = kernel.mix(np.eye(p.shape[-1])[x0])  # x0 as one-hot predictions
    support = post > 0
    ratio = post / np.where(mix > 0, mix, 1.0)
    terms = post * np.log(ratio, out=np.zeros_like(ratio), where=support)
    return kernel, mix, support, ratio, terms


def _prior_kl(x0: TokenGrid, table) -> float:
    """KL(q(x_T | x0) || p(x_T)) summed over positions, exactly.

    Each position's KL is summed over its support in token order, and the
    positions are added up one by one in grid order.
    """
    K = x0.K
    N_q, L = x0.data.shape
    ab, bb, gb = (a[table.T] for a in _coeff_rows(table, N_q))
    prior_rows = _stationary_rows(table, N_q)
    q = np.repeat(np.repeat(bb[:, None, None], L, axis=1), K + 1, axis=2)
    rows, cols = np.indices((N_q, L))
    q[rows, cols, x0.data] += ab[:, None]
    q[..., K] = gb[:, None]
    support = q > 0
    total = 0.0
    for r in range(N_q):
        # the support has one size at every position of a row
        qs = q[r][support[r]].reshape(L, -1)
        ps = np.broadcast_to(prior_rows[r], (L, K + 1))[support[r]].reshape(qs.shape)
        for term in np.sum(qs * np.log(qs / ps), axis=1).tolist():
            total += term
    return total


def vlb_loss(
    denoiser: Denoiser,
    x0: TokenGrid,
    cond,
    table,
    rng: np.random.Generator | None = None,
    num_t_samples: int = 1,
) -> float:
    """Monte-Carlo estimate of the variational bound, in nats.

    Equals KL(q(x_T|x0) || p(x_T)) plus T times the average over sampled
    steps t ~ U{1..T}, x_t ~ q(x_t|x0) of the per-step posterior KL.  The
    t=1 term plays the reconstruction role since the step-0 posterior is a
    point mass on x0.
    """
    _check_shape(table, x0.K, x0.N_q)
    if x0.contains_mask():
        raise ValueError("vlb_loss requires a mask-free grid")
    if num_t_samples < 1:
        raise ValueError("num_t_samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    T = table.T

    prior = _prior_kl(x0, table)
    kls = []
    for _ in range(num_t_samples):
        t = int(rng.integers(1, T + 1))
        x_t = corrupt(x0, t, table, rng)
        p0 = _validated_predict(denoiser, x_t, t, cond)[0]
        _, mix, support, _, terms = _kl_terms(x_t.data, x0.data, p0, table, t)
        if np.any(mix[support] == 0.0):
            warnings.warn(
                "model assigns zero probability to an outcome the true posterior "
                "supports; likelihood bound is infinite",
                RuntimeWarning,
                stacklevel=2,
            )
            return float("inf")
        kls.append(float(np.sum(terms[support])))
    return prior + T * float(np.mean(kls))


class BayesOracleDenoiser(Denoiser):
    """Exact posterior over clean tokens for an enumerable data distribution.

    Conditioning labels are ignored: the oracle models the unconditional
    distribution it was given.  Intended for verification at small scale.
    """

    def __init__(self, grids: list[TokenGrid], probs, table):
        if len(grids) > MAX_ORACLE_SUPPORT:
            raise SizeGuardError(
                f"oracle support limited to {MAX_ORACLE_SUPPORT} grids, got {len(grids)}"
            )
        first = _clean_grids(grids, "support")
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(grids),):
            raise ValueError("probs must be one weight per support grid")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a probability vector")
        _check_shape(table, first.K, first.N_q)
        self.K = first.K
        self.grid_shape = (first.N_q, first.L)
        self._table = table
        self._support = np.stack([g.data for g in grids])  # (S, N_q, L)
        with np.errstate(divide="ignore"):
            self._log_probs = np.log(probs)

    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        if (x_t.N_q, x_t.L) != self.grid_shape or x_t.K != self.K:
            raise ValueError("grid shape mismatch with the oracle's support")
        if not 0 <= t <= self._table.T:
            raise ValueError(f"t must be in 0..{self._table.T}, got {t}")
        K = self.K
        N_q, L = self.grid_shape
        ab, bb, gb = (a[t] for a in _coeff_rows(self._table, N_q))
        data = x_t.data
        is_mask = data == K  # (N_q, L)
        match = self._support == data[None, :, :]  # (S, N_q, L)
        with np.errstate(divide="ignore"):
            log_keep = np.log(ab + bb)[:, None]
            log_uni = np.log(bb)[:, None]
            log_mask = np.log(gb)[:, None]
        per_pos = np.where(match, log_keep[None], log_uni[None])
        per_pos = np.where(is_mask[None], log_mask[None], per_pos)
        loglik = per_pos.sum(axis=(1, 2)) + self._log_probs  # (S,)
        total = _logsumexp(loglik)[0]
        if np.isneginf(total):
            raise InconsistencyError(
                "observed grid has zero probability under the oracle's support"
            )
        w = np.exp(loglik - total)
        flat_support = self._support.reshape(len(w), -1)  # (S, N)
        out = np.zeros((N_q * L, K))
        np.add.at(out, (np.arange(N_q * L)[None, :], flat_support), w[:, None])
        out /= out.sum(axis=1, keepdims=True)
        return out.reshape(N_q, L, K)


def bayes_oracle_denoiser(grids, probs, table) -> BayesOracleDenoiser:
    return BayesOracleDenoiser(grids, probs, table)


def empirical_bayes_denoiser(grids: list[TokenGrid], table) -> BayesOracleDenoiser:
    """Bayes oracle over the empirical distribution of a dataset."""
    _clean_grids(grids, "dataset")  # before grids of other shapes can share bytes
    counts: dict[bytes, list] = {}  # first grid with these bytes, and its count
    for g in grids:
        counts.setdefault(g.data.tobytes(), [g, 0])[1] += 1
    probs = np.array([c for _, c in counts.values()], dtype=float)
    return BayesOracleDenoiser([g for g, _ in counts.values()], probs / probs.sum(), table)


@dataclass
class TrainConfig:
    """Knobs for tabular denoiser fitting."""

    epochs: int = 30
    lr: float = 1.0
    null_cond_prob: float = 0.1


def _softmax(w: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row maximum of ``_row_max``.

    Either sign of a zero maximum gives the same ``exp``; the sum stays on
    the last axis, so its pairwise order is the one ``w.sum(axis=-1)`` uses.
    """
    e = np.exp(w - _row_max(w))
    return e / e.sum(axis=-1, keepdims=True)


class TabularDenoiser(Denoiser):
    """Per-(condition, step, position, observed token) softmax table.

    Each position has its own logits: the prediction for position (q, l)
    depends only on the token observed there, never on neighbors, so any
    product distribution over positions is representable exactly.  Richer
    context models are an extension point, not provided here.
    """

    def __init__(self, K, grid_shape, T, cond_labels, weights=None):
        self.K = int(K)
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        self.T = int(T)
        self.cond_labels = sorted(map(_label, cond_labels))
        if len(set(self.cond_labels)) != len(self.cond_labels):
            raise ValueError(f"cond_labels repeat a label: {self.cond_labels}")
        self._cond_index = {c: i + 1 for i, c in enumerate(self.cond_labels)}
        self._positions = np.indices(self.grid_shape)
        self._positions.flags.writeable = False
        shape = (
            len(self.cond_labels) + 1,
            self.T + 1,
            self.grid_shape[0],
            self.grid_shape[1],
            self.K + 1,
            self.K,
        )
        n_bytes = 8 * math.prod(shape)
        if n_bytes > MAX_TABULAR_BYTES:
            raise SizeGuardError(
                f"tabular denoiser weights of shape {shape} need {n_bytes} bytes, "
                f"above the {MAX_TABULAR_BYTES}-byte limit"
            )
        if weights is None:
            self.weights = np.zeros(shape)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.size != math.prod(shape):
                raise ValueError(
                    f"weights hold {weights.size} values; the stored shape {shape} "
                    f"needs {math.prod(shape)}"
                )
            self.weights = weights.reshape(shape)

    def _cond_row(self, cond) -> int:
        if cond is None:
            return 0
        row = self._cond_index.get(_label(cond))
        if row is None:
            raise ValueError(f"unknown condition label {cond}")
        return row

    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        if (x_t.N_q, x_t.L) != self.grid_shape or x_t.K != self.K:
            raise ValueError("grid shape mismatch with the trained table")
        if not 0 <= t <= self.T:
            raise ValueError(f"t must be in 0..{self.T}, got {t}")
        iq, il = self._positions
        return _softmax(self.weights[self._cond_row(cond), t, iq, il, x_t.data])  # (N_q, L, K)


def save_denoiser(path, denoiser: TabularDenoiser) -> None:
    """Write ``denoiser`` as the JSON object ``load_denoiser`` reads.

    Training updates only the rows of the observed tokens, so most rows of
    K logits stay all zero.  ``rows`` lists, ascending, the rows of
    ``weights.reshape(-1, K)`` with any bit set, and ``weights`` holds
    their logits, flattened.  A row holding only ``-0.0`` counts as
    touched, so the round trip is bit for bit.  Non-finite entries raise
    ``ValueError`` before anything is written.

    The bytes are those of ``json.dumps`` of that object, but each distinct
    logit is formatted once: a trained table holds few distinct values.
    """
    table = denoiser.weights.reshape(-1, denoiser.K)
    rows = np.flatnonzero(table.view(np.int64).any(axis=1))
    touched = table[rows]
    if not np.isfinite(touched).all():  # every other entry is +0.0
        raise ValueError("denoiser field 'weights' holds non-finite entries")
    patterns, index = np.unique(touched.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, patterns.view(float).tolist())), dtype=object)
    head = json.dumps({
        "kind": "tabular",
        "K": denoiser.K,
        "N_q": denoiser.grid_shape[0],
        "L": denoiser.grid_shape[1],
        "T": denoiser.T,
        "cond_labels": denoiser.cond_labels,
        "rows": rows.tolist(),
    })
    weights = ", ".join(reprs[index.reshape(-1)].tolist())
    atomic_write_text(path, (head[:-1], ', "weights": [', weights, "]}"))


def _flat_weights(value) -> np.ndarray:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    if bool in set(map(type, value)):  # NumPy would read true as 1.0
        raise TypeError("expected numbers, got a boolean")
    weights = np.asarray(value)
    if weights.ndim != 1:
        raise ValueError("expected a flat list of numbers")
    if weights.dtype.kind not in "iuf":
        raise ValueError(f"expected numbers, got entries of NumPy dtype {weights.dtype}")
    weights = weights.astype(float, copy=False)
    if not np.isfinite(weights).all():
        raise ValueError("entries must be finite numbers")
    return weights


def _increasing(value) -> np.ndarray:
    values = np.asarray(_integers(value), dtype=np.int64)
    if np.any(np.diff(values) <= 0):
        raise ValueError("entries must be strictly increasing")
    return values


def _row_indices(value, n_rows: int) -> np.ndarray:
    rows = _increasing(value)
    if rows.size and (rows[0] < 0 or rows[-1] >= n_rows):
        raise ValueError(f"row indices must lie in [0, {n_rows})")
    return rows


def load_denoiser(path) -> TabularDenoiser:
    """Read a file of ``save_denoiser``; without ``rows``, ``weights`` holds every row."""
    # a trained table holds few distinct logits: parse each literal once
    payload = _load_object(path, "denoiser", parse_float=functools.lru_cache(maxsize=None)(float))
    kind = _field(payload, "kind", str, "denoiser")
    if kind != "tabular":
        raise ValueError(f"unsupported denoiser kind {kind!r}")
    fields = {name: _field(payload, name, _integer, "denoiser") for name in ("K", "N_q", "L", "T")}
    for name, low in (("K", 2), ("N_q", 1), ("L", 1), ("T", 1)):
        if fields[name] < low:
            raise ValueError(f"denoiser field {name!r} must be >= {low}, got {fields[name]}")
    K = fields["K"]
    den = TabularDenoiser(  # checks the table's size before allocating it
        K=K,
        grid_shape=(fields["N_q"], fields["L"]),
        T=fields["T"],
        cond_labels=_field(payload, "cond_labels", _increasing, "denoiser"),
    )
    table = den.weights.reshape(-1, K)
    if "rows" in payload:
        rows = _field(payload, "rows", lambda v: _row_indices(v, len(table)), "denoiser")
    else:
        rows = np.arange(len(table))
    weights = _field(payload, "weights", _flat_weights, "denoiser")
    if weights.size != rows.size * K:
        raise ValueError(
            f"denoiser field 'weights' holds {weights.size} values; "
            f"{rows.size} rows of K={K} need {rows.size * K}"
        )
    table[rows] = weights.reshape(-1, K)
    return den


def _kl_step(data: np.ndarray, x0: np.ndarray, p: np.ndarray, table, t):
    """Mean per-position KL(q(x_s|x_t, x0) || p(x_s|x_t)) and its logit gradient.

    ``p`` is the (N_q, L, K) softmax prediction at x_t.  The gradient is
    that of the KL summed over positions, with respect to each position's
    logits.  The model kernel is Q·p_eff / M, where p_eff is p on the valid
    clean tokens and M its mass, so dKL/dp_v = (1 - (Qᵀ·ratio)_v) / M on
    the valid set and 0 off it, with ratio = post / mix.  The loss is an array with
    one entry per grid: an array ``t`` has one step per grid, stacked along the row axis.
    """
    kernel, _, _, ratio, terms = _kl_terms(data, x0, p, table, t)  # ratio is 0 off the support
    inner, valid = kernel.mix_t(ratio)
    M = np.where(valid, p, 0.0).sum(axis=-1, keepdims=True)
    g_p = (valid - inner) / M  # inner is 0 off the valid set
    loss = terms.reshape(np.size(t), -1).sum(axis=1) / (data.size // np.size(t))
    return loss, p * (g_p - (p * g_p).sum(axis=-1, keepdims=True))


def train_denoiser(
    dataset,
    table,
    config: TrainConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[TabularDenoiser, list[float]]:
    """Fit the tabular denoiser by SGD on per-step posterior KL.

    ``dataset`` is a list of TokenGrid or (TokenGrid, condition label)
    pairs.  Each step draws one grid and one step index t ~ U{1..T},
    corrupts the grid, and descends the analytic gradient of
    KL(q(x_{t-1}|x_t, x0) || p_model(x_{t-1}|x_t)) through the softmax
    table.  The gradient uses the closed-form reverse-kernel algebra that
    sampling and the VLB share (the products Q·p and Qᵀ·r of
    ``_StepKernel``), so a step costs O(N_q·L·K).  With probability
    ``null_cond_prob`` the condition is replaced by the null label, which
    trains the guidance reference for free.  Returns the denoiser and the
    mean per-epoch loss trace.

    No draw depends on the weights, so the draws come first, in step order;
    then each greedy run of steps touching no weight row twice is one batched
    step, which reads only rows it writes: the bits of one-at-a-time SGD.
    """
    if config is None:
        config = TrainConfig()
    if rng is None:
        rng = np.random.default_rng()
    pairs = [(item, None) if isinstance(item, TokenGrid) else tuple(item) for item in dataset]
    first = _clean_grids([g for g, _ in pairs], "dataset")
    _check_shape(table, first.K, first.N_q)
    if not 0 <= config.null_cond_prob <= 1:
        raise ValueError("null_cond_prob must be in [0, 1]")
    if isinstance(config.epochs, bool) or not isinstance(config.epochs, int) or config.epochs < 1:
        raise ValueError(f"epochs must be an integer >= 1, got {config.epochs!r}")
    if not (math.isfinite(config.lr) and config.lr > 0):
        raise ValueError(f"lr must be a finite number > 0, got {config.lr}")

    K, T, N_q, L = first.K, table.T, first.N_q, first.L
    labels = sorted({c for _, c in pairs if c is not None})
    den = TabularDenoiser(K, (N_q, L), T, labels)

    trace: list[float] = []
    n = len(pairs)
    table_rows = den.weights.reshape(-1, K)  # one row per (cond, t, q, l, observed token)
    pos = np.arange(N_q * L) * (K + 1)  # first row of each position within one (cond, t)
    cap = max(1, _TRAIN_BLOCK_VALUES // (N_q * L * (K + 1)))  # steps per block
    for _ in range(config.epochs):
        order, losses = rng.permutation(n), []
        for block in np.array_split(order, -(-n // cap)):  # blocks bound every array below
            m = len(block)
            crow, ts, u, draws = np.empty(m, int), np.empty(m, int), np.empty((m, N_q, L)), []
            for i, idx in enumerate(block.tolist()):  # every draw, in one-at-a-time order
                cond = pairs[idx][1]
                if cond is not None and rng.random() < config.null_cond_prob:
                    cond = None
                crow[i] = den._cond_row(cond)
                t = ts[i] = int(rng.integers(1, T + 1))
                u[i] = rng.random((N_q, L))
                n_uni = np.count_nonzero(_corrupt_zones(u[i], t, table, K)[0])
                if n_uni:
                    draws.append(rng.integers(0, K, size=n_uni))
            x0 = np.stack([pairs[idx][0].data for idx in block.tolist()])
            x_t = x0.copy()  # corrupt, for the whole block at once
            uniform_zone, mask_zone = _corrupt_zones(u, ts, table, K)
            x_t[uniform_zone] = np.concatenate([np.empty(0, int), *draws])
            x_t[mask_zone] = K
            ids = (crow * (T + 1) + ts)[:, None] * (N_q * L * (K + 1)) + pos + x_t.reshape(m, -1)
            starts, touched = [0], set()
            for i, step_rows in enumerate(ids.tolist()):  # greedy runs touching no row twice
                if not touched.isdisjoint(step_rows):
                    starts.append(i)
                    touched = set()
                touched.update(step_rows)
            for a, b in zip(starts, starts[1:] + [m]):  # each step reads only rows it writes
                at = ids[a:b].reshape(-1)
                p = _softmax(table_rows[at])
                loss, g_w = _kl_step(x_t[a:b].reshape(-1, L), x0[a:b].reshape(-1, L),
                                     p.reshape(-1, L, K), table, ts[a:b])
                losses.append(loss)
                table_rows[at] -= config.lr * g_w.reshape(p.shape)
        trace.append(float(np.mean(np.concatenate(losses))))
    return den, trace
