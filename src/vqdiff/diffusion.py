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

from .errors import ContractError, FittingError, InconsistencyError, SizeGuardError
from .tokens import TokenGrid, _at_least, _field, _grid_set, _integer, _integers, _label
from .tokens import _index, _integral, _load_object, _numbers, _real, atomic_write_text

MAX_ORACLE_SUPPORT = 10_000

# one TabularDenoiser's int32 row map (condition x step x position x token) plus
# 32·K bytes per stored row: its float64 logits, their softmax while the checked table
# is built, and that table with its log; also the dense ``weights`` it will build
MAX_TABULAR_BYTES = 2**30

_PREDICT_ATOL = 1e-9

_TRAIN_BLOCK_VALUES = 2**20  # float64 values per (steps x positions x (K+1)) training array

_SAVE_CHUNK_VALUES = 2**16  # logits per piece of text save_denoiser hands the writer


def _clean_grids(grids, what: str, table) -> np.ndarray:
    """The (n, N_q, L) stack of ``grids`` (``tokens._grid_set``), which hold no
    mask and fit ``table``."""
    data = _grid_set(grids, what)
    _check_shape(table, grids[0].K, data.shape[1])
    if (data == table.K).any():
        raise ValueError(f"{what} grids must be mask-free")
    return data


def _check_shape(table, K: int, N_q: int, what: str = "grid") -> None:
    if K != table.K:
        raise ValueError(f"{what} K={K} does not match schedule K={table.K}")
    if table.n_layers > 1 and N_q != table.n_layers:
        raise ValueError(
            f"{what} has {N_q} codebook rows but the schedule defines {table.n_layers} layers"
        )


def _check_denoiser(denoiser, table) -> None:
    """``_check_shape`` of the denoiser, and a step count it states must be the table's."""
    if denoiser.T not in (None, table.T):
        raise ValueError(f"denoiser trained for T={denoiser.T}, schedule has T={table.T}")
    _check_shape(table, denoiser.K, denoiser.grid_shape[0], "denoiser")


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


def _kernel_rows(table, stride: int) -> tuple:
    """What ``_StepKernel`` reads of the reverse kernel from each step t >= 1 to
    s = max(0, t - stride), kept on the table per stride.

    A read-only (12, T, n_layers) array, from rows t and s of ``table._coeffs`` and the
    alpha, beta, gamma of ``table.segment(s, t)``: the coefficients of a masked
    position, (g_seg/gb_t)·bb_s, (g_seg/gb_t)·ab_s, 1, 1 and a_seg; those of an observed
    one in the same roles, bb_s, ab_s, b_seg, bb_t and a_seg; then bb_t + ab_t and
    gb_s/gb_t.  Also a read-only (T, n_layers) mask of where gb_t = 0: the quotients
    are not finite there, and those layers may hold no mask token.  One stride's
    array is 4 times the schedule's cumulative arrays, which ``_check_args`` bounds.
    """
    stride = min(stride, table.T)  # every longer stride reaches step 0 from every step

    def build():
        t = np.arange(1, table.T + 1)
        s = np.maximum(0, t - stride)
        (ab_t, bb_t, gb_t), (ab_s, bb_s, gb_s) = (table._coeffs[:, i] for i in (t, s))
        a_seg, b_seg, g_seg = (np.reshape(c, ab_t.shape) for c in table.segment(s, t))
        with np.errstate(divide="ignore", invalid="ignore"):
            coef_keep = g_seg / gb_t
            mask_prob = gb_s / gb_t
        one = np.ones_like(ab_t)
        rows = np.array([coef_keep * bb_s, coef_keep * ab_s, one, one, a_seg,
                         bb_s, ab_s, b_seg, bb_t, a_seg,
                         bb_t + ab_t, mask_prob])
        zero = gb_t == 0.0
        rows.flags.writeable = zero.flags.writeable = False
        return rows, zero

    return table.cached(("kernel", stride), build)


def corrupt(x0: TokenGrid, t: int, table, rng: np.random.Generator | None = None) -> TokenGrid:
    """Sample x_t ~ q(x_t | x_0), each position independently.

    Step 0 is the identity by definition, which also sidesteps the
    per-codebook schedule's small t=0 mask offset.
    """
    _clean_grids([x0], "corrupt", table)
    _index("t", t, 0, table.T)
    rng = np.random.default_rng() if rng is None else rng
    return x0 if t == 0 else x0.with_data(_corrupted(x0.data, t, table, rng))


def _corrupted(x0: np.ndarray, t: int, table, rng: np.random.Generator) -> np.ndarray:
    """``corrupt``'s draw of x0, (N_q, L), at a step t >= 1.  One uniform u per position:
    below alpha_bar it keeps its token, below alpha_bar + K*beta_bar it takes a uniform
    token (drawn next, in grid order), and above that it is masked."""
    ab, bb, _ = table._coeffs[:, t, :, None]
    u = rng.random(x0.shape)
    uni_edge = ab + table.K * bb
    uniform_zone = (u >= ab) & (u < uni_edge)
    out = np.array(x0)
    out[uniform_zone] = rng.integers(0, table.K, size=np.count_nonzero(uniform_zone))
    out[u >= uni_edge] = table.K
    return out


class Denoiser(ABC):
    """Predicts per-position distributions over the clean token.

    ``predict`` must be deterministic given its inputs and return an
    (N_q, L, K) array of probabilities over non-mask targets.
    """

    K: int
    grid_shape: tuple[int, int]
    T: int | None = None  # the length of the schedule it was built for; None: any
    layout = "concatenated"  # unused; perfbench/harness.py:145 reads it

    def _check_input(self, x_t: TokenGrid, t: int) -> None:
        """Refuse a grid whose (N_q, L, K) is not the denoiser's, and a step outside 0..T."""
        if (x_t.N_q, x_t.L, x_t.K) != (*self.grid_shape, self.K):
            raise ValueError(f"grid (N_q, L, K)={x_t.N_q, x_t.L, x_t.K} does not match the "
                             f"denoiser's {(*self.grid_shape, self.K)}")
        _index("t", t, 0, self.T)

    @abstractmethod
    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        raise NotImplementedError

    def _checked_predictions(self, x_t: TokenGrid, t: int, conds: tuple,
                             log: bool = False) -> np.ndarray:
        """The predictions at x_t under each label of ``conds``, checked against
        the contract and renormalised, stacked along a new first axis; their
        logs if ``log``.

        Every prediction is requested before the first is checked.  The checks
        then run once over the stack, and a bad prediction raises the
        ``ContractError`` it would raise alone.  A subclass may override this
        only to return the same bits and raise the same errors faster.
        """
        expected = (x_t.N_q, x_t.L, x_t.K)
        preds = [np.asarray(self.predict(x_t, t, cond), dtype=float) for cond in conds]
        for p0 in preds:
            if p0.shape != expected:
                raise ContractError(f"denoiser returned shape {p0.shape}, expected {expected}")
        p0 = _renormalised(np.stack(preds))
        return _log(p0) if log else p0


def _log(p: np.ndarray) -> np.ndarray:
    """``np.log(p)``, -inf at a zero without a warning: one elementwise kernel, so the log
    of a table and of rows gathered from it have the same bits."""
    with np.errstate(divide="ignore"):
        return np.log(p)


def _renormalised(p0: np.ndarray) -> np.ndarray:
    """``p0``, probability rows along its last axis, checked against the contract and
    divided by their sums; ``ContractError`` if any row fails.

    Every check and the renormalisation act row by row, so a stack of rows passes
    exactly when each row does, and each row keeps the bits it gets alone.
    """
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
        # rows are contiguous like the clipped copy: these are its sums, in its order
        return p0 / sums[..., None]
    p0 = np.clip(p0, 0.0, None)
    return p0 / p0.sum(axis=-1, keepdims=True)


def _guidance_scale(guidance_scale: float, mode: str) -> float:
    """The guidance scale as a float, once it and the mode are checked."""
    lam = _real("guidance scale", guidance_scale, -1)
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
        return denoiser._checked_predictions(x_t, t, (cond,))[0]
    lp_c, lp_u = denoiser._checked_predictions(x_t, t, (cond, None), log=True)
    return _combine(lp_c, lp_u, lam, guidance_mode)


class _StepKernel:
    """The reverse kernel Q[k, v] = q(x_s=k | x_t, x0=v) at every position of one x_t.

    At a masked position the block of Q over real tokens is
    (g_seg/gb_t)(bb_s + delta_kv ab_s), its mask row is gb_s/gb_t and every
    clean token v is valid.  At an observed token c,
    Q[k, v] = lead_k (bb_s + delta_kv ab_s) / D_v with
    lead_k = b_seg + delta_kc a_seg and D_v = bb_t + delta_vc ab_t, the mask
    row is 0, and v is valid where D_v > 0.  Both products below cost O(K)
    per position; Q itself is never formed.  It runs from t to max(0, t - stride),
    and ``t`` is one step for every grid of ``data`` or one per grid on its axis 0.

    Both cases run as one sequence of whole-grid operations on per-position
    coefficients.  A masked position takes its own case's coefficients and,
    where the observed case multiplies or divides by a value its own case
    lacks, a factor of exactly 1; so each position keeps its case's bits.
    """

    def __init__(self, data: np.ndarray, table, t, stride: int = 1):
        K = self.K = table.K
        _index("t", t, 1, table.T, arrays=True)  # index t - 1 would wrap at t = 0
        rows, zero = _kernel_rows(table, stride)
        rows = rows[:, t - 1]
        self.masked = data == K
        # needed only if the table has a zero-mask step at all, a fact kept with the table
        if table.cached("zero-mask", zero.any) and (self.masked & zero[t - 1, ..., None]).any():
            raise InconsistencyError(
                f"grid contains mask tokens but step {t} assigns them zero probability"
            )
        # layers on the row axis, broadcast over leading grids, frames and tokens
        coef = rows.reshape(len(rows), *(1,) * (data.ndim - rows.ndim), *rows.shape[1:], 1, 1)
        self.at_masked = m = self.masked[..., None]
        # each position takes its own case's coefficients: the sum over the
        # real tokens and each token's own entry are multiplied by the first
        # two, lead_k by the third and fifth, and the fourth is D_v off the observed token
        self.sum_coef, self.own_coef, self.lead_b, d_base, a_seg = np.where(m, coef[:5], coef[5:10])
        d_obs, self.mask_prob = coef[10:]
        at_obs = data[..., None] == np.arange(K)  # the observed token; none at a mask
        self.obs = np.flatnonzero(at_obs)  # flat indices: faster than index tuples
        self.lead_a = a_seg.reshape(-1)[self.obs // K]  # a_seg at each one's position
        self.D = np.where(at_obs, d_obs, d_base)
        self.valid = self.D > 0

    def _lead(self, base: np.ndarray) -> np.ndarray:
        """lead_k * base_k at the observed positions; base itself at a mask."""
        vals = self.lead_b * base
        vals.reshape(-1)[self.obs] += self.lead_a * base.reshape(-1)[self.obs]
        return vals

    def mix(self, p0: np.ndarray) -> np.ndarray:
        """Q·p0 per position as (..., N_q, L, K+1), renormalized over the valid v."""
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
        """Qᵀ·r per position and the valid set, both (..., N_q, L, K).

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


def _step(x_t, t, stride, denoiser, cond, table, lam, guidance_mode, rng):
    """Draw x_s, s = max(0, t - stride), from the posterior q(x_s | x_t, x0=v) mixed
    over the guided prediction of v; returns it and that prediction."""
    p0 = _predict_guided(denoiser, x_t, t, cond, lam, guidance_mode)
    dists = _StepKernel(x_t.data, table, t, stride).mix(p0)
    data = _sample_categorical(dists, rng)  # a fresh int64 array of tokens in 0..K
    data.flags.writeable = False
    return TokenGrid._checked(data, x_t.K), p0


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
    _check_denoiser(denoiser, table)
    _index("t", t, 1, table.T)
    rng = np.random.default_rng() if rng is None else rng
    return _step(x_t, t, 1, denoiser, cond, table, lam, guidance_mode, rng)[0]


def _stationary_rows(table) -> np.ndarray:
    """The distribution of x_T over the K+1 states, (n_layers, K+1)."""
    ab, bb, gb = table._coeffs[:, table.T]
    probs = np.repeat(bb[:, None], table.K + 1, axis=1)
    probs[:, -1] = gb  # the mask state
    probs[:, :-1] += (ab / table.K)[:, None]  # spread unconverged identity mass
    return probs


def sample_chains(denoiser: Denoiser, cond, table, rngs, *, stride: int = 1,
                  guidance_scale: float = 0.0, guidance_mode: str = "log") -> list[TokenGrid]:
    """One mask-free grid per generator of ``rngs``, each from the reverse process run
    table.T -> 0.  Chain i draws only from ``rngs[i]``, so it does not depend on the
    other chains.  The arguments are checked once, before any generator draws.
    Each chain starts from the schedule's terminal distribution and takes guided
    reverse steps of ``stride``.  Positions still masked after the last step get the
    argmax of the last clean-token prediction.
    """
    _at_least("stride", stride, 1)
    lam = _guidance_scale(guidance_scale, guidance_mode)
    _check_denoiser(denoiser, table)
    (N_q, L), K = denoiser.grid_shape, denoiser.K
    init = np.broadcast_to(_stationary_rows(table)[:, None, :], (N_q, L, K + 1))
    grids = []
    for rng in rngs:
        x = TokenGrid(data=_sample_categorical(init, rng), K=K)
        for t in range(table.T, 0, -stride):
            x, p0 = _step(x, t, stride, denoiser, cond, table, lam, guidance_mode, rng)
        if x.contains_mask():
            x = x.with_data(np.where(x.data == K, p0.argmax(axis=-1), x.data))
        grids.append(x)
    return grids


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
    """One chain of ``sample_chains``, drawn from ``rng`` (a fresh generator if None)."""
    rng = np.random.default_rng() if rng is None else rng
    return sample_chains(denoiser, cond, table, [rng], stride=stride,
                         guidance_scale=guidance_scale, guidance_mode=guidance_mode)[0]


def _kl_terms(data: np.ndarray, x0: np.ndarray, p: np.ndarray, table, t):
    """KL(q(x_{t-1}|x_t, x0) || p(x_{t-1}|x_t)) at one x_t, term by term.

    ``p`` is the (N_q, L, K) prediction at x_t and mix = Q·p the model kernel.  Returns
    the kernel, the support of post = q(x_{t-1}|x_t, x0), ratio = post / mix (1 stands in
    for a zero mix) and the terms post·log(ratio): 0 off the support, +inf on it where mix
    is 0.  ``t`` may be an array, as in ``_StepKernel``.
    """
    kernel = _StepKernel(data, table, t)
    mix = kernel.mix(p)
    post = kernel.mix(np.eye(p.shape[-1])[x0])  # x0 as one-hot predictions
    support = post > 0
    with np.errstate(over="ignore"):  # a subnormal mix may give +inf, as a zero one does
        ratio = post / np.where(mix > 0, mix, 1.0)
    terms = post * np.log(ratio, out=np.zeros_like(ratio), where=support)
    terms[support & (mix == 0)] = np.inf
    return kernel, support, ratio, terms


def _prior_kl(x0: TokenGrid, table) -> float:
    """KL(q(x_T | x0) || p(x_T)) summed over positions, exactly.

    Each position's KL is summed over its support in token order, and the
    positions are added up one by one in grid order.
    """
    K = x0.K
    N_q, L = x0.data.shape
    ab, bb, gb = np.broadcast_to(table._coeffs[:, table.T], (3, N_q))
    prior_rows = np.broadcast_to(_stationary_rows(table), (N_q, K + 1))
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
    _clean_grids([x0], "vlb_loss", table)
    _check_denoiser(denoiser, table)
    _at_least("num_t_samples", num_t_samples, 1)
    rng = np.random.default_rng() if rng is None else rng
    T = table.T

    prior = _prior_kl(x0, table)
    kls = []
    for _ in range(num_t_samples):
        t = int(rng.integers(1, T + 1))
        x_t = x0.with_data(_corrupted(x0.data, t, table, rng))
        p0 = denoiser._checked_predictions(x_t, t, (cond,))[0]
        _, support, _, terms = _kl_terms(x_t.data, x0.data, p0, table, t)
        kls.append(float(np.sum(terms[support])))
        if kls[-1] == math.inf:
            warnings.warn(
                "model assigns zero probability to an outcome the true posterior "
                "supports; likelihood bound is infinite",
                RuntimeWarning,
                stacklevel=2,
            )
            return math.inf
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
        self._support = _clean_grids(grids, "support", table)  # (S, N_q, L)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(grids),):
            raise ValueError("probs must be one weight per support grid")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must be a probability vector")
        self.K, self.T, self.grid_shape = table.K, table.T, self._support.shape[1:]
        self._table = table
        with np.errstate(divide="ignore"):
            self._log_probs = np.log(probs)

    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        self._check_input(x_t, t)
        (N_q, L), K = self.grid_shape, self.K
        ab, bb, gb = self._table._coeffs[:, t]
        data = x_t.data
        is_mask = data == K  # (N_q, L)
        match = self._support == data[None, :, :]  # (S, N_q, L)
        with np.errstate(divide="ignore"):
            log_keep, log_uni, log_mask = np.log([ab + bb, bb, gb])[..., None]
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
    data = _clean_grids(grids, "dataset", table)
    counts: dict[bytes, list] = {}  # first grid with these tokens, and its count
    for g, tokens in zip(grids, data):
        counts.setdefault(tokens.tobytes(), [g, 0])[1] += 1
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


def _set_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows of the float64 (n, K) ``rows`` have any bit set: one of only -0.0 counts."""
    return rows.view(np.int64).any(axis=1)


class TabularDenoiser(Denoiser):
    """Per-(condition, step, position, observed token) softmax table.

    Each position has its own logits: the prediction for position (q, l)
    depends only on the token observed there, never on neighbors, so any
    product distribution over positions is representable exactly.  Richer
    context models are an extension point, not provided here.

    The logical table holds (labels+1)·(T+1)·N_q·L·(K+1) rows of K logits,
    but only the rows training touches are stored: an int32 map sends each
    logical row to its stored row, and every other row to the shared
    all-+0.0 row 0.  ``weights`` builds the dense table on access.
    ``predict`` is the softmax of the gathered rows.  Every logit is finite
    (``weights=``, ``load_denoiser`` and ``train_denoiser`` refuse others), so the
    softmax of every stored row passes the contract check: the first checked prediction
    keeps its renormalisation and that table's log, and each is one gather from them.
    """

    def __init__(self, K, grid_shape, T, cond_labels, weights=None):
        N_q, L = grid_shape
        for name, value, low in (("K", K, 2), ("N_q", N_q, 1), ("L", L, 1), ("T", T, 1)):
            _at_least(name, value, low)
        self.K, self.grid_shape, self.T = int(K), (int(N_q), int(L)), int(T)  # ints json writes
        self.cond_labels = sorted(map(_label, cond_labels))
        if len(set(self.cond_labels)) != len(self.cond_labels):
            raise ValueError(f"cond_labels repeat a label: {self.cond_labels}")
        self._cond_index = {c: i + 1 for i, c in enumerate(self.cond_labels)}
        self._shape = (len(self.cond_labels) + 1, self.T + 1, *self.grid_shape, self.K + 1, self.K)
        self._guard(1)
        self._map = np.zeros(math.prod(self._shape[:-1]), np.int32)
        self._stored = np.zeros((1, self.K))  # the shared row 0, then each registered row's
        self._checked = None  # until built: the checked softmax of self._stored and its log
        # the row of each position's token 0 at condition row 0 and step 0
        self._offsets = np.arange(0, math.prod(self._shape[2:5]), self.K + 1).reshape(self.grid_shape)
        self._offsets.flags.writeable = False
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=float)
            if not np.isfinite(weights).all():
                raise ValueError("weights must be finite numbers")
            if weights.size != math.prod(self._shape):
                raise ValueError(
                    f"weights hold {weights.size} values; the stored shape {self._shape} "
                    f"needs {math.prod(self._shape)}"
                )
            table = weights.reshape(-1, self.K)
            rows = np.flatnonzero(_set_rows(table))
            at = self._register(rows)  # before self._stored grows
            self._stored[at] = table[rows]

    def _guard(self, n_stored: int) -> None:
        """Refuse a row map and ``n_stored`` stored rows above ``MAX_TABULAR_BYTES``: 32·K
        bytes a row, for the logits, their softmax while the checked table is built, and
        that table with its log."""
        n_bytes = 4 * math.prod(self._shape[:-1]) + 32 * self.K * n_stored
        if n_bytes > MAX_TABULAR_BYTES:
            raise SizeGuardError(
                f"tabular denoiser of shape {self._shape} needs {n_bytes} bytes for its row map "
                f"and {n_stored} stored rows with their softmax, checked table and its log, "
                f"above the {MAX_TABULAR_BYTES}-byte limit"
            )

    def _register(self, rows: np.ndarray) -> np.ndarray:
        """The stored rows of the logical ``rows``; those not stored yet get new rows of +0.0,
        appended in ascending order, and ``_stored`` stays the same array if none is new.

        Every write to ``_stored`` goes to rows this has just returned, so it drops
        the checked table here.
        """
        self._checked = None
        new = np.unique(rows[self._map[rows] == 0])
        if new.size:
            n = len(self._stored)
            self._guard(n + new.size)
            self._stored = np.concatenate((self._stored, np.zeros((new.size, self.K))))
            self._map[new] = np.arange(n, n + new.size)
        return self._map[rows]

    @property
    def weights(self) -> np.ndarray:
        """The dense (labels+1, T+1, N_q, L, K+1, K) table, a read-only array built on
        each access; refused above ``MAX_TABULAR_BYTES``."""
        n_bytes = 8 * math.prod(self._shape)
        if n_bytes > MAX_TABULAR_BYTES:
            raise SizeGuardError(
                f"dense weights of shape {self._shape} need {n_bytes} bytes, "
                f"above the {MAX_TABULAR_BYTES}-byte limit"
            )
        dense = np.zeros(self._shape)
        rows = np.flatnonzero(self._map)
        dense.reshape(-1, self.K)[rows] = self._stored[self._map[rows]]
        dense.flags.writeable = False
        return dense

    def _cond_row(self, cond) -> int:
        if cond is None:
            return 0
        row = self._cond_index.get(_label(cond))
        if row is None:
            raise ValueError(f"unknown condition label {cond}")
        return row

    def _rows(self, cond_row, t, data: np.ndarray) -> np.ndarray:
        """The logical rows read at ``data``, (..., N_q, L): rows of ``weights.reshape(-1, K)``;
        ``cond_row`` and ``t`` are one condition row and one step per grid."""
        per_step = self._offsets.size * (self.K + 1)  # rows per (condition, step)
        first = np.asarray((cond_row * (self.T + 1) + t) * per_step)[..., None, None]
        return first + self._offsets + data

    def predict(self, x_t: TokenGrid, t: int, cond=None) -> np.ndarray:
        self._check_input(x_t, t)
        rows = self._rows(self._cond_row(cond), t, x_t.data)
        return _softmax(self._stored[self._map[rows]])  # (N_q, L, K)

    def _checked_predictions(self, x_t: TokenGrid, t: int, conds: tuple,
                             log: bool = False) -> np.ndarray:
        """The default's stack by one gather of every label's rows from the checked table."""
        self._check_input(x_t, t)
        rows = self._rows(np.array([self._cond_row(cond) for cond in conds]), t, x_t.data)
        if self._checked is None:  # each step is row-wise: its bits on the gathered rows
            self._guard(len(self._stored))
            checked = _renormalised(_softmax(self._stored))
            self._checked = (checked, _log(checked))
        return self._checked[log][self._map[rows]]  # (len(conds), N_q, L, K), a copy


def save_denoiser(path, denoiser: TabularDenoiser) -> None:
    """Write ``denoiser`` as the JSON object ``load_denoiser`` reads.

    Training updates only the rows of the observed tokens, so most rows of
    K logits stay all zero.  ``rows`` lists, ascending, the rows of
    ``weights.reshape(-1, K)`` with any bit set, and ``weights`` holds
    their logits, flattened.  A row holding only ``-0.0`` counts as
    touched, so the round trip is bit for bit.

    The bytes are those of ``json.dumps`` of that object, but each distinct
    logit is formatted once: a trained table holds few distinct values.  The
    weights go to the file in pieces of whole rows, never as one string.
    """
    rows = np.flatnonzero(_set_rows(denoiser._stored)[denoiser._map])  # row 0 has no bit set
    touched = denoiser._stored[denoiser._map[rows]]
    patterns = np.unique(touched.view(np.int64))
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
    step = max(1, _SAVE_CHUNK_VALUES // denoiser.K)  # rows per piece

    def text():
        yield head[:-1] + ', "weights": ['
        for a in range(0, len(rows), step):
            index = np.searchsorted(patterns, touched[a : a + step].view(np.int64).reshape(-1))
            yield (", " if a else "") + ", ".join(reprs[index].tolist())
        yield "]}"

    atomic_write_text(path, text())


def _increasing(values):
    """``values``, integers already read, if each exceeds the one before (compared exactly)."""
    array = np.asarray(values, dtype=object if isinstance(values, list) else None)
    if np.any(array[1:] <= array[:-1]):
        raise ValueError("entries must be strictly increasing")
    return values


def _row_indices(value, n_rows: int) -> np.ndarray:
    rows = _increasing(_numbers(value, 1, integer=True))
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
        _at_least(f"denoiser field {name!r}", fields[name], low)
    K = fields["K"]
    den = TabularDenoiser(  # checks the row map's size before allocating it
        K=K,
        grid_shape=(fields["N_q"], fields["L"]),
        T=fields["T"],
        cond_labels=_field(payload, "cond_labels", lambda v: _increasing(_integers(v)), "denoiser"),
    )
    n_rows, rows = len(den._map), None
    if "rows" in payload:
        rows = _field(payload, "rows", lambda v: _row_indices(v, n_rows), "denoiser")
        n_rows = rows.size
    weights = _field(payload, "weights", lambda v: _numbers(v, 1), "denoiser")
    if not np.isfinite(weights).all():
        raise ValueError("denoiser field 'weights' is malformed: entries must be finite numbers")
    if weights.size != n_rows * K:
        raise ValueError(
            f"denoiser field 'weights' holds {weights.size} values; "
            f"{n_rows} rows of K={K} need {n_rows * K}"
        )
    weights = weights.reshape(-1, K)
    if rows is None:  # store only the rows with a bit set
        rows = np.flatnonzero(_set_rows(weights))
        weights = weights[rows]
    at = den._register(rows)  # before den._stored grows
    den._stored[at] = weights  # fills only the named rows
    return den


def _kl_step(data: np.ndarray, x0: np.ndarray, p: np.ndarray, table, t):
    """Mean per-position KL(q(x_s|x_t, x0) || p(x_s|x_t)) and its logit gradient.

    ``p`` is the (N_q, L, K) softmax prediction at x_t.  The gradient is
    that of the KL summed over positions, with respect to each position's
    logits.  The model kernel is Q·p_eff / M, where p_eff is p on the valid
    clean tokens and M its mass, so dKL/dp_v = (1 - (Qᵀ·ratio)_v) / M on
    the valid set and 0 off it, with ratio = post / mix.  The loss is an array with
    one entry per grid: an array ``t`` has one step per grid along the first axis of ``data``.
    """
    kernel, _, ratio, terms = _kl_terms(data, x0, p, table, t)  # ratio is 0 off the support
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
    mean per-epoch loss trace (+inf if a step's model gives no mass to a state
    the posterior supports); an ``lr`` that makes training diverge raises ``FittingError``.

    No draw depends on the weights, so the draws come first, in step order,
    and then the rows they touch are stored; then each greedy run of steps
    touching no weight row twice is one batched step, which reads only rows
    it writes: the bits of one-at-a-time SGD.
    """
    config = TrainConfig() if config is None else config
    rng = np.random.default_rng() if rng is None else rng
    pairs = [(item, None) if isinstance(item, TokenGrid) else tuple(item) for item in dataset]
    data = _clean_grids([g for g, _ in pairs], "dataset", table)
    _real("null_cond_prob", config.null_cond_prob, 0, high=1)
    if not _integral(config.epochs) or config.epochs < 1:
        raise ValueError(f"epochs must be an integer >= 1, got {config.epochs!r}")
    _real("lr", config.lr, 0, strict=True)

    K, T, (n, N_q, L) = table.K, table.T, data.shape
    labels = sorted({c for _, c in pairs if c is not None})
    den = TabularDenoiser(K, (N_q, L), T, labels)

    diverged = f"training diverged at lr={config.lr!r}; use a smaller lr"
    trace: list[float] = []
    cap = max(1, _TRAIN_BLOCK_VALUES // (N_q * L * (K + 1)))  # steps per block
    for _ in range(config.epochs):
        order, losses = rng.permutation(n), []
        for block in np.array_split(order, -(-n // cap)):  # blocks bound every array below
            m = len(block)
            x0 = data[block]
            crow, ts, x_t = np.empty(m, int), np.empty(m, int), np.empty_like(x0)
            for i, idx in enumerate(block.tolist()):  # every draw, in one-at-a-time order
                cond = pairs[idx][1]
                if cond is not None and rng.random() < config.null_cond_prob:
                    cond = None
                crow[i] = den._cond_row(cond)
                ts[i] = rng.integers(1, T + 1)
                x_t[i] = _corrupted(x0[i], ts[i], table, rng)
            ids = den._register(den._rows(crow, ts, x_t).reshape(m, -1))  # stored rows
            stored, starts, touched = den._stored, [0], set()
            for i, step_rows in enumerate(ids.tolist()):  # greedy runs touching no row twice
                if not touched.isdisjoint(step_rows):
                    starts.append(i)
                    touched = set()
                touched.update(step_rows)
            for a, b in zip(starts, starts[1:] + [m]):  # each step reads only rows it writes
                at = ids[a:b].reshape(-1)
                p = _softmax(stored[at])
                try:  # x_t is drawn from x0, so only the model's zero mass can raise
                    loss, g_w = _kl_step(x_t[a:b], x0[a:b], p.reshape(b - a, N_q, L, K),
                                         table, ts[a:b])
                except InconsistencyError as exc:
                    raise FittingError(diverged) from exc
                losses.append(loss)
                stored[at] -= config.lr * g_w.reshape(p.shape)
        if not np.isfinite(den._stored).all():
            raise FittingError(diverged)
        trace.append(float(np.mean(np.concatenate(losses))))
    return den, trace
