"""Exact linear algebra for the mask+uniform corruption process.

Matrices use the column convention: column j of a transition matrix is the
distribution of the next state given the current state is j.  States are
0..K-1 for real tokens plus the absorbing mask state K.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .errors import InconsistencyError, SizeGuardError
from .tokens import _index

ORACLE_MAX_K = 16
ORACLE_MAX_T = 64


def build_transition_matrix(alpha: float, beta: float, gamma: float, K: int) -> np.ndarray:
    """Single-step (K+1)x(K+1) matrix for coefficients (alpha, beta, gamma).

    A non-mask token keeps its value with probability alpha+beta, moves to
    each other non-mask token with probability beta, and is replaced by the
    mask with probability gamma.  The mask state is absorbing.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if min(alpha, beta, gamma) < 0:
        raise ValueError("coefficients must be nonnegative")
    if not abs(alpha + K * beta + gamma - 1.0) <= 1e-9:
        raise ValueError("coefficients must satisfy alpha + K*beta + gamma = 1")
    Q = np.zeros((K + 1, K + 1))
    Q[:K, :K] = beta
    Q[np.arange(K), np.arange(K)] += alpha
    Q[K, :K] = gamma
    Q[K, K] = 1.0
    return Q


def marginal_xt_given_x0(x0: int, t: int, table, layer: int = 0) -> np.ndarray:
    """Closed-form q(x_t | x_0) as a length-(K+1) probability vector.

    Equals alpha_bar * onehot(x0) + beta_bar on every non-mask state plus
    gamma_bar on the mask state, with the coefficients of codebook
    ``layer`` (a shared schedule has the same ones on every layer).
    """
    K = table.K
    _index("x0", x0, 0, K - 1)  # a non-mask token
    ab, bb, gb = table.cumulative(t, layer)  # checks t
    probs = np.full(K + 1, bb)
    probs[x0] += ab
    probs[K] = gb
    return probs


def stationary_dist(table, layer: int = 0) -> np.ndarray:
    """The step-T distribution the process converges to, independent of x0.

    For the built-in schedules alpha_bar at T is exactly 0, so this is the
    actual terminal marginal; for custom schedules with residual alpha_bar
    it is the x0-free part used as the reverse process prior.
    """
    K = table.K
    _, bb, gb = table.cumulative(table.T, layer)
    probs = np.full(K + 1, bb)
    probs[K] = gb
    # any leftover identity mass is spread uniformly so the vector is a
    # proper distribution even for schedules that do not fully converge
    residual = 1.0 - probs.sum()
    if residual > 1e-12:
        probs[:K] += residual / K
    return probs


def true_posterior(x_t: int, x0: int, t: int, table, layer: int = 0) -> np.ndarray:
    """Exact q(x_{t-1} | x_t, x_0) over the K+1 states.

    Bayes rule with the single-step kernel at t and the closed-form
    marginal at t-1; normalized in log space.  Raises InconsistencyError
    when the conditioning event has zero forward probability.
    """
    K = table.K
    _index("x0", x0, 0, K - 1)  # a non-mask token
    _index("x_t", x_t, 0, K)
    a, b, g = table.stepwise(t, layer)  # checks t
    # row x_t of the step matrix: P(x_t | x_{t-1} = k) for each k
    if x_t == K:
        row = np.full(K + 1, g)
        row[K] = 1.0
    else:
        row = np.full(K + 1, b)
        row[x_t] += a
        row[K] = 0.0
    prior = marginal_xt_given_x0(x0, t - 1, table, layer)
    with np.errstate(divide="ignore"):
        log_num = np.log(row) + np.log(prior)
    if np.all(np.isneginf(log_num)):
        raise InconsistencyError(
            f"x_t={x_t} has probability 0 at step {t} given x0={x0}"
        )
    return np.exp(log_num - logsumexp(log_num))


def brute_force_cumulative(t: int, table, layer: int = 0) -> np.ndarray:
    """Explicit product Q_t ... Q_1 of per-step matrices (test oracle).

    Guarded to small instances; use the closed form for real work.
    """
    K = table.K
    _index("t", t, 0, table.T)
    if K > ORACLE_MAX_K or t > ORACLE_MAX_T:
        raise SizeGuardError(
            f"brute-force product limited to K <= {ORACLE_MAX_K}, t <= {ORACLE_MAX_T}"
        )
    out = np.eye(K + 1)
    for u in range(1, t + 1):
        a, b, g = table.stepwise(u, layer)
        out = build_transition_matrix(a, b, g, K) @ out
    return out
