"""Contrastive training objectives and diagnostics over externally
supplied embeddings: InfoNCE, margin ranking, retrieval recall, and the
CLUB mutual-information upper-bound estimator.

Similarity matrices are N x N with row i scoring query i against every
candidate; the diagonal holds matched pairs.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import logsumexp

from .metrics import _into_range

CLUB_VARIANCE_FLOOR = 1e-8  # relative to the variance of each y column


def _as_similarity(sim) -> np.ndarray:
    s = np.asarray(sim, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
        raise ValueError(f"similarity matrix must be square, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity matrix must be finite")
    return s


def _finite_loss(value, what: str) -> float:
    """``value`` as a float; raises when the similarities overflowed it."""
    if not np.isfinite(value):
        raise ValueError(f"similarity matrix is too large: the {what} leaves the float range")
    return float(value)


def info_nce(sim, temperature: float = 1.0) -> float:
    """Symmetric cross-entropy against the diagonal: the row-wise
    (query -> candidates) and column-wise directions averaged."""
    s = _as_similarity(sim)
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be a finite number > 0, got {temperature}")
    with np.errstate(over="ignore"):
        z = s / temperature
    if not np.all(np.isfinite(z)):
        raise ValueError(f"temperature {temperature} makes similarity / temperature overflow")
    diag = np.diag(z)
    with np.errstate(over="ignore"):
        row_loss = (logsumexp(z, axis=1) - diag).mean()
        col_loss = (logsumexp(z, axis=0) - diag).mean()
        return _finite_loss(0.5 * (row_loss + col_loss), "InfoNCE loss")


def contrastive_ranking_loss(sim, margin: float) -> float:
    """Bidirectional hinge averaged over ordered off-diagonal pairs:
    each negative must sit at least ``margin`` below both matched
    diagonals."""
    s = _as_similarity(sim)
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    n = s.shape[0]
    if n == 1:
        return 0.0
    diag = np.diag(s)
    off = ~np.eye(n, dtype=bool)
    # a hinge term that overflows to -inf is still exactly 0; one at +inf
    # makes the loss infinite, and that is refused below
    with np.errstate(over="ignore"):
        h_query = np.maximum(0.0, margin - diag[:, None] + s)
        h_candidate = np.maximum(0.0, margin - diag[None, :] + s)
        return _finite_loss((h_query[off] + h_candidate[off]).mean(), "ranking loss")


def recall_at_k(sim, k: int) -> float:
    """Percentage of rows whose diagonal ranks in the row's top k.

    Ties are broken by candidate index, so a tied lower-index candidate
    outranks the diagonal.
    """
    s = _as_similarity(sim)
    n = s.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    diag = np.diag(s)
    better = (s > diag[:, None]).sum(axis=1)
    tied_earlier = ((s == diag[:, None]) & (np.arange(n)[None, :] < np.arange(n)[:, None])).sum(axis=1)
    position = better + tied_earlier  # 0-based rank of the diagonal
    return float((position < k).mean() * 100.0)


def _in_range(v: np.ndarray) -> np.ndarray:
    """``v`` scaled into range by ``metrics._into_range``."""
    return _into_range(v)[1][0]


def club_mi(x, y) -> float:
    """Contrastive log-ratio upper bound on I(x; y) in nats.

    Fits a linear-Gaussian variational conditional q(y|x) (least-squares
    mean, diagonal residual covariance) and returns
    E[log q(y_i|x_i)] - (1/n^2) sum_ij log q(y_j|x_i).  Exact for
    jointly Gaussian data; an approximation otherwise.  A residual variance
    below 1e-8 times the variance of its y column is floored there with a
    warning, so perfectly dependent inputs give a large finite value.  A
    constant y column carries no information and adds 0 (all constant: 0.0).
    x and y are each scaled into range by ``metrics._into_range``, which
    leaves the bound unchanged up to rounding.
    """
    xm = np.asarray(x, dtype=float)
    ym = np.asarray(y, dtype=float)
    if xm.ndim == 1:
        xm = xm[:, None]
    if ym.ndim == 1:
        ym = ym[:, None]
    if xm.ndim != 2 or ym.ndim != 2 or xm.shape[0] != ym.shape[0]:
        raise ValueError(
            f"x and y must be aligned sample matrices, got {xm.shape} and {ym.shape}"
        )
    if not (np.all(np.isfinite(xm)) and np.all(np.isfinite(ym))):
        raise ValueError("samples must be finite")
    n, dim_x = xm.shape
    if n < 10 * (dim_x + 1):
        raise ValueError(
            f"need at least {10 * (dim_x + 1)} samples to fit q(y|x) with "
            f"dim_x={dim_x}, got {n}"
        )
    ym = ym[:, (ym != ym[0]).any(axis=0)]
    if ym.shape[1] == 0:
        return 0.0

    # centring keeps the fit and the cross term from cancelling on offset data;
    # scaling before it centres subnormal input off the subnormal grid, and
    # scaling after it brings a spread far below the offset into range
    xm, ym = _in_range(xm), _in_range(ym)
    xm = _in_range(xm - xm.mean(axis=0))
    ym = _in_range(ym - ym.mean(axis=0))
    design = np.hstack([xm, np.ones((n, 1))])
    coef, *_ = np.linalg.lstsq(design, ym, rcond=None)
    mu = design @ coef
    resid = ym - mu
    var = (resid**2).mean(axis=0)
    floor = CLUB_VARIANCE_FLOOR * (ym**2).mean(axis=0)  # ym is centred
    if np.any(var < floor):
        warnings.warn(
            "zero (or near-zero) residual variance in q(y|x); flooring at "
            f"{CLUB_VARIANCE_FLOOR} times the variance of y — the estimate is "
            "a large finite stand-in for a divergent bound",
            RuntimeWarning,
            stacklevel=2,
        )
        var = np.maximum(var, floor)

    # log-variance terms are shared by both expectations and cancel
    positive = -0.5 * (resid**2 / var).sum(axis=1).mean()
    # sum_ij (y_jd - mu_id)^2 = n*sum_j y^2 - 2*(sum_i mu)(sum_j y) + n*sum_i mu^2
    cross_sq = (
        n * (ym**2).sum(axis=0)
        - 2.0 * mu.sum(axis=0) * ym.sum(axis=0)
        + n * (mu**2).sum(axis=0)
    )
    negative = -0.5 * (cross_sq / var).sum() / (n * n)
    return float(positive - negative)
