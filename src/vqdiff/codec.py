"""Vector quantization over real-valued feature frames.

Four codec kinds share one model shape: ``VQ`` (one codebook over whole
frames), ``RVQ`` (a chain of codebooks quantizing successive residuals),
``GVQ`` (frames split into contiguous groups, one codebook each) and
``GRVQ`` (a residual chain per group).  Books are ordered level-major:
book ``r*G + g`` is residual level ``r`` of group ``g``, so truncating the
book list keeps the coarsest levels of every group.

Quantizing L frames yields a TokenGrid with one row per active book, which
plugs directly into the diffusion module.  Codebook fitting is Lloyd's
algorithm with k-means++ seeding, optionally with quantizer dropout for
residual chains.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FittingError
from .metrics import _as_matrix, _in_float_range, _into_range, _scaled_back
from .tokens import TokenGrid, _at_least, _field, _index, _integer, _load_object
from .tokens import _numbers, atomic_write_text

KINDS = ("VQ", "RVQ", "GVQ", "GRVQ")
_SQUARES_OVERFLOW = "features are too large: the reconstruction error leaves the float range"
_RECON_OVERFLOW = "the codebooks' reconstruction leaves the float range"

# Float64 entries of working array per block of frames (1 MiB): the
# distance block of `_nearest` (rows x Kp), together with the frames it is
# computed from, then stays in a core's L2 cache (2 MiB on the x86_64
# machine measured) across the several passes over it, where whole-array
# temporaries go out to memory on every pass.  `_kmeanspp_init` gathers
# the frames it recomputes exactly into one buffer of this size (rows x
# dims), so no pass over the frames needs a whole-array temporary.
_CHUNK = 1 << 17

# Values formatted per block of `save_features` text: the block's floats,
# reprs and joined text stay a few MiB however many frames there are.
_CSV_BLOCK_VALUES = 1 << 16


def _block_rows(width: int) -> int:
    return max(1, _CHUNK // width)


def _check_structure(kind: str, G: int, R: int, Kp: int) -> None:
    """The kind, group count, depth and book size every codec must satisfy."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _at_least("G", G, 1)
    _at_least("R", R, 1)
    _at_least("Kp", Kp, 2)
    if kind == "VQ" and (G, R) != (1, 1):
        raise ValueError("VQ requires G=1, R=1")
    if kind == "RVQ" and G != 1:
        raise ValueError("RVQ requires G=1")
    if kind == "GVQ" and R != 1:
        raise ValueError("GVQ requires R=1")


@dataclass
class CodecModel:
    """A fitted (or directly constructed) quantizer.

    ``codebooks`` holds G*R arrays of shape (Kp, d/G) in level-major
    order.  ``inertia_traces`` (one list per book, in book order) is
    populated by ``fit_codebooks`` and not serialized.
    """

    kind: str
    G: int
    R: int
    Kp: int
    codebooks: list
    inertia_traces: list | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_structure(self.kind, self.G, self.R, self.Kp)
        if len(self.codebooks) != self.G * self.R:
            raise ValueError(
                f"expected {self.G * self.R} codebooks, got {len(self.codebooks)}"
            )
        books = [np.asarray(b, dtype=float) for b in self.codebooks]
        dp = books[0].shape[1] if books[0].ndim == 2 else -1
        for b in books:
            if b.ndim != 2 or b.shape != (self.Kp, dp):
                raise ValueError(f"every codebook must have shape ({self.Kp}, {dp})")
            if not np.all(np.isfinite(b)):
                raise ValueError("codebooks must be finite")
        self.codebooks = books

    @property
    def N_q(self) -> int:
        return self.G * self.R

    @property
    def dp(self) -> int:
        return self.codebooks[0].shape[1]

    @property
    def d(self) -> int:
        return self.dp * self.G


def _nearest(X: np.ndarray, book: np.ndarray) -> np.ndarray:
    """Index of the closest code per frame; ties go to the lowest index.
    ``X`` and ``book`` are in the range of ``metrics._into_range``, so no
    squared norm overflows."""
    out = np.empty(len(X), dtype=np.int64)
    c2 = (book**2).sum(axis=1)
    rows = _block_rows(len(book))
    for lo in range(0, len(X), rows):
        block = X[lo : lo + rows]
        x2 = (block**2).sum(axis=1)
        # (|x|^2 - 2 x.c) + |c|^2, in this order, in one buffer
        d2 = (2.0 * block) @ book.T
        np.subtract(x2[:, None], d2, out=d2)
        d2 += c2
        np.argmin(d2, axis=1, out=out[lo : lo + rows])
    return out


def _depths(model: CodecModel) -> range:
    """The grid depths ``model`` encodes and decodes: every book for the flat kinds,
    which have no partial decoding, 1..N_q for a residual chain."""
    return range(model.N_q if model.kind in ("VQ", "GVQ") else 1, model.N_q + 1)


def _check_depth(model: CodecModel, depth: int, what: str) -> None:
    _index(what, depth, 1, model.N_q)
    if depth not in _depths(model):
        raise ValueError(f"{model.kind} does not support partial depth, got {depth} of {model.N_q}")


def quantize(features, model: CodecModel, active_books: int | None = None):
    """Encode frames; returns (TokenGrid, reconstruction).

    The grid has one row per active book.  ``active_books`` truncates the
    residual chain for RVQ/GRVQ; the flat kinds always use every book.
    Frames and books out of range are scaled by one ``_into_range``, and
    the reconstruction back.
    """
    X = _as_matrix(features, "features")
    if X.shape[1] != model.d:
        raise ValueError(f"features have dim {X.shape[1]}, model expects {model.d}")
    n_active = model.N_q if active_books is None else active_books
    _check_depth(model, n_active, "active_books")

    dp = model.dp
    exponent, (X, *books) = _into_range(X, *model.codebooks[:n_active])
    tokens = np.zeros((n_active, len(X)), dtype=np.int64)
    recon = np.zeros_like(X)
    residual = X.copy()
    for b in range(n_active):
        g = b % model.G
        cols = slice(g * dp, (g + 1) * dp)
        idx = _nearest(residual[:, cols], books[b])
        tokens[b] = idx
        picked = books[b][idx]
        recon[:, cols] += picked
        residual[:, cols] -= picked
    if exponent:
        recon = _scaled_back(recon, exponent, _RECON_OVERFLOW)
    return TokenGrid(data=tokens, K=model.Kp), recon


def dequantize(tokens: TokenGrid, model: CodecModel) -> np.ndarray:
    """Sum/concatenate the selected code vectors; inverse of quantize's
    reconstruction arm for the same model."""
    if tokens.K != model.Kp:
        raise ValueError(f"grid K={tokens.K} does not match model Kp={model.Kp}")
    _check_depth(model, tokens.N_q, "the grid's row count")
    if tokens.contains_mask():
        raise ValueError("cannot decode a grid containing mask tokens")
    *_, out = _partial_decodes(tokens, model)
    return out


def _partial_decodes(tokens: TokenGrid, model: CodecModel):
    """The reconstruction from the first 0, 1, ..., N_q books of ``tokens``,
    each yielded in turn as the same buffer, updated in place."""
    dp = model.dp
    out = np.zeros((tokens.L, model.d))
    yield out
    for b in range(tokens.N_q):
        g = b % model.G
        cols = out[:, g * dp : (g + 1) * dp]
        _in_float_range(_RECON_OVERFLOW, np.add, cols, model.codebooks[b][tokens.data[b]], out=cols)
        yield out


@dataclass
class FitConfig:
    """Codebook fitting parameters."""

    kind: str
    Kp: int
    G: int = 1
    R: int = 1
    iters: int = 50
    seed: int = 0
    dropout: bool = False


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; the same centroids and generator draws as picking
    each next centroid with ``rng.choice(n, p=d2 / d2.sum())``.

    Every centroid picked has a positive distance to the earlier ones, so
    the distances sum to 0 after j centroids when the frames hold only j
    distinct values, or when distinct frames' squared distances underflow.

    Each new centroid c is screened before any exact distance is taken.
    One matrix-vector product gives, per frame x, the lower bound

        lower = x2 - 2 x.c + c2 - slack*(x2 + c2) - floor

    with x2 = |x|^2 and c2 = |c|^2 as computed.  Only frames whose bound is
    not finite, or is below their d2, get the exact ``((x - c)**2).sum()``
    and the ``min``; any other frame's exact value is at least its d2 and
    would leave d2 as it is, so d2 keeps every bit, and the draws with it.

    The bound holds in floating point.  Take m = dims, u = eps/2 and
    gamma = (m + 4) u / (1 - (m + 4) u).  Computed in any order, x2, c2
    and x.c are within m u / (1 - m u) of |x|^2, |c|^2 and |x||c|, and
    the adds that combine them cost u each, so x2 - 2 x.c + c2 is within
    gamma (|x| + |c|)^2 of |x - c|^2.  The exact expression sums m
    non-negative terms, each a rounded square of a rounded difference, so
    it is at least (1 - gamma) |x - c|^2, again within gamma (|x| + |c|)^2.
    As (|x| + |c|)^2 <= 2 (|x|^2 + |c|^2), slack = 8 (m + 8) eps, four
    times the 4 gamma needed, covers both with the rounding of the slack
    term itself.  Every product that underflows can be off by one
    smallest subnormal beyond this, and there are fewer than 4 m + 4 of
    them, so floor = 8 (m + 8) smallest subnormals.  An overflow anywhere
    leaves ``lower`` inf or NaN, and those frames are recomputed.
    """
    n, dims = X.shape
    centroids = np.empty((k, dims))
    centroids[0] = X[rng.integers(n)]
    d2 = np.full(n, np.inf)
    rows = _block_rows(dims)
    diff = np.empty((min(rows, n), dims))
    slack = 8 * (dims + 8) * np.finfo(float).eps
    lower = np.empty(n)
    skip = np.empty(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = np.einsum("ij,ij->i", X, X)
        x2 -= slack * x2 + 8 * (dims + 8) * np.finfo(float).smallest_subnormal
    for j in range(k):
        if j:
            total = d2.sum()
            if total == 0.0:
                distinct = len(np.unique(X, axis=0))
                if distinct < k:
                    raise FittingError(
                        f"need at least {k} distinct frames to fit {k} codes, got {distinct}"
                    )
                raise FittingError(
                    "k-means++ seeding: squared distances sum to 0.0, so distinct "
                    "features underflow float64 distances"
                )
            # Generator.choice's own arithmetic for one weighted draw
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            centroids[j] = X[cdf.searchsorted(rng.random(), side="right")]
        c = centroids[j]
        with np.errstate(over="ignore", invalid="ignore"):
            c2 = c @ c
            np.matmul(X, c, out=lower)
            lower *= -2.0
            lower += x2
            lower += c2 - slack * c2
        np.isfinite(lower, out=skip)
        skip &= lower >= d2
        redo = np.flatnonzero(~skip)
        # d2 = min(d2, |x - c_j|^2) where it can drop, a block of frames at a time
        with np.errstate(over="ignore"):
            for lo in range(0, len(redo), rows):
                idx = redo[lo : lo + rows]
                block = diff[: len(idx)]
                np.take(X, idx, axis=0, out=block)
                np.subtract(block, c, out=block)
                np.multiply(block, block, out=block)
                d2[idx] = np.minimum(d2[idx], block.sum(axis=1))
    return centroids


def _lloyd_step(X: np.ndarray, centroids: np.ndarray):
    """One assignment + update; returns (new_centroids, inertia).

    Empty clusters are re-seeded from the points currently farthest from
    their assigned centroid, farthest first, ties to the lowest frame
    index.
    """
    labels = _nearest(X, centroids)
    diffs = centroids[labels]
    np.subtract(X, diffs, out=diffs)
    np.multiply(diffs, diffs, out=diffs)
    point_d2 = diffs.sum(axis=1)
    inertia = float(point_d2.sum())
    k = len(centroids)
    new = np.zeros_like(centroids)
    counts = np.bincount(labels, minlength=k)
    # per column, adds each cluster's frames in frame order from 0.0, as
    # np.add.at(new, labels, X) does
    for c in range(X.shape[1]):
        new[:, c] = np.bincount(labels, weights=X[:, c], minlength=k)
    nonempty = counts > 0
    new[nonempty] /= counts[nonempty][:, None]
    empty = np.nonzero(~nonempty)[0]
    if empty.size:
        order = np.argsort(-point_d2, kind="stable")
        new[empty] = X[order[: empty.size]]
    return new, inertia


def _kmeans(X: np.ndarray, k: int, iters: int, rng: np.random.Generator):
    centroids = _kmeanspp_init(X, k, rng)
    trace = []
    for _ in range(iters):
        new, inertia = _lloyd_step(X, centroids)
        trace.append(inertia)
        if np.array_equal(new, centroids):
            break
        centroids = new
    return centroids, trace


def _fit_residual_chain(X, R, Kp, iters, rng):
    """Plain sequential fitting: finalize each level before the next."""
    books = []
    traces = []
    residual = X.copy()
    for _ in range(R):
        book, trace = _kmeans(residual, Kp, iters, rng)
        books.append(book)
        traces.append(trace)
        residual = residual - book[_nearest(residual, book)]
    return books, traces


def _fit_residual_chain_dropout(X, R, Kp, iters, rng):
    """Variable-depth fitting: every iteration draws an effective depth
    d ~ U{1..R} and runs one Lloyd step on levels 1..d in turn, so early
    books see the residual statistics of truncated decoding."""
    books: list = [None] * R
    traces: list = [[] for _ in range(R)]
    for _ in range(iters):
        depth = int(rng.integers(1, R + 1))
        residual = X.copy()
        for r in range(depth):
            if books[r] is None:
                books[r] = _kmeanspp_init(residual, Kp, rng)
            new, inertia = _lloyd_step(residual, books[r])
            traces[r].append(inertia)
            books[r] = new
            residual = residual - books[r][_nearest(residual, books[r])]
    if any(b is None for b in books):
        raise FittingError(
            "quantizer dropout never drew the full depth; increase iters"
        )
    return books, traces


def fit_codebooks(features, config: FitConfig) -> CodecModel:
    """Fit a codec of the configured kind with Lloyd's algorithm.

    Deterministic under ``config.seed``.  Residual chains are fitted
    sequentially; with ``dropout`` (RVQ only) the chain is trained at a
    random effective depth per iteration instead.  Frames out of range are
    fitted scaled by 2^e (``_into_range``); the books are scaled back, and the
    inertias by 2^-2e, which raises ``ValueError`` if one leaves the float range.
    """
    X = _as_matrix(features, "features")
    _check_structure(config.kind, config.G, config.R, config.Kp)
    if config.dropout and config.kind != "RVQ":
        raise ValueError("quantizer dropout applies to RVQ fitting only")
    _at_least("iters", config.iters, 1)
    _at_least("seed", config.seed, 0)
    G, R = config.G, config.R
    if X.shape[1] % G != 0:
        raise ValueError(f"feature dim {X.shape[1]} not divisible by G={G}")
    dp = X.shape[1] // G
    if config.Kp > len(X):  # refused before any (Kp, dp) codebook is allocated
        distinct, Kp = len(np.unique(X, axis=0)), config.Kp
        raise FittingError(f"need at least {Kp} distinct frames to fit {Kp} codes, got {distinct}")
    rng = np.random.default_rng(config.seed)
    exponent, (X,) = _into_range(X)
    fit_chain = _fit_residual_chain_dropout if config.dropout else _fit_residual_chain
    chains = [fit_chain(X[:, g * dp : (g + 1) * dp], R, config.Kp, config.iters, rng)
              for g in range(G)]  # (books, traces) per group
    codebooks = [np.ldexp(chains[g][0][r], -exponent) for r in range(R) for g in range(G)]
    traces = [[_scaled_back(v, 2 * exponent, _SQUARES_OVERFLOW) for v in chains[g][1][r]]
              for r in range(R) for g in range(G)]
    return CodecModel(
        kind=config.kind, G=G, R=R, Kp=config.Kp,
        codebooks=codebooks, inertia_traces=traces,
    )


def reconstruction_report(features, model: CodecModel) -> list[float]:
    """MSE at each depth of ``_depths``, from the shallowest."""
    X = _as_matrix(features, "features")
    grid, _ = quantize(X, model)
    # a residual book never changes the tokens of the books before it, so
    # the first d rows of the full-depth grid are the depth-d encoding, and
    # one decode passes through every depth's reconstruction
    decodes = enumerate(_partial_decodes(grid, model))
    return [_mse(X, recon) for depth, recon in decodes if depth in _depths(model)]


def _mse(X: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared reconstruction error, computed on ``X`` and ``recon`` scaled
    into range (``_into_range``); ``ValueError`` if it leaves the float range."""
    exponent, (X, recon) = _into_range(X, recon)
    return _scaled_back(np.mean((X - recon) ** 2), 2 * exponent, _SQUARES_OVERFLOW)


def save_codec(path, model: CodecModel) -> None:
    atomic_write_text(path, json.dumps({
        "kind": model.kind,
        "G": model.G,
        "R": model.R,
        "Kp": model.Kp,
        "codebooks": [b.tolist() for b in model.codebooks],
    }))


def _as_books(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of matrices, got {type(value).__name__}")
    books = []
    for b, book in enumerate(value):
        try:
            books.append(_numbers(book, 2))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {b} is not a numeric matrix: {exc}") from None
    return books


def load_codec(path) -> CodecModel:
    payload = _load_object(path, "codec")
    return CodecModel(
        kind=_field(payload, "kind", str, "codec"),
        G=_field(payload, "G", _integer, "codec"),
        R=_field(payload, "R", _integer, "codec"),
        Kp=_field(payload, "Kp", _integer, "codec"),
        codebooks=_field(payload, "codebooks", _as_books, "codec"),
    )


def load_features(path) -> np.ndarray:
    with warnings.catch_warnings():
        # NumPy warns about a file without data rows; the error below says it
        warnings.simplefilter("ignore", UserWarning)
        X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if X.size == 0:
        raise ValueError(f"no feature frames in {path}")
    return _as_matrix(X, "features")


def save_features(path, features) -> None:
    """One CSV line of ``repr`` values per frame, formatted and written
    ``_CSV_BLOCK_VALUES`` values at a time."""
    X = _as_matrix(features, "features")
    rows = max(1, _CSV_BLOCK_VALUES // X.shape[1])
    atomic_write_text(path, (
        "".join(",".join(map(repr, row)) + "\n" for row in X[lo : lo + rows].tolist())
        for lo in range(0, len(X), rows)
    ))
